//! The one argument reader behind every front end: the `dashlat` CLI,
//! the bench binaries, repro-bundle replay and the daemon's job specs.
//!
//! [`Args`] is a cursor over an argument vector. Flags may come in any
//! order; each read removes what it consumes, and [`Args::finish`]
//! rejects whatever no read asked for. A flag given twice is an error
//! that names it, except for the repeatable flags read with
//! [`Args::values`].
//!
//! ```
//! use dashlat::args::Args;
//!
//! let argv = ["--workers", "4", "--isolate", "extra"].map(String::from);
//! let mut args = Args::new(argv.to_vec());
//! assert_eq!(args.value_in("--workers", 1..).unwrap(), Some(4usize));
//! assert!(args.switch("--isolate").unwrap());
//! assert_eq!(args.positional().as_deref(), Some("extra"));
//! assert!(args.finish().is_ok());
//! ```

use std::fmt::{Debug, Display};
use std::ops::RangeBounds;
use std::str::FromStr;

/// A cursor over a command line (without the program name). Every error
/// is a user-facing message that names the flag.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wraps an argument vector.
    pub fn new(argv: Vec<String>) -> Self {
        Self { rest: argv }
    }

    /// Removes `flag` and returns where it stood; errors when it is
    /// given more than once.
    fn take(&mut self, flag: &str) -> Result<Option<usize>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        self.rest.remove(i);
        if self.rest[i..].iter().any(|a| a == flag) {
            return Err(format!("{flag} given more than once"));
        }
        Ok(Some(i))
    }

    /// Removes and parses the value that followed `flag` at `i`.
    fn value_at<T, E: Display>(
        &mut self,
        flag: &str,
        i: usize,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        if i >= self.rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = self.rest.remove(i);
        parse(&v).map_err(|e| format!("bad {flag} value {v:?}: {e}"))
    }

    /// Takes a switch: true when `flag` is present.
    pub fn switch(&mut self, flag: &str) -> Result<bool, String> {
        Ok(self.take(flag)?.is_some())
    }

    /// Takes `flag`'s value through `parse`; `None` when it is absent.
    pub fn value_with<T, E: Display>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        match self.take(flag)? {
            Some(i) => self.value_at(flag, i, parse).map(Some),
            None => Ok(None),
        }
    }

    /// Takes `flag`'s value parsed through [`FromStr`]; `None` when it
    /// is absent.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value_with(flag, str::parse)
    }

    /// Like [`Args::value`], and the value must lie in `range`.
    pub fn value_in<T, R>(&mut self, flag: &str, range: R) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd,
        T::Err: Display,
        R: RangeBounds<T> + Debug,
    {
        match self.value(flag)? {
            Some(v) if !range.contains(&v) => Err(format!("{flag} must be in {range:?}")),
            v => Ok(v),
        }
    }

    /// Takes every value of a repeatable flag, in order.
    pub fn values<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let mut out = Vec::new();
        while let Some(i) = self.rest.iter().position(|a| a == flag) {
            self.rest.remove(i);
            out.push(self.value_at(flag, i, str::parse)?);
        }
        Ok(out)
    }

    /// Takes the next positional argument: the first one no read has
    /// consumed yet.
    pub fn positional(&mut self) -> Option<String> {
        (!self.rest.is_empty()).then(|| self.rest.remove(0))
    }

    /// Takes every argument no read has consumed yet, in order.
    pub fn rest(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rest)
    }

    /// Ends the read; errors naming the first argument no read consumed.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            Some(extra) => Err(format!("unrecognized argument {extra:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn reads_flags_in_any_order_and_rejects_leftovers() {
        let mut a = args("pos --n 3 --on --app x --app y");
        assert_eq!(a.values::<String>("--app").unwrap(), ["x", "y"]);
        assert!(a.switch("--on").unwrap() && !a.switch("--off").unwrap());
        assert_eq!(a.value_in("--n", 1..=5).unwrap(), Some(3u32));
        assert_eq!(a.value::<u32>("--absent").unwrap(), None);
        assert_eq!(a.rest(), ["pos"]);
        assert!(a.finish().is_ok());
        assert!(args("--left").finish().unwrap_err().contains("--left"));
    }

    #[test]
    fn every_error_names_the_flag() {
        for line in ["--n 1 --n 1", "--n", "--n x", "--n 9"] {
            let err = args(line).value_in::<u32, _>("--n", 1..=5).unwrap_err();
            assert!(err.contains("--n"), "{line}: {err}");
        }
        assert!(args("--on --on")
            .switch("--on")
            .unwrap_err()
            .contains("--on"));
        let err = args("--app x --app").values::<String>("--app").unwrap_err();
        assert!(err.contains("--app"), "{err}");
    }
}
