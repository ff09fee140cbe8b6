//! Scoped worker pool for parallel sweeps.
//!
//! Every paper figure is a matrix of *independent, deterministic* cells:
//! each cell builds its own machine, memory system and workload from a
//! `(config, seed)` pair and shares nothing mutable with its neighbours. A
//! sweep therefore parallelises embarrassingly — the only requirements are
//! that results come back keyed by cell index (never by completion order)
//! and that a panicking cell stays isolated. [`par_indexed_map_while`] is
//! the one pool every set of cells runs on (figure matrices, supervised
//! sweeps, sweep batches); runs themselves stay single-threaded, so
//! per-cell results are bit-identical to serial execution.
//!
//! Every pool sizes itself by one rule, [`worker_count`]: the requested
//! count, else the process-wide default pinned with [`set_default_jobs`]
//! (the CLI and bench binaries wire their `--jobs N` flag to it), clamped
//! to the hardware's cores and to the number of items.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Process-wide default worker count; 0 means "not set, use
/// `available_parallelism`".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Pins the process-wide default worker count used when a sweep is run
/// without an explicit `jobs` argument. `None` restores the default
/// (`available_parallelism`). Values are clamped to at least 1.
pub fn set_default_jobs(jobs: Option<usize>) {
    DEFAULT_JOBS.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// The parallelism the hardware actually offers
/// ([`std::thread::available_parallelism`], 1 when unknown). Pools clamp
/// their worker count to this: workers beyond the core count only add
/// scheduler thrash (the source of the sub-1.0 "speedups" in early BENCH
/// files), and bench reports record it so throughput numbers can be read
/// against the machine that produced them.
pub fn hardware_cores() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The requested worker count: the explicit `requested` value if given,
/// else the process-wide default from [`set_default_jobs`], else
/// [`hardware_cores`]. Never less than 1. This is what the user asked
/// for; [`worker_count`] is what a pool actually spawns.
pub fn effective_jobs(requested: Option<usize>) -> usize {
    requested
        .filter(|&n| n > 0)
        .or_else(|| {
            let d = DEFAULT_JOBS.load(Ordering::Relaxed);
            (d > 0).then_some(d)
        })
        .unwrap_or_else(hardware_cores)
}

/// The number of workers a pool runs `items` items on: [`effective_jobs`]
/// clamped to [`hardware_cores`] and to `items`, never less than 1.
pub fn worker_count(requested: Option<usize>, items: usize) -> usize {
    effective_jobs(requested)
        .min(hardware_cores())
        .min(items)
        .max(1)
}

/// Applies `f` to every item on a scoped pool of
/// [`worker_count`]`(jobs, items.len())` workers, checking `keep_going()`
/// before starting each item, and returns the results **in input order**
/// (keyed by item index, not completion order).
///
/// Once `keep_going()` returns `false` no further item starts: items that
/// never started are `None`, and items already in flight are finished
/// normally (drained), so a caller that journals per-item results never
/// loses a completed item. This is the cooperative-cancellation seam the
/// supervised sweep and the service use; callers that never cancel pass
/// `|| true` and get `Some` in every slot.
///
/// Work is handed out through a shared atomic cursor, so item-to-worker
/// assignment varies between runs — which is exactly why results are
/// written into their input slot instead of being collected. `f` must
/// contain its own panic isolation if items may panic (the cell runners
/// all capture panics per cell); a panic that does escape `f` aborts the
/// whole sweep when the scope joins.
///
/// With one worker `f` runs inline on the caller's thread: the serial
/// path stays thread-free.
pub fn par_indexed_map_while<T, R, F, C>(
    jobs: Option<usize>,
    items: &[T],
    keep_going: C,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: Fn() -> bool + Sync,
{
    let workers = worker_count(jobs, items.len());
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| keep_going().then(|| f(i, t)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if !keep_going() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn preserves_input_order_serial_and_parallel() {
        let items: Vec<usize> = (0..100).collect();
        let run = |jobs| {
            par_indexed_map_while(
                Some(jobs),
                &items,
                || true,
                |i, &x| {
                    assert_eq!(i, x);
                    x * 2
                },
            )
        };
        let serial = run(1);
        assert_eq!(serial, (0..100).map(|x| Some(x * 2)).collect::<Vec<_>>());
        assert_eq!(run(8), serial);
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u8> = Vec::new();
        assert!(par_indexed_map_while(Some(4), &none, || true, |_, &x| x).is_empty());
        assert_eq!(
            par_indexed_map_while(Some(4), &[7u8], || true, |_, &x| x),
            vec![Some(7)]
        );
    }

    #[test]
    fn cancellation_drains_in_flight_items_and_skips_the_rest() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 4] {
            let last = worker_count(Some(jobs), items.len()) - 1;
            let stop = AtomicBool::new(false);
            // Each worker takes one of items 0..=last first; item `last`
            // flips the flag while the others hold their workers until it
            // is set, so no worker can fetch another item before
            // cancellation is visible.
            let out = par_indexed_map_while(
                Some(jobs),
                &items,
                || !stop.load(Ordering::SeqCst),
                |i, &x| {
                    if i == last {
                        stop.store(true, Ordering::SeqCst);
                    } else {
                        while !stop.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                    x
                },
            );
            // Exactly the in-flight items drained; everything else skipped.
            for (i, slot) in out.iter().enumerate() {
                if i <= last {
                    assert_eq!(*slot, Some(i), "in-flight item {i} must drain");
                } else {
                    assert_eq!(*slot, None, "item {i} must not start after cancel");
                }
            }
        }
    }

    #[test]
    fn worker_count_resolution() {
        let cores = hardware_cores();
        assert!(effective_jobs(None) >= 1);
        assert_eq!(effective_jobs(Some(3)), 3);
        set_default_jobs(Some(2));
        assert_eq!(effective_jobs(None), 2);
        assert_eq!(effective_jobs(Some(5)), 5);
        assert_eq!(worker_count(None, 100), 2.min(cores));
        set_default_jobs(None);
        assert!(effective_jobs(None) >= 1);
        // Clamped to the hardware and to the item count, never zero.
        assert_eq!(worker_count(Some(cores + 7), 1000), cores);
        assert_eq!(worker_count(Some(64), 3), 3.min(cores));
        assert_eq!(worker_count(Some(64), 0), 1);
    }
}
