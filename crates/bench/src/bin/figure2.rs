//! Regenerates Figure 2 of the paper.

fn main() -> std::process::ExitCode {
    dashlat_bench::figure_main(2)
}
