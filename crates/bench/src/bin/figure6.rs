//! Regenerates Figure 6 of the paper.

fn main() -> std::process::ExitCode {
    dashlat_bench::figure_main(6)
}
