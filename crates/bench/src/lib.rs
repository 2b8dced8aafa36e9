//! Shared settings for the Criterion benches that regenerate the paper's
//! timing claims (Figures 1(a), 2(a), 3(a)) and the component-cost
//! ablations called out in DESIGN.md §5.
//!
//! The benches live in `benches/`; run them with `cargo bench`.

/// Corpus scale used by the benches: large enough to be representative,
/// small enough that `cargo bench` completes in minutes.
pub const BENCH_SCALE: f64 = 0.05;
