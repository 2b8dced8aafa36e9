//! The RIPPER fit oracle on a realistic corpus: the column-store fit
//! must reproduce the row-wise reference fit exactly (rules, threshold
//! bits and per-rule stats) on the corpus an online-retraining server
//! folds. The generated-dataset cases live in
//! `crates/ripper/tests/prop_fit_oracle.rs`, which owns the reference.

#[path = "../crates/ripper/tests/reference/mod.rs"]
mod reference;

use reference::assert_matches_reference;
use wts_core::{build_dataset, collect_method_trace, collect_trace_with, LabelConfig, TimingMode, TraceOptions};
use wts_machine::MachineConfig;
use wts_ripper::RipperConfig;

/// The seed trace of a jvm98 suite plus every method traced once more:
/// the corpus a retraining server folds after serving each method once
/// (about 6k records, every row duplicated).
#[test]
fn jvm98_retrain_corpus_equals_the_reference() {
    let machine = MachineConfig::ppc7410();
    let options = TraceOptions { timing: TimingMode::Deterministic, ..TraceOptions::default() };
    let suite = wts_jit::Suite::specjvm98(0.07);
    let mut traces: Vec<_> =
        suite.benchmarks().iter().flat_map(|b| collect_trace_with(b.program(), &machine, &options)).collect();
    for b in suite.benchmarks() {
        for m in b.program().methods() {
            traces.extend(collect_method_trace(b.name(), m, &machine, &options));
        }
    }
    assert!(traces.len() > 5000, "a retrain-sized corpus, got {}", traces.len());
    for threshold in [0, 20] {
        let (data, _) = build_dataset(&traces, LabelConfig::new(threshold));
        let model = assert_matches_reference(&data, &RipperConfig::default());
        assert!(!model.is_empty(), "t={threshold}");
    }
}
