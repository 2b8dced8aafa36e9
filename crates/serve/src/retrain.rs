//! The online retraining loop: served methods come in, observed trace
//! records accumulate, and every `retrain_every` records the learner
//! re-runs and hot-swaps the deployed filter.
//!
//! Observation happens *off* the hot path: the workers schedule against
//! the compiled snapshot with no instrumentation, and this thread
//! re-runs the full instrumented collector
//! ([`collect_method_trace`]) over the same methods to produce the
//! labeled records — exactly the ones the offline pipeline would have
//! collected, so an online-retrained filter and an offline-trained one
//! see the same training distribution.
//!
//! The records are labeled once, as they arrive, into an incremental
//! [`TrainingSet`] seeded with the seed corpus; a fold trains on that
//! set, so its cost is the fit alone and the filter it publishes is the
//! one [`train_filter`](wts_core::train_filter) would train on the seed
//! traces followed by every absorbed record. The raw [`TraceRecord`]s
//! are kept only when `ServeConfig::persist_corpus` asks for them to be
//! written at shutdown; otherwise each batch's records are dropped as
//! soon as they are labeled.

use crate::server::ServeConfig;
use std::sync::mpsc::Receiver;
use wts_core::{collect_method_trace, write_trace_binary, FilterKey, FilterStore, TraceRecord, TrainingSet};
use wts_ir::Method;

/// What the retraining thread did over the instance's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetrainReport {
    /// Observed trace records absorbed into the training corpus — one
    /// per served scope unit, so a lossless drain means this equals the
    /// server's `units_served`.
    pub records_absorbed: u64,
    /// Completed fold-and-swap cycles (including the final drain fold).
    pub retrains: u64,
    /// Epoch of the last filter this thread published (0 when it never
    /// swapped).
    pub last_epoch: u64,
    /// Corpus records written to `ServeConfig::persist_corpus` at
    /// shutdown (seed traces plus absorbed observations). 0 when
    /// persistence is not configured or the write failed.
    pub records_persisted: u64,
}

/// Runs until every sender hangs up, then performs a final fold if any
/// records are pending and returns the tally. `training` holds the
/// labeled seed corpus; `corpus` holds its raw records when the config
/// persists the corpus, and is `None` otherwise.
pub(crate) fn retrain_loop(
    rx: &Receiver<(String, Vec<Method>)>,
    store: &FilterStore,
    key: &FilterKey,
    config: &ServeConfig,
    mut training: TrainingSet,
    mut corpus: Option<Vec<TraceRecord>>,
) -> RetrainReport {
    let options = config.options;
    let train_config = config.train_config();
    let mut pending = 0usize;
    let mut report = RetrainReport::default();
    let fold = |training: &TrainingSet, report: &mut RetrainReport| {
        report.last_epoch = store.swap(key.clone(), training.train(&train_config)).epoch();
        report.retrains += 1;
    };
    while let Ok((benchmark, methods)) = rx.recv() {
        for method in &methods {
            let records = collect_method_trace(&benchmark, method, &config.machine, &options);
            report.records_absorbed += records.len() as u64;
            pending += records.len();
            training.extend(&records);
            if let Some(corpus) = &mut corpus {
                corpus.extend(records);
            }
        }
        if config.retrain_every > 0 && pending >= config.retrain_every {
            fold(&training, &mut report);
            pending = 0;
        }
    }
    // The senders are gone: the queue is fully drained. Records that
    // arrived since the last fold still deserve to influence the filter
    // a restarted instance would seed from.
    if config.retrain_every > 0 && pending > 0 {
        fold(&training, &mut report);
    }
    if let (Some(path), Some(corpus)) = (&config.persist_corpus, &corpus) {
        report.records_persisted = persist(path, corpus);
    }
    report
}

/// Writes the corpus to `path` in the `schedfilter-trace-bin-v1`
/// format. Persistence is best-effort: a failed encode or write is
/// reported on stderr and the drain still completes, because losing a
/// seed corpus must never turn a clean shutdown into a panic.
fn persist(path: &std::path::Path, corpus: &[TraceRecord]) -> u64 {
    let bytes = match write_trace_binary(corpus) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("wts-serve: failed to encode the retrain corpus for {}: {e}", path.display());
            return 0;
        }
    };
    match std::fs::write(path, bytes) {
        Ok(()) => corpus.len() as u64,
        Err(e) => {
            eprintln!("wts-serve: failed to persist the retrain corpus to {}: {e}", path.display());
            0
        }
    }
}
