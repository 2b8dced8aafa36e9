//! The unified §2.2 pipeline: **trace → label → train → evaluate** as
//! one composable, parallelizable unit.
//!
//! The seed wired these four stages by hand at every call site —
//! [`collect_trace`](crate::collect_trace), then
//! [`build_dataset`](crate::build_dataset), then
//! [`train_filter`](crate::train_filter) /
//! [`train_loocv`](crate::train_loocv), then the eval functions — and
//! each of the table/figure regenerators re-plumbed the same steps.
//! [`Experiment`] owns the sequence end to end:
//!
//! 1. **Trace** maps to §2.2's instrumented scheduling pass: every block
//!    of every benchmark program is feature-extracted and list-scheduled,
//!    with cycle counts from a configurable pair of
//!    [`CostProvider`](wts_machine::CostProvider)s (the "simplified
//!    simulator" for labeling, the detailed model standing in for
//!    hardware). Collection shards across methods with scoped threads
//!    and is bit-identical to the serial path.
//! 2. **Label** maps to §2.2's thresholding: an instance is `LS` when
//!    scheduling improved the estimate by more than `t`%, `NS` when it
//!    did not improve at all, and dropped in between (§4.4's
//!    noise-reduction trick).
//! 3. **Train** maps to §2.3: RIPPER induces an if-then rule set; the
//!    paper's evaluation protocol is leave-one-benchmark-out
//!    cross-validation, sharded across folds.
//! 4. **Evaluate** maps to §3: [`ExperimentRun::folds`] scores each
//!    held-out benchmark once, and every artifact reads those rows —
//!    classification accuracy (Table 3), predicted times (Table 4),
//!    run-time classification (Table 6), scheduling-time and
//!    application-time ratios (Figures 1–3).
//!
//! ```
//! use wts_core::Experiment;
//! use wts_ir::{BasicBlock, Inst, MemRef, MemSpace, Method, Opcode, Program, Reg};
//! use wts_machine::MachineConfig;
//!
//! let mut p = Program::new("demo");
//! let mut m = Method::new(0, "m0");
//! let mut b = BasicBlock::new(0);
//! b.push(Inst::new(Opcode::Lwz).def(Reg::gpr(1)).use_(Reg::gpr(9))
//!     .mem(MemRef::slot(MemSpace::Heap, 0)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)));
//! b.push(Inst::new(Opcode::Add).def(Reg::gpr(3)).use_(Reg::gpr(8)).use_(Reg::gpr(8)));
//! m.push_block(b);
//! p.push_method(m);
//!
//! let run = Experiment::new(MachineConfig::ppc7410()).run(vec![p]);
//! assert_eq!(run.names(), ["demo"]);
//! assert_eq!(run.all_traces().len(), 1);
//! ```

use crate::eval::{app_time_ratio, classification_matrix, predicted_time_ratio, sched_time_policy, EvalTimes};
use crate::label::{build_dataset, LabelConfig};
use crate::learner::{Learner, LearnerKind};
use crate::matrix::PortfolioEntry;
use crate::policy::DecisionPolicy;
use crate::store::{FilterKey, FilterStore};
use crate::trace::{collect_trace_with, TimingMode, TraceOptions, TraceRecord};
use crate::train::{train_loocv_sharded, TrainConfig};
use crate::{Filter, LearnedFilter};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use wts_ir::{Program, ScopeKind};
use wts_machine::MachineConfig;
use wts_ripper::{geometric_mean, ConfusionMatrix, Dataset};
use wts_sched::SchedulePolicy;

/// Name-sorted `(benchmark, filter)` pairs from one LOOCV training run.
/// `Arc`'d so a fold set published in the [`FilterStore`] can be shared
/// across threads (a serving retrainer, the sharded matrix).
pub type LoocvFilters = Arc<Vec<(String, LearnedFilter)>>;

/// Configuration of the whole trace→label→train→evaluate pipeline.
///
/// Build one with [`Experiment::new`] and the `with_*` methods, then
/// [`run`](Experiment::run) it over a suite of programs. Scheduler
/// policy selection lives here — not at the call sites — so an ablation
/// swaps policies by building a second `Experiment`, nothing else.
#[derive(Debug, Clone)]
pub struct Experiment {
    machine: MachineConfig,
    policy: SchedulePolicy,
    trace_threads: usize,
    train_threads: usize,
    timing: TimingMode,
    scope: ScopeKind,
}

impl Experiment {
    /// A pipeline over `machine` with the paper's defaults: CPS
    /// scheduling, cheap estimator for labels, detailed simulator as the
    /// hardware stand-in, default RIPPER settings, one worker thread per
    /// available core, wall-clock timing.
    pub fn new(machine: MachineConfig) -> Experiment {
        Experiment {
            machine,
            policy: SchedulePolicy::CriticalPath,
            trace_threads: 0,
            train_threads: 0,
            timing: TimingMode::WallClock,
            scope: ScopeKind::Block,
        }
    }

    /// Retargets the pipeline at a different machine, keeping every other
    /// setting. The cross-machine [`ExperimentMatrix`](crate::ExperimentMatrix)
    /// stamps one pipeline per registry machine out of a single template
    /// this way.
    pub fn with_machine(mut self, machine: MachineConfig) -> Experiment {
        self.machine = machine;
        self
    }

    /// Selects the scheduler policy the instrumented pass runs.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Experiment {
        self.policy = policy;
        self
    }

    /// Sets the worker-thread count for tracing and LOOCV training
    /// (`0` = one per available core, `1` = fully serial).
    pub fn with_threads(mut self, threads: usize) -> Experiment {
        self.trace_threads = threads;
        self.train_threads = threads;
        self
    }

    /// Sets the trace-stage worker count alone. Serial tracing keeps the
    /// wall-clock `*_ns` channels free of multi-worker cache contention,
    /// which matters when those channels feed published timing artifacts;
    /// the cycle-count channels are thread-count invariant either way.
    pub fn with_trace_threads(mut self, threads: usize) -> Experiment {
        self.trace_threads = threads;
        self
    }

    /// Switches the `*_ns` channels to the deterministic work proxies,
    /// making traces byte-identical run to run.
    pub fn with_timing(mut self, timing: TimingMode) -> Experiment {
        self.timing = timing;
        self
    }

    /// Selects the scheduling scope: per basic block (the paper's
    /// scenario, the default) or per formed superblock trace (the §3.1
    /// extension). The whole pipeline follows — tracing collects one
    /// record per scope unit, labeling thresholds the (speculative)
    /// trace schedules against the cheap estimator, training induces
    /// "should I schedule this trace?" filters, and the deployed
    /// [`filtered_schedule_pass`](crate::filtered_schedule_pass)
    /// decides per unit.
    pub fn with_scope(mut self, scope: ScopeKind) -> Experiment {
        self.scope = scope;
        self
    }

    /// The modelled machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The scheduler policy the pipeline runs.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The scheduling scope the pipeline operates on.
    pub fn scope(&self) -> ScopeKind {
        self.scope
    }

    /// The trace-stage options this configuration denotes.
    pub fn trace_options(&self) -> TraceOptions {
        TraceOptions {
            policy: self.policy,
            threads: self.trace_threads,
            timing: self.timing,
            scope: self.scope,
            ..TraceOptions::default()
        }
    }

    /// Stage 1 alone: the instrumented scheduling pass over one program,
    /// sharded across its methods.
    pub fn trace(&self, program: &Program) -> Vec<TraceRecord> {
        collect_trace_with(program, &self.machine, &self.trace_options())
    }

    /// Runs the trace stage over a whole suite and packages the result
    /// as an [`ExperimentRun`], from which labeled datasets, trained
    /// filters and every paper artifact derive on demand.
    pub fn run(&self, programs: Vec<Program>) -> ExperimentRun {
        let traces: Vec<Vec<TraceRecord>> = programs.iter().map(|p| self.trace(p)).collect();
        self.run_precomputed(Rc::new(programs), traces)
    }

    /// Rebuilds an [`ExperimentRun`] from a serialized trace corpus
    /// instead of re-tracing — the "ship training sets to end users"
    /// workflow of footnote 4. The bytes are a `schedfilter-trace-bin-v1`
    /// corpus ([`read_trace_binary`](crate::read_trace_binary)); records
    /// regroup onto `programs` by benchmark name, in program order,
    /// exactly undoing [`ExperimentRun::serialize_traces`].
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Read`] when the bytes fail to parse, and
    /// [`CorpusError::Mismatch`] when the records do not line up with
    /// `programs` (an unknown benchmark, or records out of program
    /// order).
    pub fn run_from_serialized(&self, programs: Vec<Program>, bytes: &[u8]) -> Result<ExperimentRun, CorpusError> {
        let records = crate::read_trace_binary(bytes).map_err(CorpusError::Read)?;
        let mut traces: Vec<Vec<TraceRecord>> = programs.iter().map(|_| Vec::new()).collect();
        let mut it = records.into_iter().peekable();
        for (slot, program) in traces.iter_mut().zip(&programs) {
            while it.peek().is_some_and(|r| r.benchmark == program.name()) {
                slot.push(it.next().expect("peeked"));
            }
        }
        if let Some(r) = it.next() {
            let known = programs.iter().any(|p| p.name() == r.benchmark);
            return Err(CorpusError::Mismatch {
                benchmark: r.benchmark,
                detail: if known {
                    "records are not grouped in program order".to_string()
                } else {
                    "no such program in this run's suite".to_string()
                },
            });
        }
        Ok(self.run_precomputed(Rc::new(programs), traces))
    }

    /// Packages already-collected per-program traces as an
    /// [`ExperimentRun`] under this configuration, backed by a fresh
    /// private [`FilterStore`]. The matrix runner shards trace
    /// collection itself (over machines×methods) and hands the
    /// reassembled pieces here; the shared `Rc` lets every per-machine
    /// run borrow one corpus instead of deep-copying it.
    pub(crate) fn run_precomputed(&self, programs: Rc<Vec<Program>>, traces: Vec<Vec<TraceRecord>>) -> ExperimentRun {
        self.run_precomputed_in(FilterStore::shared(), programs, traces)
    }

    /// [`run_precomputed`](Experiment::run_precomputed) against a caller
    /// supplied store. Runs sharing one store must differ in at least
    /// one [`FilterKey`] component — the matrix qualifies because every
    /// per-machine run keys by its own machine name.
    pub(crate) fn run_precomputed_in(
        &self,
        store: Arc<FilterStore>,
        programs: Rc<Vec<Program>>,
        traces: Vec<Vec<TraceRecord>>,
    ) -> ExperimentRun {
        debug_assert_eq!(programs.len(), traces.len(), "one trace vector per program");
        let names: Vec<String> = programs.iter().map(|p| p.name().to_string()).collect();
        let all_traces: Vec<TraceRecord> = traces.iter().flat_map(|t| t.iter().cloned()).collect();
        ExperimentRun {
            scope: self.scope,
            threads: self.train_threads,
            machine_name: self.machine.name().to_string(),
            names,
            programs,
            traces,
            all_traces,
            store,
        }
    }
}

/// An error rebuilding a run from serialized traces
/// ([`Experiment::run_from_serialized`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// The bytes are not a valid `schedfilter-trace-bin-v1` corpus.
    Read(crate::BinaryTraceError),
    /// The parsed records do not line up with the supplied programs.
    Mismatch {
        /// Benchmark name of the first record that failed to place.
        benchmark: String,
        /// Why it failed to place.
        detail: String,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Read(e) => write!(f, "{e}"),
            CorpusError::Mismatch { benchmark, detail } => {
                write!(f, "trace corpus does not match the program suite at benchmark {benchmark:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Read(e) => Some(e),
            CorpusError::Mismatch { .. } => None,
        }
    }
}

/// The output of the trace stage plus lazily computed label / train /
/// evaluate stages. Trained filters live in the run's [`FilterStore`]
/// — keyed per `(machine, learner, scope, threshold)` — rather than in
/// private caches, so the same filters the tables report are the ones
/// a JIT session or a serving daemon deploys.
pub struct ExperimentRun {
    scope: ScopeKind,
    threads: usize,
    machine_name: String,
    names: Vec<String>,
    programs: Rc<Vec<Program>>,
    traces: Vec<Vec<TraceRecord>>,
    all_traces: Vec<TraceRecord>,
    store: Arc<FilterStore>,
}

impl ExperimentRun {
    /// Benchmark names, in program order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The traced programs, in the order given to [`Experiment::run`].
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Per-benchmark traces, parallel to [`names`](ExperimentRun::names).
    pub fn traces(&self) -> &[Vec<TraceRecord>] {
        &self.traces
    }

    /// All benchmarks' traces, concatenated in program order.
    pub fn all_traces(&self) -> &[TraceRecord] {
        &self.all_traces
    }

    /// Serializes the whole trace corpus in the binary
    /// `schedfilter-trace-bin-v1` encoding
    /// ([`write_trace_binary`](crate::write_trace_binary)), ready to be
    /// reloaded with [`Experiment::run_from_serialized`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceWriteError`](crate::TraceWriteError) when a
    /// record carries a non-finite feature value.
    pub fn serialize_traces(&self) -> Result<Vec<u8>, crate::TraceWriteError> {
        crate::write_trace_binary(&self.all_traces)
    }

    /// One benchmark's trace, by name.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the run's benchmarks.
    pub fn trace_for(&self, bench: &str) -> &[TraceRecord] {
        let i = self.index_of(bench);
        &self.traces[i]
    }

    fn index_of(&self, bench: &str) -> usize {
        self.names.iter().position(|n| n == bench).unwrap_or_else(|| panic!("no benchmark {bench} in this run"))
    }

    /// The train config this run uses at threshold `t`: RIPPER
    /// ([`LearnerKind::default`]) at the run's scope.
    pub fn train_config(&self, t: u32) -> TrainConfig {
        TrainConfig::with_threshold(t).with_scope(self.scope)
    }

    /// The scheduling scope this run's traces were collected at.
    pub fn scope(&self) -> ScopeKind {
        self.scope
    }

    /// Stage 2: the labeled RIPPER dataset at threshold `t`, grouped by
    /// benchmark for leave-one-benchmark-out CV.
    pub fn dataset(&self, t: u32) -> (Dataset, BTreeMap<String, u32>) {
        build_dataset(&self.all_traces, LabelConfig::new(t))
    }

    /// Stage 3 (evaluation protocol): leave-one-benchmark-out filters at
    /// threshold `t` under RIPPER, cached across artifacts, trained with
    /// folds sharded across the configured worker threads.
    pub fn loocv_filters(&self, t: u32) -> LoocvFilters {
        self.loocv_filters_for(t, &LearnerKind::default())
    }

    /// [`loocv_filters`](ExperimentRun::loocv_filters) under an explicit
    /// backend — the portfolio path: the traced corpus is shared, only
    /// the training stage re-runs, and each `(learner, threshold)` pair
    /// occupies its own [`FilterStore`] fold slot.
    pub fn loocv_filters_for(&self, t: u32, learner: &LearnerKind) -> LoocvFilters {
        let config = TrainConfig::with_learner(t, learner.clone()).with_scope(self.scope);
        self.store.loocv_or_train(self.filter_key(t, learner), || {
            train_loocv_sharded(&self.all_traces, &config, self.threads)
        })
    }

    /// The filter trained for (i.e. *excluding*) the named benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the run's benchmarks.
    pub fn filter_for(&self, t: u32, bench: &str) -> LearnedFilter {
        let filters = self.loocv_filters(t);
        filters
            .iter()
            .find(|(n, _)| n == bench)
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| panic!("no filter for benchmark {bench}"))
    }

    /// Stage 3 ("at the factory", §3): one filter trained on the whole
    /// corpus at threshold `t` under RIPPER, published in the run's
    /// [`FilterStore`] (the cross-machine transfer table queries it
    /// repeatedly; a retrainer may later [`swap`](FilterStore::swap) the
    /// same slot).
    pub fn factory_filter(&self, t: u32) -> LearnedFilter {
        self.factory_filter_for(t, &LearnerKind::default())
    }

    /// [`factory_filter`](ExperimentRun::factory_filter) under an
    /// explicit backend, published per `(machine, learner, scope,
    /// threshold)`.
    pub fn factory_filter_for(&self, t: u32, learner: &LearnerKind) -> LearnedFilter {
        let config = TrainConfig::with_learner(t, learner.clone()).with_scope(self.scope);
        self.store
            .deployed_or_train(self.filter_key(t, learner), || crate::train_filter(&self.all_traces, &config))
            .source()
            .clone()
    }

    /// The machine name this run's filters are keyed under.
    pub fn machine_name(&self) -> &str {
        &self.machine_name
    }

    /// The [`FilterKey`] this run files threshold-`t` filters of
    /// `learner` under: its machine, the backend's canonical tag, and
    /// the run's scope.
    pub fn filter_key(&self, t: u32, learner: &LearnerKind) -> FilterKey {
        FilterKey::new(&self.machine_name, learner, self.scope, t)
    }

    /// The run's backing [`FilterStore`]. Each run gets a private store
    /// by default; the cross-machine matrix shares one across its
    /// per-machine runs, and a serving daemon can deploy (and hot-swap)
    /// straight out of it.
    pub fn store(&self) -> &Arc<FilterStore> {
        &self.store
    }

    /// Stage 4, the whole §3 evaluation in one pass: one [`FoldEval`] per
    /// benchmark, in [`names`](ExperimentRun::names) order (the tables'
    /// column order), each scoring that benchmark's own threshold-`t`
    /// LOOCV filter of `learner` against its held-out trace. Every paper
    /// table, figure, portfolio row and calibration row reads these rows.
    ///
    /// `cycles_per_work` picks the schedule/skip call behind
    /// [`times`](FoldEval::times): `None` is the paper's
    /// [`HardThreshold`](crate::DecisionPolicy::HardThreshold) (schedule
    /// iff a rule fired); `Some(c)` is the expected-benefit policy at
    /// operating point `c`, calibrated per fold on the *other*
    /// benchmarks' traces, so it is as honest as the LOOCV error numbers.
    /// The other fields do not depend on the policy.
    pub fn folds(&self, t: u32, learner: &LearnerKind, cycles_per_work: Option<f64>) -> Vec<FoldEval> {
        let filters = self.loocv_filters_for(t, learner);
        let label = LabelConfig::new(t);
        self.names
            .iter()
            .zip(&self.traces)
            .map(|(bench, trace)| {
                let (_, filter) = filters.iter().find(|(n, _)| n == bench).expect("one LOOCV fold per benchmark");
                let policy = cycles_per_work.map_or(DecisionPolicy::HardThreshold, |c| self.policy_for(bench, c));
                FoldEval {
                    bench: bench.clone(),
                    confusion: classification_matrix(trace, filter, label),
                    predicted_percent: predicted_time_ratio(trace, filter),
                    app_ratio: app_time_ratio(trace, filter),
                    times: sched_time_policy(trace, filter, &policy),
                    conditions: filter.rules().condition_count(),
                }
            })
            .collect()
    }

    /// One learner's full portfolio row on this run: its
    /// [`folds`](ExperimentRun::folds) aggregated — LOOCV classification
    /// error over every held-out fold, geometric-mean predicted/app time
    /// ratios, and the accumulated honest filter + extraction overhead.
    pub fn learner_eval(&self, t: u32, learner: &LearnerKind) -> PortfolioEntry {
        let folds = self.folds(t, learner, None);
        let mut confusion = ConfusionMatrix::default();
        for fold in &folds {
            confusion.accumulate(&fold.confusion);
        }
        let pred: Vec<f64> = folds.iter().map(|f| f.predicted_percent).collect();
        let app: Vec<f64> = folds.iter().map(|f| f.app_ratio).collect();
        PortfolioEntry {
            learner: learner.name(),
            error_percent: confusion.error_percent(),
            predicted_percent: geometric_mean(&pred),
            app_ratio: geometric_mean(&app),
            conditions: folds.iter().map(|f| f.conditions).sum(),
            times: total_times(&folds),
        }
    }

    /// The compiled engine form of `bench`'s LOOCV filter — flat
    /// condition table plus feature demand mask, ready for the deployed
    /// fast path ([`filtered_schedule_pass`](crate::filtered_schedule_pass))
    /// or batch classification.
    pub fn compiled_filter_for(&self, t: u32, bench: &str) -> crate::CompiledFilter {
        self.filter_for(t, bench).compile()
    }

    /// The leave-one-out calibrated expected-benefit policy for `bench`:
    /// the savings rate comes from every *other* benchmark's traces,
    /// mirroring the LOOCV training protocol — the held-out fold never
    /// calibrates its own model, just as it never trains its own filter.
    fn policy_for(&self, bench: &str, cycles_per_work: f64) -> DecisionPolicy {
        let i = self.index_of(bench);
        let others = self.traces.iter().enumerate().filter(|&(j, _)| j != i).flat_map(|(_, t)| t);
        DecisionPolicy::expected_benefit(others, cycles_per_work)
    }

    /// Count of trace records labeled `LS` at threshold `t` (Table 5).
    pub fn ls_instances(&self, t: u32) -> usize {
        let label = LabelConfig::new(t);
        self.all_traces.iter().filter(|r| label.label(r) == Some(true)).count()
    }

    /// Count of trace records labeled `NS` (constant across thresholds).
    pub fn ns_instances(&self) -> usize {
        let label = LabelConfig::new(0);
        self.all_traces.iter().filter(|r| label.label(r) == Some(false)).count()
    }
}

/// One held-out benchmark's row of the §3 evaluation
/// ([`ExperimentRun::folds`]): its own LOOCV filter scored on its trace
/// along every axis the paper reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldEval {
    /// The held-out benchmark.
    pub bench: String,
    /// Confusion against the threshold-`t` labels (Table 3).
    pub confusion: ConfusionMatrix,
    /// Predicted (cheap-estimator) time, percent of never-scheduling
    /// (Table 4).
    pub predicted_percent: f64,
    /// Measured application-time ratio, fraction of never-scheduling
    /// (Figures 1b/2b/3b).
    pub app_ratio: f64,
    /// Scheduling-time measurement versus always-scheduling under the
    /// fold's decision policy (Figures 1a/2a/3a). Its
    /// `scheduled_blocks` and `total_blocks − scheduled_blocks` are the
    /// run-time LS/NS counts (Table 6).
    pub times: EvalTimes,
    /// Lowered conditions in the fold's filter (model size).
    pub conditions: usize,
}

/// The folds' [`EvalTimes`] summed in fold order: one run's whole-corpus
/// row of the filter-cost, portfolio and calibration tables.
pub(crate) fn total_times(folds: &[FoldEval]) -> EvalTimes {
    let mut total = EvalTimes::default();
    for fold in folds {
        total.accumulate(&fold.times);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::sched_time_ratio;
    use crate::{AlwaysSchedule, NeverSchedule};

    /// The shared learnable three-benchmark suite, at six methods per
    /// program.
    fn suite() -> Vec<Program> {
        crate::testutil::learnable_suite(6)
    }

    fn run() -> ExperimentRun {
        Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic).run(suite())
    }

    #[test]
    fn run_preserves_program_order_and_counts() {
        let r = run();
        assert_eq!(r.names(), ["alpha", "beta", "gamma"]);
        assert_eq!(r.programs().len(), 3);
        assert_eq!(r.traces().len(), 3);
        assert_eq!(r.all_traces().len(), 3 * 6 * 3);
        assert_eq!(r.trace_for("beta").len(), 18);
    }

    #[test]
    fn loocv_filters_are_cached_and_named() {
        let r = run();
        let a = r.loocv_filters(0);
        let b = r.loocv_filters(0);
        assert!(Arc::ptr_eq(&a, &b));
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn factory_filters_are_published_in_the_store() {
        let r = run();
        let f = r.factory_filter(0);
        let key = r.filter_key(0, &LearnerKind::default());
        assert_eq!(key.machine(), "ppc7410");
        let snap = r.store().get(&key).expect("factory filter published");
        assert_eq!(snap.epoch(), 1, "first publication of this key");
        assert_eq!(*snap.source(), f);
        assert_eq!(*snap.compiled(), f.compile(), "snapshot carries the lowered engine");
        // A second request is a store hit, not a retrain.
        let again = r.factory_filter(0);
        assert_eq!(again, f);
        assert_eq!(r.store().epoch(&key), Some(1), "cache hits do not advance the epoch");
    }

    #[test]
    fn pipeline_stages_compose() {
        let r = run();
        let (data, groups) = r.dataset(0);
        assert_eq!(groups.len(), 3);
        assert_eq!(data.len(), r.all_traces().len(), "t=0 labels every record");
        let alpha = &r.folds(0, &LearnerKind::default(), None)[0];
        assert_eq!(alpha.bench, "alpha");
        assert!(alpha.confusion.total() > 0);
        assert_eq!(alpha.times.total_blocks, r.trace_for("alpha").len());
        assert!(alpha.app_ratio <= 1.0 + 1e-9);
        assert_eq!(app_time_ratio(r.trace_for("alpha"), &NeverSchedule), 1.0);
        // The OoO hardware stand-in recovers these blocks' stalls, so the
        // measured channel only guarantees "no worse"; the benefit shows
        // on the estimated (cheap, in-order) channel.
        assert!(app_time_ratio(r.trace_for("alpha"), &AlwaysSchedule) <= 1.0);
        assert!(predicted_time_ratio(r.trace_for("alpha"), &AlwaysSchedule) < 100.0);
    }

    /// Every `FoldEval` field is the free eval function of that fold's
    /// LOOCV filter on its trace, rows follow `names()` (not the
    /// name-sorted fold order), and `Some(c)` swaps in exactly the
    /// leave-one-out expected-benefit policy.
    #[test]
    fn folds_match_the_eval_functions() {
        // Reversed program order: names() is gamma, beta, alpha while the
        // LOOCV folds are name-sorted.
        let block = Experiment::new(MachineConfig::ppc7410())
            .with_timing(TimingMode::Deterministic)
            .run(suite().into_iter().rev().collect());
        let sb = Experiment::new(MachineConfig::ppc7410())
            .with_timing(TimingMode::Deterministic)
            .with_scope(ScopeKind::Superblock(70))
            .run(crate::testutil::mergeable_suite(4));
        // The filter's own wall-clock timing is the one channel two
        // evaluations of the same fold need not share.
        let deterministic = |e: &EvalTimes| EvalTimes { filtered_ns: 0, ..*e };
        let ripper = LearnerKind::default();
        for r in [&block, &sb] {
            for t in [0, 20] {
                let label = LabelConfig::new(t);
                let hard = r.folds(t, &ripper, None);
                let benches: Vec<&str> = hard.iter().map(|f| f.bench.as_str()).collect();
                assert_eq!(benches, r.names(), "rows come in names() order");
                let c = 2.0;
                for (fold, eb) in hard.iter().zip(r.folds(t, &ripper, Some(c))) {
                    let trace = r.trace_for(&fold.bench);
                    let filter = r.filter_for(t, &fold.bench);
                    assert_eq!(fold.confusion, classification_matrix(trace, &filter, label));
                    assert_eq!(fold.predicted_percent, predicted_time_ratio(trace, &filter));
                    assert_eq!(fold.app_ratio, app_time_ratio(trace, &filter));
                    assert_eq!(fold.conditions, filter.rules().condition_count());
                    assert_eq!(deterministic(&fold.times), deterministic(&sched_time_ratio(trace, &filter)));
                    // Table 6's LS/NS counts, derived from the times.
                    let counts = crate::runtime_classification(trace, &filter);
                    let derived = (fold.times.scheduled_blocks, fold.times.total_blocks - fold.times.scheduled_blocks);
                    assert_eq!(derived, (counts.ls, counts.ns), "{}: t={t}", fold.bench);
                    // The policy moves only the times.
                    assert_eq!(
                        (&eb.bench, &eb.confusion, eb.conditions),
                        (&fold.bench, &fold.confusion, fold.conditions)
                    );
                    let policy = r.policy_for(&fold.bench, c);
                    assert_eq!(deterministic(&eb.times), deterministic(&sched_time_policy(trace, &filter, &policy)));
                }
            }
        }
    }

    #[test]
    fn ls_instances_shrink_with_threshold_ns_constant() {
        let r = run();
        assert!(r.ls_instances(0) >= r.ls_instances(25));
        assert!(r.ls_instances(25) >= r.ls_instances(50));
        assert_eq!(
            r.ns_instances() + r.ls_instances(0),
            r.all_traces().len(),
            "t=0 partitions all records into LS and NS"
        );
    }

    #[test]
    fn deterministic_runs_are_identical_across_thread_counts() {
        let serial = Experiment::new(MachineConfig::ppc7410())
            .with_threads(1)
            .with_timing(TimingMode::Deterministic)
            .run(suite());
        let sharded = Experiment::new(MachineConfig::ppc7410())
            .with_threads(7)
            .with_timing(TimingMode::Deterministic)
            .run(suite());
        assert_eq!(serial.all_traces(), sharded.all_traces());
        let a = serial.loocv_filters(10);
        let b = sharded.loocv_filters(10);
        assert_eq!(*a, *b, "fold-sharded training must match serial training");
    }

    #[test]
    fn policy_lives_in_the_pipeline_config() {
        let cps = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let rand = cps.clone().with_policy(SchedulePolicy::Random(7));
        assert_eq!(rand.policy(), SchedulePolicy::Random(7));
        let p = &suite()[0];
        let a = cps.trace(p);
        let b = rand.trace(p);
        let est_a: u64 = a.iter().map(|r| r.est_sched).sum();
        let est_b: u64 = b.iter().map(|r| r.est_sched).sum();
        assert!(est_a <= est_b, "CPS must not lose to the random policy");
    }

    #[test]
    #[should_panic(expected = "no benchmark nope")]
    fn unknown_benchmark_panics() {
        run().trace_for("nope");
    }

    #[test]
    fn serialized_corpus_round_trips_through_the_pipeline() {
        let exp = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let original = exp.run(suite());
        let bytes = original.serialize_traces().expect("generated corpus is finite");
        let reloaded = exp.run_from_serialized(suite(), &bytes).expect("own corpus reloads");
        assert_eq!(reloaded.names(), original.names());
        assert_eq!(reloaded.all_traces(), original.all_traces());
        assert_eq!(reloaded.traces(), original.traces(), "per-benchmark grouping survives");
        // Downstream stages agree: same filters without re-tracing.
        assert_eq!(*reloaded.loocv_filters(10), *original.loocv_filters(10));
    }

    #[test]
    fn mismatched_corpus_is_rejected_by_name() {
        let exp = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let bytes = exp.run(suite()).serialize_traces().unwrap();
        // Drop a program from the suite: its records no longer place.
        let mut short = suite();
        short.remove(1);
        let err = match exp.run_from_serialized(short, &bytes) {
            Err(e) => e,
            Ok(_) => panic!("orphan records must be rejected"),
        };
        match err {
            CorpusError::Mismatch { benchmark, detail } => {
                assert_eq!(benchmark, "beta");
                assert!(detail.contains("no such program"), "got: {detail}");
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Garbage bytes surface the reader's named error.
        let err = match exp.run_from_serialized(suite(), b"not a trace") {
            Err(e) => e,
            Ok(_) => panic!("garbage must be rejected"),
        };
        assert_eq!(err, CorpusError::Read(crate::BinaryTraceError::BadMagic));
    }

    /// A `schedfilter-trace-v2` text corpus — what `write_trace` and
    /// `repro dump` emit — is not a corpus anything reads back: handed
    /// to the loader it fails on the binary magic by name, with no
    /// records and no panic.
    #[test]
    fn text_corpus_is_rejected_with_bad_magic() {
        let exp = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic);
        let text = crate::write_trace(exp.run(suite()).all_traces()).expect("generated corpus is clean");
        assert!(text.starts_with("schedfilter-trace-v2\t"));
        match exp.run_from_serialized(suite(), text.as_bytes()) {
            Err(err) => assert_eq!(err, CorpusError::Read(crate::BinaryTraceError::BadMagic)),
            Ok(_) => panic!("a text corpus must not load"),
        }
    }

    #[test]
    fn superblock_scope_flows_through_the_whole_pipeline() {
        let programs = crate::testutil::mergeable_suite(4);
        let sb = Experiment::new(MachineConfig::ppc7410())
            .with_timing(TimingMode::Deterministic)
            .with_scope(ScopeKind::Superblock(70))
            .run(programs.clone());
        assert_eq!(sb.scope(), ScopeKind::Superblock(70));
        assert_eq!(sb.train_config(10).scope, ScopeKind::Superblock(70));
        // Traces are per scope unit: 2 per method (merged + cold).
        assert_eq!(sb.all_traces().len(), 3 * 4 * 2);
        // The LOOCV filters carry the scope tag and classify the traces.
        let filters = sb.loocv_filters(0);
        assert_eq!(filters.len(), 3);
        for (_, f) in filters.iter() {
            assert_eq!(f.learner(), "L/N@sb70");
        }
        for fold in sb.folds(0, &LearnerKind::default(), None) {
            assert!(fold.confusion.total() > 0, "{}", fold.bench);
        }
        // Scope is a real scenario axis: the block pipeline over the
        // same corpus sees more (finer) decision units.
        let block = Experiment::new(MachineConfig::ppc7410()).with_timing(TimingMode::Deterministic).run(programs);
        assert_eq!(block.all_traces().len(), 3 * 4 * 4);
        assert!(block.all_traces().len() > sb.all_traces().len());
    }
}
