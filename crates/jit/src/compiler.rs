//! The JIT scheduling pass: features → filter → decision policy →
//! (maybe) schedule → apply.
//!
//! The filter is lowered once per compile ([`Filter::compile`]) and every
//! block then runs through a [`UnitServer`] — the same per-unit loop as
//! [`filtered_schedule_pass_with`](wts_core::filtered_schedule_pass_with)
//! and the `wts-serve` workers: one demand-masked feature pass over
//! exactly the features the compiled rules read, the flat condition
//! table (a calibrated [`FilterScore`](wts_core::FilterScore)) and the
//! session's [`DecisionPolicy`]. A selected block is list scheduled and
//! reordered in place. Compiles report the same [`FilteredPass`] totals
//! as the direct pass; `pass_ns` times extraction, decision and
//! scheduling, while the in-place apply stays outside it. Under the
//! default [`HardThreshold`](DecisionPolicy::HardThreshold) the schedule
//! calls are bit-identical to the interpreted boolean filter; an
//! [`ExpectedBenefit`](DecisionPolicy::ExpectedBenefit) session weighs
//! each block's calibrated probability and hotness against the compile
//! spend instead. The session schedules at block scope.

use std::sync::Arc;
use wts_core::{
    CompiledFilter, DecisionPolicy, Filter, FilterKey, FilterSnapshot, FilterStore, FilteredPass, LearnedFilter,
    UnitServer,
};
use wts_ir::Program;
use wts_machine::{CostModel, MachineConfig, PipelineSim};
use wts_sched::SchedulePolicy;

/// A JIT compile session: holds the machine, scheduling policy and a
/// [`FilterStore`], and compiles programs under a given filter — passed
/// explicitly, or deployed (and hot-swappable) in the store.
#[derive(Debug, Clone)]
pub struct CompileSession<'m> {
    machine: &'m MachineConfig,
    policy: SchedulePolicy,
    decision: DecisionPolicy,
    store: Arc<FilterStore>,
}

impl<'m> CompileSession<'m> {
    /// A session with the default CPS scheduler, the hard-threshold
    /// decision policy (the paper's operating point) and a fresh private
    /// [`FilterStore`].
    pub fn new(machine: &'m MachineConfig) -> CompileSession<'m> {
        CompileSession::with_policy(machine, SchedulePolicy::CriticalPath)
    }

    /// A session with an explicit scheduling policy.
    pub fn with_policy(machine: &'m MachineConfig, policy: SchedulePolicy) -> CompileSession<'m> {
        CompileSession { machine, policy, decision: DecisionPolicy::HardThreshold, store: FilterStore::shared() }
    }

    /// Selects how the session turns filter scores into schedule/skip
    /// calls. The default [`DecisionPolicy::HardThreshold`] reproduces
    /// the boolean filter bit-for-bit; an expected-benefit policy makes
    /// the compile cost-sensitive without retraining the filter.
    pub fn with_decision_policy(mut self, decision: DecisionPolicy) -> CompileSession<'m> {
        self.decision = decision;
        self
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// The session's decision policy.
    pub fn decision_policy(&self) -> &DecisionPolicy {
        &self.decision
    }

    /// The session's filter store.
    pub fn store(&self) -> &Arc<FilterStore> {
        &self.store
    }

    /// Publishes (or hot-swaps) `filter` under `key` in the session's
    /// store and returns the new epoch-tagged snapshot. Compiles in
    /// flight against the previous snapshot finish under it; the next
    /// snapshot loaded from the store carries the new epoch.
    pub fn deploy(&self, key: FilterKey, filter: LearnedFilter) -> Arc<FilterSnapshot> {
        self.store.swap(key, filter)
    }

    /// Compiles `program` under `filter`: every block gets features
    /// extracted and the filter consulted; selected blocks are list
    /// scheduled. Returns the (possibly reordered) program and the pass
    /// totals.
    pub fn compile(&self, program: &Program, filter: &dyn Filter) -> (Program, FilteredPass) {
        self.compile_sharded(program, filter, 1)
    }

    /// [`compile`](CompileSession::compile) with the program's methods
    /// sharded across `threads` scoped worker threads (`0` = one per
    /// available core, `1` = serial). Methods are compiled independently
    /// and reassembled in order, so the output program and the work
    /// channels are identical to the serial path; only `pass_ns` varies.
    pub fn compile_sharded(&self, program: &Program, filter: &dyn Filter, threads: usize) -> (Program, FilteredPass) {
        self.compile_hot(program, &filter.compile(), 0, threads)
    }

    /// The *adaptive-JIT* variant the paper discusses in §3.1: only
    /// methods the profile marks hot (peak block execution count at least
    /// `hot_cutoff`) go through the optimizing path at all; cold methods
    /// are left baseline-compiled (unscheduled, and unfiltered — the
    /// filter's cost is skipped too) and only count towards
    /// `total_blocks`.
    pub fn compile_adaptive(&self, program: &Program, filter: &dyn Filter, hot_cutoff: u64) -> (Program, FilteredPass) {
        self.compile_hot(program, &filter.compile(), hot_cutoff, 1)
    }

    /// Compiles `program` under an explicit store snapshot — the
    /// serving path: the caller pins one epoch (`snapshot.epoch()`) for
    /// a whole batch, so a concurrent hot swap never splits a compile
    /// across filter versions.
    pub fn compile_snapshot(
        &self,
        program: &Program,
        snapshot: &FilterSnapshot,
        threads: usize,
    ) -> (Program, FilteredPass) {
        self.compile_hot(program, snapshot.compiled(), 0, threads)
    }

    /// The one compile loop: methods shard into contiguous chunks, each
    /// worker clones its chunk and runs every block of a hot method
    /// through one [`UnitServer`], and the chunks are reassembled in
    /// method order, so the result is identical whatever the thread
    /// count.
    fn compile_hot(
        &self,
        program: &Program,
        engine: &CompiledFilter,
        hot_cutoff: u64,
        threads: usize,
    ) -> (Program, FilteredPass) {
        let shards = wts_core::parallel::shard_map(program.methods(), threads, |slice| {
            let mut server = UnitServer::new(self.machine, self.policy);
            let mut totals = FilteredPass::default();
            let mut compiled = slice.to_vec();
            for method in &mut compiled {
                if method.blocks().iter().map(|b| b.exec_count()).max().unwrap_or(0) < hot_cutoff {
                    totals.total_blocks += method.blocks().len();
                    continue;
                }
                for block in method.blocks_mut() {
                    server.compile_block(block, engine, &self.decision, &mut totals);
                }
            }
            (compiled, totals)
        });

        let mut out = Program::new(program.name());
        let mut totals = FilteredPass::default();
        for (compiled, shard_totals) in shards {
            for method in compiled {
                out.push_method(method);
            }
            totals.merge(&shard_totals);
        }
        (out, totals)
    }
}

/// Weighted application cycles of `program` under the detailed pipeline
/// simulator: `SIM(P) = Σ_b exec(b) · cycles(b)` (paper §4.2, with the
/// detailed model standing in for the real machine).
pub fn app_cycles(program: &Program, machine: &MachineConfig) -> u64 {
    let sim = PipelineSim::new(machine);
    program.iter_blocks().map(|(_, b)| b.exec_count() * sim.block_cycles(b)).sum()
}

/// Weighted cycles under the cheap estimator (the paper's simulated
/// metric of Table 4).
pub fn predicted_cycles(program: &Program, machine: &MachineConfig) -> u64 {
    let cm = CostModel::new(machine);
    program.iter_blocks().map(|(_, b)| b.exec_count() * cm.block_cycles(b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suite;
    use wts_core::{AlwaysSchedule, NeverSchedule, SizeThresholdFilter};

    fn machine() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    #[test]
    fn never_schedule_leaves_program_unchanged() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[0].program();
        let (out, stats) = CompileSession::new(&m).compile(p, &NeverSchedule);
        assert_eq!(&out, p);
        assert_eq!(stats.scheduled_blocks, 0);
        assert_eq!(stats.sched_work, 0);
        assert_eq!(stats.total_blocks, p.block_count());
    }

    #[test]
    fn always_schedule_touches_every_block_and_helps() {
        let m = machine();
        let suite = Suite::fp(0.02);
        let p = suite.benchmarks()[0].program();
        let (out, stats) = CompileSession::new(&m).compile(p, &AlwaysSchedule);
        assert_eq!(stats.scheduled_blocks, stats.total_blocks);
        out.validate().expect("scheduled program remains valid");
        // Predicted (cheap-model) time must not degrade; on an FP-heavy
        // benchmark it should strictly improve.
        assert!(predicted_cycles(&out, &m) < predicted_cycles(p, &m));
        // The detailed machine should agree directionally.
        assert!(app_cycles(&out, &m) <= app_cycles(p, &m));
    }

    #[test]
    fn filter_cost_structure() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[1].program();
        let session = CompileSession::new(&m);
        let (_, ls) = session.compile(p, &AlwaysSchedule);
        let (_, filtered) = session.compile(p, &SizeThresholdFilter::new(8));
        assert!(filtered.scheduled_blocks < ls.scheduled_blocks);
        assert!(filtered.scheduled_blocks > 0);
        assert!(filtered.pass_ns > 0);
    }

    #[test]
    fn sharded_compile_matches_serial() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let session = CompileSession::new(&m);
        let filter = SizeThresholdFilter::new(5);
        let (serial, serial_stats) = session.compile(p, &filter);
        for threads in [0, 2, 5, 16] {
            let (sharded, stats) = session.compile_sharded(p, &filter, threads);
            assert_eq!(serial, sharded, "sharded compile ({threads} threads) must be identical");
            assert_eq!(stats.total_blocks, serial_stats.total_blocks);
            assert_eq!(stats.scheduled_blocks, serial_stats.scheduled_blocks);
        }
    }

    #[test]
    fn adaptive_compiles_only_hot_methods() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let session = CompileSession::new(&m);
        let (full, full_stats) = session.compile(p, &AlwaysSchedule);
        let (adaptive, a_stats) = session.compile_adaptive(p, &AlwaysSchedule, 100);
        assert!(a_stats.scheduled_blocks < full_stats.scheduled_blocks);
        assert!(a_stats.scheduled_blocks > 0, "some methods must be hot");
        // Adaptive keeps part of the benefit at a fraction of the cost.
        let base = app_cycles(p, &m);
        let full_cycles = app_cycles(&full, &m);
        let adaptive_cycles = app_cycles(&adaptive, &m);
        assert!(adaptive_cycles <= base);
        assert!(adaptive_cycles >= full_cycles);
    }

    #[test]
    fn adaptive_with_huge_cutoff_is_a_noop() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[1].program();
        let (out, stats) = CompileSession::new(&m).compile_adaptive(p, &AlwaysSchedule, u64::MAX);
        assert_eq!(&out, p);
        assert_eq!(stats.scheduled_blocks, 0);
        assert_eq!(stats.pass_ns, 0, "cold methods skip the whole pass");
    }

    #[test]
    fn default_session_is_hard_threshold() {
        let m = machine();
        assert_eq!(*CompileSession::new(&m).decision_policy(), DecisionPolicy::HardThreshold);
    }

    #[test]
    fn hard_threshold_session_is_bit_identical_to_the_boolean_seam() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let filter = SizeThresholdFilter::new(5);
        let base = CompileSession::new(&m);
        let explicit = CompileSession::new(&m).with_decision_policy(DecisionPolicy::HardThreshold);
        let (a, a_stats) = base.compile(p, &filter);
        let (b, b_stats) = explicit.compile(p, &filter);
        assert_eq!(a, b, "an explicit hard policy must not change the output program");
        assert_eq!(a_stats.scheduled_blocks, b_stats.scheduled_blocks);
    }

    #[test]
    fn expected_benefit_session_skips_cold_blocks_a_rule_fired_on() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        // A stingy operating point with a modest savings rate: only hot
        // blocks can justify the quadratic scheduling estimate.
        let model = wts_core::BenefitModel { saved_per_inst: 0.5, cycles_per_work: 50.0 };
        let eb = CompileSession::new(&m).with_decision_policy(DecisionPolicy::ExpectedBenefit(model));
        let (out, stats) = eb.compile(p, &AlwaysSchedule);
        let (_, hard) = CompileSession::new(&m).compile(p, &AlwaysSchedule);
        assert!(stats.scheduled_blocks < hard.scheduled_blocks, "cost-sensitivity must skip some blocks");
        assert!(stats.scheduled_blocks > 0, "hot blocks still pay");
        out.validate().expect("policy-filtered program remains valid");
        // The punitive extreme schedules nothing and is a no-op.
        let punitive = wts_core::BenefitModel { saved_per_inst: 0.0, cycles_per_work: 1.0 };
        let none = CompileSession::new(&m).with_decision_policy(DecisionPolicy::ExpectedBenefit(punitive));
        let (unchanged, n_stats) = none.compile(p, &AlwaysSchedule);
        assert_eq!(&unchanged, p);
        assert_eq!(n_stats.scheduled_blocks, 0);
    }

    #[test]
    fn stored_compile_matches_the_direct_path_and_reports_the_epoch() {
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let session = CompileSession::new(&m);
        // Train a real filter and deploy it in the session's store.
        let run =
            wts_core::Experiment::new(m.clone()).with_timing(wts_core::TimingMode::Deterministic).run(vec![p.clone()]);
        let filter = wts_core::train_filter(run.all_traces(), &run.train_config(0));
        let key = run.filter_key(0, &wts_core::LearnerKind::default());
        assert!(session.store().get(&key).is_none(), "nothing deployed yet");
        session.deploy(key.clone(), filter.clone());
        let snapshot = session.store().get(&key).expect("deployed");
        assert_eq!(snapshot.epoch(), 1);
        let (stored, stored_stats) = session.compile_snapshot(p, &snapshot, 1);
        let (direct, direct_stats) = session.compile(p, &filter);
        assert_eq!(stored, direct, "store-deployed compile must match the explicit-filter path");
        assert_eq!(stored_stats.scheduled_blocks, direct_stats.scheduled_blocks);
        // Hot-swapping bumps the epoch the next compile reports.
        session.deploy(key.clone(), filter);
        assert_eq!(session.store().get(&key).expect("still deployed").epoch(), 2);
    }

    #[test]
    fn compile_runs_the_served_unit_loop() {
        // The JIT is a client of the same per-unit loop as the direct
        // pass and the serving workers: equal totals on every work
        // channel, and every block reordered by exactly the permutation
        // the served path returns for it.
        let m = machine();
        let suite = Suite::specjvm98(0.02);
        let p = suite.benchmarks()[0].program();
        let run =
            wts_core::Experiment::new(m.clone()).with_timing(wts_core::TimingMode::Deterministic).run(vec![p.clone()]);
        let filter = wts_core::train_filter(run.all_traces(), &run.train_config(0));
        let key = run.filter_key(0, &wts_core::LearnerKind::default());
        let model = wts_core::BenefitModel { saved_per_inst: 0.5, cycles_per_work: 50.0 };
        for decision in [DecisionPolicy::HardThreshold, DecisionPolicy::ExpectedBenefit(model)] {
            let session = CompileSession::new(&m).with_decision_policy(decision);
            let snapshot = session.deploy(key.clone(), filter.clone());
            for threads in [1, 3] {
                let (out, jit) = session.compile_snapshot(p, &snapshot, threads);
                let opts = wts_core::TraceOptions { threads, ..Default::default() };
                let direct = wts_core::filtered_schedule_pass_with(p, &m, snapshot.compiled(), &decision, &opts);
                assert_eq!(
                    (jit.total_blocks, jit.scheduled_blocks, jit.conditions_evaluated),
                    (direct.total_blocks, direct.scheduled_blocks, direct.conditions_evaluated),
                    "{decision:?} at {threads} threads"
                );
                assert_eq!((jit.extraction_work, jit.sched_work), (direct.extraction_work, direct.sched_work));
                assert!(jit.scheduled_blocks > 0 && jit.scheduled_blocks < jit.total_blocks);

                let mut server = UnitServer::new(&m, SchedulePolicy::CriticalPath);
                let mut served_totals = FilteredPass::default();
                for ((_, before), (_, after)) in p.iter_blocks().zip(out.iter_blocks()) {
                    let unit = server.serve_block(
                        before.insts(),
                        before.exec_count(),
                        snapshot.compiled(),
                        &decision,
                        &mut served_totals,
                    );
                    let expected: Vec<_> = if unit.decision {
                        unit.order.iter().map(|&i| before.insts()[i as usize]).collect()
                    } else {
                        before.insts().to_vec()
                    };
                    assert_eq!(after.insts(), expected.as_slice(), "block {:?}", before.id());
                }
                assert_eq!(served_totals.scheduled_blocks, jit.scheduled_blocks);
            }
        }
    }

    #[test]
    fn exec_counts_weight_app_cycles() {
        let m = machine();
        let suite = Suite::specjvm98(0.01);
        let p = suite.benchmarks()[2].program();
        let total = app_cycles(p, &m);
        let unweighted: u64 = p.iter_blocks().map(|(_, b)| PipelineSim::new(&m).block_cycles(b)).sum();
        assert!(total > unweighted, "hot blocks must weigh more than cold ones");
    }
}
