//! The deployed per-block pipeline, called stage by stage with a span
//! around each call: masked feature extraction, the compiled condition
//! table, the decision policy, list scheduling and (in the JIT) the
//! in-place permutation. It is the body of the JIT's per-method compile
//! loop, spelled out through the crates' public functions so each stage
//! can be timed from outside.

use crate::common::{DECISION, SCHEDULE_POLICY};
use crate::spans::Tracer;
use wts_core::{CompiledFilter, UnitEconomics};
use wts_deps::{DepGraph, GraphBuilder};
use wts_features::FeatureVector;
use wts_ir::{Inst, Method};
use wts_machine::MachineConfig;
use wts_sched::{ListScheduler, SchedScratch, ScheduleOutcome};

/// Counts taken where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTally {
    pub units: u64,
    pub selected: u64,
    /// Selected units whose schedule is estimated faster than the
    /// original order.
    pub useful: u64,
    pub conditions: u64,
    pub edges: u64,
}

/// Reusable state for stage-by-stage compiles on one thread.
pub struct StageCtx<'m> {
    scheduler: ListScheduler<'m>,
    scratch: SchedScratch<'m>,
    outcome: ScheduleOutcome,
    permute: Vec<Inst>,
    builder: GraphBuilder,
    graph: DepGraph,
    /// (scheduling span, block index) of every block the last
    /// [`StageCtx::traced_method`] scheduled.
    scheduled: Vec<(u32, usize)>,
}

impl<'m> StageCtx<'m> {
    pub fn new(machine: &'m MachineConfig) -> StageCtx<'m> {
        StageCtx {
            scheduler: ListScheduler::with_policy(machine, SCHEDULE_POLICY),
            scratch: SchedScratch::new(machine),
            outcome: ScheduleOutcome::default(),
            permute: Vec::new(),
            builder: GraphBuilder::new(),
            graph: DepGraph::empty(),
            scheduled: Vec::new(),
        }
    }

    /// Runs every block of `method` through the pipeline, one span per
    /// stage call under `parent`. Selected blocks are scheduled and,
    /// when `apply` is set, permuted in place as the JIT does.
    #[allow(clippy::too_many_arguments)]
    pub fn traced_method(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        request: u64,
        method: &mut Method,
        engine: &CompiledFilter,
        apply: bool,
        tally: &mut UnitTally,
    ) {
        self.scheduled.clear();
        for (index, block) in method.blocks_mut().iter_mut().enumerate() {
            let t0 = tr.now();
            let features = FeatureVector::extract_masked(block, engine.demand());
            let t1 = tr.now();
            let (score, conditions) = engine.score_counted(features.as_slice());
            let t2 = tr.now();
            let insts = block.insts().len() as u64;
            let unit = UnitEconomics {
                insts,
                exec_count: block.exec_count(),
                filter_work: conditions,
                extraction_work: engine.extraction_work(insts),
            };
            let selected = DECISION.decide(score, &unit);
            let t3 = tr.now();
            tr.record("features.extract", t0, t1, parent, request);
            tr.record("engine.score", t1, t2, parent, request);
            tr.record("policy.decide", t2, t3, parent, request);
            tally.units += 1;
            tally.conditions += conditions;
            if !selected {
                continue;
            }
            let t4 = tr.now();
            self.scheduler.schedule_block_into(block, &mut self.scratch, &mut self.outcome);
            let t5 = tr.now();
            let span = tr.record("sched.schedule", t4, t5, parent, request);
            if apply {
                self.outcome.apply_in_place(block, &mut self.permute);
                let t6 = tr.now();
                tr.record("jit.apply", t5, t6, parent, request);
            }
            tally.selected += 1;
            tally.useful += u64::from(self.outcome.cycles_after < self.outcome.cycles_before);
            self.scheduled.push((span, index));
        }
    }

    /// Builds the dependence graph of every block the last
    /// [`StageCtx::traced_method`] scheduled again, from `original` (the
    /// method as it was before scheduling), as replay spans under each
    /// block's scheduling span. The scheduler builds the same graph
    /// inside `schedule_block_into`, for blocks of two or more
    /// instructions.
    pub fn replay_deps(&mut self, tr: &mut Tracer, request: u64, original: &Method, tally: &mut UnitTally) {
        for &(span, index) in &self.scheduled {
            let insts = original.blocks()[index].insts();
            if insts.len() < 2 {
                continue;
            }
            let t0 = tr.now();
            self.builder.build_into(insts, false, &mut self.graph);
            let t1 = tr.now();
            tr.record_replay("deps.build", t0, t1, span, request);
            tally.edges += self.builder.last_edge_count() as u64;
        }
    }
}

/// Spans one block of a stage-by-stage compile can record: three per
/// block, two more when scheduled and applied, one replay.
pub const SPANS_PER_BLOCK: usize = 6;
