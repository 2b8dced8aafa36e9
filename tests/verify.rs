//! The standing wts-verify invariant future PRs inherit: the untampered
//! pipeline draws **zero diagnostics** from the independent checker on
//! every registry machine × scheduling policy × scope, over generated
//! corpora.
//!
//! The `#[ignore]`d smoke test in `tests/matrix.rs` runs the same sweep
//! at realistic scale in CI; `tests/verify.rs` keeps a quick version in
//! the always-on tier. Build with `--features verify` to additionally
//! exercise the debug-assert hooks inside trace collection, the filtered
//! deployment pass and the JIT compile session (the `hooks_*` test).

use proptest::prelude::*;
use schedfilter::machine::IssueState;
use schedfilter::prelude::*;
use schedfilter::verify::{render, resimulate};

fn generated_programs(scale: f64) -> Vec<Program> {
    Suite::fp(scale).benchmarks().iter().map(|b| b.program().clone()).collect()
}

fn sweep_policies() -> [SchedulePolicy; 4] {
    [
        SchedulePolicy::CriticalPath,
        SchedulePolicy::EarliestStart,
        SchedulePolicy::CriticalPathOnly,
        SchedulePolicy::Random(0x5EED),
    ]
}

#[test]
fn pipeline_draws_zero_diagnostics_on_every_machine_policy_and_scope() {
    let programs = generated_programs(0.01);
    for machine in registry() {
        for policy in sweep_policies() {
            for scope in [ScopeKind::Block, ScopeKind::Superblock(70)] {
                let mut units = 0;
                for program in &programs {
                    let report = verify_program(program, &machine, policy, scope);
                    units += report.units;
                    assert!(
                        report.is_clean(),
                        "{} {policy} {scope} {}: {} diagnostics:\n{}",
                        machine.name(),
                        program.name(),
                        report.diagnostics.len(),
                        render(&report.diagnostics)
                    );
                }
                assert!(units > 0, "{}: sweep examined no units", machine.name());
            }
        }
    }
}

/// Degenerate scheduling units — empty and single-instruction blocks and
/// the scheduler's revert-to-identity path — must verify cleanly too:
/// these are exactly the paths a naive checker would misjudge.
#[test]
fn degenerate_units_verify_cleanly() {
    let machine = MachineConfig::ppc7410();
    let scheduler = ListScheduler::new(&machine);

    let empty: Vec<Inst> = Vec::new();
    let outcome = scheduler.schedule_insts(&empty);
    assert!(verify_unit(&machine, &empty, false, &outcome).is_empty());

    let single = vec![Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3))];
    let outcome = scheduler.schedule_insts(&single);
    assert!(verify_unit(&machine, &single, false, &outcome).is_empty());
}

/// With `--features verify` the hooks themselves run: trace collection,
/// the filtered deployment pass and the JIT compile session each verify
/// every unit they schedule and panic on the first diagnostic. The test
/// simply drives all three paths over a generated corpus.
#[cfg(feature = "verify")]
#[test]
fn hooks_fire_cleanly_across_the_whole_pipeline() {
    let programs = generated_programs(0.01);
    let machine = MachineConfig::ppc7410();

    // Trace collection (block and superblock scope).
    let run = Experiment::new(machine.clone()).with_timing(TimingMode::Deterministic).run(programs.clone());
    assert!(run.all_traces().len() > 10);
    let sb = Experiment::new(machine.clone())
        .with_timing(TimingMode::Deterministic)
        .with_scope(ScopeKind::Superblock(70))
        .run(programs.clone());
    assert!(!sb.all_traces().is_empty());

    // The JIT compile session (drives filtered_schedule_pass-style
    // decisions through CompileSession::compile).
    let filter = SizeThresholdFilter::new(1);
    let session = CompileSession::new(&machine);
    for program in &programs {
        let (compiled, stats) = session.compile(program, &filter);
        assert_eq!(compiled.block_count(), program.block_count());
        assert!(stats.scheduled_blocks > 0);
    }
}

/// Blocks that reach every `IssueState` term: all four register classes
/// with indices up to `Reg::MAX_INDEX`, loads and stores with known and
/// unknown slots, serializing ops (sync and calls) and the
/// non-pipelined divides.
fn arb_timing_block(max: usize) -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(
        (0u8..12, 0u16..4, 0u16..4, prop::bool::ANY, 0u32..4).prop_map(|(kind, a, b, top, slot)| {
            // Half the registers sit at the top of the index range, so the
            // dense table grows to its limit and resets must clear it.
            let far = if top { Reg::MAX_INDEX - a } else { a };
            let mem = if slot == 3 { MemRef::unknown(MemSpace::Heap) } else { MemRef::slot(MemSpace::Heap, slot) };
            match kind {
                0 => Inst::new(Opcode::Add).def(Reg::gpr(far)).use_(Reg::gpr(b)).use_(Reg::gpr(a)),
                1 => Inst::new(Opcode::Divw).def(Reg::gpr(a)).use_(Reg::gpr(far)).use_(Reg::gpr(b)),
                2 => Inst::new(Opcode::Fdiv).def(Reg::fpr(far)).use_(Reg::fpr(b)).use_(Reg::fpr(a)),
                3 => Inst::new(Opcode::Fmul).def(Reg::fpr(b)).use_(Reg::fpr(far)).use_(Reg::fpr(a)),
                4 => Inst::new(Opcode::Lwz).def(Reg::gpr(far)).use_(Reg::gpr(b)).mem(mem),
                5 => Inst::new(Opcode::Stw).use_(Reg::gpr(far)).use_(Reg::gpr(b)).mem(mem),
                6 => Inst::new(Opcode::Cmp).def(Reg::cr(far)).use_(Reg::gpr(a)).use_(Reg::gpr(b)),
                7 => Inst::new(Opcode::Bc).use_(Reg::cr(far)),
                8 => Inst::new(Opcode::Mtspr).def(Reg::spr(far)).use_(Reg::gpr(a)),
                9 => Inst::new(Opcode::Mfspr).def(Reg::gpr(b)).use_(Reg::spr(far)),
                10 => Inst::new(Opcode::Bl).def(Reg::lr()),
                _ => Inst::new(Opcode::Sync),
            }
        }),
        0..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `IssueState`, reused block after block on every registry
    /// machine, agrees with the independent hash-map re-simulation on
    /// every issue cycle and on the completion time. Reuse pins the
    /// touched-list reset: a register left bound by an earlier block
    /// would delay an issue here.
    #[test]
    fn reused_issue_state_matches_resimulation(blocks in prop::collection::vec(arb_timing_block(16), 1..6)) {
        for machine in registry() {
            let mut state = IssueState::new(&machine);
            for insts in &blocks {
                let (done, events) = resimulate(&machine, insts);
                state.reset();
                for (inst, event) in insts.iter().zip(&events) {
                    prop_assert_eq!(state.earliest_issue(inst), event.cycle, "{} {:?}", machine.name(), insts);
                    prop_assert_eq!(state.issue(inst), event.cycle);
                }
                prop_assert_eq!(state.completion_time(), done);
            }
        }
    }
}
