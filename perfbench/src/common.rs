//! What every workload shares: the pinned configuration, input
//! generation from the workload seed, output checks and the result line.

use std::fmt::Write as _;
use wts_core::{DecisionPolicy, LearnerKind, TimingMode, TraceOptions, TraceRecord, TrainConfig};
use wts_ir::{Inst, Method, Program, ScopeKind};
use wts_jit::{BenchmarkSpec, Suite, Xoshiro256};
use wts_machine::{EstimatorKind, MachineConfig};
use wts_sched::SchedulePolicy;

/// Episodes per end-to-end run. Each episode generates its own suite
/// from a seed derived from the workload seed, sets up from scratch
/// (one `setup_s` sample) and measures for its share of the run. The
/// RIPPER filter a suite yields, and with it the share of units that
/// get scheduled, differs from suite to suite by more than any bound
/// worth having, and a bigger suite does not make it settle; pooling
/// several independent suites per run does.
pub const EPISODES: usize = 8;

/// Suite scales: hundreds of distinct methods per episode, and a seed
/// trace and initial RIPPER fold that stay well under a second.
pub const FP_SCALE: f64 = 0.1;
pub const JVM_SCALE: f64 = 0.05;

/// The seed of episode `e` of a run: the run's own seed first, so a
/// traced run (one episode) generates the first episode's suite.
pub fn episode_seed(seed: u64, e: usize) -> u64 {
    if e == 0 {
        seed
    } else {
        mix(seed, e as u64)
    }
}

// Every setting below is pinned here rather than taken from a crate
// default, so a later change to a default cannot change a workload.

pub const SCHEDULE_POLICY: SchedulePolicy = SchedulePolicy::CriticalPath;
pub const DECISION: DecisionPolicy = DecisionPolicy::HardThreshold;
pub const THRESHOLD: u32 = 0;

pub fn machine() -> MachineConfig {
    MachineConfig::ppc7410()
}

pub fn trace_options() -> TraceOptions {
    TraceOptions {
        policy: SCHEDULE_POLICY,
        threads: 1,
        timing: TimingMode::Deterministic,
        estimated: EstimatorKind::Cheap,
        measured: EstimatorKind::Detailed,
        scope: ScopeKind::Block,
    }
}

pub fn learner() -> LearnerKind {
    LearnerKind::Ripper(wts_ripper::RipperConfig::default())
}

pub fn train_config() -> TrainConfig {
    TrainConfig::with_learner(THRESHOLD, learner()).with_scope(ScopeKind::Block)
}

#[derive(Debug, Clone, Copy)]
pub enum SuiteKind {
    Fp,
    Jvm98,
}

/// The suite's own specs with each spec's seed mixed with the workload
/// seed, generated at `scale`.
pub fn generate_suite(kind: SuiteKind, scale: f64, seed: u64) -> Suite {
    // The paper suites expose their specs only through a generated
    // suite; the smallest scale yields one method per benchmark.
    let (name, base) = match kind {
        SuiteKind::Fp => ("FP", Suite::fp(f64::MIN_POSITIVE)),
        SuiteKind::Jvm98 => ("SPECjvm98", Suite::specjvm98(f64::MIN_POSITIVE)),
    };
    let specs: Vec<BenchmarkSpec> = base
        .benchmarks()
        .iter()
        .map(|b| {
            let mut spec = b.spec().clone();
            spec.seed = mix(spec.seed, seed);
            spec
        })
        .collect();
    Suite::from_specs(name, specs, scale)
}

/// The deterministic seed trace of a whole suite.
pub fn seed_trace(suite: &Suite, machine: &MachineConfig) -> Vec<TraceRecord> {
    let options = trace_options();
    suite.benchmarks().iter().flat_map(|b| wts_core::collect_trace_with(b.program(), machine, &options)).collect()
}

/// Every method of the suite with the name of its benchmark, in suite
/// order.
pub fn suite_methods(suite: &Suite) -> Vec<(String, Method)> {
    suite
        .benchmarks()
        .iter()
        .flat_map(|b| b.program().methods().iter().map(move |m| (b.name().to_string(), m.clone())))
        .collect()
}

/// A seeded permutation of `0..n`: the order requests walk the methods.
pub fn request_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Xoshiro256::new(mix(seed, 0x5EED_0F0D_E500_0001));
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// SplitMix64 finalizer over `a` and `b`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `order` is a permutation of `insts` that keeps every edge of
/// the independent dependence oracle (not the scheduler's own graph).
pub fn order_respects_oracle(insts: &[Inst], order: &[usize]) -> bool {
    let n = insts.len();
    if order.len() != n {
        return false;
    }
    let mut position = vec![usize::MAX; n];
    for (pos, &i) in order.iter().enumerate() {
        if i >= n || position[i] != usize::MAX {
            return false;
        }
        position[i] = pos;
    }
    wts_verify::oracle_edges(insts, false).iter().all(|&(from, to, _)| position[from] < position[to])
}

/// The order that turns `original` into `scheduled`, matching each
/// scheduled instruction to the earliest unused equal original. Equal
/// instructions that define a register or touch memory are ordered by
/// the oracle anyway, so the earliest match is the one a legal schedule
/// used. `None` when `scheduled` is not a rearrangement of `original`.
pub fn recover_order(original: &[Inst], scheduled: &[Inst]) -> Option<Vec<usize>> {
    if original.len() != scheduled.len() {
        return None;
    }
    let mut used = vec![false; original.len()];
    scheduled
        .iter()
        .map(|inst| {
            let i = (0..original.len()).find(|&i| !used[i] && original[i] == *inst)?;
            used[i] = true;
            Some(i)
        })
        .collect()
}

/// Whether every block of `compiled` is a legal reordering of the same
/// block of `original`.
pub fn method_schedule_is_legal(original: &Method, compiled: &Method) -> bool {
    original.blocks().len() == compiled.blocks().len()
        && original.blocks().iter().zip(compiled.blocks()).all(|(before, after)| {
            before.exec_count() == after.exec_count()
                && recover_order(before.insts(), after.insts())
                    .is_some_and(|order| order_respects_oracle(before.insts(), &order))
        })
}

/// Weighted application cycles (`wts_jit::app_cycles`) of `methods`
/// laid out as one program.
pub fn app_cycles(methods: impl IntoIterator<Item = Method>, machine: &MachineConfig) -> u64 {
    let mut program = Program::new("suite");
    for method in methods {
        program.push_method(method);
    }
    wts_jit::app_cycles(&program, machine)
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, json_number(m.value), m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// A finite float as JSON; a non-finite one (a bug upstream) becomes
/// `null`, which the reader rejects rather than misreads.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{Opcode, Reg};

    fn chain() -> Vec<Inst> {
        vec![
            Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1),
            Inst::new(Opcode::Add).def(Reg::gpr(2)).use_(Reg::gpr(1)).use_(Reg::gpr(1)),
            Inst::new(Opcode::Li).def(Reg::gpr(3)).imm(2),
        ]
    }

    #[test]
    fn oracle_check_accepts_legal_and_rejects_broken_orders() {
        let insts = chain();
        assert!(order_respects_oracle(&insts, &[0, 1, 2]));
        assert!(order_respects_oracle(&insts, &[2, 0, 1]));
        assert!(!order_respects_oracle(&insts, &[1, 0, 2]), "use before def");
        assert!(!order_respects_oracle(&insts, &[0, 0, 2]), "not a permutation");
        assert!(!order_respects_oracle(&insts, &[0, 1]), "too short");
    }

    #[test]
    fn recovered_order_round_trips() {
        let insts = chain();
        let scheduled = vec![insts[2], insts[0], insts[1]];
        assert_eq!(recover_order(&insts, &scheduled), Some(vec![2, 0, 1]));
        assert_eq!(recover_order(&insts, &insts[..2]), None);
    }

    #[test]
    fn request_order_is_a_seeded_permutation() {
        let a = request_order(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, request_order(50, 7));
        assert_ne!(a, request_order(50, 8));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("a", 1.5, "ms"), metric("b", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
