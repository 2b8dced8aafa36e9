//! `jit_fp`: one FP-suite method per request, compiled in process by
//! `CompileSession::compile_snapshot` on one thread.

use crate::common::{self, metric, Metric, SuiteKind};
use crate::report::{self, Layers, Outcome};
use crate::spans::{self, Tracer, NO_PARENT};
use crate::stages::{StageCtx, UnitTally, SPANS_PER_BLOCK};
use crate::stats;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wts_core::{FilterKey, FilterSnapshot};
use wts_ir::{Method, Program, ScopeKind};
use wts_jit::CompileSession;
use wts_machine::MachineConfig;

/// Requests compiled before the timed window, so caches and allocator
/// pools are warm.
const WARMUP_REQUESTS: usize = 200;

/// Span buffer of the traced pass.
const SPAN_CAPACITY: usize = 1 << 19;

/// Rounds of a traced run. Each compiles untraced for a slice of the
/// run, then traced for as long (or until the round's share of the span
/// buffer is used), so drift in the host's speed reaches both sides of
/// the tracing-overhead ratio alike.
const TRACE_ROUNDS: usize = 8;

struct Setup<'m> {
    methods: Vec<(String, Method)>,
    /// One single-method program per request, in suite order.
    requests: Vec<Program>,
    order: Vec<usize>,
    session: CompileSession<'m>,
    snapshot: Arc<FilterSnapshot>,
    seed_records: usize,
    train_s: f64,
}

fn setup(machine: &MachineConfig, seed: u64) -> Setup<'_> {
    let suite = common::generate_suite(SuiteKind::Fp, common::FP_SCALE, seed);
    let seed_traces = common::seed_trace(&suite, machine);
    let t = Instant::now();
    let filter = wts_core::train_filter(&seed_traces, &common::train_config());
    let train_s = t.elapsed().as_secs_f64();
    let session = CompileSession::with_policy(machine, common::SCHEDULE_POLICY).with_decision_policy(common::DECISION);
    let key = FilterKey::new(machine.name(), &common::learner(), ScopeKind::Block, common::THRESHOLD);
    let snapshot = session.deploy(key, filter);
    let methods = common::suite_methods(&suite);
    let requests = methods
        .iter()
        .map(|(benchmark, method)| {
            let mut program = Program::new(benchmark.clone());
            program.push_method(method.clone());
            program
        })
        .collect();
    let order = common::request_order(methods.len(), seed);
    Setup { methods, requests, order, session, snapshot, seed_records: seed_traces.len(), train_s }
}

/// What a run learned about each method's output.
struct Outputs {
    /// The first output seen for each method; every later one must equal
    /// it.
    first: Vec<Option<Method>>,
    requests: Vec<u64>,
    bad: Vec<bool>,
}

impl Outputs {
    fn new(n: usize) -> Outputs {
        Outputs { first: vec![None; n], requests: vec![0; n], bad: vec![false; n] }
    }

    fn observe(&mut self, index: usize, output: &Method) {
        self.requests[index] += 1;
        match &self.first[index] {
            None => self.first[index] = Some(output.clone()),
            Some(first) => self.bad[index] |= first != output,
        }
    }

    fn failed_requests(&self) -> u64 {
        self.requests.iter().zip(&self.bad).filter(|(_, bad)| **bad).map(|(n, _)| n).sum()
    }
}

struct Window {
    latencies_ns: Vec<u64>,
    units: u64,
    elapsed: Duration,
}

/// Closed loop on one thread: compile the next method as soon as the
/// last one returns, until `length` has passed and at least
/// `min_requests` have been answered.
fn window(s: &Setup<'_>, length: Duration, min_requests: usize, outputs: &mut Outputs) -> Window {
    let mut latencies_ns = Vec::new();
    let mut units = 0u64;
    let start = Instant::now();
    let deadline = start + length;
    for k in 0.. {
        let index = s.order[k % s.order.len()];
        let t0 = Instant::now();
        let (out, stats) = s.session.compile_snapshot(&s.requests[index], &s.snapshot, 1);
        let t1 = Instant::now();
        latencies_ns.push(nanos(t1 - t0));
        units += stats.total_blocks as u64;
        match out.methods() {
            [method] if stats.total_blocks == method.blocks().len() => outputs.observe(index, method),
            _ => {
                outputs.requests[index] += 1;
                outputs.bad[index] = true;
            }
        }
        if t1 >= deadline && latencies_ns.len() >= min_requests {
            break;
        }
    }
    let elapsed = start.elapsed();
    latencies_ns.shrink_to_fit();
    Window { latencies_ns, units, elapsed }
}

fn warm_up(s: &Setup<'_>) {
    for k in 0..WARMUP_REQUESTS {
        let index = s.order[k % s.order.len()];
        std::hint::black_box(s.session.compile_snapshot(&s.requests[index], &s.snapshot, 1));
    }
}

/// Outside the timed window: compiles every benchmark of the suite once
/// (the `app_cycles_ratio` pass), requires each method's output to
/// equal what the requests saw, and checks every output against the
/// dependence oracle. Returns the application cycles of the compiled
/// suite and of the unscheduled one.
fn verify(s: &Setup<'_>, outputs: &mut Outputs, machine: &MachineConfig) -> (u64, u64) {
    let mut compiled = Vec::with_capacity(s.methods.len());
    let mut index = 0;
    let mut start = 0;
    while start < s.methods.len() {
        let benchmark = &s.methods[start].0;
        let end = start + s.methods[start..].iter().take_while(|(b, _)| b == benchmark).count();
        let mut program = Program::new(benchmark.clone());
        for (_, method) in &s.methods[start..end] {
            program.push_method(method.clone());
        }
        let (out, _) = s.session.compile_snapshot(&program, &s.snapshot, 1);
        for method in out.methods() {
            match &outputs.first[index] {
                None => outputs.first[index] = Some(method.clone()),
                Some(first) => outputs.bad[index] |= first != method,
            }
            compiled.push(method.clone());
            index += 1;
        }
        start = end;
    }
    for (i, (original, output)) in s.methods.iter().zip(&outputs.first).enumerate() {
        let legal = output.as_ref().is_some_and(|out| common::method_schedule_is_legal(&original.1, out));
        outputs.bad[i] |= !legal;
    }
    let original = common::app_cycles(s.methods.iter().map(|(_, m)| m.clone()), machine);
    (common::app_cycles(compiled, machine), original)
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let machine = common::machine();
    let length = Duration::from_secs_f64(seconds / common::EPISODES as f64);
    let mut setup_s = Vec::new();
    let mut notes = Vec::new();
    let (mut episodes, mut failed) = (Vec::new(), 0);
    let (mut compiled_cycles, mut original_cycles) = (0, 0);
    for e in 0..common::EPISODES {
        let t = Instant::now();
        let s = setup(&machine, common::episode_seed(seed, e));
        setup_s.push(t.elapsed().as_secs_f64());
        warm_up(&s);
        let mut outputs = Outputs::new(s.methods.len());
        let w = window(&s, length, report::MIN_REQUESTS.div_ceil(common::EPISODES), &mut outputs);
        let (compiled, original) = verify(&s, &mut outputs, &machine);
        compiled_cycles += compiled;
        original_cycles += original;
        failed += outputs.failed_requests();
        notes.push(format!(
            "episode {e}: methods {} requests {} units {} in {:.3} s",
            s.methods.len(),
            w.latencies_ns.len(),
            w.units,
            w.elapsed.as_secs_f64()
        ));
        episodes.push(report::Episode {
            latencies_ns: w.latencies_ns,
            units: w.units,
            elapsed_s: w.elapsed.as_secs_f64(),
        });
    }
    let attempted: u64 = episodes.iter().map(|e| e.latencies_ns.len() as u64).sum();
    let timing = report::timing(episodes);
    let metrics: Vec<Metric> = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("units_per_s", timing.units_per_s, "1/s"),
        metric("latency_p50_ms", timing.p50_ms, "ms"),
        metric("latency_p99_ms", timing.p99_ms, "ms"),
        metric("success_frac", 1.0 - stats::ratio(failed as f64, attempted as f64), "fraction"),
        metric("app_cycles_ratio", compiled_cycles as f64 / original_cycles as f64, "ratio"),
        metric("peak_rss_mb", common::peak_rss_mb(), "MiB"),
    ];
    notes.extend(timing.notes());
    let enough = timing.tails_hold();
    if !enough {
        notes.push("too few requests: a p99 has fewer than 10 samples beyond it".to_string());
    }
    Outcome { correct: failed == 0 && enough, attempted, failed, metrics, notes, spans: None }
}

pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let machine = common::machine();
    let s = setup(&machine, seed);
    warm_up(&s);
    let slice = Duration::from_secs_f64(seconds / (2 * TRACE_ROUNDS) as f64);
    let mut outputs = Outputs::new(s.methods.len());
    let max_blocks = s.methods.iter().map(|(_, m)| m.blocks().len()).max().unwrap_or(0);
    let headroom = 1 + SPANS_PER_BLOCK * max_blocks;
    let mut tr = Tracer::new(Instant::now(), SPAN_CAPACITY);
    let mut ctx = StageCtx::new(&machine);
    let mut tally = UnitTally::default();
    let engine = s.snapshot.compiled();
    let (mut plain_units, mut plain_s, mut plain_requests) = (0u64, 0.0, 0u64);
    let (mut traced_units, mut traced_ns, mut traced_requests) = (0u64, 0u64, 0u64);
    for round in 0..TRACE_ROUNDS {
        let plain = window(&s, slice, 0, &mut outputs);
        plain_units += plain.units;
        plain_s += plain.elapsed.as_secs_f64();
        plain_requests += plain.latencies_ns.len() as u64;
        if round == 0 {
            // Settle every method's output before the traced pass is
            // compared against it.
            verify(&s, &mut outputs, &machine);
        }
        // The same requests, compiled stage by stage, until the slice is
        // over or this round's share of the span buffer is used.
        let budget = SPAN_CAPACITY * (round + 1) / TRACE_ROUNDS;
        let start = tr.now();
        let deadline = start + nanos(slice);
        while tr.len() + headroom <= budget {
            let k = traced_requests as usize;
            let index = s.order[k % s.order.len()];
            let request = traced_requests;
            let root = tr.open("jit.compile", NO_PARENT, request);
            let mut method = s.methods[index].1.clone();
            ctx.traced_method(&mut tr, root, request, &mut method, engine, true, &mut tally);
            let mut out = Program::new(s.methods[index].0.clone());
            out.push_method(method);
            tr.close(root);
            ctx.replay_deps(&mut tr, request, &s.methods[index].1, &mut tally);
            traced_units += out.block_count() as u64;
            traced_requests += 1;
            outputs.observe(index, &out.methods()[0]);
            if tr.now() >= deadline {
                break;
            }
        }
        traced_ns += tr.now() - start;
    }
    let traced_s = traced_ns as f64 / 1e9;
    let spans = tr.into_spans();

    let by = spans::totals_by_name(&spans);
    let mut layers = Layers::default();
    report::stage_layers(&by, &tally, &mut layers);
    let compile = by.get("jit.compile").copied().unwrap_or_default();
    let per_request_us = |ns: u64| stats::ratio(ns as f64, compile.count as f64) / 1e3;
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let deps_ns = get("deps.build").duration_ns;
    let rows = vec![
        ("features.extract", per_request_us(get("features.extract").self_ns)),
        ("engine.score", per_request_us(get("engine.score").self_ns)),
        ("policy.decide", per_request_us(get("policy.decide").self_ns)),
        ("deps.build", per_request_us(deps_ns)),
        ("sched.schedule", per_request_us(get("sched.schedule").self_ns) - per_request_us(deps_ns)),
        ("jit.apply", per_request_us(get("jit.apply").self_ns)),
        ("jit.remainder", per_request_us(compile.self_ns)),
    ];
    let total_us = per_request_us(compile.duration_ns);
    layers.set("jit.apply_ns", stats::ratio(get("jit.apply").self_ns as f64, tally.selected as f64));
    layers.set("jit.remainder_us", per_request_us(compile.self_ns));
    layers.set("jit.request_us", total_us);
    let plain_rate = plain_units as f64 / plain_s;
    let traced_rate = traced_units as f64 / traced_s;
    layers.set("trace.untraced_over_traced", plain_rate / traced_rate);
    layers.set("trace.spans", spans.len() as f64);
    layers.set("trace.collect_us", report::collect_us(&s.methods, &machine));
    layers.set("train.fold_ms", s.train_s * 1e3);
    layers.set("train.corpus_records", s.seed_records as f64);
    layers.set("store.swap_us", report::swap_us(&s.snapshot, 11));

    let breakdown = report::Breakdown { unit: "us/request", rows, total_name: "jit.compile", total: total_us };
    let mut notes = breakdown.notes();
    notes.push(format!(
        "traced {traced_requests} requests, {traced_units} units in {traced_s:.3} s; \
         untraced {plain_requests} requests, {plain_units} units in {plain_s:.3} s"
    ));
    let attempted = plain_requests + traced_requests;
    let failed = outputs.failed_requests();
    Outcome {
        correct: failed == 0 && breakdown.sums(),
        attempted,
        failed,
        metrics: layers.metrics(),
        notes,
        spans: Some(spans),
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("durations here are far below 584 years")
}
