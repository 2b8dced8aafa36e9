//! `serve_jvm` and `serve_jvm_retrain`: a live `wts-serve` instance on
//! localhost answering one jvm98 method per request to two closed-loop
//! clients, each a JIT that waits for its method to come back.

use crate::common::{self, metric, SuiteKind};
use crate::report::{self, Layers, Outcome};
use crate::spans::{self, Span, Tracer, NO_PARENT};
use crate::stages::{StageCtx, UnitTally, SPANS_PER_BLOCK};
use crate::stats;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wts_core::{FilterKey, FilterSnapshot, FilterStore, FilteredPass, ServedUnit, TraceRecord, UnitServer};
use wts_ir::Method;
use wts_machine::MachineConfig;
use wts_serve::{
    decode_batch_request, decode_response, encode_batch_request, encode_response, read_frame, write_frame, BatchResult,
    Response, ServeConfig, ServeReport, Server, ServerHandle,
};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 64;
/// Retrain cadence of `serve_jvm_retrain`, in observed records.
pub const RETRAIN_EVERY: usize = 256;

/// Span buffer per client; the traced pass ends early when one fills.
const SPAN_CAPACITY: usize = 1 << 18;
const SPANS_PER_REQUEST: usize = 5;
/// Server-side replays per distinct method; the median is used.
const REPLAYS: usize = 3;
/// Rounds of a traced run. Each serves an untraced window and then a
/// traced one, each on a fresh server from the seed corpus, so drift in
/// the host's speed reaches both sides of the tracing-overhead ratio
/// alike.
const TRACE_ROUNDS: usize = 4;

struct Setup {
    methods: Vec<(String, Method)>,
    order: Vec<usize>,
    seed_traces: Vec<TraceRecord>,
    handle: ServerHandle,
    clients: Vec<TcpStream>,
    /// The filter the run starts from (epoch 1).
    first_snapshot: Arc<FilterSnapshot>,
}

fn setup(seed: u64, retrain_every: usize) -> io::Result<Setup> {
    let machine = common::machine();
    let suite = common::generate_suite(SuiteKind::Jvm98, common::JVM_SCALE, seed);
    let seed_traces = common::seed_trace(&suite, &machine);
    let mut config = ServeConfig::new(machine, seed_traces.clone());
    config.options = common::trace_options();
    config.decision = common::DECISION;
    config.learner = common::learner();
    config.threshold = common::THRESHOLD;
    config.workers = WORKERS;
    config.queue_depth = QUEUE_DEPTH;
    config.retrain_every = retrain_every;
    config.persist_corpus = None;
    let handle = Server::bind("127.0.0.1:0", config)?;
    let clients = (0..CLIENTS)
        .map(|_| {
            let stream = TcpStream::connect(handle.local_addr())?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let first_snapshot = handle.store().get(handle.key()).expect("bind publishes the epoch-1 filter");
    let methods = common::suite_methods(&suite);
    let order = common::request_order(methods.len(), seed);
    Ok(Setup { methods, order, seed_traces, handle, clients, first_snapshot })
}

/// Hangs up the clients and drains the server; returns its report and
/// how long the drain took.
fn drain(s: Setup) -> (ServeReport, f64) {
    drop(s.clients);
    let t = Instant::now();
    let report = s.handle.shutdown();
    (report, t.elapsed().as_secs_f64())
}

/// Digest of a served batch's content: its units and the work channels
/// of its totals (not the batch id, nor the wall-clock `pass_ns`).
/// Requests keep only this, so what the checks hold stays small and
/// does not grow with the number of epochs a run sees.
fn digest(units: &[ServedUnit], totals: &FilteredPass) -> u64 {
    let mut h = DefaultHasher::new();
    for unit in units {
        (unit.decision, &unit.order, unit.cycles_before, unit.cycles_after).hash(&mut h);
    }
    (
        totals.total_blocks,
        totals.scheduled_blocks,
        totals.conditions_evaluated,
        totals.extraction_work,
        totals.sched_work,
    )
        .hash(&mut h);
    h.finish()
}

/// What the clients saw, merged across clients.
#[derive(Default)]
struct Seen {
    latencies_ns: Vec<u64>,
    attempted: u64,
    /// Requests that failed in the loop: I/O errors, Busy, Error, or a
    /// batch that does not answer the request.
    failed: u64,
    shed: u64,
    units: u64,
    request_bytes: u64,
    response_bytes: u64,
    /// Digest of the first batch seen per (method, epoch); every later
    /// one must match it.
    first: HashMap<(usize, u64), u64>,
    requests: HashMap<(usize, u64), u64>,
    bad: HashSet<(usize, u64)>,
    snapshots: BTreeMap<u64, Arc<FilterSnapshot>>,
    /// Epochs that were swapped out before a client could load them.
    missed: BTreeSet<u64>,
    /// (completion ns, method) of every traced request.
    log: Vec<(u64, usize)>,
    /// (method, ns waiting for the response) of every traced request.
    waits: Vec<(usize, u64)>,
}

impl Seen {
    fn observe(&mut self, index: usize, batch: BatchResult, store: &FilterStore, key: &FilterKey) {
        let epoch = batch.epoch;
        if !self.snapshots.contains_key(&epoch) && !self.missed.contains(&epoch) {
            match store.get(key) {
                Some(snapshot) if snapshot.epoch() == epoch => {
                    self.snapshots.insert(epoch, snapshot);
                }
                _ => {
                    self.missed.insert(epoch);
                }
            }
        }
        *self.requests.entry((index, epoch)).or_default() += 1;
        let served = digest(&batch.units, &batch.totals);
        match self.first.entry((index, epoch)) {
            Entry::Vacant(slot) => {
                slot.insert(served);
            }
            Entry::Occupied(slot) => {
                if *slot.get() != served {
                    self.bad.insert((index, epoch));
                }
            }
        }
    }

    fn merge(&mut self, other: Seen) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.units += other.units;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        for (key, served) in other.first {
            match self.first.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(served);
                }
                Entry::Occupied(slot) => {
                    if *slot.get() != served {
                        self.bad.insert(key);
                    }
                }
            }
        }
        for (key, n) in other.requests {
            *self.requests.entry(key).or_default() += n;
        }
        self.bad.extend(other.bad);
        self.snapshots.extend(other.snapshots);
        self.missed.extend(other.missed);
        self.missed.retain(|e| !self.snapshots.contains_key(e));
        self.log.extend(other.log);
        self.waits.extend(other.waits);
    }
}

struct Inputs<'a> {
    methods: &'a [(String, Method)],
    order: &'a [usize],
    store: &'a FilterStore,
    key: &'a FilterKey,
    epoch: Instant,
    deadline: Instant,
    /// Requests answered so far, across clients.
    answered: AtomicUsize,
    /// The window runs past the deadline until this many are answered.
    min_requests: usize,
}

fn since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).expect("a run lasts less than 584 years")
}

/// One client: send the next method as soon as the last one is
/// answered, until the deadline has passed and the clients together
/// have answered `min_requests` (or, traced, until the span buffer is
/// full). The round trip uses the raw protocol functions, so each of
/// its four steps can be timed.
fn client_loop(stream: &mut TcpStream, client: usize, inputs: &Inputs<'_>, mut tracer: Option<&mut Tracer>) -> Seen {
    let mut seen = Seen::default();
    let n = inputs.order.len();
    let offset = client * n / CLIENTS;
    for k in 0.. {
        if tracer.as_ref().is_some_and(|tr| tr.len() + SPANS_PER_REQUEST > SPAN_CAPACITY) {
            break;
        }
        let index = inputs.order[(offset + k) % n];
        let (benchmark, method) = &inputs.methods[index];
        let batch_id = k as u64;
        let t0 = Instant::now();
        let payload = encode_batch_request(batch_id, benchmark, std::slice::from_ref(method));
        let t1 = Instant::now();
        let written = write_frame(stream, &payload);
        let t2 = Instant::now();
        seen.attempted += 1;
        let frame = match written.and_then(|()| read_frame(stream)) {
            Ok(Some(frame)) => frame,
            // The connection is gone: nothing more can be sent on it.
            Ok(None) | Err(_) => {
                seen.failed += 1;
                break;
            }
        };
        let t3 = Instant::now();
        let response = decode_response(&frame);
        let t4 = Instant::now();
        seen.latencies_ns.push(since(t0, t4));
        seen.request_bytes += payload.len() as u64 + 4;
        seen.response_bytes += frame.len() as u64 + 4;
        if let Some(tr) = tracer.as_deref_mut() {
            seen.log.push((since(inputs.epoch, t4), index));
            let request = ((client as u64) << 48) | batch_id;
            let at = |t| since(inputs.epoch, t);
            let root = tr.record("serve.request", at(t0), at(t4), NO_PARENT, request);
            tr.record("serve.client_encode", at(t0), at(t1), root, request);
            tr.record("serve.client_write", at(t1), at(t2), root, request);
            tr.record("serve.client_wait", at(t2), at(t3), root, request);
            tr.record("serve.client_decode", at(t3), at(t4), root, request);
            seen.waits.push((index, since(t2, t3)));
        }
        match response {
            Ok(Response::Batch(batch)) if batch.batch_id == batch_id && batch.units.len() == method.blocks().len() => {
                seen.units += batch.units.len() as u64;
                seen.observe(index, batch, inputs.store, inputs.key);
            }
            Ok(Response::Busy { .. }) => {
                seen.shed += 1;
                seen.failed += 1;
            }
            _ => seen.failed += 1,
        }
        let answered = inputs.answered.fetch_add(1, Ordering::Relaxed) + 1;
        if t4 >= inputs.deadline && answered >= inputs.min_requests {
            break;
        }
    }
    seen
}

struct WindowRun {
    seen: Seen,
    elapsed_s: f64,
    spans: Vec<Span>,
}

/// Serves from every client for `length` (and until `min_requests` are
/// answered). With `trace` set, each round trip is recorded as spans
/// timed from that instant.
fn window(s: &mut Setup, length: Duration, min_requests: usize, trace: Option<Instant>) -> WindowRun {
    let store = Arc::clone(s.handle.store());
    let key = s.handle.key().clone();
    let start = Instant::now();
    let traced = trace.is_some();
    let epoch = trace.unwrap_or(start);
    let inputs = Inputs {
        methods: &s.methods,
        order: &s.order,
        store: &store,
        key: &key,
        epoch,
        deadline: start + length,
        answered: AtomicUsize::new(0),
        min_requests,
    };
    let mut tracers: Vec<Tracer> =
        (0..CLIENTS).map(|_| Tracer::new(epoch, if traced { SPAN_CAPACITY } else { 0 })).collect();
    let runs: Vec<Seen> = std::thread::scope(|scope| {
        let inputs = &inputs;
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (stream, tr))| scope.spawn(move || client_loop(stream, c, inputs, traced.then_some(tr))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut seen = Seen::default();
    for run in runs {
        seen.merge(run);
    }
    seen.latencies_ns.shrink_to_fit();
    seen.log.sort_unstable();
    let spans = if traced { spans::merge(tracers.into_iter().map(Tracer::into_spans).collect()) } else { Vec::new() };
    WindowRun { seen, elapsed_s, spans }
}

/// Outside the timed window: every distinct batch the clients saw must
/// match the in-process `UnitServer` output for the same method under
/// the same epoch's filter, and every order in that output must keep
/// the dependence oracle's edges. Returns the requests answered wrongly.
fn verify(seen: &mut Seen, methods: &[(String, Method)], machine: &MachineConfig) -> u64 {
    let mut server = UnitServer::new(machine, common::SCHEDULE_POLICY);
    for (&(index, epoch), &served) in &seen.first {
        let method = &methods[index].1;
        let ok = seen.snapshots.get(&epoch).is_some_and(|snapshot| {
            let mut totals = FilteredPass::default();
            let expected: Vec<ServedUnit> = method
                .blocks()
                .iter()
                .map(|b| {
                    server.serve_block(b.insts(), b.exec_count(), snapshot.compiled(), &common::DECISION, &mut totals)
                })
                .collect();
            digest(&expected, &totals) == served
                && expected.iter().zip(method.blocks()).all(|(unit, block)| {
                    if unit.decision {
                        let order: Vec<usize> = unit.order.iter().map(|&i| i as usize).collect();
                        common::order_respects_oracle(block.insts(), &order)
                    } else {
                        unit.order.is_empty()
                    }
                })
        });
        if !ok {
            seen.bad.insert((index, epoch));
        }
    }
    seen.bad.iter().map(|key| seen.requests.get(key).copied().unwrap_or(0)).sum()
}

/// Application cycles of the suite compiled in process under
/// `snapshot`, the filter every `serve_jvm` batch is checked against,
/// and of the unscheduled suite.
fn app_cycles(methods: &[(String, Method)], snapshot: &FilterSnapshot, machine: &MachineConfig) -> (u64, u64) {
    let mut server = UnitServer::new(machine, common::SCHEDULE_POLICY);
    let mut totals = FilteredPass::default();
    let compiled: Vec<Method> = methods
        .iter()
        .map(|(_, method)| {
            let mut method = method.clone();
            for block in method.blocks_mut() {
                let unit = server.serve_block(
                    block.insts(),
                    block.exec_count(),
                    snapshot.compiled(),
                    &common::DECISION,
                    &mut totals,
                );
                if unit.decision {
                    let order: Vec<usize> = unit.order.iter().map(|&i| i as usize).collect();
                    *block = block.reordered(&order);
                }
            }
            method
        })
        .collect();
    let original = common::app_cycles(methods.iter().map(|(_, m)| m.clone()), machine);
    (common::app_cycles(compiled, machine), original)
}

/// Checks that need the drained server's report; each failure is noted
/// and counted as one failed request.
fn drain_checks(report: &ServeReport, seen: &Seen, retraining: bool, notes: &mut Vec<String>) -> u64 {
    let mut failures = 0;
    let mut check = |ok: bool, what: String| {
        if !ok {
            notes.push(format!("check failed: {what}"));
            failures += 1;
        }
    };
    check(
        report.stats.units_served == seen.units,
        format!("server served {} units, clients received {}", report.stats.units_served, seen.units),
    );
    check(
        report.stats.batches_shed == seen.shed,
        format!("server shed {} batches, clients saw {}", report.stats.batches_shed, seen.shed),
    );
    if retraining {
        check(
            report.retrain.records_absorbed == report.stats.units_served,
            format!(
                "retrainer absorbed {} records for {} served units",
                report.retrain.records_absorbed, report.stats.units_served
            ),
        );
    }
    check(seen.missed.is_empty(), format!("epochs {:?} were swapped out before they could be checked", seen.missed));
    failures
}

pub fn run(seed: u64, seconds: f64, retrain_every: usize) -> io::Result<Outcome> {
    let machine = common::machine();
    let length = Duration::from_secs_f64(seconds / common::EPISODES as f64);
    let mut setup_s = Vec::new();
    let mut notes = Vec::new();
    let (mut episodes, mut attempted, mut failed) = (Vec::new(), 0, 0);
    let (mut compiled_cycles, mut original_cycles) = (0, 0);
    for e in 0..common::EPISODES {
        let t = Instant::now();
        let mut s = setup(common::episode_seed(seed, e), retrain_every)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let w = window(&mut s, length, report::MIN_REQUESTS.div_ceil(common::EPISODES), None);
        let mut seen = w.seen;
        let methods = std::mem::take(&mut s.methods);
        let first_snapshot = Arc::clone(&s.first_snapshot);
        let (report, drain_s) = drain(s);
        failed += seen.failed
            + verify(&mut seen, &methods, &machine)
            + drain_checks(&report, &seen, retrain_every > 0, &mut notes);
        let (compiled, original) = app_cycles(&methods, &first_snapshot, &machine);
        compiled_cycles += compiled;
        original_cycles += original;
        notes.push(format!(
            "episode {e}: methods {} requests {} units {} in {:.3} s, epochs {} folds {} drain {drain_s:.3} s",
            methods.len(),
            seen.attempted,
            seen.units,
            w.elapsed_s,
            seen.snapshots.len(),
            report.retrain.retrains,
        ));
        attempted += seen.attempted;
        episodes.push(report::Episode {
            latencies_ns: std::mem::take(&mut seen.latencies_ns),
            units: seen.units,
            elapsed_s: w.elapsed_s,
        });
    }
    let failed = failed.min(attempted);
    let timing = report::timing(episodes);
    let metrics = vec![
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
    Ok(Outcome { correct: failed == 0 && enough, attempted, failed, metrics, notes, spans: None })
}

/// Median server-side time of one method, replayed on its request
/// payload: decode, snapshot load, unit serving, response encode (ns).
#[derive(Debug, Clone, Copy, Default)]
struct ServerSide {
    decode: u64,
    get: u64,
    serve: u64,
    encode: u64,
}

impl ServerSide {
    fn total(&self) -> u64 {
        self.decode + self.get + self.serve + self.encode
    }
}

fn replay_server(
    tr: &mut Tracer,
    index: usize,
    (benchmark, method): &(String, Method),
    store: &FilterStore,
    key: &FilterKey,
    unit_server: &mut UnitServer<'_>,
) -> ServerSide {
    let payload = encode_batch_request(index as u64, benchmark, std::slice::from_ref(method));
    let mut reps: Vec<[u64; 4]> = (0..REPLAYS)
        .map(|_| {
            let request = index as u64;
            let t0 = tr.now();
            let decoded = decode_batch_request(&payload).expect("a payload the client encoded decodes");
            let t1 = tr.now();
            let snapshot = store.get(key).expect("the served key stays published");
            let t2 = tr.now();
            let mut totals = FilteredPass::default();
            let units: Vec<ServedUnit> = decoded
                .methods
                .iter()
                .flat_map(|m| m.blocks())
                .map(|b| {
                    unit_server.serve_block(
                        b.insts(),
                        b.exec_count(),
                        snapshot.compiled(),
                        &common::DECISION,
                        &mut totals,
                    )
                })
                .collect();
            let t3 = tr.now();
            let bytes = encode_response(&Response::Batch(BatchResult {
                batch_id: decoded.batch_id,
                epoch: snapshot.epoch(),
                totals,
                units,
            }));
            let t4 = tr.now();
            std::hint::black_box(bytes);
            let root = tr.record("serve.replay", t0, t4, NO_PARENT, request);
            tr.record("serve.decode", t0, t1, root, request);
            tr.record("store.get", t1, t2, root, request);
            tr.record("core.unit_server", t2, t3, root, request);
            tr.record("serve.encode", t3, t4, root, request);
            [t1 - t0, t2 - t1, t3 - t2, t4 - t3]
        })
        .collect();
    reps.sort_unstable_by_key(|r| r.iter().sum::<u64>());
    let [decode, get, serve, encode] = reps[REPLAYS / 2];
    ServerSide { decode, get, serve, encode }
}

/// Replays the retrainer's folds on the clients' answered requests in
/// completion order: the corpus grows by each method's trace records,
/// and every `RETRAIN_EVERY` records `train_filter` runs over it. At
/// most `max_folds` folds. Returns (corpus records, fold ms) per fold.
fn replay_folds(
    seed_traces: &[TraceRecord],
    log: &[(u64, usize)],
    methods: &[(String, Method)],
    machine: &MachineConfig,
    max_folds: u64,
) -> Vec<(usize, f64)> {
    let options = common::trace_options();
    let config = common::train_config();
    let mut records: HashMap<usize, Vec<TraceRecord>> = HashMap::new();
    let mut corpus = seed_traces.to_vec();
    let mut pending = 0;
    let mut folds = Vec::new();
    for &(_, index) in log {
        if folds.len() as u64 >= max_folds {
            break;
        }
        let (benchmark, method) = &methods[index];
        let new = records
            .entry(index)
            .or_insert_with(|| wts_core::collect_method_trace(benchmark, method, machine, &options));
        pending += new.len();
        corpus.extend(new.iter().cloned());
        if pending >= RETRAIN_EVERY {
            let t = Instant::now();
            std::hint::black_box(wts_core::train_filter(&corpus, &config));
            folds.push((corpus.len(), t.elapsed().as_secs_f64() * 1e3));
            pending = 0;
        }
    }
    folds
}

pub fn run_traced(seed: u64, seconds: f64, retrain_every: usize) -> io::Result<Outcome> {
    let machine = common::machine();
    let slice = Duration::from_secs_f64(seconds / (2 * TRACE_ROUNDS) as f64);
    let run_epoch = Instant::now();
    let mut notes = Vec::new();
    let mut failed = 0;
    let (mut plain_units, mut plain_s, mut plain_attempted, mut plain_shed) = (0, 0.0, 0, 0);
    let mut seen = Seen::default();
    let mut traced_s = 0.0;
    let mut traced_spans = Vec::new();
    let (mut folds, mut retrains, mut last_epoch, mut absorbed, mut served, mut drain_s) =
        (Vec::new(), 0, 0, 0, 0, 0.0);
    let mut last = None;
    for round in 0..TRACE_ROUNDS {
        let mut s = setup(seed, retrain_every)?;
        let plain = window(&mut s, slice, 0, None);
        let mut plain_seen = plain.seen;
        let methods = std::mem::take(&mut s.methods);
        let (report, _) = drain(s);
        failed += plain_seen.failed
            + verify(&mut plain_seen, &methods, &machine)
            + drain_checks(&report, &plain_seen, retrain_every > 0, &mut notes);
        plain_units += plain_seen.units;
        plain_s += plain.elapsed_s;
        plain_attempted += plain_seen.attempted;
        plain_shed += plain_seen.shed;

        let mut s = setup(seed, retrain_every)?;
        let traced = window(&mut s, slice, 0, Some(run_epoch));
        let mut round_seen = traced.seen;
        let store = Arc::clone(s.handle.store());
        let key = s.handle.key().clone();
        let seed_traces = std::mem::take(&mut s.seed_traces);
        let (report, round_drain_s) = drain(s);
        failed += round_seen.failed
            + verify(&mut round_seen, &methods, &machine)
            + drain_checks(&report, &round_seen, retrain_every > 0, &mut notes);
        if retrain_every > 0 {
            folds.extend(replay_folds(&seed_traces, &round_seen.log, &methods, &machine, report.retrain.retrains));
        } else if round == 0 {
            // No retraining: the one fold is the initial training.
            let t = Instant::now();
            std::hint::black_box(wts_core::train_filter(&seed_traces, &common::train_config()));
            folds.push((seed_traces.len(), t.elapsed().as_secs_f64() * 1e3));
        }
        retrains += report.retrain.retrains;
        last_epoch = last_epoch.max(report.retrain.last_epoch);
        absorbed += report.retrain.records_absorbed;
        served += report.stats.units_served;
        drain_s += round_drain_s / TRACE_ROUNDS as f64;
        traced_s += traced.elapsed_s;
        traced_spans.push(traced.spans);
        // Each round's outputs are checked above; only its traffic is
        // pooled (epochs restart with every server).
        round_seen.first.clear();
        round_seen.requests.clear();
        round_seen.bad.clear();
        round_seen.snapshots.clear();
        round_seen.missed.clear();
        seen.merge(round_seen);
        last = Some((store, key, methods));
    }
    let (store, key, methods) = last.expect("at least one round");

    // Replays, with the server drained so nothing competes for the CPU.
    let used: BTreeSet<usize> = seen.waits.iter().map(|&(index, _)| index).collect();
    let mut tr = Tracer::new(run_epoch, used.len() * REPLAYS * 5);
    let mut unit_server = UnitServer::new(&machine, common::SCHEDULE_POLICY);
    let server_side: HashMap<usize, ServerSide> = used
        .iter()
        .map(|&index| (index, replay_server(&mut tr, index, &methods[index], &store, &key, &mut unit_server)))
        .collect();
    let snapshot = store.get(&key).expect("the served key stays published");
    let mut ctx = StageCtx::new(&machine);
    let mut tally = UnitTally::default();
    let max_blocks = methods.iter().map(|(_, m)| m.blocks().len()).max().unwrap_or(0);
    let mut stage_tr = Tracer::new(run_epoch, used.len() * (1 + SPANS_PER_BLOCK * max_blocks));
    for &index in &used {
        let request = index as u64;
        let root = stage_tr.open("core.stages", NO_PARENT, request);
        let mut method = methods[index].1.clone();
        ctx.traced_method(&mut stage_tr, root, request, &mut method, snapshot.compiled(), false, &mut tally);
        stage_tr.close(root);
        ctx.replay_deps(&mut stage_tr, request, &methods[index].1, &mut tally);
    }

    let mut layers = Layers::default();
    let stage_by = spans::totals_by_name(stage_tr.spans());
    report::stage_layers(&stage_by, &tally, &mut layers);

    let client_spans = spans::merge(traced_spans);
    let by = spans::totals_by_name(&client_spans);
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let requests = get("serve.request").count as f64;
    let per_request_us = |ns: f64| stats::ratio(ns, requests) / 1e3;
    let sum_side =
        |f: fn(&ServerSide) -> u64| -> f64 { seen.waits.iter().map(|(index, _)| f(&server_side[index]) as f64).sum() };
    let transport_ns: f64 =
        seen.waits.iter().map(|(index, wait)| *wait as f64 - server_side[index].total() as f64).sum();
    let rows = vec![
        ("serve.client_encode", per_request_us(get("serve.client_encode").self_ns as f64)),
        ("serve.client_write", per_request_us(get("serve.client_write").self_ns as f64)),
        ("serve.decode", per_request_us(sum_side(|s| s.decode))),
        ("store.get", per_request_us(sum_side(|s| s.get))),
        ("core.unit_server", per_request_us(sum_side(|s| s.serve))),
        ("serve.encode", per_request_us(sum_side(|s| s.encode))),
        ("serve.transport_queue", per_request_us(transport_ns)),
        ("serve.client_decode", per_request_us(get("serve.client_decode").self_ns as f64)),
        ("serve.remainder", per_request_us(get("serve.request").self_ns as f64)),
    ];
    let total_us = per_request_us(get("serve.request").duration_ns as f64);
    for (name, row) in [
        ("serve.client_encode_us", "serve.client_encode"),
        ("serve.client_write_us", "serve.client_write"),
        ("serve.client_decode_us", "serve.client_decode"),
    ] {
        layers.set(name, per_request_us(get(row).self_ns as f64));
    }
    layers.set("serve.client_wait_us", per_request_us(get("serve.client_wait").self_ns as f64));
    layers.set("serve.remainder_us", per_request_us(get("serve.request").self_ns as f64));
    layers.set("serve.request_us", total_us);
    layers.set("serve.decode_us", per_request_us(sum_side(|s| s.decode)));
    layers.set("store.get_ns", per_request_us(sum_side(|s| s.get)) * 1e3);
    layers.set("core.unit_server_us", per_request_us(sum_side(|s| s.serve)));
    layers.set("serve.encode_us", per_request_us(sum_side(|s| s.encode)));
    layers.set("serve.transport_queue_us", per_request_us(transport_ns));
    layers.set("serve.request_bytes", stats::ratio(seen.request_bytes as f64, seen.attempted as f64));
    layers.set("serve.response_bytes", stats::ratio(seen.response_bytes as f64, seen.attempted as f64));
    layers.set("serve.shed", (plain_shed + seen.shed) as f64);
    layers.set("trace.collect_us", report::collect_us(used.iter().map(|&i| &methods[i]), &machine));
    layers.set("store.swap_us", report::swap_us(&snapshot, 11));
    layers.set("retrain.folds", retrains as f64 / TRACE_ROUNDS as f64);
    layers.set("retrain.absorbed_frac", stats::ratio(absorbed as f64, served as f64));
    layers.set("retrain.drain_s", drain_s);
    layers.set("retrain.last_epoch", last_epoch as f64);
    for (k, (records, ms)) in folds.iter().enumerate() {
        notes.push(format!("fold point {k}: corpus {records} records, train_filter {ms:.3} ms"));
    }
    layers.set("train.fold_ms", stats::ratio(folds.iter().map(|f| f.1).sum(), folds.len() as f64));
    layers.set("train.corpus_records", folds.iter().map(|f| f.0).max().unwrap_or(0) as f64);

    let plain_rate = plain_units as f64 / plain_s;
    let traced_rate = seen.units as f64 / traced_s;
    layers.set("trace.untraced_over_traced", plain_rate / traced_rate);

    let all_spans = spans::merge(vec![client_spans, tr.into_spans(), stage_tr.into_spans()]);
    layers.set("trace.spans", all_spans.len() as f64);

    let breakdown = report::Breakdown { unit: "us/request", rows, total_name: "serve.request", total: total_us };
    notes.extend(breakdown.notes());
    notes.push(format!(
        "traced {} requests, {} units in {traced_s:.3} s; untraced {plain_attempted} requests, {plain_units} units \
         in {plain_s:.3} s; {} distinct methods replayed",
        seen.attempted,
        seen.units,
        used.len()
    ));
    let attempted = plain_attempted + seen.attempted;
    let failed = failed.min(attempted);
    Ok(Outcome {
        correct: failed == 0 && breakdown.sums(),
        attempted,
        failed,
        metrics: layers.metrics(),
        notes,
        spans: Some(all_spans),
    })
}
