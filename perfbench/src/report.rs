//! Turning measurements into the rows a run reports.

use crate::common::{self, metric, Metric};
use crate::spans::{NameTotals, Span};
use crate::stages::UnitTally;
use crate::stats::{self, Percentile};
use std::collections::BTreeMap;
use std::time::Instant;
use wts_core::{FilterSnapshot, FilterStore};
use wts_ir::Method;
use wts_machine::MachineConfig;

/// Samples a p99 needs beyond it to be reported.
pub const MIN_TAIL: usize = 10;

/// Requests a p99 is taken over at least, so it has `MIN_TAIL` samples
/// beyond it. A run's timed windows run on until they have them.
pub const MIN_REQUESTS: usize = 100 * MIN_TAIL;

/// Everything one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Vec<Span>>,
}

pub struct Latency {
    pub p50: Percentile,
    pub p99: Percentile,
}

/// p50 and p99 in milliseconds; sorts `latencies_ns` in place.
pub fn latency_ms(latencies_ns: &mut [u64]) -> Latency {
    if latencies_ns.is_empty() {
        let none = Percentile { value: 0.0, samples: 0, beyond: 0 };
        return Latency { p50: none, p99: none };
    }
    latencies_ns.sort_unstable();
    let ms = |p: Percentile| Percentile { value: p.value / 1e6, ..p };
    Latency { p50: ms(stats::percentile(latencies_ns, 50.0)), p99: ms(stats::percentile(latencies_ns, 99.0)) }
}

impl Latency {
    pub fn note(&self) -> String {
        format!(
            "latency over {} requests: p50 {:.4} ms, p99 {:.4} ms with {} samples beyond it",
            self.p99.samples, self.p50.value, self.p99.value, self.p99.beyond
        )
    }
}

/// What one episode of a run measured.
pub struct Episode {
    pub latencies_ns: Vec<u64>,
    pub units: u64,
    pub elapsed_s: f64,
}

/// A run's timing rows: throughput, p50 and p99, each the median over
/// blocks of consecutive episodes that hold at least `MIN_REQUESTS`
/// requests (a short last block joins the one before it). A stall of the
/// host during one block then moves that block's figures, not the run's.
pub struct Timing {
    pub units_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Throughput and latency of each block.
    pub blocks: Vec<(f64, Latency)>,
}

pub fn timing(episodes: Vec<Episode>) -> Timing {
    let mut groups: Vec<Vec<Episode>> = Vec::new();
    let mut current = Vec::new();
    let mut requests = 0;
    for episode in episodes {
        requests += episode.latencies_ns.len();
        current.push(episode);
        if requests >= MIN_REQUESTS {
            groups.push(std::mem::take(&mut current));
            requests = 0;
        }
    }
    if !current.is_empty() {
        match groups.last_mut() {
            Some(last) => last.append(&mut current),
            None => groups.push(current),
        }
    }
    let blocks: Vec<(f64, Latency)> = groups
        .into_iter()
        .map(|group| {
            let units: u64 = group.iter().map(|e| e.units).sum();
            let elapsed_s: f64 = group.iter().map(|e| e.elapsed_s).sum();
            // Sized up front, so the harness's own memory in `peak_rss_mb`
            // does not swing with how far a vector happened to grow.
            let mut latencies_ns = Vec::with_capacity(group.iter().map(|e| e.latencies_ns.len()).sum());
            for episode in group {
                latencies_ns.extend(episode.latencies_ns);
            }
            (stats::ratio(units as f64, elapsed_s), latency_ms(&mut latencies_ns))
        })
        .collect();
    let median_of = |f: fn(&(f64, Latency)) -> f64| stats::median(&blocks.iter().map(f).collect::<Vec<_>>());
    Timing {
        units_per_s: median_of(|b| b.0),
        p50_ms: median_of(|b| b.1.p50.value),
        p99_ms: median_of(|b| b.1.p99.value),
        blocks,
    }
}

impl Timing {
    /// Whether every block's p99 has `MIN_TAIL` samples beyond it.
    pub fn tails_hold(&self) -> bool {
        self.blocks.iter().all(|(_, l)| l.p99.beyond >= MIN_TAIL)
    }

    pub fn notes(&self) -> Vec<String> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(k, (rate, latency))| format!("block {k}: {rate:.0} units/s, {}", latency.note()))
            .collect()
    }
}

/// Every per-layer metric with its unit, in report order. A row a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.extract_ns", "ns"),
    ("engine.score_ns", "ns"),
    ("engine.conditions", "count"),
    ("policy.decide_ns", "ns"),
    ("policy.select_frac", "fraction"),
    ("sched.useful_frac", "fraction"),
    ("deps.build_ns", "ns"),
    ("deps.edges", "count"),
    ("sched.schedule_ns", "ns"),
    ("jit.apply_ns", "ns"),
    ("jit.remainder_us", "us"),
    ("jit.request_us", "us"),
    ("serve.client_encode_us", "us"),
    ("serve.client_write_us", "us"),
    ("serve.client_wait_us", "us"),
    ("serve.client_decode_us", "us"),
    ("serve.remainder_us", "us"),
    ("serve.request_us", "us"),
    ("serve.decode_us", "us"),
    ("store.get_ns", "ns"),
    ("core.unit_server_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.transport_queue_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.shed", "count"),
    ("trace.collect_us", "us"),
    ("train.fold_ms", "ms"),
    ("train.corpus_records", "count"),
    ("store.swap_us", "us"),
    ("retrain.folds", "count"),
    ("retrain.absorbed_frac", "fraction"),
    ("retrain.drain_s", "s"),
    ("retrain.last_epoch", "count"),
    ("trace.untraced_over_traced", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER.iter().map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit)).collect()
    }
}

/// Stage rows per unit (extraction, scoring, decision) and per selected
/// unit (graph build, scheduling self time).
pub fn stage_layers(by: &BTreeMap<&str, NameTotals>, tally: &UnitTally, layers: &mut Layers) {
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let units = tally.units as f64;
    let selected = tally.selected as f64;
    let deps_ns = get("deps.build").duration_ns as f64;
    layers.set("features.extract_ns", stats::ratio(get("features.extract").self_ns as f64, units));
    layers.set("engine.score_ns", stats::ratio(get("engine.score").self_ns as f64, units));
    layers.set("engine.conditions", stats::ratio(tally.conditions as f64, units));
    layers.set("policy.decide_ns", stats::ratio(get("policy.decide").self_ns as f64, units));
    layers.set("policy.select_frac", stats::ratio(selected, units));
    layers.set("sched.useful_frac", stats::ratio(tally.useful as f64, selected));
    layers.set("deps.build_ns", stats::ratio(deps_ns, selected));
    layers.set("deps.edges", stats::ratio(tally.edges as f64, selected));
    layers.set("sched.schedule_ns", stats::ratio(get("sched.schedule").self_ns as f64 - deps_ns, selected));
}

/// Mean microseconds of `collect_method_trace` per method: what the
/// retrainer spends to absorb one served method.
pub fn collect_us<'a>(methods: impl IntoIterator<Item = &'a (String, Method)>, machine: &MachineConfig) -> f64 {
    let options = common::trace_options();
    let mut times = Vec::new();
    for (benchmark, method) in methods {
        let t = Instant::now();
        std::hint::black_box(wts_core::collect_method_trace(benchmark, method, machine, &options));
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::ratio(times.iter().sum(), times.len() as f64)
}

/// Swaps `snapshot`'s filter into a private store `reps` times and
/// returns the median swap time in microseconds (filter lowering plus
/// the epoch bump).
pub fn swap_us(snapshot: &FilterSnapshot, reps: usize) -> f64 {
    let store = FilterStore::new();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let filter = snapshot.source().clone();
            let t = Instant::now();
            std::hint::black_box(store.swap(snapshot.key().clone(), filter));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// A per-request split of one end-to-end time into stage rows whose sum
/// is the total.
pub struct Breakdown {
    pub unit: &'static str,
    pub rows: Vec<(&'static str, f64)>,
    pub total_name: &'static str,
    pub total: f64,
}

impl Breakdown {
    pub fn sum(&self) -> f64 {
        self.rows.iter().map(|(_, v)| v).sum()
    }

    /// Whether the rows add up to the total, to float rounding.
    pub fn sums(&self) -> bool {
        (self.sum() - self.total).abs() <= 1e-6 * self.total.abs().max(1.0)
    }

    pub fn notes(&self) -> Vec<String> {
        let mut notes: Vec<String> =
            self.rows.iter().map(|(name, value)| format!("breakdown {name:<26} {value:>12.4} {}", self.unit)).collect();
        notes.push(format!(
            "breakdown sum of rows {:.4} {} = {} {:.4} {}: {}",
            self.sum(),
            self.unit,
            self.total_name,
            self.total,
            self.unit,
            if self.sums() { "ok" } else { "MISMATCH" }
        ));
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_within_rounding() {
        let b = Breakdown { unit: "us", rows: vec![("a", 1.25), ("b", 2.5)], total_name: "t", total: 3.75 };
        assert!(b.sums());
        let b = Breakdown { total: 3.8, ..b };
        assert!(!b.sums());
    }

    #[test]
    fn unset_layers_read_zero_and_keep_order() {
        let mut layers = Layers::default();
        layers.set("serve.shed", 2.0);
        let metrics = layers.metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].name, "features.extract_ns");
        assert_eq!(metrics[0].value, 0.0);
        assert_eq!(metrics.iter().find(|m| m.name == "serve.shed").map(|m| m.value), Some(2.0));
    }

    fn episode(requests: u64, units: u64) -> Episode {
        Episode { latencies_ns: (1..=requests).map(|i| i * 1000).collect(), units, elapsed_s: 1.0 }
    }

    #[test]
    fn short_episodes_pool_into_blocks_of_a_thousand() {
        let t = timing(vec![episode(600, 10), episode(600, 20), episode(700, 30), episode(300, 40)]);
        // 600 + 600 make a block; 700 + 300 make the second.
        assert_eq!(t.blocks.len(), 2);
        assert_eq!(t.blocks.iter().map(|b| b.1.p99.samples).collect::<Vec<_>>(), vec![1200, 1000]);
        assert_eq!(t.units_per_s, (15.0 + 35.0) / 2.0);
        assert!(t.tails_hold());
    }

    #[test]
    fn a_short_last_block_joins_the_one_before() {
        let t = timing(vec![episode(1000, 1), episode(1200, 1), episode(400, 1)]);
        assert_eq!(t.blocks.iter().map(|b| b.1.p99.samples).collect::<Vec<_>>(), vec![1000, 1600]);
        let t = timing(vec![episode(400, 1), episode(500, 1)]);
        assert_eq!(t.blocks.len(), 1);
        assert!(!t.tails_hold(), "900 requests leave only 9 beyond p99");
    }

    #[test]
    fn timing_rows_are_medians_over_blocks() {
        let t = timing(vec![episode(1000, 10), episode(1000, 30), episode(1000, 20)]);
        assert_eq!(t.units_per_s, 20.0);
        assert_eq!(t.p99_ms, 0.99);
    }

    #[test]
    fn empty_latency_sample_reads_zero() {
        assert_eq!(latency_ms(&mut []).p99.samples, 0);
        let l = latency_ms(&mut [2_000_000, 1_000_000, 3_000_000]);
        assert_eq!((l.p50.value, l.p99.value), (2.0, 3.0));
    }
}
