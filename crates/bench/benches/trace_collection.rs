//! `trace_collection`: raw throughput of the serial trace-collection hot
//! path — the inner loop every experiment (LOOCV training, the
//! machines×learners×scopes matrix, the bench trajectory itself)
//! multiplies by corpus size, machine count and learner count.
//!
//! Two families:
//!
//! * **collect/** — one full instrumented pass (features + dependence
//!   DAG + list scheduling + both cost providers) over the FP suite,
//!   serial (`threads: 1`), at block and superblock scope. This is the
//!   path the CSR graph / scratch-scheduler overhaul targets; the
//!   per-iteration unit count is printed so `units/sec = count / time`
//!   reads off the report.
//! * **serialize/** — trace-file throughput: encode and decode of the
//!   binary `schedfilter-trace-bin-v1` corpus format, and encode of the
//!   write-only text rendering `repro dump` prints.
//!
//! Per-PR summaries of these numbers are persisted as `BENCH_<n>.json`
//! at the repo root (see README); run with `CRITERION_SUMMARY_JSON=path`
//! to have the harness append machine-readable result lines.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_core::{collect_trace_with, read_trace_binary, write_trace, write_trace_binary, TimingMode, TraceOptions};
use wts_ir::{Program, ScopeKind};

fn trace_collection(c: &mut Criterion) {
    let suite = wts_jit::Suite::fp(wts_bench::BENCH_SCALE);
    let machine = wts_machine::MachineConfig::ppc7410();
    let serial = TraceOptions { threads: 1, timing: TimingMode::Deterministic, ..Default::default() };
    let superblock = TraceOptions { scope: ScopeKind::Superblock(70), ..serial };
    let programs: Vec<Program> = suite.benchmarks().iter().map(|b| b.program().clone()).collect();
    let blocks: usize = programs.iter().map(|p| p.block_count()).sum();
    eprintln!("# trace_collection: {blocks} blocks per collect iteration");

    let mut group = c.benchmark_group("trace_collection");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("collect/serial_block", |b| {
        b.iter(|| {
            let mut records = 0usize;
            for p in &programs {
                records += collect_trace_with(black_box(p), &machine, &serial).len();
            }
            records
        });
    });
    group.bench_function("collect/serial_superblock", |b| {
        b.iter(|| {
            let mut records = 0usize;
            for p in &programs {
                records += collect_trace_with(black_box(p), &machine, &superblock).len();
            }
            records
        });
    });

    // Serialization throughput over the whole collected corpus.
    let records: Vec<_> = programs.iter().flat_map(|p| collect_trace_with(p, &machine, &serial)).collect();
    eprintln!("# trace_collection: {} records per serialize iteration", records.len());
    group.bench_function("serialize/text_write", |b| {
        b.iter(|| write_trace(black_box(&records)).expect("generated names are clean").len());
    });
    group.bench_function("serialize/binary_write", |b| {
        b.iter(|| write_trace_binary(black_box(&records)).expect("generated records are finite").len());
    });
    let binary = write_trace_binary(&records).expect("generated records are finite");
    group.bench_function("serialize/binary_read", |b| {
        b.iter(|| read_trace_binary(black_box(&binary)).expect("own output parses").len());
    });
    group.finish();
}

criterion_group!(benches, trace_collection);
criterion_main!(benches);
