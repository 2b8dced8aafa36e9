//! Figure 3(a): scheduling time of filters on the floating-point suite
//! (the benchmarks that actually benefit from scheduling, Table 7).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wts_core::{AlwaysSchedule, Experiment};
use wts_jit::{CompileSession, Suite};
use wts_machine::MachineConfig;

fn fig3a(c: &mut Criterion) {
    let suite = Suite::fp(wts_bench::BENCH_SCALE);
    let machine = MachineConfig::ppc7410();
    let run = Experiment::new(machine.clone()).run(suite.benchmarks().iter().map(|b| b.program().clone()).collect());
    let session = CompileSession::new(&machine);
    let mut group = c.benchmark_group("fig3a_fp_suite");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for bench in suite.benchmarks() {
        let name = bench.name().to_string();
        group.bench_function(format!("{name}/LS"), |b| {
            b.iter(|| {
                let (_, stats) = session.compile(black_box(bench.program()), &AlwaysSchedule);
                black_box(stats.pass_ns)
            });
        });
        for t in [0u32, 20] {
            let filter = run.filter_for(t, &name);
            group.bench_function(format!("{name}/LN_t{t}"), |b| {
                b.iter(|| {
                    let (_, stats) = session.compile(black_box(bench.program()), &filter);
                    black_box(stats.pass_ns)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig3a);
criterion_main!(benches);
