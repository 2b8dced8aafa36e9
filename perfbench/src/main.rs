//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <jit_fp|serve_jvm|serve_jvm_retrain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds this binary first). With `--trace 0` the run measures the
//! end-to-end rows; with `--trace 1` it alternates untraced and traced
//! slices and reports the per-layer rows. Notes go to standard
//! output as `# ` lines; the last line is the JSON result. The result,
//! with the host description from `PERFBENCH_HOST`, is also written to
//! `perfbench/out/<workload>-trace<t>.json`, and a traced run's spans to
//! `perfbench/out/<workload>.spans.tsv`. The exit code is 0 only when
//! every output check passed.

mod common;
mod jit;
mod report;
mod serve;
mod spans;
mod stages;
mod stats;

use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <jit_fp|serve_jvm|serve_jvm_retrain> --seed <n> --seconds <s> --trace <0|1>";
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let retrain_every = match args.workload.as_str() {
        "jit_fp" => {
            return Ok(if args.trace {
                jit::run_traced(args.seed, args.seconds)
            } else {
                jit::run(args.seed, args.seconds)
            })
        }
        "serve_jvm" => 0,
        "serve_jvm_retrain" => serve::RETRAIN_EVERY,
        other => return Err(format!("unknown workload {other}")),
    };
    let outcome = if args.trace {
        serve::run_traced(args.seed, args.seconds, retrain_every)
    } else {
        serve::run(args.seed, args.seconds, retrain_every)
    };
    outcome.map_err(|e| format!("serving set-up failed: {e}"))
}

fn write_outputs(args: &Args, outcome: &report::Outcome, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let host = std::env::var("PERFBENCH_HOST").unwrap_or_else(|_| "null".to_string());
    let notes: Vec<String> = outcome.notes.iter().map(|n| common::json_string(n)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \"notes\": [{}], \"result\": {line}}}\n",
        common::json_string(&args.workload),
        args.seed,
        common::json_number(args.seconds),
        u8::from(args.trace),
        notes.join(", ")
    );
    std::fs::write(format!("{OUT_DIR}/{}-trace{}.json", args.workload, u8::from(args.trace)), record)?;
    if let Some(spans) = &outcome.spans {
        let file = std::fs::File::create(format!("{OUT_DIR}/{}.spans.tsv", args.workload))?;
        let mut w = std::io::BufWriter::new(file);
        spans::write_tsv(&mut w, spans)?;
        w.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = common::result_json(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics);
    if let Err(e) = write_outputs(&args, &outcome, &line) {
        eprintln!("perfbench: writing {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut out = std::io::stdout().lock();
    for note in &outcome.notes {
        let _ = writeln!(out, "# {}: {note}", args.workload);
    }
    for m in &outcome.metrics {
        let _ = writeln!(out, "# {}: {:<28} {:>16} {}", args.workload, m.name, common::json_number(m.value), m.unit);
    }
    let _ = writeln!(out, "{line}");
    if outcome.correct && outcome.metrics.iter().all(|m| m.value.is_finite()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
