//! `dpm-perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload frontier|fleet|serve|serve-journaled \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). The line before it is the full record with
//! host provenance; a traced run also writes it, spans included, to
//! `perfbench/out/trace-<workload>-<seed>.json` ([`OUT_DIR`]).
//!
//! Exit status: 0 when every correctness check held, 1 when one failed
//! (the result line is still printed, with `"correct": false`), 2 when
//! the run could not complete. Failed operations are counted in the
//! result, never a reason to exit non-zero.

use std::process::ExitCode;

use dpm_perfbench::{run_workload, Size, Workload, OUT_DIR};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (frontier, fleet, serve, serve-journaled)")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run_workload(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dpm-perfbench: {} run failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };

    let p = &report.provenance;
    println!(
        "{} seed={} traced={} batches={} attempted={} failed={} | nproc={} profile={} rustc=\"{}\" git={}",
        args.workload.name(),
        p.seed,
        report.traced,
        report.batches,
        report.ops.attempted,
        report.ops.failed,
        p.nproc,
        p.profile,
        p.rustc,
        p.git_commit,
    );
    for m in report.metrics.0.iter().chain(&report.detail.0) {
        println!("  {:<28} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    for c in &report.checks {
        println!(
            "  check {} {}: {}",
            if c.passed { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for f in &report.failures {
        println!("  failed {f}");
    }
    let record = report.record_json();
    if report.traced {
        let path = format!(
            "{OUT_DIR}/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record.render()));
        match written {
            Ok(()) => println!("  trace written to {path}"),
            Err(e) => {
                eprintln!("dpm-perfbench: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        println!("record {}", record.render_compact());
    }
    println!("{}", report.result_json().render_compact());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
