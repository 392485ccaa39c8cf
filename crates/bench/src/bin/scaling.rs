//! Scaling study: sparse CSR assembly + Gauss–Seidel stationary solve vs
//! dense assembly + GTH as the SYS state space grows into the 10⁴–10⁵
//! range.
//!
//! The SYS chain has O(1) transitions per state, so the sparse generator
//! holds O(n) entries where the dense one holds n². This binary sweeps the
//! queue capacity and provider mode count, timing both pipelines end to
//! end (assembly + solve) and reporting their agreement where both run.
//! The dense pipeline is skipped beyond `--dense-limit`, where
//! materializing and factoring the n × n matrix is the point being
//! avoided. The run exits non-zero if a task fails or the two
//! distributions differ by more than 1e-9.
//!
//! Under a greedy policy the SYS chain is *reducible*: one closed class
//! plus thousands of transient states. Both pipelines solve only the
//! closed class, so this binary is the end-to-end gate on that path. The
//! sparse solver stays [`Method::Iterative`] because that path shares
//! nothing with GTH, so the two pipelines check each other; it is not
//! the faster one. On the 1 501-state class of the 3-mode chain at
//! Q = 500, Gauss–Seidel takes ~20 ms, GTH ~0.6 ms and BiCGSTAB + ILU(0)
//! diverges (residual 5.7e35 after 9 655 steps; 2-vCPU host).
//! The GTH↔Krylov crossover on irreducible chains is measured in
//! `bench_solve` instead.
//!
//! Runs on the `dpm-harness` plan runner: each (modes, capacity) cell is
//! a plan point, solver sweep counts and residuals land in task
//! telemetry, and the run writes a versioned JSON artifact.
//!
//! ```text
//! cargo run --release -p dpm-bench --bin scaling -- \
//!     [--capacities 5,50,200,500] [--modes 3,5] [--dense-limit 500] \
//!     [--workers N] [--seed S] [--reps R] [--out results/scaling.json]
//! ```

use dpm_bench::{counter_value, row, rule, timer_mean_secs};
use dpm_core::{DpmError, PmPolicy, PmSystem, SpModel, SrModel};
use dpm_ctmc::stationary::{self, Method};
use dpm_harness::{
    artifact,
    cli::{self, Args},
    plan::Plan,
    runner, Json, ParamValue,
};

/// Largest accepted `max |π_dense − π_sparse|` on a cell.
const MAX_DIFF: f64 = 1e-9;

/// A five-mode device: two active speeds plus three sleep depths, fully
/// connected, in the style of the paper's general model.
fn five_mode_server() -> Result<SpModel, DpmError> {
    let mut b = SpModel::builder();
    b.mode("fast", 1.0, 50.0);
    b.mode("slow", 0.4, 18.0);
    b.mode("idle", 0.0, 5.0);
    b.mode("standby", 0.0, 1.0);
    b.mode("sleep", 0.0, 0.2);
    let times = [
        // from -> to, mean switch time, energy
        (0, 1, 0.05, 0.1),
        (1, 0, 0.05, 0.2),
        (0, 2, 0.1, 0.2),
        (2, 0, 0.2, 1.0),
        (0, 3, 0.2, 0.4),
        (3, 0, 0.6, 4.0),
        (0, 4, 0.3, 0.6),
        (4, 0, 1.1, 11.0),
        (1, 2, 0.1, 0.15),
        (2, 1, 0.18, 0.8),
        (1, 3, 0.2, 0.3),
        (3, 1, 0.55, 3.2),
        (1, 4, 0.3, 0.5),
        (4, 1, 1.0, 9.0),
        (2, 3, 0.15, 0.1),
        (3, 2, 0.2, 0.5),
        (2, 4, 0.25, 0.2),
        (4, 2, 0.9, 7.0),
        (3, 4, 0.2, 0.1),
        (4, 3, 0.7, 5.0),
    ];
    for (from, to, time, energy) in times {
        b.switch_time(from, to, time)?.energy(from, to, energy)?;
    }
    b.build()
}

/// A synthetic device with one active mode and `modes - 1` progressively
/// deeper sleep modes, each reachable from active (and back). Parameters
/// are deterministic functions of the depth so any mode count sweeps the
/// same family.
fn synthetic_server(modes: usize) -> Result<SpModel, DpmError> {
    let mut b = SpModel::builder();
    b.mode("active", 1.0, 50.0);
    for depth in 1..modes {
        let k = depth as f64;
        b.mode(format!("sleep{depth}"), 0.0, 50.0 / (2.0 * k + 1.0));
    }
    // Fully connected: going deeper is fast and cheap, waking is slower
    // and costs energy, both scaling with the depth distance.
    for from in 0..modes {
        for to in 0..modes {
            if from == to {
                continue;
            }
            let gap = from.abs_diff(to) as f64;
            if to > from {
                b.switch_time(from, to, 0.05 * gap)?
                    .energy(from, to, 0.1 * gap)?;
            } else {
                b.switch_time(from, to, 0.2 * gap)?.energy(from, to, gap)?;
            }
        }
    }
    b.build()
}

/// The provider for a requested mode count: the paper's 3-mode server and
/// the DVS-style 5-mode device keep their historical definitions; other
/// counts use the synthetic family.
fn provider_for(modes: usize) -> Result<SpModel, DpmError> {
    match modes {
        3 => SpModel::dac99_server(),
        5 => five_mode_server(),
        _ => synthetic_server(modes),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&cli::with_resilience_flags(&[
        "capacities",
        "modes",
        "dense-limit",
        "workers",
        "seed",
        "reps",
        "out",
    ]))?;
    let capacities = args.get_usize_list("capacities", &[5, 50, 200, 500, 2_500, 20_000])?;
    let modes = args.get_usize_list("modes", &[3, 5])?;
    let dense_limit = args.get_usize("dense-limit", 500)?;
    let workers = args.workers()?;
    let root_seed = args.get_u64("seed", 1)?;
    let reps = args.get_u64("reps", 1)?;
    let out = args.get_str("out", "results/scaling.json");

    for &m in &modes {
        if m < 2 {
            return Err("--modes entries must be at least 2".into());
        }
    }

    let plan = Plan::new("scaling", root_seed).replications(reps).grid(&[
        (
            "modes",
            modes.iter().map(|&m| ParamValue::from(m)).collect(),
        ),
        (
            "capacity",
            capacities.iter().map(|&c| ParamValue::from(c)).collect(),
        ),
    ])?;

    let run_config = args.run_config()?;
    let report = runner::run_plan_resilient(&plan, &run_config, |ctx| {
        let task = || -> Result<Json, DpmError> {
            let m = ctx.point.param("modes").unwrap().as_i64().unwrap() as usize;
            let capacity = ctx.point.param("capacity").unwrap().as_i64().unwrap() as usize;
            let system = PmSystem::builder()
                .provider(provider_for(m)?)
                .requestor(SrModel::poisson(1.0 / 6.0)?)
                .capacity(capacity)
                .build()?;
            let policy = PmPolicy::greedy(&system)?;

            let (sparse, pi_sparse, stats) = ctx.telemetry.time("sparse", || {
                let sparse = system.sparse_generator_for(&policy)?;
                let (pi, stats) = stationary::Solver::new(Method::Iterative).solve(&sparse)?;
                Ok::<_, DpmError>((sparse, pi, stats))
            })?;
            ctx.telemetry
                .incr("stationary.sweeps", stats.sweeps() as u64);
            ctx.telemetry.gauge("stationary.residual", stats.residual());

            let mut out = Json::object();
            out.set("states", system.n_states());
            out.set("nnz", sparse.nnz());
            out.set("sweeps", stats.sweeps());
            out.set("residual", Json::num(stats.residual()));
            if capacity < dense_limit {
                let pi_dense = ctx.telemetry.time("dense", || {
                    let dense = system.generator_for(&policy)?;
                    stationary::Solver::new(Method::Gth)
                        .solve(&dense)
                        .map(|(pi, _)| pi)
                        .map_err(DpmError::from)
                })?;
                out.set("max_diff", Json::num((&pi_sparse - &pi_dense).norm_inf()));
            }
            Ok(out)
        };
        task().map_err(|e| e.to_string())
    })?;
    for outcome in &report.outcomes {
        if let runner::TaskOutcome::Failed(f) = outcome {
            eprintln!(
                "warning: task {} ({}) failed after {} attempts: {}",
                f.index,
                plan.points()[f.point_index].label(),
                f.attempts,
                f.error
            );
        }
    }
    let records: Vec<_> = report.records().into_iter().cloned().collect();

    let widths = [8usize, 8, 8, 8, 12, 12, 10, 12];
    println!("Scaling — sparse (CSR + Gauss-Seidel) vs dense (GTH) stationary pipeline");
    println!("Policy: greedy; times include generator assembly.\n");
    for (mi, &m) in modes.iter().enumerate() {
        println!("{m}-mode provider");
        row(
            &[
                "Q".into(),
                "states".into(),
                "nnz".into(),
                "sweeps".into(),
                "dense (ms)".into(),
                "sparse (ms)".into(),
                "speedup".into(),
                "max |diff|".into(),
            ],
            &widths,
        );
        rule(&widths);
        for (ci, &capacity) in capacities.iter().enumerate() {
            let point = mi * capacities.len() + ci;
            let Some(&record) = runner::records_for_point(&records, point).first() else {
                println!("{capacity:>8}  failed");
                continue;
            };
            let sparse_ms = timer_mean_secs(record, "sparse").unwrap_or(0.0) * 1e3;
            let (dense_text, speedup_text, diff_text) = match timer_mean_secs(record, "dense") {
                None => ("skipped".into(), "-".into(), "-".into()),
                Some(dense_secs) => {
                    let dense_ms = dense_secs * 1e3;
                    let diff = record.result.get("max_diff").unwrap().as_f64().unwrap();
                    (
                        format!("{dense_ms:.2}"),
                        format!("{:.1}x", dense_ms / sparse_ms),
                        format!("{diff:.2e}"),
                    )
                }
            };
            row(
                &[
                    format!("{capacity}"),
                    format!("{}", record.result.get("states").unwrap().as_f64().unwrap()),
                    format!("{}", record.result.get("nnz").unwrap().as_f64().unwrap()),
                    format!(
                        "{}",
                        counter_value(record, "stationary.sweeps").unwrap_or(0)
                    ),
                    dense_text,
                    format!("{sparse_ms:.2}"),
                    speedup_text,
                    diff_text,
                ],
                &widths,
            );
        }
        println!();
    }

    let doc = artifact::build_run(&plan, workers, &report);
    artifact::write(&out, &doc)?;
    println!("artifact: {out}");
    if report.n_failed() > 0 {
        return Err(format!("{} scaling task(s) failed", report.n_failed()).into());
    }
    let max_diff = records
        .iter()
        .filter_map(|r| r.result.get("max_diff").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    if max_diff > MAX_DIFF {
        return Err(
            format!("dense and sparse π differ by {max_diff:e} (bound {MAX_DIFF:e})").into(),
        );
    }
    Ok(())
}
