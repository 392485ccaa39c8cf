//! Canonical solve-phase benchmark: kernel-level and end-to-end timings
//! into `BENCH_solve.json`.
//!
//! Three measurement groups, each with a correctness check riding along:
//!
//! 1. **Evaluation and improvement** at queue capacity `--capacity`
//!    (default 100), both timed at the converged policy: evaluation is
//!    [`ChainFactors::new`] on the policy's chain plus
//!    [`ChainFactors::solve`] for its gains and bias, which must equal
//!    policy iteration's own; improvement is [`average::improve`], the
//!    two-stage rule policy iteration runs, which must be a fixpoint.
//! 2. **Solve-phase pipeline**: a weight sweep as a
//!    [`dpm_harness::solve::SolvePlan`] at 1 worker versus
//!    `--solve-workers`, checked bit-identical. Each pipeline is timed as
//!    the mean of 3 runs after one warm-up.
//! 3. **Stationary solver tiers**: GTH state reduction ([`Method::Gth`]
//!    on a sparse generator, in reverse Cuthill–McKee order) versus
//!    ILU(0)-preconditioned BiCGSTAB on synthetic sparse birth–death
//!    chains up to `--tier-states` (default 100 000) states, recording
//!    the direct↔Krylov crossover. `--tol` sets BiCGSTAB's tolerance.
//!    Each solve is timed as the mean of 3 runs after one warm-up. The
//!    tiers must agree to ≤ 1e-8.
//!
//! Deterministic fields (`params`, `checks`) are canonical; wall-clock
//! numbers live under the `timers` key, which the artifact diff strips.
//! On a single-core CI host the speedups are *recorded*, not asserted.
//!
//! ```text
//! cargo run --release -p dpm-bench --bin bench_solve -- \
//!     [--capacity Q] [--rounds R] [--solve-workers N] \
//!     [--tol T] \
//!     [--tier-states N] [--seed S] \
//!     [--out results/BENCH_solve.json]
//! ```

use dpm_bench::{row, rule, time_sweeps};
use dpm_core::{optimize, PmSystem, SpModel, SrModel};
use dpm_ctmc::{
    stationary::{self, ChainFactors, Method},
    SparseGenerator,
};
use dpm_harness::{
    artifact,
    cli::{self, Args},
    solve, Json, PlanPoint, SolvePlan,
};
use dpm_mdp::{average, Ctmdp};

/// Timed repetitions of each pipeline run and solver-tier solve, after
/// one untimed warm-up.
const TIMED_ROUNDS: usize = 3;

/// The paper's server model at an enlarged queue capacity.
fn paper_mdp(capacity: usize, weight: f64) -> Result<Ctmdp, Box<dyn std::error::Error>> {
    let system = PmSystem::builder()
        .provider(SpModel::dac99_server()?)
        .requestor(SrModel::poisson(1.0 / 6.0)?)
        .capacity(capacity)
        .build()?;
    Ok(system.ctmdp(weight)?)
}

/// A sparse birth–death chain with smoothly varying rates: stiff enough
/// to exercise the ILU(0) preconditioner, smooth enough (no bottleneck
/// level) that every solver tier can reach the 1e-8 agreement bound. The
/// substrate for the solver-tier crossover measurement.
fn birth_death_sparse(n: usize) -> Result<SparseGenerator, Box<dyn std::error::Error>> {
    let mut transitions = Vec::with_capacity(2 * (n - 1));
    for i in 0..n - 1 {
        #[allow(clippy::cast_precision_loss)]
        let phase = i as f64 * 0.01;
        transitions.push((i, i + 1, 0.8 + 0.15 * phase.sin()));
        transitions.push((i + 1, i, 1.0 + 0.15 * phase.cos()));
    }
    Ok(SparseGenerator::from_transitions(n, &transitions)?)
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&cli::with_resilience_flags(&[
        "capacity",
        "rounds",
        "solve-workers",
        "tol",
        "tier-states",
        "seed",
        "out",
    ]))?;
    let capacity = args.get_usize("capacity", 100)?;
    let rounds = args.get_usize("rounds", 20)?.max(1);
    let solve_workers = args.get_usize("solve-workers", 2)?.max(2);
    let root_seed = args.get_u64("seed", 1300)?;
    let out = args.get_str("out", "results/BENCH_solve.json");

    // BiCGSTAB's tolerance in the stationary tiers.
    let tolerance = args.get_f64("tol", stationary::DEFAULT_TOLERANCE)?;

    // ------------------------------------------------------------------
    // 1. Evaluation and improvement sweep at Q = capacity.
    // ------------------------------------------------------------------
    let mdp = paper_mdp(capacity, 1.0)?;
    let n = mdp.n_states();
    let kernel = mdp.sparse_actions();
    // Real gains and bias: converge policy iteration once and reuse its
    // evaluation and policy for every timed sweep.
    let initial = mdp.min_cost_policy();
    let solved = average::policy_iteration_multichain(&mdp, initial, &average::Options::default())?;
    let policy = solved.policy().clone();
    let generator = mdp.sparse_generator_for(&policy)?;
    let costs = mdp.cost_rates_for(&policy)?;
    let (evaluated, eval_secs) = time_sweeps(rounds, || {
        ChainFactors::new(&generator).and_then(|factors| factors.solve(&costs))
    });
    let (eval_gains, eval_bias) = evaluated?;
    // Policy iteration's last round evaluated this very chain.
    let evaluation_matches = eval_gains == *solved.gains() && eval_bias == *solved.bias();
    let tol = average::Options::default().improvement_tolerance;
    let (improved, improve_secs) = time_sweeps(rounds, || {
        average::improve(&kernel, &policy, solved.gains(), solved.bias(), tol)
    });
    // At a converged policy the improvement sweep must be a fixpoint.
    let improvement_fixpoint = improved == policy;

    // ------------------------------------------------------------------
    // 2. Solve-phase pipeline, serial vs parallel.
    // ------------------------------------------------------------------
    let mut sweep_plan = SolvePlan::new("bench-solve-sweep", root_seed);
    let mut weight = 0.05;
    let mut n_sweep = 0usize;
    while weight < 50.0 {
        sweep_plan =
            sweep_plan.point(PlanPoint::new(format!("w={weight:.3}")).with("weight", weight));
        weight *= 2.5;
        n_sweep += 1;
    }
    let sweep_system = PmSystem::builder()
        .provider(SpModel::dac99_server()?)
        .requestor(SrModel::poisson(1.0 / 6.0)?)
        .capacity(5)
        .build()?;
    let run_sweep = |workers: usize| {
        solve::run_solve_plan(&sweep_plan, workers, |ctx| {
            let w = ctx.point.param("weight").unwrap().as_f64().unwrap();
            optimize::optimal_policy(&sweep_system, w).map_err(|e| e.to_string())
        })
    };
    let (serial, serial_secs) = time_sweeps(TIMED_ROUNDS, || run_sweep(1));
    let serial = serial?;
    let (parallel, parallel_secs) = time_sweeps(TIMED_ROUNDS, || run_sweep(solve_workers));
    let parallel = parallel?;
    let fingerprint = |records: &[solve::SolveRecord<optimize::OptimalSolution>]| {
        records
            .iter()
            .map(|r| {
                (
                    r.index,
                    r.output.policy().clone(),
                    r.output.metrics().power().to_bits(),
                    r.output.metrics().queue_length().to_bits(),
                    r.output.iterations(),
                )
            })
            .collect::<Vec<_>>()
    };
    let pipeline_identical = fingerprint(&serial) == fingerprint(&parallel);

    // ------------------------------------------------------------------
    // 3. Stationary solver tiers: GTH vs BiCGSTAB + ILU(0).
    // ------------------------------------------------------------------
    let tier_states = args.get_usize("tier-states", 100_000)?;
    let tier_sizes: Vec<usize> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&s| s <= tier_states.max(1_000))
        .collect();
    // (size, method name, secs, sweeps, norm_inf diff vs GTH)
    let mut tier_rows: Vec<(usize, String, f64, usize, f64)> = Vec::new();
    let mut tiers_agree = true;
    let mut tier_max_diff = 0.0f64;
    let tier_label = |method: Method| match method {
        Method::BiCgStab => "bicgstab_ilu0",
        _ => "gth",
    };
    for &size in &tier_sizes {
        let chain = birth_death_sparse(size)?;
        let mut reference = None;
        for method in [Method::Gth, Method::BiCgStab] {
            let (solved, secs) = time_sweeps(TIMED_ROUNDS, || {
                stationary::Solver::new(method)
                    .tolerance(tolerance)
                    .solve(&chain)
            });
            let (pi, stats) = solved?;
            let diff = match &reference {
                None => {
                    reference = Some(pi);
                    0.0
                }
                Some(reference) => (&pi - reference).norm_inf(),
            };
            tier_max_diff = tier_max_diff.max(diff);
            tiers_agree &= diff <= 1e-8;
            tier_rows.push((
                size,
                tier_label(method).to_owned(),
                secs,
                stats.sweeps(),
                diff,
            ));
        }
    }

    // ------------------------------------------------------------------
    // Report + artifact.
    // ------------------------------------------------------------------
    let widths = [26usize, 14, 14];
    println!("Solve-phase benchmark (Q = {capacity}, {n} states, {rounds} sweeps)");
    row(
        &["kernel".into(), "secs/sweep".into(), "speedup".into()],
        &widths,
    );
    rule(&widths);
    row(
        &[
            "policy evaluation".into(),
            format!("{eval_secs:.3e}"),
            "-".into(),
        ],
        &widths,
    );
    row(
        &[
            "improvement sweep".into(),
            format!("{improve_secs:.3e}"),
            "-".into(),
        ],
        &widths,
    );
    rule(&widths);
    for (name, secs) in [
        ("solve pipeline: 1 worker", serial_secs),
        ("solve pipeline: parallel", parallel_secs),
    ] {
        row(
            &[
                name.into(),
                format!("{secs:.3e}"),
                format!("{:.1}x", serial_secs / secs),
            ],
            &widths,
        );
    }

    let tier_widths = [10usize, 16, 12, 8, 12];
    println!("\nStationary solver tiers (birth–death chains, diff vs GTH)");
    row(
        &[
            "states".into(),
            "method".into(),
            "secs".into(),
            "sweeps".into(),
            "max |diff|".into(),
        ],
        &tier_widths,
    );
    rule(&tier_widths);
    for (size, name, secs, sweeps, diff) in &tier_rows {
        row(
            &[
                format!("{size}"),
                name.clone(),
                format!("{secs:.3e}"),
                format!("{sweeps}"),
                format!("{diff:.2e}"),
            ],
            &tier_widths,
        );
    }
    println!(
        "\nchecks: evaluation matches = {evaluation_matches}, improvement fixpoint = \
         {improvement_fixpoint},\n        pipeline identical = {pipeline_identical}, \
         solver tiers agree = {tiers_agree} (max diff {tier_max_diff:.2e})"
    );

    let mut doc = Json::object();
    doc.set("schema_version", 1u64);
    doc.set("experiment", "bench_solve");
    let mut params = Json::object();
    params.set("capacity", capacity);
    params.set("rounds", rounds);
    params.set("n_states", n);
    params.set("nnz", kernel.nnz());
    params.set("sweep_points", n_sweep);
    params.set("root_seed", root_seed);
    params.set("tier_states", tier_states);
    params.set("tol", Json::num(tolerance));
    doc.set("params", params);
    let mut checks = Json::object();
    checks.set("evaluation_matches_policy_iteration", evaluation_matches);
    checks.set("improvement_is_fixpoint", improvement_fixpoint);
    checks.set("solve_parallel_identical", pipeline_identical);
    checks.set("stationary_tiers_agree", tiers_agree);
    checks.set("stationary_tiers_max_diff", Json::num(tier_max_diff));
    doc.set("checks", checks);
    let mut timers = Json::object();
    timers.set("eval_secs", Json::num(eval_secs));
    timers.set("improve_secs", Json::num(improve_secs));
    timers.set("pipeline_serial_secs", Json::num(serial_secs));
    timers.set("pipeline_parallel_secs", Json::num(parallel_secs));
    timers.set("solve_workers", solve_workers);
    for (size, name, secs, sweeps, _) in &tier_rows {
        timers.set(&format!("tier_{name}_secs_n{size}"), Json::num(*secs));
        timers.set(&format!("tier_{name}_sweeps_n{size}"), *sweeps);
    }
    for &size in &tier_sizes {
        let fastest = tier_rows
            .iter()
            .filter(|r| r.0 == size)
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .map_or("none", |r| r.1.as_str());
        timers.set(&format!("tier_fastest_n{size}"), fastest);
    }
    doc.set("timers", timers);

    artifact::write(&out, &doc)?;
    if !(evaluation_matches && improvement_fixpoint && pipeline_identical && tiers_agree) {
        return Err("solve-phase correctness checks failed (see artifact)".into());
    }
    println!("artifact: {out}");
    Ok(())
}
