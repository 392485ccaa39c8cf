//! Cluster scaling benchmark: the `dpm-cluster` fleet solver into
//! `BENCH_cluster.json`, sibling to `BENCH_solve.json` and
//! `BENCH_serve.json`.
//!
//! Three measurement groups, each with a correctness gate riding along:
//!
//! 1. **Joint gate (small `K`)**: fleets of the paper's 23-state SYS
//!    chain (greedy policy, λ = 1/6) with a work-migration coupling are
//!    solved two ways at every `K` in `1..=--gate-k` (default 3, joint
//!    space 23³ = 12 167): matrix-free against the implicit
//!    [`KroneckerOp`](dpm_linalg::KroneckerOp) and materialized through the stock stationary
//!    ladder. The two distributions must agree to ≤ 1e-10 entrywise, the
//!    matrix-free π must lie within 1e-12 of GTH on the materialized
//!    generator (`gth_max_abs_diff`; Gauss–Seidel alone is ~1e-12 off),
//!    and the exchangeability-lumped refinement must match the joint
//!    solve — otherwise the binary exits nonzero. Each gate row records whether
//!    the matrix-free solve `escalated` (ran without its block-Jacobi
//!    preconditioner), and both solves are timed as the mean of 3 runs
//!    after one warm-up.
//! 2. **Fleet scaling (lumped, large `K`)**: a 6-state M/M/1/5 local
//!    chain with the same coupling shape is scaled across `--fleet-k`
//!    (default `2,4,6,8`). Only the occupancy-space chain (`C(n+K−1,
//!    K)` states) is ever materialized; the joint space is reported but
//!    never built. At `K = 8` the joint space holds 6⁸ = 1 679 616 >
//!    10⁶ states while the lumped solve runs on 1 287. Peak matrix
//!    bytes are recorded for both representations (implicit operator
//!    factors vs. what a materialized CSR joint matrix would hold is
//!    reported as the lumped generator's actual CSR bytes vs. the
//!    factor-sized operator bytes).
//! 3. **Two-level control**: the per-server/cluster-level CTMDP
//!    decomposition runs on a 3-level load model (per-server models are
//!    the paper's SYS CTMDP with the load split across active servers),
//!    swept in parallel through the harness plan runner.
//!
//! Deterministic fields (`params`, `gate`, `fleet`, `two_level`,
//! `checks`) are canonical; wall-clock numbers live under the `timers`
//! key, which the artifact diff strips.
//!
//! ```text
//! cargo run --release -p dpm-bench --bin bench_cluster -- \
//!     [--gate-k K] [--fleet-k LIST] [--workers W] [--weight W] \
//!     [--seed S] [--out results/BENCH_cluster.json]
//! ```

use dpm_bench::{paper_system, row, rule, time_sweeps, timed};
use dpm_cluster::{
    solve_joint_materialized, solve_joint_matrix_free, solve_lumped, solve_two_level, ClusterError,
    ClusterModel, ClusterSpec, CouplingTerm, JointOptions, CLUSTER_BENCH_FORMAT,
};
use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
use dpm_ctmc::{
    stationary::{Method, Solver},
    SparseGenerator,
};
use dpm_harness::{artifact, cli::Args, Json};
use dpm_linalg::{CsrMatrix, DVector};

/// Timed repetitions of each gate solve, after one untimed warm-up.
const TIMED_ROUNDS: usize = 3;

/// Tolerance of the matrix-free vs. materialized gate.
const GATE_TOL: f64 = 1e-10;

/// Tolerance of the matrix-free vs. GTH (exact materialized) gate.
const GTH_TOL: f64 = 1e-12;

/// Tolerance of the lumped-refinement vs. joint gate (two independent
/// Krylov solves, so round-off compounds slightly past the direct gate).
const REFINE_TOL: f64 = 1e-8;

/// A work-migration coupling on an `n`-state birth-death-shaped chain:
/// the donor sheds one unit of backlog (state `n-1 -> n-2`) while the
/// receiver absorbs one (state `0 -> 1`).
fn migration_coupling(n: usize, rate: f64) -> Result<CouplingTerm, ClusterError> {
    let donor = CsrMatrix::from_triplets(n, n, &[(n - 1, n - 2, 1.0)])?;
    let receiver = CsrMatrix::from_triplets(n, n, &[(0, 1, 1.0)])?;
    CouplingTerm::new(rate, donor, receiver)
}

/// The paper's SYS chain under the greedy policy as a fleet's local
/// generator.
fn paper_local_chain() -> Result<SparseGenerator, Box<dyn std::error::Error>> {
    let system = paper_system(1.0 / 6.0)?;
    let policy = PmPolicy::greedy(&system)?;
    Ok(system.sparse_generator_for(&policy)?)
}

/// The fleet's stationary distribution by GTH elimination on the
/// materialized joint generator: the exact reference for the gate.
fn gth_reference(model: &ClusterModel) -> Result<DVector, ClusterError> {
    let csr = model.joint_operator()?.materialize()?;
    let transitions: Vec<(usize, usize, f64)> =
        csr.iter().filter(|&(i, j, v)| i != j && v > 0.0).collect();
    let generator = SparseGenerator::from_transitions(csr.nrows(), &transitions)?;
    Ok(Solver::new(Method::Gth).solve(&generator)?.0)
}

/// A 6-state M/M/1/5 local chain for the large-fleet scaling axis.
fn mm1k_local_chain(lambda: f64, mu: f64) -> Result<SparseGenerator, Box<dyn std::error::Error>> {
    let mut transitions = Vec::new();
    for i in 0..5 {
        transitions.push((i, i + 1, lambda));
        transitions.push((i + 1, i, mu));
    }
    Ok(SparseGenerator::from_transitions(6, &transitions)?)
}

/// One joint-gate measurement.
struct GateRow {
    k: usize,
    joint_states: usize,
    lumped_states: usize,
    matrix_free_bytes: usize,
    materialized_bytes: usize,
    max_abs_diff: f64,
    gth_max_abs_diff: f64,
    refine_max_abs_diff: f64,
    iterations: usize,
    escalated: bool,
    free_secs: f64,
    materialized_secs: f64,
}

/// One fleet-scaling measurement.
struct FleetRow {
    k: usize,
    joint_states: u128,
    lumped_states: usize,
    operator_bytes: usize,
    lumped_bytes: usize,
    method: String,
    residual: f64,
    mass_error: f64,
    secs: f64,
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&["gate-k", "fleet-k", "workers", "weight", "seed", "out"])?;
    let gate_k = args.get_usize("gate-k", 3)?.clamp(1, 4);
    let fleet_ks = args.get_usize_list("fleet-k", &[2, 4, 6, 8])?;
    let workers = args.get_usize("workers", 2)?.max(1);
    let weight = args.get_f64("weight", 1.0)?;
    let root_seed = args.get_u64("seed", 4200)?;
    let out = args.get_str("out", "results/BENCH_cluster.json");

    // ------------------------------------------------------------------
    // 1. Joint gate: matrix-free == materialized == lumped-refined at
    //    small K on the paper's SYS chain.
    // ------------------------------------------------------------------
    let paper_chain = paper_local_chain()?;
    let n_paper = paper_chain.n_states();
    let mut gate_rows: Vec<GateRow> = Vec::with_capacity(gate_k);
    for k in 1..=gate_k {
        let mut model = ClusterModel::new(paper_chain.clone(), k)?;
        if k >= 2 {
            model = model.with_coupling(migration_coupling(n_paper, 0.05)?)?;
        }
        let (free, free_secs) = time_sweeps(TIMED_ROUNDS, || {
            solve_joint_matrix_free(&model, &JointOptions::default())
        });
        let free = free?;
        let (reference, materialized_secs) =
            time_sweeps(TIMED_ROUNDS, || solve_joint_materialized(&model));
        let reference = reference?;
        let mut max_abs_diff = 0.0f64;
        for i in 0..free.pi().len() {
            max_abs_diff = max_abs_diff.max((free.pi()[i] - reference.pi()[i]).abs());
        }
        let exact = gth_reference(&model)?;
        let gth_max_abs_diff = (0..exact.len())
            .map(|i| (free.pi()[i] - exact[i]).abs())
            .fold(0.0, f64::max);
        let lumped = solve_lumped(&model)?;
        let refined = lumped.refine_joint()?;
        let mut refine_max_abs_diff = 0.0f64;
        for i in 0..refined.len() {
            refine_max_abs_diff = refine_max_abs_diff.max((refined[i] - free.pi()[i]).abs());
        }
        gate_rows.push(GateRow {
            k,
            joint_states: free.pi().len(),
            lumped_states: lumped.index().len(),
            matrix_free_bytes: free.operator_bytes(),
            materialized_bytes: reference.matrix_bytes(),
            max_abs_diff,
            gth_max_abs_diff,
            refine_max_abs_diff,
            iterations: free.iterations(),
            escalated: free.escalated(),
            free_secs,
            materialized_secs,
        });
    }
    let gate_passes = gate_rows.iter().all(|r| r.max_abs_diff <= GATE_TOL);
    let gth_passes = gate_rows.iter().all(|r| r.gth_max_abs_diff <= GTH_TOL);
    let refine_passes = gate_rows
        .iter()
        .all(|r| r.refine_max_abs_diff <= REFINE_TOL);

    // ------------------------------------------------------------------
    // 2. Fleet scaling: lumped-only solves with the joint space reported
    //    but never materialized.
    // ------------------------------------------------------------------
    let fleet_chain = mm1k_local_chain(2.0, 3.0)?;
    let mut fleet_rows: Vec<FleetRow> = Vec::with_capacity(fleet_ks.len());
    for &k in &fleet_ks {
        let k = k.max(1);
        let model = ClusterModel::new(fleet_chain.clone(), k)?
            .with_coupling(migration_coupling(6, 0.25)?)?;
        // The implicit operator is assembled (factor-sized storage, no
        // joint matvec run) purely to report the matrix-free footprint.
        let operator_bytes = model.joint_operator()?.storage_bytes();
        let (lumped, secs) = timed(|| solve_lumped(&model));
        let lumped = lumped?;
        let mass: f64 = (0..lumped.pi().len()).map(|i| lumped.pi()[i]).sum();
        fleet_rows.push(FleetRow {
            k,
            joint_states: (6u128).pow(u32::try_from(k).unwrap_or(u32::MAX)),
            lumped_states: lumped.index().len(),
            operator_bytes,
            lumped_bytes: lumped.generator_bytes(),
            method: lumped.stats().method().name().to_owned(),
            residual: lumped.stats().residual(),
            mass_error: (mass - 1.0).abs(),
            secs,
        });
    }
    let largest = fleet_rows.iter().max_by_key(|r| r.k);
    let large_fleet_exceeds_million = largest.is_some_and(|r| r.joint_states > 1_000_000);
    let fleet_masses_normalized = fleet_rows.iter().all(|r| r.mass_error < 1e-9);

    // ------------------------------------------------------------------
    // 3. Two-level control: per-server sweep + cluster CTMDP.
    // ------------------------------------------------------------------
    let base_lambda = 1.0 / 6.0;
    let local_model = |level: usize, k: usize| -> Result<dpm_mdp::Ctmdp, ClusterError> {
        let lambda = base_lambda * (level as f64 + 1.0) / k as f64;
        let system = PmSystem::builder()
            .provider(SpModel::dac99_server().map_err(to_cluster_error)?)
            .requestor(SrModel::poisson(lambda).map_err(to_cluster_error)?)
            .capacity(3)
            .build()
            .map_err(to_cluster_error)?;
        system.ctmdp(weight).map_err(to_cluster_error)
    };
    let spec = ClusterSpec {
        k: 4,
        level_up: vec![0.5, 0.3],
        level_down: vec![0.8, 1.0],
        offered: vec![base_lambda, 2.0 * base_lambda, 3.0 * base_lambda],
        wake_rate: 2.0,
        sleep_rate: 2.0,
        sleep_power: 0.1,
        drop_penalty: 50.0,
        root_seed,
    };
    let (two_level, two_level_secs) = timed(|| solve_two_level(&spec, local_model, workers));
    let two_level = two_level?;
    let two_level_mass: f64 = (0..two_level.pi().len()).map(|i| two_level.pi()[i]).sum();
    let two_level_normalized = (two_level_mass - 1.0).abs() < 1e-8;

    // ------------------------------------------------------------------
    // Report + artifact.
    // ------------------------------------------------------------------
    let widths = [4usize, 12, 12, 14, 14, 12, 12, 12];
    println!("Joint gate (paper SYS chain, {n_paper} local states, coupling 0.05)");
    row(
        &[
            "K".into(),
            "joint".into(),
            "lumped".into(),
            "free-bytes".into(),
            "mat-bytes".into(),
            "free-vs-mat".into(),
            "free-vs-gth".into(),
            "lump-vs-free".into(),
        ],
        &widths,
    );
    rule(&widths);
    for r in &gate_rows {
        row(
            &[
                format!("{}", r.k),
                format!("{}", r.joint_states),
                format!("{}", r.lumped_states),
                format!("{}", r.matrix_free_bytes),
                format!("{}", r.materialized_bytes),
                format!("{:.2e}", r.max_abs_diff),
                format!("{:.2e}", r.gth_max_abs_diff),
                format!("{:.2e}", r.refine_max_abs_diff),
            ],
            &widths,
        );
    }
    println!("\nFleet scaling (6-state M/M/1/5 local chain, coupling 0.25, lumped-only)");
    let fw = [4usize, 14, 10, 14, 14, 10, 10];
    row(
        &[
            "K".into(),
            "joint".into(),
            "lumped".into(),
            "op-bytes".into(),
            "lump-bytes".into(),
            "method".into(),
            "secs".into(),
        ],
        &fw,
    );
    rule(&fw);
    for r in &fleet_rows {
        row(
            &[
                format!("{}", r.k),
                format!("{}", r.joint_states),
                format!("{}", r.lumped_states),
                format!("{}", r.operator_bytes),
                format!("{}", r.lumped_bytes),
                r.method.clone(),
                format!("{:.3}", r.secs),
            ],
            &fw,
        );
    }
    println!(
        "\nTwo-level control (K={}, {} levels, {} sweep points): average cost {:.4}, \
         mean active {:.3}",
        spec.k,
        spec.n_levels(),
        two_level.sweep_points(),
        two_level.average_cost(),
        two_level.mean_active(),
    );
    println!(
        "checks: matrix-free == materialized (<= {GATE_TOL:.0e}) = {gate_passes}, \
         matrix-free == GTH (<= {GTH_TOL:.0e}) = {gth_passes}, \
         lumping refines to joint (<= {REFINE_TOL:.0e}) = {refine_passes}, \
         largest fleet joint space > 1e6 = {large_fleet_exceeds_million}, \
         fleet masses normalized = {fleet_masses_normalized}, \
         two-level mass normalized = {two_level_normalized}"
    );

    let mut doc = Json::object();
    doc.set("schema_version", 1u64);
    doc.set("format", CLUSTER_BENCH_FORMAT);
    doc.set("experiment", "bench_cluster");
    let mut params = Json::object();
    params.set("gate_k", gate_k);
    params.set(
        "fleet_k",
        Json::Array(fleet_ks.iter().map(|&k| Json::Int(k as i128)).collect()),
    );
    params.set("paper_local_states", n_paper);
    params.set("fleet_local_states", 6u64);
    params.set("workers", workers);
    params.set("weight", Json::num(weight));
    params.set("root_seed", root_seed);
    doc.set("params", params);
    let mut gate = Vec::with_capacity(gate_rows.len());
    for r in &gate_rows {
        let mut g = Json::object();
        g.set("k", r.k);
        g.set("joint_states", r.joint_states);
        g.set("lumped_states", r.lumped_states);
        g.set("matrix_free_peak_bytes", r.matrix_free_bytes);
        g.set("materialized_peak_bytes", r.materialized_bytes);
        g.set("max_abs_diff", Json::num(r.max_abs_diff));
        g.set("gth_max_abs_diff", Json::num(r.gth_max_abs_diff));
        g.set("refine_max_abs_diff", Json::num(r.refine_max_abs_diff));
        g.set("krylov_iterations", r.iterations);
        g.set("escalated", r.escalated);
        gate.push(g);
    }
    doc.set("gate", Json::Array(gate));
    let mut fleet = Vec::with_capacity(fleet_rows.len());
    for r in &fleet_rows {
        let mut f = Json::object();
        f.set("k", r.k);
        f.set("joint_states", Json::Int(i128::try_from(r.joint_states)?));
        f.set("lumped_states", r.lumped_states);
        f.set("matrix_free_peak_bytes", r.operator_bytes);
        f.set("lumped_generator_bytes", r.lumped_bytes);
        f.set("method", r.method.clone());
        f.set("residual", Json::num(r.residual));
        f.set("mass_error", Json::num(r.mass_error));
        fleet.push(f);
    }
    doc.set("fleet", Json::Array(fleet));
    let mut two = Json::object();
    two.set("fleet_size", spec.k);
    two.set("levels", spec.n_levels());
    two.set("sweep_points", two_level.sweep_points());
    two.set("average_cost", Json::num(two_level.average_cost()));
    two.set("mean_active", Json::num(two_level.mean_active()));
    two.set(
        "actions",
        Json::Array(
            two_level
                .actions()
                .iter()
                .map(|a| Json::Str(a.clone()))
                .collect(),
        ),
    );
    doc.set("two_level", two);
    let mut checks = Json::object();
    checks.set("matrix_free_matches_materialized", gate_passes);
    checks.set("matrix_free_matches_gth", gth_passes);
    checks.set("lumping_refines_to_joint", refine_passes);
    checks.set(
        "large_fleet_exceeds_million_states",
        large_fleet_exceeds_million,
    );
    checks.set("fleet_masses_normalized", fleet_masses_normalized);
    checks.set("two_level_mass_normalized", two_level_normalized);
    doc.set("checks", checks);
    let mut timers = Json::object();
    for r in &gate_rows {
        timers.set(
            &format!("gate_k{}_matrix_free_secs", r.k),
            Json::num(r.free_secs),
        );
        timers.set(
            &format!("gate_k{}_materialized_secs", r.k),
            Json::num(r.materialized_secs),
        );
    }
    for r in &fleet_rows {
        timers.set(&format!("fleet_k{}_lumped_secs", r.k), Json::num(r.secs));
    }
    timers.set("two_level_secs", Json::num(two_level_secs));
    doc.set("timers", timers);

    artifact::write(&out, &doc)?;
    if !(gate_passes
        && gth_passes
        && refine_passes
        && large_fleet_exceeds_million
        && fleet_masses_normalized
        && two_level_normalized)
    {
        return Err("cluster scaling checks failed (see artifact)".into());
    }
    println!("artifact: {out}");
    Ok(())
}

/// Adapts `DpmError` into the cluster error space for the local-model
/// factory closure.
fn to_cluster_error(e: dpm_core::DpmError) -> ClusterError {
    ClusterError::Solve {
        reason: format!("local model construction failed: {e}"),
    }
}
