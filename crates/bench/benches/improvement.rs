//! Criterion benchmark: solve-phase kernels (PR 5 companion).
//!
//! Measures a single policy-improvement sweep — the nested-list reference
//! against the flattened [`dpm_mdp::ActionCsr`] kernel — and a full policy
//! iteration under each evaluation backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpm_bench::unichain_ring;
use dpm_core::{PmSystem, SpModel, SrModel};
use dpm_mdp::{average, Policy};

fn system(capacity: usize) -> PmSystem {
    PmSystem::builder()
        .provider(SpModel::dac99_server().expect("paper parameters"))
        .requestor(SrModel::poisson(1.0 / 6.0).expect("positive rate"))
        .capacity(capacity)
        .instant_rate(100.0)
        .build()
        .expect("valid system")
}

fn bench_improvement(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_improvement");
    for capacity in [20usize, 50, 100] {
        let sys = system(capacity);
        let mdp = sys.ctmdp(1.0).expect("valid weight");
        let kernel = mdp.sparse_actions();
        let initial = mdp.min_cost_policy();
        // A converged bias gives the sweep realistic inputs.
        let solution = average::policy_iteration_multichain(
            &mdp,
            initial.clone(),
            &average::Options::default(),
        )
        .expect("solvable");
        let policy = solution.policy().clone();
        let bias = solution.bias().clone();
        let tolerance = average::Options::default().improvement_tolerance;

        group.bench_with_input(
            BenchmarkId::new("nested_lists", capacity),
            &capacity,
            |b, _| {
                b.iter(|| average::improve_step(&mdp, &policy, &bias, tolerance));
            },
        );
        group.bench_with_input(BenchmarkId::new("csr", capacity), &capacity, |b, _| {
            b.iter(|| average::improve_step_csr(&kernel, &policy, &bias, tolerance));
        });
    }
    group.finish();
}

fn bench_eval_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_backend");
    // Unichain policy iteration is the one that dispatches on
    // `Options::backend`. It runs on the ring `bench_solve` uses: on the
    // paper's model the Krylov backend stops with NotConverged.
    for n_states in [40usize, 100] {
        let mdp = unichain_ring(n_states).expect("valid ring");
        let start = Policy::uniform(n_states, 1);
        for name in ["dense", "sparse-direct", "bicgstab"] {
            let options = average::Options {
                backend: average::EvalBackend::parse(name).expect("backend name"),
                ..average::Options::default()
            };
            group.bench_with_input(BenchmarkId::new(name, n_states), &n_states, |b, _| {
                b.iter(|| {
                    average::policy_iteration_from(&mdp, start.clone(), &options).expect("solvable")
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_improvement, bench_eval_backends
}
criterion_main!(benches);
