//! Criterion benchmark: one policy-improvement sweep.
//!
//! Times [`dpm_mdp::average::improve`], the two-stage rule that
//! `policy_iteration_multichain` runs each round, over the flattened
//! [`dpm_mdp::ActionCsr`] kernel of the paper's model at growing queue
//! capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpm_core::{PmSystem, SpModel, SrModel};
use dpm_mdp::average;

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
        // A converged evaluation gives the sweep realistic inputs.
        let solution = average::policy_iteration_multichain(
            &mdp,
            mdp.min_cost_policy(),
            &average::Options::default(),
        )
        .expect("solvable");
        let tolerance = average::Options::default().improvement_tolerance;
        group.bench_with_input(BenchmarkId::new("csr", capacity), &capacity, |b, _| {
            b.iter(|| {
                average::improve(
                    &kernel,
                    solution.policy(),
                    solution.gains(),
                    solution.bias(),
                    tolerance,
                )
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_improvement
}
criterion_main!(benches);
