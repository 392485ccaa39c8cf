//! Criterion benchmark: stationary-distribution solvers (A3).
//!
//! GTH vs Gauss–Seidel vs BiCGSTAB on birth–death chains of growing size,
//! and GTH vs Gauss–Seidel on the (stiff) power-managed system chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
use dpm_ctmc::stationary::{self, Method, Solver};

fn bench_birth_death(c: &mut Criterion) {
    let mut group = c.benchmark_group("stationary_birth_death");
    for size in [10usize, 50, 200] {
        let g = stationary::mm1k_generator(0.4, 1.0, size).expect("valid rates");
        for method in [Method::Gth, Method::Iterative, Method::BiCgStab] {
            group.bench_with_input(BenchmarkId::new(method.name(), size), &size, |b, _| {
                b.iter(|| Solver::new(method).solve(&g).expect("irreducible"));
            });
        }
    }
    group.finish();
}

fn bench_dpm_chain(c: &mut Criterion) {
    // The greedy policy's chain on the paper system: stiff (instant-rate
    // transfer surrogates), the workload GTH was chosen for. The policy
    // leaves transient states, so the solvers run on its closed class.
    let system = PmSystem::builder()
        .provider(SpModel::dac99_server().expect("paper parameters"))
        .requestor(SrModel::poisson(1.0 / 6.0).expect("positive rate"))
        .capacity(5)
        .build()
        .expect("valid system");
    let g = system
        .generator_for(&PmPolicy::greedy(&system).expect("valid policy"))
        .expect("valid chain");
    let mut group = c.benchmark_group("stationary_dpm_chain");
    for method in [Method::Gth, Method::Iterative] {
        group.bench_function(method.name(), |b| {
            b.iter(|| Solver::new(method).solve(&g).expect("unichain"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_birth_death, bench_dpm_chain
}
criterion_main!(benches);
