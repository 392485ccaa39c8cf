//! The matrix-free fleet solve on the paper's own server: `bench_cluster`'s
//! K = 2 gate fleet, checked without the bench binary against the Gauss–Seidel
//! twin and against GTH elimination.

use dpm_bench::paper_system;
use dpm_cluster::{
    solve_joint_materialized, solve_joint_matrix_free, ClusterModel, CouplingTerm, JointOptions,
};
use dpm_core::PmPolicy;
use dpm_ctmc::{
    stationary::{Method, Solver},
    SparseGenerator,
};
use dpm_linalg::CsrMatrix;

#[test]
fn paper_fleet_solves_preconditioned_and_matches_the_materialized_twin() {
    // Two servers on the paper's SYS chain under the greedy policy
    // (λ = 1/6, 23 states), coupled by work migration at rate 0.05: the
    // donor sheds one unit of backlog while the receiver takes one on.
    let system = paper_system(1.0 / 6.0).unwrap();
    let policy = PmPolicy::greedy(&system).unwrap();
    let local = system.sparse_generator_for(&policy).unwrap();
    let n = local.n_states();
    let donor = CsrMatrix::from_triplets(n, n, &[(n - 1, n - 2, 1.0)]).unwrap();
    let receiver = CsrMatrix::from_triplets(n, n, &[(0, 1, 1.0)]).unwrap();
    let model = ClusterModel::new(local, 2)
        .unwrap()
        .with_coupling(CouplingTerm::new(0.05, donor, receiver).unwrap())
        .unwrap();
    let free = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
    assert!(!free.escalated());
    let reference = solve_joint_materialized(&model).unwrap();
    assert_eq!(free.pi().len(), 529);
    for i in 0..free.pi().len() {
        assert!(
            (free.pi()[i] - reference.pi()[i]).abs() <= 1e-10,
            "state {i}: {} vs {}",
            free.pi()[i],
            reference.pi()[i]
        );
    }
    // The Gauss–Seidel twin is itself about 1e-12 from the exact
    // distribution, so the bound above cannot see a smaller error in the
    // matrix-free solve. GTH elimination on the same materialized
    // generator can.
    let csr = model.joint_operator().unwrap().materialize().unwrap();
    let transitions: Vec<(usize, usize, f64)> =
        csr.iter().filter(|&(i, j, v)| i != j && v > 0.0).collect();
    let generator = SparseGenerator::from_transitions(csr.nrows(), &transitions).unwrap();
    let (exact, _) = Solver::new(Method::Gth).solve(&generator).unwrap();
    let gap = (0..exact.len())
        .map(|i| (free.pi()[i] - exact[i]).abs())
        .fold(0.0, f64::max);
    // Measured: 1.1e-16 here, against 1.1e-12 for the twin.
    assert!(gap <= 1e-14, "matrix-free vs GTH: {gap:e}");
}
