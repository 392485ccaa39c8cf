//! Property-based tests for the linear-algebra substrate.

use dpm_linalg::{kron, kron_sum, DMatrix, DVector};
use proptest::prelude::*;

/// Strategy for a well-conditioned square matrix: random entries plus a
/// strong diagonal so LU is always applicable.
fn dominant_matrix(n: usize) -> impl Strategy<Value = DMatrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = DMatrix::from_row_major(n, n, data).expect("sized storage");
        for i in 0..n {
            let row_sum: f64 = m.row(i).iter().map(|x| x.abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        m
    })
}

fn vector(n: usize) -> impl Strategy<Value = DVector> {
    prop::collection::vec(-10.0f64..10.0, n).prop_map(DVector::from_vec)
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = DMatrix> {
    prop::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| DMatrix::from_row_major(rows, cols, data).expect("sized storage"))
}

proptest! {
    #[test]
    fn lu_solution_satisfies_system(
        (a, b) in (2usize..8).prop_flat_map(|n| (dominant_matrix(n), vector(n)))
    ) {
        let x = a.lu().expect("dominant matrix is nonsingular").solve(&b).expect("solve");
        let residual = &a.mul_vec(&x) - &b;
        prop_assert!(residual.norm_inf() < 1e-8 * (1.0 + b.norm_inf()));
    }

    #[test]
    fn inverse_times_matrix_is_identity(a in (2usize..6).prop_flat_map(dominant_matrix)) {
        let inv = a.lu().expect("nonsingular").inverse().expect("invertible");
        let prod = a.matmul(&inv).expect("shapes match");
        let diff = &prod - &DMatrix::identity(a.nrows());
        prop_assert!(diff.max_abs() < 1e-8);
    }

    #[test]
    fn determinant_is_multiplicative(
        (a, b) in (2usize..5).prop_flat_map(|n| (dominant_matrix(n), dominant_matrix(n)))
    ) {
        let det_a = a.lu().expect("nonsingular").det();
        let det_b = b.lu().expect("nonsingular").det();
        let det_ab = a.matmul(&b).expect("shapes").lu().expect("nonsingular").det();
        let scale = det_a.abs().max(det_b.abs()).max(1.0);
        prop_assert!((det_ab - det_a * det_b).abs() < 1e-6 * scale * scale);
    }

    #[test]
    fn transpose_is_involution(m in small_matrix(3, 5)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_reverses_products(
        (a, b) in (small_matrix(3, 4), small_matrix(4, 2))
    ) {
        let lhs = a.matmul(&b).expect("shapes").transpose();
        let rhs = b.transpose().matmul(&a.transpose()).expect("shapes");
        let diff = &lhs - &rhs;
        prop_assert!(diff.max_abs() < 1e-10);
    }

    #[test]
    fn kron_dimensions_multiply((a, b) in (small_matrix(2, 3), small_matrix(3, 2))) {
        let c = kron(&a, &b);
        prop_assert_eq!(c.shape(), (6, 6));
    }

    #[test]
    fn kron_mixed_product(
        (a, b, c, d) in (
            small_matrix(2, 2),
            small_matrix(2, 2),
            small_matrix(2, 2),
            small_matrix(2, 2),
        )
    ) {
        let lhs = kron(&a, &b).matmul(&kron(&c, &d)).expect("shapes");
        let rhs = kron(&a.matmul(&c).expect("shapes"), &b.matmul(&d).expect("shapes"));
        let diff = &lhs - &rhs;
        prop_assert!(diff.max_abs() < 1e-8);
    }

    #[test]
    fn kron_sum_preserves_zero_row_sums(
        (a, b) in (small_matrix(2, 2), small_matrix(3, 3))
    ) {
        // Turn both operands into generator-like matrices (rows sum to 0).
        let as_generator = |m: &DMatrix| {
            let mut g = m.map(f64::abs);
            for i in 0..g.nrows() {
                let off: f64 = g.row(i).iter().enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, x)| x)
                    .sum();
                g[(i, i)] = -off;
            }
            g
        };
        let ga = as_generator(&a);
        let gb = as_generator(&b);
        let s = kron_sum(&ga, &gb);
        for r in 0..s.nrows() {
            let sum: f64 = s.row(r).iter().sum();
            prop_assert!(sum.abs() < 1e-10);
        }
    }

    #[test]
    fn vec_mul_matches_transpose_mul_vec((m, v) in (small_matrix(3, 4), vector(3))) {
        let lhs = m.vec_mul(&v);
        let rhs = m.transpose().mul_vec(&v);
        let diff = &lhs - &rhs;
        prop_assert!(diff.norm_inf() < 1e-10);
    }

    #[test]
    fn dot_is_symmetric((u, v) in (vector(5), vector(5))) {
        prop_assert!((u.dot(&v) - v.dot(&u)).abs() < 1e-10);
    }

    #[test]
    fn normalized_vector_sums_to_one(
        v in prop::collection::vec(0.01f64..10.0, 1..10).prop_map(DVector::from_vec)
    ) {
        let mut w = v;
        w.normalize_l1().expect("positive sum");
        prop_assert!((w.sum() - 1.0).abs() < 1e-10);
    }
}
