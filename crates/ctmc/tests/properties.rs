//! Property-based tests for the CTMC layer.

use dpm_ctmc::stationary::{Method, Solver};
use dpm_ctmc::{birth_death::Mm1k, graph, stationary, transient, Generator, SparseGenerator};
use dpm_linalg::DVector;
use proptest::prelude::*;

const ALL_METHODS: [Method; 3] = [Method::Gth, Method::Iterative, Method::BiCgStab];

/// Stationary distribution via a single method, no fallback.
fn solve_with(g: &Generator, method: Method) -> Result<DVector, dpm_ctmc::CtmcError> {
    Solver::new(method).solve(g).map(|(pi, _)| pi)
}

/// Sparse stationary distribution via a single method, no fallback.
fn solve_sparse_with(g: &SparseGenerator, method: Method) -> Result<DVector, dpm_ctmc::CtmcError> {
    Solver::new(method).solve(g).map(|(pi, _)| pi)
}

/// Random irreducible generator: a directed ring guarantees irreducibility,
/// plus random extra edges.
fn irreducible_generator(n: usize) -> impl Strategy<Value = Generator> {
    let ring = prop::collection::vec(0.1f64..10.0, n);
    let extra = prop::collection::vec((0..n, 0..n, 0.0f64..5.0), 0..2 * n);
    (ring, extra).prop_map(move |(ring_rates, extras)| {
        let mut b = Generator::builder(n);
        for (i, &r) in ring_rates.iter().enumerate() {
            b.add_rate(i, (i + 1) % n, r);
        }
        for (i, j, r) in extras {
            if i != j && r > 0.0 {
                b.add_rate(i, j, r);
            }
        }
        b.build().expect("constructed rates are valid")
    })
}

proptest! {
    #[test]
    fn unified_solve_agrees_across_all_methods(
        g in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        let reference = solve_with(&g, Method::Gth).expect("irreducible");
        for method in [Method::Iterative, Method::BiCgStab] {
            let pi = solve_with(&g, method).expect("irreducible");
            prop_assert!(
                (&pi - &reference).norm_inf() < 1e-8,
                "{method:?} disagrees with GTH"
            );
        }
    }

    #[test]
    fn sparse_solve_matches_dense_solve(
        g in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        let sparse = SparseGenerator::from_generator(&g);
        let reference = solve_with(&g, Method::Gth).expect("irreducible");
        for method in ALL_METHODS {
            let pi = solve_sparse_with(&sparse, method).expect("irreducible");
            prop_assert!(
                (&pi - &reference).norm_inf() < 1e-8,
                "sparse {method:?} disagrees with dense GTH"
            );
        }
    }

    #[test]
    fn sparse_generator_round_trips_dense(
        g in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        let sparse = SparseGenerator::from_generator(&g);
        let n = g.n_states();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((sparse.rate(i, j) - g.rate(i, j)).abs() < 1e-15);
            }
            prop_assert!((sparse.exit_rate(i) - g.exit_rate(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_is_a_distribution_with_zero_residual(
        g in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        let pi = Solver::new(Method::Gth)
            .check_irreducible()
            .solve(&g)
            .map(|(pi, _)| pi)
            .expect("irreducible");
        prop_assert!((pi.sum() - 1.0).abs() < 1e-10);
        prop_assert!(pi.iter().all(|p| p >= 0.0));
        prop_assert!(stationary::residual(&g, &pi) < 1e-8);
    }

    #[test]
    fn ring_generators_are_irreducible(g in (2usize..10).prop_flat_map(irreducible_generator)) {
        prop_assert!(graph::is_irreducible(&g));
        prop_assert!(graph::is_connected(&g));
        prop_assert!(graph::recurrent_states(&g).iter().all(|&r| r));
    }

    #[test]
    fn transient_distribution_stays_stochastic(
        (g, t) in (2usize..6).prop_flat_map(irreducible_generator).prop_flat_map(|g| {
            (Just(g), 0.0f64..20.0)
        })
    ) {
        let n = g.n_states();
        let mut pi0 = DVector::zeros(n);
        pi0[0] = 1.0;
        let pi = transient::distribution_at(&g, &pi0, t).expect("valid inputs");
        prop_assert!((pi.sum() - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|p| p >= -1e-12));
    }

    #[test]
    fn transient_converges_to_stationary(
        g in (2usize..6).prop_flat_map(irreducible_generator)
    ) {
        // Horizon scaled to the slowest rate so mixing has completed.
        let slowest = (0..g.n_states())
            .map(|i| g.exit_rate(i))
            .fold(f64::INFINITY, f64::min)
            .max(1e-3);
        let t = 60.0 / slowest;
        let n = g.n_states();
        let mut pi0 = DVector::zeros(n);
        pi0[0] = 1.0;
        let pi_t = transient::distribution_at(&g, &pi0, t).expect("valid inputs");
        let pi_inf = solve_with(&g, Method::Gth).expect("irreducible");
        prop_assert!((&pi_t - &pi_inf).norm_inf() < 1e-6);
    }

    #[test]
    fn chapman_kolmogorov(
        (g, s, t) in (2usize..5).prop_flat_map(irreducible_generator)
            .prop_flat_map(|g| (Just(g), 0.01f64..3.0, 0.01f64..3.0))
    ) {
        // p(s + t) = p(s) then advanced by t.
        let n = g.n_states();
        let mut pi0 = DVector::zeros(n);
        pi0[0] = 1.0;
        let direct = transient::distribution_at(&g, &pi0, s + t).expect("valid");
        let mid = transient::distribution_at(&g, &pi0, s).expect("valid");
        let two_step = transient::distribution_at(&g, &mid, t).expect("valid");
        prop_assert!((&direct - &two_step).norm_inf() < 1e-8);
    }

    #[test]
    fn mm1k_closed_form_matches_numeric(
        (lambda, mu, k) in (0.05f64..3.0, 0.05f64..3.0, 1usize..10)
    ) {
        let g = stationary::mm1k_generator(lambda, mu, k).expect("valid rates");
        let pi = solve_with(&g, Method::Gth).expect("birth-death is irreducible");
        let closed = Mm1k::new(lambda, mu, k).expect("valid rates");
        for i in 0..=k {
            prop_assert!((pi[i] - closed.probability(i)).abs() < 1e-9);
        }
        let l_numeric: f64 = (0..=k).map(|i| i as f64 * pi[i]).sum();
        prop_assert!((l_numeric - closed.mean_customers()).abs() < 1e-9);
    }

    #[test]
    fn uniformized_chain_preserves_stationary(
        g in (2usize..7).prop_flat_map(irreducible_generator)
    ) {
        let pi = solve_with(&g, Method::Gth).expect("irreducible");
        let (p, _) = g.uniformize(1.1).expect("has transitions");
        let stepped = p.step(&pi);
        prop_assert!((&stepped - &pi).norm_inf() < 1e-9);
    }
}

proptest! {
    #[test]
    fn hitting_times_shrink_as_targets_grow(
        g in (3usize..7).prop_flat_map(irreducible_generator)
    ) {
        use dpm_ctmc::hitting::expected_hitting_times;
        let small = expected_hitting_times(&g, &[0]).expect("valid target");
        let large = expected_hitting_times(&g, &[0, 1]).expect("valid targets");
        for i in 0..g.n_states() {
            prop_assert!(
                large[i] <= small[i] + 1e-9,
                "state {i}: adding a target increased the hitting time"
            );
        }
    }

    #[test]
    fn hitting_probabilities_are_probabilities(
        g in (3usize..7).prop_flat_map(irreducible_generator)
    ) {
        use dpm_ctmc::hitting::hitting_probabilities;
        let p = hitting_probabilities(&g, &[0], &[1]).expect("valid sets");
        for i in 0..g.n_states() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p[i]));
        }
        prop_assert!((p[0] - 1.0).abs() < 1e-12);
        prop_assert!(p[1].abs() < 1e-12);
        // Complementary race: P(hit 0 before 1) + P(hit 1 before 0) = 1 on
        // an irreducible chain (one of them is always reached).
        let q = hitting_probabilities(&g, &[1], &[0]).expect("valid sets");
        for i in 0..g.n_states() {
            prop_assert!(
                (p[i] + q[i] - 1.0).abs() < 1e-8,
                "state {i}: race probabilities sum to {}",
                p[i] + q[i]
            );
        }
    }

    #[test]
    fn embedded_chain_recovers_ct_stationary(
        g in (2usize..7).prop_flat_map(irreducible_generator)
    ) {
        use dpm_ctmc::hitting::embedded_chain;
        // pi_ct(i) ∝ pi_jump(i) / exit_rate(i): converting the jump chain's
        // stationary distribution back through mean holding times recovers
        // the continuous-time stationary distribution.
        let pi_ct = solve_with(&g, Method::Gth).expect("irreducible");
        let jump = embedded_chain(&g).expect("valid");
        let pi_jump = jump.stationary_gth().expect("irreducible");
        let mut reconstructed: Vec<f64> = (0..g.n_states())
            .map(|i| pi_jump[i] / g.exit_rate(i))
            .collect();
        let total: f64 = reconstructed.iter().sum();
        for r in &mut reconstructed {
            *r /= total;
        }
        for i in 0..g.n_states() {
            prop_assert!(
                (reconstructed[i] - pi_ct[i]).abs() < 1e-8,
                "state {i}: {} vs {}",
                reconstructed[i],
                pi_ct[i]
            );
        }
    }
}

/// A stiff ring: rates drawn log-uniformly over nine decades, so the
/// fastest and slowest transitions can differ by a factor of 1e9.
fn stiff_generator(n: usize) -> impl Strategy<Value = Generator> {
    prop::collection::vec(-4.0f64..5.0, n).prop_map(move |exponents| {
        let mut b = Generator::builder(n);
        for (i, &e) in exponents.iter().enumerate() {
            b.add_rate(i, (i + 1) % n, 10f64.powf(e));
        }
        b.build().expect("positive rates are valid")
    })
}

/// Two rings joined by a vanishing coupling (down to 1e-12): technically
/// irreducible, numerically a hair from reducible.
fn near_reducible_generator() -> impl Strategy<Value = Generator> {
    (2usize..5, 2usize..5, -12.0f64..-6.0).prop_map(|(n1, n2, coupling_exp)| {
        let eps = 10f64.powf(coupling_exp);
        let mut b = Generator::builder(n1 + n2);
        for i in 0..n1 {
            b.add_rate(i, (i + 1) % n1, 1.0);
        }
        for i in 0..n2 {
            b.add_rate(n1 + i, n1 + (i + 1) % n2, 1.0);
        }
        b.add_rate(0, n1, eps);
        b.add_rate(n1, 0, eps);
        b.build().expect("positive rates are valid")
    })
}

/// Two disjoint rings: genuinely reducible, so a unique stationary
/// distribution does not exist.
fn reducible_generator() -> impl Strategy<Value = Generator> {
    (2usize..5, 2usize..5, 0.1f64..10.0).prop_map(|(n1, n2, rate)| {
        let mut b = Generator::builder(n1 + n2);
        for i in 0..n1 {
            b.add_rate(i, (i + 1) % n1, rate);
        }
        for i in 0..n2 {
            b.add_rate(n1 + i, n1 + (i + 1) % n2, 1.0 / rate);
        }
        b.build().expect("positive rates are valid")
    })
}

/// A ring with one state duplicated: the clone shares state 0's outgoing
/// row and splits its incoming flow, producing two nearly merged states.
fn duplicated_state_generator(n: usize) -> impl Strategy<Value = Generator> {
    prop::collection::vec(0.1f64..10.0, n).prop_map(move |rates| {
        let mut b = Generator::builder(n + 1);
        for (i, &r) in rates.iter().enumerate() {
            if (i + 1) % n == 0 {
                // The edge into state 0 is split between 0 and its clone.
                b.add_rate(i, 0, r / 2.0);
                b.add_rate(i, n, r / 2.0);
            } else {
                b.add_rate(i, (i + 1) % n, r);
            }
        }
        b.add_rate(n, 1 % n, rates[0]); // clone mirrors state 0's row
        b.build().expect("positive rates are valid")
    })
}

fn assert_valid_distribution(pi: &DVector) {
    assert!(pi.iter().all(f64::is_finite), "non-finite entry in {pi:?}");
    assert!(pi.iter().all(|p| p >= -1e-12), "negative entry in {pi:?}");
    assert!((pi.sum() - 1.0).abs() < 1e-8, "sum {} != 1", pi.sum());
}

proptest! {
    #[test]
    fn fallback_solves_stiff_rate_ratios(
        g in (3usize..7).prop_flat_map(stiff_generator)
    ) {
        let (pi, stats) = Solver::new(stationary::FALLBACK_CHAIN[0]).with_default_fallback().solve(&g)
            .expect("stiff but irreducible chains must be solvable");
        assert_valid_distribution(&pi);
        let scale = (0..g.n_states()).map(|i| g.exit_rate(i)).fold(1.0, f64::max);
        prop_assert!(stationary::residual(&g, &pi) <= 1e-8 * scale);
        // Whatever method won is on record.
        let _ = stats.method();
    }

    #[test]
    fn fallback_solves_near_reducible_chains(g in near_reducible_generator()) {
        let (pi, _) = Solver::new(stationary::FALLBACK_CHAIN[0]).with_default_fallback().solve(&g)
            .expect("near-reducible chains are still irreducible");
        assert_valid_distribution(&pi);
        let sparse = SparseGenerator::from_generator(&g);
        let (pi_sparse, _) = Solver::new(stationary::FALLBACK_CHAIN[0]).with_default_fallback().solve(&sparse)
            .expect("sparse fallback must also carry near-reducible chains");
        assert_valid_distribution(&pi_sparse);
    }

    #[test]
    fn fallback_solves_duplicated_states(
        g in (3usize..7).prop_flat_map(duplicated_state_generator)
    ) {
        let (pi, _) = Solver::new(stationary::FALLBACK_CHAIN[0]).with_default_fallback().solve(&g)
            .expect("a duplicated state keeps the chain irreducible");
        assert_valid_distribution(&pi);
    }

    #[test]
    fn fallback_rejects_chains_with_two_closed_classes(
        g in reducible_generator()
    ) {
        // Two closed classes: the limiting distribution depends on the
        // start, so every path reports the class count instead of
        // returning one of the stationary mixtures.
        let sparse = SparseGenerator::from_generator(&g);
        let solver = Solver::new(stationary::FALLBACK_CHAIN[0]).with_default_fallback();
        for result in [solver.solve(&g), solver.solve(&sparse)] {
            prop_assert_eq!(result, Err(dpm_ctmc::CtmcError::Reducible { classes: 2 }));
        }
    }
}

/// Stiff birth–death chain: rate magnitudes random-walk over six decades
/// with steps bounded to one decade per level, the shape the DPM
/// service-queue models produce when instant-rate surrogates meet slow
/// arrival processes. The bounded step keeps adjacent levels within a
/// factor of ten of each other: the chain is stiff (rates span up to
/// 1e6) but has no near-reducible bottleneck, so its stationary
/// distribution is determined to full accuracy by the balance equations
/// (an isolated slow level between fast segments would push the system's
/// conditioning past what any `f64` linear solve — direct or Krylov —
/// can resolve; that regime is covered by the graceful-degradation test
/// below instead).
fn stiff_birth_death(n: usize) -> impl Strategy<Value = SparseGenerator> {
    let base = -3.0f64..3.0;
    let steps = prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n - 1);
    (base, steps).prop_map(move |(base_exp, steps)| {
        let mut transitions = Vec::with_capacity(2 * (n - 1));
        let mut level_exp = base_exp;
        for (i, &(step, down_offset)) in steps.iter().enumerate() {
            level_exp = (level_exp + step).clamp(-3.0, 3.0);
            transitions.push((i, i + 1, 10f64.powf(level_exp)));
            transitions.push((i + 1, i, 10f64.powf(level_exp + down_offset)));
        }
        SparseGenerator::from_transitions(n, &transitions).expect("positive rates are valid")
    })
}

/// Birth–death chain with one severe bottleneck level: rates 1e-5 in both
/// directions between two fast (rate ~1) segments. Near-reducible — the
/// linear-system condition number exceeds `1/ε`, so no agreement bound is
/// asserted, only graceful behavior.
fn bottleneck_birth_death() -> impl Strategy<Value = SparseGenerator> {
    (3usize..20, 1usize..18, -8.0f64..-4.0).prop_map(|(n, cut, exp)| {
        let cut = cut.min(n - 2);
        let eps = 10f64.powf(exp);
        let mut transitions = Vec::with_capacity(2 * (n - 1));
        for i in 0..n - 1 {
            let rate = if i == cut { eps } else { 1.0 };
            transitions.push((i, i + 1, rate));
            transitions.push((i + 1, i, rate * 2.0));
        }
        SparseGenerator::from_transitions(n, &transitions).expect("positive rates are valid")
    })
}

proptest! {
    #[test]
    fn krylov_matches_gth_on_random_irreducible_chains(
        g in (2usize..10).prop_flat_map(irreducible_generator)
    ) {
        let sparse = SparseGenerator::from_generator(&g);
        let reference = solve_sparse_with(&sparse, Method::Gth).expect("irreducible");
        let pi = solve_sparse_with(&sparse, Method::BiCgStab).expect("irreducible");
        prop_assert!((&pi - &reference).norm_inf() < 1e-8, "BiCGSTAB disagrees with GTH");
    }

    #[test]
    fn krylov_matches_gth_on_stiff_birth_death_chains(
        sparse in (3usize..40).prop_flat_map(stiff_birth_death)
    ) {
        let reference = solve_sparse_with(&sparse, Method::Gth).expect("irreducible");
        let (pi, stats) = Solver::new(Method::BiCgStab).solve(&sparse).expect("irreducible");
        let diff = (&pi - &reference).norm_inf();
        prop_assert!(
            diff < 1e-8,
            "BiCGSTAB differs from GTH by {diff:e} after {} sweeps \
             on a stiff birth-death chain",
            stats.sweeps()
        );
    }

    #[test]
    fn krylov_degrades_gracefully_on_bottleneck_chains(
        sparse in bottleneck_birth_death()
    ) {
        // Near-reducible: condition number beyond 1/ε, so agreement with
        // GTH is not achievable by any residual-based solve. The contract
        // is a valid distribution with a near-zero balance residual — or a
        // structured error that lets the fallback chain escalate.
        match Solver::new(Method::BiCgStab).solve(&sparse) {
            Ok((pi, _)) => {
                assert_valid_distribution(&pi);
                let scale = (0..sparse.n_states())
                    .map(|i| sparse.exit_rate(i))
                    .fold(1.0, f64::max);
                prop_assert!(
                    stationary::residual_sparse(&sparse, &pi) <= 1e-8 * scale,
                    "BiCGSTAB accepted a distribution with a large residual"
                );
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// A rate drawn from three scales, so stiff `1e6` rates sit beside `0.1`.
fn mixed_rate() -> impl Strategy<Value = f64> {
    (0usize..3, 1.0f64..2.0).prop_map(|(scale, r)| [0.1, 1.0, 1e6][scale] * r)
}

/// A multichain generator: 1–4 closed classes of 1–4 states (each a ring
/// plus extra edges inside the class) and 1–5 transient states, each with
/// an edge into some closed class plus extra edges anywhere. States are
/// shuffled so classes interleave. Returns the dense generator and three
/// cost vectors.
fn multichain_generator() -> impl Strategy<Value = (Generator, Vec<DVector>)> {
    (prop::collection::vec(1usize..5, 1..5), 1usize..6).prop_flat_map(|(sizes, n_transient)| {
        let n_closed: usize = sizes.iter().sum();
        let n = n_closed + n_transient;
        (
            prop::collection::vec(0.0f64..1.0, n),
            prop::collection::vec(mixed_rate(), n),
            prop::collection::vec((0..n, 0..n, mixed_rate()), 0..2 * n),
            prop::collection::vec(prop::collection::vec(0.0f64..100.0, n), 3),
        )
            .prop_map(move |(keys, own, extras, costs)| {
                // `perm[logical]` is the state a logical index lands on.
                let mut perm: Vec<usize> = (0..n).collect();
                perm.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                let mut class_of = Vec::with_capacity(n_closed);
                let mut starts = Vec::with_capacity(sizes.len());
                for (c, &size) in sizes.iter().enumerate() {
                    starts.push(class_of.len());
                    class_of.extend(std::iter::repeat_n(c, size));
                }
                let mut b = Generator::builder(n);
                let mut add = |from: usize, to: usize, rate: f64| {
                    if from != to {
                        b.add_rate(perm[from], perm[to], rate);
                    }
                };
                for (i, &c) in class_of.iter().enumerate() {
                    let offset = i - starts[c];
                    add(i, starts[c] + (offset + 1) % sizes[c], own[i]);
                }
                for (t, &rate) in own.iter().enumerate().skip(n_closed) {
                    add(t, (t * 7) % n_closed, rate);
                }
                for (from, to, rate) in extras {
                    if from < n_closed {
                        // Stay inside the class to keep it closed.
                        let c = class_of[from];
                        add(from, starts[c] + to % sizes[c], rate);
                    } else {
                        add(from, to, rate);
                    }
                }
                let g = b.build().expect("constructed rates are valid");
                (g, costs.into_iter().map(DVector::from_vec).collect())
            })
    })
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #[test]
    fn chain_factors_solve_multichain_gain_bias_equations(
        (g, costs) in multichain_generator()
    ) {
        let n = g.n_states();
        let sparse = SparseGenerator::from_generator(&g);
        let factors = stationary::ChainFactors::new(&sparse).expect("every block factors");
        let c = &costs[0];
        let (gains, bias) = factors.solve(c).expect("every block factors");

        let classes = graph::communicating_classes(&g);
        let closed: Vec<&[usize]> = classes
            .iter()
            .filter(|members| {
                members.iter().all(|&i| {
                    (0..n).all(|j| g.rate(i, j) <= 0.0 || classes.class_of(j) == classes.class_of(i))
                })
            })
            .collect();
        let mut recurrent = vec![false; n];
        for members in &closed {
            // Closed-class gain equals GTH π · c on the class.
            let mut b = Generator::builder(members.len());
            for (l, &i) in members.iter().enumerate() {
                for (m, &j) in members.iter().enumerate() {
                    if i != j && g.rate(i, j) > 0.0 {
                        b.add_rate(l, m, g.rate(i, j));
                    }
                }
            }
            let expected: f64 = if members.len() == 1 {
                c[members[0]]
            } else {
                let sub = b.build().expect("valid class");
                let pi = solve_with(&sub, Method::Gth).expect("closed classes are irreducible");
                members.iter().enumerate().map(|(l, &i)| pi[l] * c[i]).sum()
            };
            for &i in *members {
                prop_assert!(close(gains[i], expected, 1e-9), "class gain {} vs GTH {expected}", gains[i]);
                recurrent[i] = true;
            }
            prop_assert_eq!(bias[members[0]], 0.0);
        }

        // Transient gains weight the class gains by absorption probability.
        let mut expected_transient = DVector::zeros(n);
        for (k, members) in closed.iter().enumerate() {
            let avoid: Vec<usize> = closed
                .iter()
                .enumerate()
                .filter(|&(other, _)| other != k)
                .flat_map(|(_, m)| m.iter().copied())
                .collect();
            let p = dpm_ctmc::hitting::hitting_probabilities(&g, members, &avoid)
                .expect("absorption probabilities");
            for i in (0..n).filter(|&i| !recurrent[i]) {
                expected_transient[i] += p[i] * gains[members[0]];
            }
        }
        for i in (0..n).filter(|&i| !recurrent[i]) {
            prop_assert!(
                close(gains[i], expected_transient[i], 1e-9),
                "transient gain {} vs absorption mix {}", gains[i], expected_transient[i]
            );
        }

        // The gain/bias equations hold to a tolerance scaled by ‖G‖·‖v‖.
        let gv = sparse.csr().mul_vec(&bias);
        let residual = (0..n).map(|i| (c[i] - gains[i] + gv[i]).abs()).fold(0.0, f64::max);
        let g_norm = 2.0 * g.max_exit_rate();
        let tolerance = 1e-12 * (1.0 + c.norm_inf() + g_norm * bias.norm_inf());
        prop_assert!(residual <= tolerance, "residual {residual:e} above {tolerance:e}");

        // One factorization serves every cost vector, matching one-off calls.
        for costs_k in &costs {
            let shared = factors.gains(costs_k).expect("gains");
            let single = stationary::gain_vector(&g, costs_k).expect("gains");
            for i in 0..n {
                prop_assert!(close(shared[i], single[i], 1e-12));
            }
        }
    }
}

/// `g` with the 3-state class of the singular-block unit test in
/// `stationary.rs` appended (`a → b` at 1, `b → a` and `b → c` at 1e15,
/// `c → b` at 1e-3): its combined gain/bias block is numerically singular,
/// so its gain takes the stationary path. One more transient state feeds
/// both it and state 0. The costs grow to match.
fn with_singular_class(g: &Generator, costs: &[DVector]) -> (SparseGenerator, Vec<DVector>) {
    let n = g.n_states();
    let mut transitions: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j && g.rate(i, j) > 0.0)
        .map(|(i, j)| (i, j, g.rate(i, j)))
        .collect();
    let (a, b, c, t) = (n, n + 1, n + 2, n + 3);
    transitions.extend([
        (a, b, 1.0),
        (b, a, 1e15),
        (b, c, 1e15),
        (c, b, 1e-3),
        (t, a, 1.0),
        (t, 0, 2.0),
    ]);
    let sparse = SparseGenerator::from_transitions(n + 4, &transitions).expect("valid rates");
    let costs = costs
        .iter()
        .map(|cost| {
            #[allow(clippy::cast_precision_loss)]
            DVector::from_fn(n + 4, |i| cost.get(i).unwrap_or(3.0 * i as f64))
        })
        .collect();
    (sparse, costs)
}

proptest! {
    #[test]
    fn chain_factors_gains_each_matches_lone_gains(
        ((g, costs), singular) in (multichain_generator(), 0usize..2)
    ) {
        let (sparse, costs) = if singular == 1 {
            with_singular_class(&g, &costs)
        } else {
            (SparseGenerator::from_generator(&g), costs)
        };
        let factors = stationary::ChainFactors::new(&sparse).expect("every block factors");
        if singular == 1 {
            prop_assert!(factors.class_fallbacks().count() >= 1, "no stationary-path class");
        }
        let mixed = DVector::from_fn(sparse.n_states(), |i| costs[0][i] - costs[1][i]);
        let all = [&costs[0], &costs[1], &costs[2], &mixed];
        let each = factors.gains_each(all).expect("gains");
        for (r, (shared, c)) in each.iter().zip(all).enumerate() {
            let lone = factors.gains(c).expect("gains");
            for (i, (x, y)) in shared.iter().zip(lone.iter()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "cost vector {}, state {}", r, i);
            }
        }
    }
}

/// A unichain generator: one closed class — a ring of 2–6 states plus
/// extra edges inside it — and 1–4 transient states, each with an edge
/// into the class plus extra edges to any state. Rates come from
/// [`mixed_rate`], so stiff `1e6` rates sit beside `0.1`. States are
/// shuffled so the transient states interleave with the class; the ring
/// visits the class in ascending state order, the order Gauss–Seidel
/// sweeps in (a pure ring swept against its direction circulates the
/// error without damping it). Returns the generator and the class
/// members in ascending order.
fn unichain_generator() -> impl Strategy<Value = (Generator, Vec<usize>)> {
    (2usize..7, 1usize..5).prop_flat_map(|(k, n_transient)| {
        let n = k + n_transient;
        (
            prop::collection::vec(0.0f64..1.0, n),
            prop::collection::vec(mixed_rate(), n),
            prop::collection::vec((0..n, 0..n, mixed_rate()), 0..2 * n),
        )
            .prop_map(move |(keys, own, extras)| {
                // States in key order: the first `k` form the class.
                let mut states: Vec<usize> = (0..n).collect();
                states.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                let mut members = states[..k].to_vec();
                members.sort_unstable();
                let transient = &states[k..];
                let mut b = Generator::builder(n);
                for (l, &i) in members.iter().enumerate() {
                    b.add_rate(i, members[(l + 1) % k], own[l]);
                }
                for (t, &i) in transient.iter().enumerate() {
                    b.add_rate(i, members[t % k], own[k + t]);
                }
                for (from, to, rate) in extras {
                    // Class states stay inside the class to keep it closed.
                    let (from, to) = if from < k {
                        (members[from], members[to % k])
                    } else {
                        (transient[from - k], states[to])
                    };
                    if from != to {
                        b.add_rate(from, to, rate);
                    }
                }
                (b.build().expect("constructed rates are valid"), members)
            })
    })
}

proptest! {
    #[test]
    fn unichain_chains_solve_on_their_closed_class((g, members) in unichain_generator()) {
        let n = g.n_states();
        let mut class = Generator::builder(members.len());
        for (l, &i) in members.iter().enumerate() {
            for (m, &j) in members.iter().enumerate() {
                if i != j && g.rate(i, j) > 0.0 {
                    class.add_rate(l, m, g.rate(i, j));
                }
            }
        }
        let class = class.build().expect("valid class");
        let sparse_class = SparseGenerator::from_generator(&class);
        let reference = solve_with(&class, Method::Gth).expect("closed classes are irreducible");
        let bound = 1e-8 * g.max_exit_rate().max(1.0);
        let sparse = SparseGenerator::from_generator(&g);
        for method in ALL_METHODS {
            for (solved, alone) in [
                (Solver::new(method).solve(&g), solve_with(&class, method)),
                (Solver::new(method).solve(&sparse), solve_sparse_with(&sparse_class, method)),
            ] {
                // The class is solved exactly as if it were the input: the
                // same bits, or the same error. GTH always succeeds; on
                // some of these stiff classes Gauss–Seidel stalls or stops
                // short and BiCGSTAB breaks down, alone as in the chain.
                let (pi, stats) = match (solved, alone) {
                    (Ok(solved), Ok(alone)) => {
                        for (l, &i) in members.iter().enumerate() {
                            prop_assert_eq!(solved.0[i].to_bits(), alone[l].to_bits(), "{:?}: class state {}", method, i);
                        }
                        solved
                    }
                    (Err(e), Err(alone)) if method != Method::Gth => {
                        prop_assert_eq!(e, alone);
                        continue;
                    }
                    (solved, alone) => {
                        panic!("{method:?}: {solved:?} vs class alone {alone:?}")
                    }
                };
                let mut in_class = vec![false; n];
                for (l, &i) in members.iter().enumerate() {
                    in_class[i] = true;
                    if method == Method::Gth {
                        prop_assert!(
                            (pi[i] - reference[l]).abs() < 1e-8,
                            "class state {i}: {} vs dense GTH {}", pi[i], reference[l]
                        );
                    }
                }
                for i in (0..n).filter(|&i| !in_class[i]) {
                    prop_assert_eq!(pi[i].to_bits(), 0.0f64.to_bits(), "{:?}: transient state {}", method, i);
                }
                let full = stationary::residual(&g, &pi);
                prop_assert_eq!(stats.residual(), full);
                prop_assert!(full <= bound, "{method:?}: residual {full:e} above {bound:e}");
            }
        }
    }
}
