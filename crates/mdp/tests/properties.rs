//! Property-based cross-validation of the MDP solver suite: policy
//! iteration, value iteration, LP, and brute-force enumeration must all
//! agree on the optimal average cost of random processes.

use dpm_ctmc::SparseGenerator;
use dpm_linalg::DVector;
use dpm_mdp::{average, discounted, lp, value_iteration, Ctmdp, MdpError, Policy};
use proptest::prelude::*;

/// Policy iteration from the minimum-cost-rate policy; on these
/// irreducible processes every state has the same optimal gain.
fn optimal_gain(mdp: &Ctmdp) -> f64 {
    average::policy_iteration_multichain(mdp, mdp.min_cost_policy(), &average::Options::default())
        .expect("solvable by construction")
        .gain_from(0)
}

/// Random CTMDP in which every action keeps the chain irreducible: each
/// action's rate set contains a ring edge `i -> (i+1) % n` plus an optional
/// extra edge.
fn ring_ctmdp(n: usize) -> impl Strategy<Value = Ctmdp> {
    let per_state = prop::collection::vec(
        prop::collection::vec(
            (0.1f64..5.0, 0.0f64..20.0, 0..8usize, 0.0f64..3.0),
            1..3, // 1-2 actions per state
        ),
        n..=n,
    );
    per_state.prop_map(move |spec| {
        let mut b = Ctmdp::builder(n);
        for (i, actions) in spec.iter().enumerate() {
            for (k, &(ring_rate, cost, extra_to, extra_rate)) in actions.iter().enumerate() {
                let ring_target = (i + 1) % n;
                let mut rates = vec![(ring_target, ring_rate)];
                let extra_target = extra_to % n;
                if extra_target != i && extra_target != ring_target && extra_rate > 0.0 {
                    rates.push((extra_target, extra_rate));
                }
                b.action(i, format!("a{k}"), cost, &rates)
                    .expect("valid by construction");
            }
        }
        b.build().expect("every state has an action")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn policy_iteration_matches_brute_force(mdp in (2usize..5).prop_flat_map(ring_ctmdp)) {
        let gain = optimal_gain(&mdp);
        let brute = mdp
            .enumerate_policies()
            .into_iter()
            .map(|p| mdp.average_cost(&p).expect("irreducible by construction"))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            (gain - brute).abs() < 1e-7 * (1.0 + brute.abs()),
            "PI {gain} vs brute {brute}"
        );
    }

    #[test]
    fn lp_matches_policy_iteration(mdp in (2usize..5).prop_flat_map(ring_ctmdp)) {
        let gain = optimal_gain(&mdp);
        let via_lp = lp::solve_average(&mdp).expect("feasible");
        prop_assert!(
            (via_lp.average_cost() - gain).abs() < 1e-6 * (1.0 + gain.abs()),
            "LP {} vs PI {gain}",
            via_lp.average_cost()
        );
    }

    #[test]
    fn value_iteration_matches_policy_iteration(
        mdp in (2usize..5).prop_flat_map(ring_ctmdp)
    ) {
        let gain = optimal_gain(&mdp);
        let options = value_iteration::Options {
            tolerance: 1e-8,
            ..value_iteration::Options::default()
        };
        let vi = value_iteration::solve(&mdp, &options).expect("aperiodic uniformized chain");
        prop_assert!(
            (vi.gain() - gain).abs() < 1e-5 * (1.0 + gain.abs()),
            "VI {} vs PI {gain}",
            vi.gain()
        );
    }

    #[test]
    fn small_discount_rate_recovers_average_policy(
        mdp in (2usize..4).prop_flat_map(ring_ctmdp)
    ) {
        let gain = optimal_gain(&mdp);
        let dis = discounted::policy_iteration(&mdp, 1e-6, &discounted::Options::default())
            .expect("alpha > 0");
        // Vanishing discount: alpha * v -> optimal gain.
        prop_assert!((dis.values()[0] * 1e-6 - gain).abs() < 1e-3 * (1.0 + gain.abs()));
    }

    #[test]
    fn constrained_lp_interpolates_feasibly(
        mdp in (2usize..4).prop_flat_map(ring_ctmdp)
    ) {
        // Aux cost: indicator of state 0. The achievable range over
        // policies is found by optimizing the aux itself in both directions.
        let n = mdp.n_states();
        let aux: Vec<f64> = (0..n).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let unconstrained = lp::solve_average(&mdp).expect("feasible");
        let at_optimum = unconstrained.average_of(&aux);
        // A bound at the unconstrained value must be feasible and no cheaper.
        let constrained = lp::solve_constrained_average(&mdp, &aux, at_optimum + 1e-9)
            .expect("bound attained by the unconstrained optimum");
        prop_assert!(constrained.average_cost() <= unconstrained.average_cost() + 1e-6);
        prop_assert!(constrained.average_of(&aux) <= at_optimum + 1e-6);
    }

    #[test]
    fn evaluation_gain_is_policy_average_cost(
        mdp in (2usize..5).prop_flat_map(ring_ctmdp)
    ) {
        for policy in mdp.enumerate_policies().into_iter().take(8) {
            let eval = average::evaluate(&mdp, &policy, 0).expect("unichain");
            let direct = mdp.average_cost(&policy).expect("irreducible");
            prop_assert!((eval.gain() - direct).abs() < 1e-7 * (1.0 + direct.abs()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential oracle: the dense unichain evaluation (one LU of the
    /// `n`-unknown system, bias pinned at a random reference state) and
    /// [`average::evaluate_multichain`] (`ChainFactors`, bias pinned at
    /// state 0) give the same gain in every state and the same bias once
    /// the dense one is re-pinned at state 0.
    #[test]
    fn dense_and_chain_factors_evaluations_agree(
        (mdp, reference) in (2usize..7).prop_flat_map(|n| (ring_ctmdp(n), 0..n)),
    ) {
        for policy in mdp.enumerate_policies().into_iter().take(8) {
            let dense = average::evaluate(&mdp, &policy, reference).expect("unichain");
            let factored = average::evaluate_multichain(&mdp, &policy).expect("evaluable");
            let gain = dense.gain();
            for (i, g) in factored.gains().iter().enumerate() {
                prop_assert!(
                    (g - gain).abs() < 1e-10 * (1.0 + gain.abs()),
                    "policy {policy}, state {i}: dense gain {gain} vs {g}"
                );
            }
            let repinned = DVector::from_fn(mdp.n_states(), |j| dense.bias()[j] - dense.bias()[0]);
            let diff = (&repinned - factored.bias()).norm_inf();
            prop_assert!(
                diff < 1e-9 * (1.0 + repinned.norm_inf()),
                "policy {policy}: bias diff {diff}"
            );
        }
    }

    /// The multichain evaluation's gain/bias pair satisfies the evaluation
    /// identity rowwise: `c_i − g_i + Σ_j G_ij v_j = 0` at every state, and
    /// the gains are harmonic (`Σ_j G_ij g_j = 0`).
    #[test]
    fn multichain_evaluation_satisfies_identities(
        mdp in (2usize..5).prop_flat_map(ring_ctmdp)
    ) {
        for policy in mdp.enumerate_policies().into_iter().take(6) {
            let eval = average::evaluate_multichain(&mdp, &policy).expect("evaluable");
            let generator = mdp.generator_for(&policy).expect("valid");
            let costs = mdp.cost_rates_for(&policy).expect("valid");
            let n = mdp.n_states();
            for i in 0..n {
                let gv: f64 = (0..n)
                    .map(|j| generator.rate(i, j) * eval.bias()[j])
                    .sum();
                let residual = costs[i] - eval.gains()[i] + gv;
                prop_assert!(
                    residual.abs() < 1e-7 * (1.0 + costs[i].abs()),
                    "state {i}: evaluation residual {residual}"
                );
                let gg: f64 = (0..n)
                    .map(|j| generator.rate(i, j) * eval.gains()[j])
                    .sum();
                prop_assert!(
                    gg.abs() < 1e-7 * (1.0 + eval.gains()[i].abs()),
                    "state {i}: gain drift {gg}"
                );
            }
        }
    }

    /// Multichain PI never loses to any enumerated policy from any start
    /// state.
    #[test]
    fn multichain_pi_dominates_enumeration(
        mdp in (2usize..4).prop_flat_map(ring_ctmdp)
    ) {
        let initial = dpm_mdp::Policy::uniform(mdp.n_states(), 0);
        let best = average::policy_iteration_multichain(
            &mdp,
            initial,
            &average::Options::default(),
        )
        .expect("solvable");
        for policy in mdp.enumerate_policies() {
            let eval = average::evaluate_multichain(&mdp, &policy).expect("evaluable");
            for i in 0..mdp.n_states() {
                prop_assert!(
                    best.gain_from(i) <= eval.gains()[i] + 1e-7 * (1.0 + eval.gains()[i].abs()),
                    "state {i}: PI {} beaten by enumerated {}",
                    best.gain_from(i),
                    eval.gains()[i]
                );
            }
        }
    }
}

/// A random CTMDP whose rows stress chain assembly: repeated targets
/// (merged by the builder), zero rates, and rates near `f64::MAX` whose
/// sums overflow. Paired with a random policy.
fn assembly_case() -> impl Strategy<Value = (Ctmdp, Policy)> {
    (1usize..=12).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec(
                prop::collection::vec(
                    (
                        -5.0f64..20.0,
                        prop::collection::vec((0..n, 0usize..10, 0.1f64..10.0), 0..=5),
                    ),
                    1..=3,
                ),
                n..=n,
            ),
            prop::collection::vec(0usize..3, n..=n),
        )
            .prop_map(|(n, spec, picks)| {
                let mut b = Ctmdp::builder(n);
                for (state, actions) in spec.iter().enumerate() {
                    for (k, (cost, entries)) in actions.iter().enumerate() {
                        let rates: Vec<(usize, f64)> = entries
                            .iter()
                            .filter(|&&(to, _, _)| to != state)
                            .map(|&(to, kind, rate)| match kind {
                                0 => (to, 0.0),
                                1 => (to, f64::MAX / 1.5),
                                _ => (to, rate),
                            })
                            .collect();
                        b.action(state, format!("a{k}"), *cost, &rates)
                            .expect("valid by construction");
                    }
                }
                let mdp = b.build().expect("every state has an action");
                let policy = Policy::new(
                    picks
                        .iter()
                        .enumerate()
                        .map(|(state, &pick)| pick % mdp.actions(state).len())
                        .collect(),
                );
                (mdp, policy)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Ctmdp::sparse_generator_for`, which assembles the chain row by
    /// row, is the chain a triplet list of the chosen actions' positive
    /// rates builds through `SparseGenerator::from_transitions`, bit for
    /// bit: CSR entries in order, and exit rates that are the in-order sum
    /// of each row's rates; an overflowing exit rate fails both the same
    /// way.
    #[test]
    fn sparse_generator_for_matches_a_triplet_build((mdp, policy) in assembly_case()) {
        let chosen = |state: usize| mdp.actions(state)[policy.action(state)].rates();
        let mut transitions = Vec::new();
        for state in 0..mdp.n_states() {
            for &(to, rate) in chosen(state) {
                if rate > 0.0 {
                    transitions.push((state, to, rate));
                }
            }
        }
        let assembled = mdp.sparse_generator_for(&policy);
        let reference = SparseGenerator::from_transitions(mdp.n_states(), &transitions);
        match (assembled, reference) {
            (Ok(generator), Ok(reference)) => {
                let bits = |g: &SparseGenerator| {
                    let entries: Vec<(usize, usize, u64)> =
                        g.csr().iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
                    let exits: Vec<u64> =
                        (0..g.n_states()).map(|i| g.exit_rate(i).to_bits()).collect();
                    (g.n_states(), g.nnz(), entries, exits)
                };
                prop_assert_eq!(bits(&generator), bits(&reference));
                for state in 0..mdp.n_states() {
                    let sum = chosen(state).iter().fold(0.0f64, |sum, &(_, rate)| sum + rate);
                    prop_assert_eq!(generator.exit_rate(state).to_bits(), sum.to_bits());
                }
            }
            (Err(e), Err(ref_e)) => {
                prop_assert_eq!(e.to_string(), MdpError::Chain(ref_e).to_string());
            }
            (assembled, reference) => prop_assert!(
                false,
                "assembled {:?} vs reference {:?}",
                assembled.map(|_| ()),
                reference.map(|_| ())
            ),
        }
    }
}
