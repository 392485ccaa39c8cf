//! `PmSystem::ctmdp` against a construction written from the paper's
//! rules alone.
//!
//! The system composes its CTMDP from precomputed index arithmetic, one
//! label per mode and one reused transition buffer. The reference here
//! rebuilds every action from `PmSystem::state`, the provider's rates and
//! a linear search over `PmSystem::states` for each target, and the two
//! must agree in every label, every cost bit, every rate bit and every
//! order, over random provider models, capacities and weights.
//!
//! ```text
//! cargo test --release -p dpm-core --test ctmdp_assembly
//! ```

use dpm_core::{PmSystem, SpModel, SrModel, SysState};
use proptest::prelude::*;

/// One action as the reference builds it: label, cost bits and
/// `(target, rate bits)` in declared order.
type Action = (String, u64, Vec<(usize, u64)>);

/// A random provider (1–5 modes, at least one active, most switches
/// declared), a random arrival rate, capacity 1–30 and weight in 0–200.
/// `None` when the draw breaks a model rule (e.g. a state with no legal
/// action); the property skips those.
fn random_system() -> impl Strategy<Value = (Option<PmSystem>, f64)> {
    (1usize..=5).prop_flat_map(|modes| {
        (
            prop::collection::vec((0usize..3, 0.05f64..5.0, 0.0f64..50.0), modes..=modes),
            prop::collection::vec((0usize..4, 0.05f64..20.0, 0.0f64..5.0), modes * modes),
            0.02f64..3.0,
            1usize..=30,
            0.0f64..200.0,
        )
            .prop_map(move |(spec, switches, lambda, capacity, weight)| {
                let mut b = SpModel::builder();
                for (m, &(inactive, mu, power)) in spec.iter().enumerate() {
                    // Mode 0 always serves; the others serve two times in three.
                    let mu = if m > 0 && inactive == 0 { 0.0 } else { mu };
                    b.mode(format!("m{m}"), mu, power);
                }
                for (k, &(absent, rate, energy)) in switches.iter().enumerate() {
                    let (from, to) = (k / modes, k % modes);
                    if from != to && absent > 0 {
                        b.switch_rate(from, to, rate)
                            .and_then(|b| b.energy(from, to, energy))
                            .expect("valid switch");
                    }
                }
                let system = PmSystem::builder()
                    .provider(b.build().expect("mode 0 is active"))
                    .requestor(SrModel::poisson(lambda).expect("positive rate"))
                    .capacity(capacity)
                    .build()
                    .ok();
                (system, weight)
            })
    })
}

/// Every action of `system`'s CTMDP at `weight`, from the paper's rules.
fn reference_actions(system: &PmSystem, weight: f64) -> Vec<Vec<Action>> {
    let sp = system.provider();
    let lambda = system.requestor().rate();
    let q = system.capacity();
    let index = |state: SysState| {
        system
            .states()
            .iter()
            .position(|&s| s == state)
            .expect("target is a state")
    };
    (0..system.n_states())
        .map(|i| {
            let state = system.state(i);
            let mode = state.mode();
            system
                .action_destinations(i)
                .iter()
                .map(|&dest| {
                    let mut rates = Vec::new();
                    match state {
                        SysState::Stable { jobs, .. } => {
                            if jobs < q {
                                rates.push((
                                    index(SysState::Stable {
                                        mode,
                                        jobs: jobs + 1,
                                    }),
                                    lambda,
                                ));
                            }
                            if sp.service_rate(mode) > 0.0 && jobs >= 1 {
                                let to = index(SysState::Transfer {
                                    mode,
                                    departing: jobs,
                                });
                                rates.push((to, sp.service_rate(mode)));
                            }
                            if dest != mode {
                                let to = index(SysState::Stable { mode: dest, jobs });
                                rates.push((to, sp.switch_rate(mode, dest)));
                            }
                        }
                        SysState::Transfer { departing, .. } => {
                            if departing < q {
                                let to = index(SysState::Transfer {
                                    mode,
                                    departing: departing + 1,
                                });
                                rates.push((to, lambda));
                            }
                            let rate = if dest == mode {
                                system.instant_rate()
                            } else {
                                sp.switch_rate(mode, dest)
                            };
                            let to = index(SysState::Stable {
                                mode: dest,
                                jobs: departing - 1,
                            });
                            rates.push((to, rate));
                        }
                    }
                    let mut power = sp.power(mode);
                    if dest != mode {
                        power += sp.switch_rate(mode, dest) * sp.switch_energy(mode, dest);
                    }
                    #[allow(clippy::cast_precision_loss)]
                    let cost = power + weight * state.requests_present() as f64;
                    (
                        format!("->{}", sp.label(dest)),
                        cost.to_bits(),
                        rates.into_iter().map(|(to, r)| (to, r.to_bits())).collect(),
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ctmdp_matches_the_paper_rules_bit_for_bit((system, weight) in random_system()) {
        let Some(system) = system else { return };
        let mdp = system.ctmdp(weight).expect("valid weight");
        let built: Vec<Vec<Action>> = (0..mdp.n_states())
            .map(|i| {
                mdp.actions(i)
                    .iter()
                    .map(|a| {
                        (
                            a.label().to_owned(),
                            a.cost_rate().to_bits(),
                            a.rates().iter().map(|&(to, r)| (to, r.to_bits())).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(built, reference_actions(&system, weight));
        // The build-time index tables: every state round-trips, and the
        // initial state is the empty queue in the fastest active mode.
        for (i, &state) in system.states().iter().enumerate() {
            prop_assert_eq!(system.index_of(state), Some(i));
        }
        let sp = system.provider();
        let fastest = sp
            .active_modes()
            .into_iter()
            .max_by(|&a, &b| sp.service_rate(a).total_cmp(&sp.service_rate(b)))
            .expect("an active mode");
        prop_assert_eq!(
            system.state(system.initial_state_index()),
            SysState::Stable { mode: fastest, jobs: 0 }
        );
    }
}
