//! Policy compilation: lowering a table policy to a dense lookup artifact.
//!
//! A [`dpm_core::PmPolicy`] answers "which mode?" by validating the state
//! against the system and indexing a destination table — fine for a
//! solver, too much machinery for a serving hot path. [`CompiledPolicy`]
//! precomputes everything the lookup needs:
//!
//! * a **mixed-radix stable index** — `mode * (Q+1) + jobs` over the
//!   SP×SQ product, matching `PmSystem`'s enumeration;
//! * a **minimal-perfect transfer lookup** — transfer states exist only
//!   for active modes, so a per-mode slot table (`active_slot`) maps the
//!   sparse mode axis onto a dense `slot * Q + (departing-1)` array with
//!   zero wasted entries and no hashing;
//! * **one-byte actions** — destination modes stored as `u8` (the paper's
//!   systems have a handful of modes; anything ≤ 256 compiles), keeping
//!   the whole artifact a few cache lines.
//!
//! The artifact is versioned and serialized through the harness's
//! canonical JSON, so compiled policies are diffable, reproducible
//! by-byte, and loadable without the source system.

use std::sync::Arc;

use dpm_core::{PmPolicy, PmSystem, SysState};
use dpm_harness::Json;
use dpm_sim::controller::{Command, Controller, Observation, SimEvent};
use rand_chacha::ChaCha8Rng;

use crate::ServeError;

/// Format tag of the serialized artifact.
pub const COMPILED_POLICY_FORMAT: &str = "dpm-compiled-policy/v1";

/// Sentinel slot for modes with no transfer states (inactive modes).
const NO_SLOT: u32 = u32::MAX;

/// A stationary policy lowered to dense constant-time lookup tables.
///
/// Obtained from [`CompiledPolicy::compile`]; consulted with
/// [`CompiledPolicy::action`]. Serialize with [`CompiledPolicy::to_json`]
/// and reload with [`CompiledPolicy::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPolicy {
    n_modes: usize,
    capacity: usize,
    labels: Vec<String>,
    /// Per mode: index into the transfer block, or [`NO_SLOT`].
    active_slot: Vec<u32>,
    /// Modes with transfer states, in slot order.
    active_modes: Vec<usize>,
    /// Destination mode per stable state, indexed `mode*(Q+1)+jobs`.
    stable_actions: Vec<u8>,
    /// Destination mode per transfer state, indexed `slot*Q+(departing-1)`.
    transfer_actions: Vec<u8>,
}

impl CompiledPolicy {
    /// Lowers `policy` over `system` into lookup tables.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TooManyModes`] if destinations do not fit one
    /// byte, and [`ServeError::PolicyMismatch`] if the policy's table does
    /// not cover the system's state space or commands an invalid action.
    pub fn compile(system: &PmSystem, policy: &PmPolicy) -> Result<Self, ServeError> {
        let sp = system.provider();
        let n_modes = sp.n_modes();
        if n_modes > 256 {
            return Err(ServeError::TooManyModes { n_modes });
        }
        let capacity = system.capacity();
        if policy.destinations().len() != system.n_states() {
            return Err(ServeError::PolicyMismatch {
                reason: format!(
                    "policy covers {} states, system has {}",
                    policy.destinations().len(),
                    system.n_states()
                ),
            });
        }

        let active_modes = sp.active_modes();
        let mut active_slot = vec![NO_SLOT; n_modes];
        for (slot, &mode) in active_modes.iter().enumerate() {
            if let Some(entry) = active_slot.get_mut(mode) {
                *entry = slot as u32;
            }
        }
        let mut stable_actions = vec![0u8; n_modes * (capacity + 1)];
        let mut transfer_actions = vec![0u8; active_modes.len() * capacity];

        for (index, &state) in system.states().iter().enumerate() {
            let dest = policy.destination(index);
            if dest >= n_modes || !system.action_destinations(index).contains(&dest) {
                return Err(ServeError::PolicyMismatch {
                    reason: format!("state {index} commands invalid destination {dest}"),
                });
            }
            let dest = dest as u8;
            match state {
                SysState::Stable { mode, jobs } => {
                    if let Some(slot) = stable_actions.get_mut(mode * (capacity + 1) + jobs) {
                        *slot = dest;
                    }
                }
                SysState::Transfer { mode, departing } => {
                    let block = active_slot.get(mode).copied().unwrap_or(NO_SLOT);
                    if block == NO_SLOT || departing == 0 {
                        return Err(ServeError::PolicyMismatch {
                            reason: format!(
                                "state {index} is a transfer state of an inactive mode"
                            ),
                        });
                    }
                    if let Some(slot) =
                        transfer_actions.get_mut(block as usize * capacity + departing - 1)
                    {
                        *slot = dest;
                    }
                }
            }
        }

        Ok(CompiledPolicy {
            n_modes,
            capacity,
            labels: (0..n_modes).map(|m| sp.label(m).to_owned()).collect(),
            active_slot,
            active_modes,
            stable_actions,
            transfer_actions,
        })
    }

    /// Destination mode for `state`: a bounds-checked constant-time table
    /// lookup. `None` for states outside the compiled state space (mode or
    /// queue index out of range, or a transfer state of an inactive mode).
    #[inline]
    #[must_use]
    pub fn action(&self, state: SysState) -> Option<usize> {
        match state {
            SysState::Stable { mode, jobs } if jobs <= self.capacity => self
                .stable_actions
                .get(mode * (self.capacity + 1) + jobs)
                .map(|&a| a as usize),
            SysState::Transfer { mode, departing } if (1..=self.capacity).contains(&departing) => {
                let block = self.active_slot.get(mode).copied()?;
                if block == NO_SLOT {
                    return None;
                }
                self.transfer_actions
                    .get(block as usize * self.capacity + departing - 1)
                    .map(|&a| a as usize)
            }
            _ => None,
        }
    }

    /// Number of SP modes the artifact was compiled for.
    #[must_use]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Queue capacity the artifact was compiled for.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of states the artifact covers (stable plus transfer).
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.stable_actions.len() + self.transfer_actions.len()
    }

    /// Label of mode `m`, if in range.
    #[must_use]
    pub fn label(&self, m: usize) -> Option<&str> {
        self.labels.get(m).map(String::as_str)
    }

    /// Serializes the artifact as versioned canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let ints = |v: &[u8]| Json::Array(v.iter().map(|&a| Json::Int(i128::from(a))).collect());
        let mut doc = Json::object();
        doc.set("format", COMPILED_POLICY_FORMAT);
        doc.set("n_modes", self.n_modes);
        doc.set("capacity", self.capacity);
        doc.set(
            "labels",
            Json::Array(self.labels.iter().map(|l| Json::Str(l.clone())).collect()),
        );
        doc.set(
            "active_modes",
            Json::Array(
                self.active_modes
                    .iter()
                    .map(|&m| Json::Int(m as i128))
                    .collect(),
            ),
        );
        doc.set("stable_actions", ints(&self.stable_actions));
        doc.set("transfer_actions", ints(&self.transfer_actions));
        doc
    }

    /// Decodes an artifact produced by [`CompiledPolicy::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Format`] on a wrong format tag or any
    /// inconsistency between the declared shape and the tables.
    pub fn from_json(doc: &Json) -> Result<Self, ServeError> {
        let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
        if format != COMPILED_POLICY_FORMAT {
            return Err(ServeError::Format {
                reason: format!("expected {COMPILED_POLICY_FORMAT}, got {format:?}"),
            });
        }
        let n_modes = get_usize(doc, "n_modes")?;
        let capacity = get_usize(doc, "capacity")?;
        if n_modes == 0 || n_modes > 256 || capacity == 0 {
            return Err(ServeError::Format {
                reason: format!("implausible shape: {n_modes} modes, capacity {capacity}"),
            });
        }
        let labels = get_strings(doc, "labels")?;
        if labels.len() != n_modes {
            return Err(ServeError::Format {
                reason: format!("{} labels for {n_modes} modes", labels.len()),
            });
        }
        let active_modes = get_indices(doc, "active_modes")?;
        let mut active_slot = vec![NO_SLOT; n_modes];
        for (slot, &mode) in active_modes.iter().enumerate() {
            let Some(entry) = active_slot.get_mut(mode) else {
                return Err(ServeError::Format {
                    reason: format!("active mode {mode} out of range"),
                });
            };
            if *entry != NO_SLOT {
                return Err(ServeError::Format {
                    reason: format!("active mode {mode} listed twice"),
                });
            }
            *entry = slot as u32;
        }
        let stable_actions = get_actions(doc, "stable_actions", n_modes)?;
        if stable_actions.len() != n_modes * (capacity + 1) {
            return Err(ServeError::Format {
                reason: format!(
                    "{} stable actions for {n_modes} modes x capacity {capacity}",
                    stable_actions.len()
                ),
            });
        }
        let transfer_actions = get_actions(doc, "transfer_actions", n_modes)?;
        if transfer_actions.len() != active_modes.len() * capacity {
            return Err(ServeError::Format {
                reason: format!(
                    "{} transfer actions for {} active modes x capacity {capacity}",
                    transfer_actions.len(),
                    active_modes.len()
                ),
            });
        }
        Ok(CompiledPolicy {
            n_modes,
            capacity,
            labels,
            active_slot,
            active_modes,
            stable_actions,
            transfer_actions,
        })
    }
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, ServeError> {
    let field = doc.get(key);
    field
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| ServeError::Format {
            reason: format!("{key}: expected a non-negative integer, got {field:?}"),
        })
}

fn get_strings(doc: &Json, key: &str) -> Result<Vec<String>, ServeError> {
    let Some(Json::Array(items)) = doc.get(key) else {
        return Err(ServeError::Format {
            reason: format!("{key}: expected an array"),
        });
    };
    items
        .iter()
        .map(|item| match item {
            Json::Str(s) => Ok(s.clone()),
            other => Err(ServeError::Format {
                reason: format!("{key}: expected a string, got {other:?}"),
            }),
        })
        .collect()
}

fn get_indices(doc: &Json, key: &str) -> Result<Vec<usize>, ServeError> {
    let Some(Json::Array(items)) = doc.get(key) else {
        return Err(ServeError::Format {
            reason: format!("{key}: expected an array"),
        });
    };
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| ServeError::Format {
                    reason: format!("{key}: expected a non-negative integer, got {item:?}"),
                })
        })
        .collect()
}

fn get_actions(doc: &Json, key: &str, n_modes: usize) -> Result<Vec<u8>, ServeError> {
    let Some(Json::Array(items)) = doc.get(key) else {
        return Err(ServeError::Format {
            reason: format!("{key}: expected an array"),
        });
    };
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .filter(|&v| v < n_modes as u64)
                .and_then(|v| u8::try_from(v).ok())
                .ok_or_else(|| ServeError::Format {
                    reason: format!("{key}: action out of range for {n_modes} modes: {item:?}"),
                })
        })
        .collect()
}

/// A [`Controller`] backed by a shared [`CompiledPolicy`]: the serving
/// hot path. Many systems across many shards consult one artifact through
/// an [`Arc`]; each controller counts its own lookups.
#[derive(Debug, Clone)]
pub struct CompiledController {
    policy: Arc<CompiledPolicy>,
    lookups: u64,
}

impl CompiledController {
    /// Wraps a shared compiled policy.
    #[must_use]
    pub fn new(policy: Arc<CompiledPolicy>) -> Self {
        CompiledController { policy, lookups: 0 }
    }

    /// Policy lookups performed so far (one per consultation).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Atomically replaces the policy consulted from the next lookup on —
    /// the hot-swap hook the serving runtime drives at its event-count
    /// barriers. The lookup counter carries across the swap.
    pub fn swap_policy(&mut self, policy: Arc<CompiledPolicy>) {
        self.policy = policy;
    }
}

impl Controller for CompiledController {
    fn command(
        &mut self,
        observation: &Observation,
        _event: SimEvent,
        _rng: &mut ChaCha8Rng,
    ) -> Command {
        self.lookups += 1;
        let target = self
            .policy
            .action(observation.state)
            .unwrap_or_else(|| observation.state.mode());
        Command::go(target)
    }

    fn name(&self) -> String {
        "compiled".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::{SpModel, SrModel};

    fn system() -> PmSystem {
        PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_matches_table_on_every_state() {
        let system = system();
        for policy in [
            PmPolicy::greedy(&system).unwrap(),
            PmPolicy::always_on(&system, 0).unwrap(),
            PmPolicy::n_policy(&system, 2, 1).unwrap(),
        ] {
            let compiled = CompiledPolicy::compile(&system, &policy).unwrap();
            assert_eq!(compiled.n_states(), system.n_states());
            for i in 0..system.n_states() {
                let state = system.state(i);
                assert_eq!(
                    compiled.action(state),
                    Some(policy.destination(i)),
                    "state {i}: {state:?}"
                );
                assert_eq!(
                    compiled.action(state),
                    policy.command(&system, state).ok(),
                    "state {i}: {state:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_space_states_are_rejected() {
        let system = system();
        let compiled =
            CompiledPolicy::compile(&system, &PmPolicy::greedy(&system).unwrap()).unwrap();
        let inactive = system.provider().inactive_modes()[0];
        assert_eq!(
            compiled.action(SysState::Transfer {
                mode: inactive,
                departing: 1
            }),
            None,
            "transfer states exist only for active modes"
        );
        assert_eq!(
            compiled.action(SysState::Stable { mode: 99, jobs: 0 }),
            None
        );
        assert_eq!(
            compiled.action(SysState::Stable { mode: 0, jobs: 99 }),
            None
        );
        assert_eq!(
            compiled.action(SysState::Transfer {
                mode: 0,
                departing: 0
            }),
            None
        );
        assert_eq!(
            compiled.action(SysState::Transfer {
                mode: 0,
                departing: 6
            }),
            None
        );
    }

    #[test]
    fn artifact_round_trips_through_canonical_json() {
        let system = system();
        let compiled =
            CompiledPolicy::compile(&system, &PmPolicy::n_policy(&system, 3, 1).unwrap()).unwrap();
        let doc = compiled.to_json();
        let reloaded = CompiledPolicy::from_json(&doc).unwrap();
        assert_eq!(reloaded, compiled);
        // Canonical render is stable through a parse cycle too.
        let reparsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(CompiledPolicy::from_json(&reparsed).unwrap(), compiled);
        assert_eq!(reparsed.render(), doc.render());
    }

    #[test]
    fn mismatched_policy_is_rejected() {
        let system = system();
        let small = PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(2)
            .build()
            .unwrap();
        let policy = PmPolicy::greedy(&small).unwrap();
        let err = CompiledPolicy::compile(&system, &policy).unwrap_err();
        assert!(matches!(err, ServeError::PolicyMismatch { .. }), "{err}");
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        let system = system();
        let compiled =
            CompiledPolicy::compile(&system, &PmPolicy::greedy(&system).unwrap()).unwrap();
        let mut wrong_tag = compiled.to_json();
        wrong_tag.set("format", "dpm-compiled-policy/v0");
        assert!(CompiledPolicy::from_json(&wrong_tag).is_err());
        let mut wrong_len = compiled.to_json();
        wrong_len.set("stable_actions", Json::Array(vec![Json::Int(0)]));
        assert!(CompiledPolicy::from_json(&wrong_len).is_err());
        let mut bad_action = compiled.to_json();
        bad_action.set(
            "transfer_actions",
            Json::Array(vec![Json::Int(200); compiled.capacity()]),
        );
        assert!(CompiledPolicy::from_json(&bad_action).is_err());
        // An action past u64::MAX must not wrap into range.
        let mut wrapped = compiled.to_json();
        let Some(Json::Array(actions)) = wrapped.get("stable_actions") else {
            panic!("compiled artifact has no stable actions");
        };
        let mut actions = actions.clone();
        actions[0] = Json::Int((1_i128 << 64) + 1);
        wrapped.set("stable_actions", Json::Array(actions));
        assert!(CompiledPolicy::from_json(&wrapped).is_err());
    }

    #[test]
    fn controller_counts_lookups_and_falls_back_to_stay() {
        use rand::SeedableRng;
        let system = system();
        let compiled = Arc::new(
            CompiledPolicy::compile(&system, &PmPolicy::greedy(&system).unwrap()).unwrap(),
        );
        let mut ctl = CompiledController::new(Arc::clone(&compiled));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let obs = Observation {
            time: 0.0,
            state: SysState::Stable { mode: 0, jobs: 2 },
        };
        let cmd = ctl.command(&obs, SimEvent::Arrival, &mut rng);
        assert_eq!(Some(cmd.target), compiled.action(obs.state));
        // A state outside the space commands "stay".
        let odd = Observation {
            time: 0.0,
            state: SysState::Stable { mode: 77, jobs: 0 },
        };
        assert_eq!(ctl.command(&odd, SimEvent::Arrival, &mut rng).target, 77);
        assert_eq!(ctl.lookups(), 2);
    }

    #[test]
    fn swapping_the_policy_changes_answers_but_keeps_the_counter() {
        use rand::SeedableRng;
        let system = system();
        let greedy = Arc::new(
            CompiledPolicy::compile(&system, &PmPolicy::greedy(&system).unwrap()).unwrap(),
        );
        let on = Arc::new(
            CompiledPolicy::compile(&system, &PmPolicy::always_on(&system, 0).unwrap()).unwrap(),
        );
        let mut ctl = CompiledController::new(Arc::clone(&greedy));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let obs = Observation {
            time: 0.0,
            state: SysState::Stable { mode: 0, jobs: 0 },
        };
        let before = ctl.command(&obs, SimEvent::Arrival, &mut rng).target;
        assert_eq!(Some(before), greedy.action(obs.state));
        ctl.swap_policy(Arc::clone(&on));
        let after = ctl.command(&obs, SimEvent::Arrival, &mut rng).target;
        assert_eq!(Some(after), on.action(obs.state));
        assert_eq!(ctl.lookups(), 2, "the counter survives the swap");
    }
}
