//! Supervision vocabulary for the serving runtime: deterministic fault
//! injection, the epoch-coordinated hot-swap schedule, and the per-system
//! status records a supervised run reports.
//!
//! Everything here is a pure function of fleet indices, event counts and
//! attempt numbers — never of wall clock or thread scheduling — so a
//! supervised run stays bit-identical at any shard count and across
//! kill/resume cycles.

use dpm_core::PmPolicy;
use dpm_sim::SimReport;

use crate::{CompiledPolicy, ErrorClass};

/// One armed fault: sabotage `system` just before it processes event
/// `events`, on its first `attempts` attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultSite {
    system: usize,
    events: u64,
    attempts: u32,
}

/// Deterministic fault injection for the serving runtime — the serve
/// twin of `dpm_harness`'s `FaultPlan`, keyed by `(system, event count,
/// attempt)` instead of task index so every recovery path of the
/// supervisor can be exercised from tests and CI smokes.
///
/// Faults fire *inside* the supervised stepping closure, before the
/// engine processes the armed event, so the injected failure is
/// indistinguishable from an organic one at the same point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    panics: Vec<FaultSite>,
    errors: Vec<FaultSite>,
    setup_failures: Vec<usize>,
}

impl ServeFaultPlan {
    /// An empty plan: no faults.
    #[must_use]
    pub fn new() -> Self {
        ServeFaultPlan::default()
    }

    /// Arms a panic in `system` just before event `events`, on its first
    /// `attempts` attempts (`u32::MAX` = every attempt).
    #[must_use]
    pub fn panic_at(mut self, system: usize, events: u64, attempts: u32) -> Self {
        self.panics.push(FaultSite {
            system,
            events,
            attempts,
        });
        self
    }

    /// Arms an engine error in `system` just before event `events`, on
    /// its first `attempts` attempts (`u32::MAX` = every attempt).
    #[must_use]
    pub fn error_at(mut self, system: usize, events: u64, attempts: u32) -> Self {
        self.errors.push(FaultSite {
            system,
            events,
            attempts,
        });
        self
    }

    /// Arms a construction failure for `system`: every attempt to build
    /// its run fails (setup failures are never retried).
    #[must_use]
    pub fn setup_failure(mut self, system: usize) -> Self {
        self.setup_failures.push(system);
        self
    }

    /// Should a panic fire before `system` processes event `events` on
    /// 0-based attempt `attempt`?
    #[must_use]
    pub(crate) fn panic_armed(&self, system: usize, events: u64, attempt: u32) -> bool {
        armed(&self.panics, system, events, attempt)
    }

    /// Should an engine error fire before `system` processes event
    /// `events` on 0-based attempt `attempt`?
    #[must_use]
    pub(crate) fn error_armed(&self, system: usize, events: u64, attempt: u32) -> bool {
        armed(&self.errors, system, events, attempt)
    }

    /// The first event count `>= events` before which a panic or an engine
    /// error is armed for `system` on 0-based attempt `attempt`, if any.
    #[must_use]
    pub(crate) fn next_armed(&self, system: usize, events: u64, attempt: u32) -> Option<u64> {
        self.panics
            .iter()
            .chain(&self.errors)
            .filter(|s| s.system == system && s.events >= events && attempt < s.attempts)
            .map(|s| s.events)
            .min()
    }

    /// Should constructing `system` fail?
    #[must_use]
    pub(crate) fn setup_armed(&self, system: usize) -> bool {
        self.setup_failures.contains(&system)
    }
}

fn armed(sites: &[FaultSite], system: usize, events: u64, attempt: u32) -> bool {
    sites
        .iter()
        .any(|s| s.system == system && s.events == events && attempt < s.attempts)
}

/// One scheduled hot swap: replace the fleet's shared policy with
/// `policy` once a system's own event counter reaches `at_events`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SwapEntry {
    pub(crate) at_events: u64,
    pub(crate) policy: CompiledPolicy,
    pub(crate) table: Option<PmPolicy>,
}

/// A schedule of epoch-coordinated hot policy swaps.
///
/// Each entry names a deterministic **event-count barrier**: a system
/// consults the old policy for its first `at_events` events and the new
/// one from event `at_events + 1` on. The barrier is per-system (each
/// system's own counter), so the swap point is identical at every shard
/// count and across kill/resume replays.
///
/// Incoming artifacts are validated before the fleet starts — shape
/// revalidation against the served system plus, for entries added with
/// [`SwapPlan::swap_at_checked`], a compiled==table spot-check. Invalid
/// entries are **rejected without disturbing the fleet**: the run
/// proceeds under the surviving schedule and the rejection (with reason)
/// is recorded on the outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwapPlan {
    pub(crate) entries: Vec<SwapEntry>,
}

impl SwapPlan {
    /// An empty schedule: never swap.
    #[must_use]
    pub fn new() -> Self {
        SwapPlan::default()
    }

    /// Schedules `policy` to take over at the `at_events` barrier.
    #[must_use]
    pub fn swap_at(mut self, at_events: u64, policy: CompiledPolicy) -> Self {
        self.entries.push(SwapEntry {
            at_events,
            policy,
            table: None,
        });
        self
    }

    /// Schedules `policy` with its source `table` attached: validation
    /// additionally spot-checks that the compiled artifact answers
    /// exactly like the table on every state.
    #[must_use]
    pub fn swap_at_checked(
        mut self,
        at_events: u64,
        policy: CompiledPolicy,
        table: PmPolicy,
    ) -> Self {
        self.entries.push(SwapEntry {
            at_events,
            policy,
            table: Some(table),
        });
        self
    }
}

/// Validation verdict for one scheduled swap, in plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapOutcome {
    pub(crate) at_events: u64,
    pub(crate) accepted: bool,
    pub(crate) reason: Option<String>,
}

impl SwapOutcome {
    /// The event-count barrier the entry was scheduled for.
    #[must_use]
    pub fn at_events(&self) -> u64 {
        self.at_events
    }

    /// True if the artifact passed validation and entered the schedule.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.accepted
    }

    /// Why the artifact was rejected, if it was.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        self.reason.as_deref()
    }
}

/// Final status of one supervised system.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemStatus {
    /// The system ran to completion (possibly after retries).
    Served(SimReport),
    /// The system exhausted its retry budget and was excluded from the
    /// merged totals and the fleet fingerprint.
    Quarantined {
        /// Class of the final failure.
        class: ErrorClass,
        /// Message of the final failure.
        error: String,
    },
}

/// Per-system supervision record carried on the serve outcome: which
/// attempt finally served (or quarantined) the system, and under which
/// seed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRecord {
    pub(crate) system: usize,
    pub(crate) attempts: u32,
    pub(crate) seed_attempt: u32,
    pub(crate) status: SystemStatus,
}

impl SystemRecord {
    /// Fleet index of the system.
    #[must_use]
    pub fn system(&self) -> usize {
        self.system
    }

    /// Attempts consumed (1 = served first try).
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Index into the retry-seed sequence of the final attempt: 0 means
    /// the original `derive_serve_seed` stream (panic-class retries
    /// replay it), engine-class retries advance it.
    #[must_use]
    pub fn seed_attempt(&self) -> u32 {
        self.seed_attempt
    }

    /// Final status.
    #[must_use]
    pub fn status(&self) -> &SystemStatus {
        &self.status
    }

    /// The report, when the system was served.
    #[must_use]
    pub fn report(&self) -> Option<&SimReport> {
        match &self.status {
            SystemStatus::Served(report) => Some(report),
            SystemStatus::Quarantined { .. } => None,
        }
    }

    /// True when the system was served (not quarantined).
    #[must_use]
    pub fn is_served(&self) -> bool {
        matches!(self.status, SystemStatus::Served(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sites_arm_by_system_event_and_attempt() {
        let plan = ServeFaultPlan::new()
            .panic_at(2, 100, 1)
            .error_at(3, 50, u32::MAX)
            .setup_failure(4);
        assert!(plan.panic_armed(2, 100, 0));
        assert!(!plan.panic_armed(2, 100, 1), "attempt past the budget");
        assert!(!plan.panic_armed(2, 99, 0), "different event");
        assert!(!plan.panic_armed(1, 100, 0), "different system");
        assert!(plan.error_armed(3, 50, 7), "max arms every attempt");
        assert_eq!(plan.next_armed(2, 0, 0), Some(100));
        assert_eq!(plan.next_armed(2, 100, 0), Some(100), "inclusive");
        assert_eq!(plan.next_armed(2, 101, 0), None, "already passed");
        assert_eq!(plan.next_armed(2, 0, 1), None, "attempt past the budget");
        assert_eq!(plan.next_armed(3, 0, 7), Some(50), "errors count too");
        assert!(plan.setup_armed(4));
        assert!(!plan.setup_armed(2));
    }
}
