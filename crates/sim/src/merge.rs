//! Deterministic merging of [`SimReport`]s.
//!
//! [`MergedReport`] folds per-run reports into fleet totals: counters sum
//! exactly in `u64`, time and energy totals in plain `f64`. Floating-point
//! addition is not associative, so the totals depend on the order of
//! [`MergedReport::absorb`] calls; the sharded runtime (`dpm-serve`) calls
//! it once per served system in fleet-index order after every shard has
//! finished, so the order — and every readout bit — is the same at any
//! shard count.

use crate::report::SimReport;

/// Deterministic aggregate of many [`SimReport`]s.
///
/// Counters sum exactly in `u64`; time/energy totals are plain `f64`
/// sums, so absorbing the same reports in the same order produces
/// bit-identical state and readouts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergedReport {
    runs: u64,
    duration: f64,
    occupancy_energy: f64,
    switch_energy: f64,
    queue_integral: f64,
    sojourn_sum: f64,
    arrivals: u64,
    completed: u64,
    lost: u64,
    switches: u64,
    consultations: u64,
    events: u64,
}

impl MergedReport {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's report into the aggregate.
    pub fn absorb(&mut self, report: &SimReport) {
        self.runs += 1;
        self.duration += report.duration;
        self.occupancy_energy += report.occupancy_energy;
        self.switch_energy += report.switch_energy;
        self.queue_integral += report.queue_integral;
        self.sojourn_sum += report.sojourn_sum;
        self.arrivals += report.arrivals;
        self.completed += report.completed;
        self.lost += report.lost;
        self.switches += report.switches;
        self.consultations += report.consultations;
        self.events += report.events;
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total simulated time across all runs.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Total mode-occupancy energy in joules.
    #[must_use]
    pub fn occupancy_energy(&self) -> f64 {
        self.occupancy_energy
    }

    /// Total mode-switch energy in joules.
    #[must_use]
    pub fn switch_energy(&self) -> f64 {
        self.switch_energy
    }

    /// Total energy in joules (occupancy plus switching).
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.occupancy_energy + self.switch_energy
    }

    /// Total time-weighted queue-length integral.
    #[must_use]
    pub fn queue_integral(&self) -> f64 {
        self.queue_integral
    }

    /// Total sojourn time over completed requests.
    #[must_use]
    pub fn sojourn_sum(&self) -> f64 {
        self.sojourn_sum
    }

    /// Requests generated across all runs.
    #[must_use]
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Requests serviced to completion across all runs.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests lost to full queues across all runs.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Mode switches performed across all runs.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Power-manager consultations (policy lookups for table/compiled
    /// controllers) across all runs.
    #[must_use]
    pub fn consultations(&self) -> u64 {
        self.consultations
    }

    /// Engine events processed across all runs.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Duration-weighted average power in watts across all runs.
    #[must_use]
    pub fn average_power(&self) -> f64 {
        let d = self.duration();
        if d > 0.0 {
            self.total_energy() / d
        } else {
            0.0
        }
    }

    /// Duration-weighted average queue length across all runs.
    #[must_use]
    pub fn average_queue_length(&self) -> f64 {
        let d = self.duration();
        if d > 0.0 {
            self.queue_integral() / d
        } else {
            0.0
        }
    }

    /// Average sojourn time per completed request across all runs.
    #[must_use]
    pub fn average_waiting_time(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.sojourn_sum() / self.completed as f64
        }
    }

    /// Fraction of arrivals lost across all runs.
    #[must_use]
    pub fn loss_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.lost as f64 / self.arrivals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bits(a: f64, b: f64) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a:e} != {b:e}");
    }

    #[test]
    fn empty_aggregate_reads_zero() {
        let m = MergedReport::new();
        assert_eq!(m.runs(), 0);
        assert_bits(m.duration(), 0.0);
        assert_bits(m.average_power(), 0.0);
        assert_bits(m.average_queue_length(), 0.0);
        assert_bits(m.average_waiting_time(), 0.0);
        assert_bits(m.loss_fraction(), 0.0);
    }
}
