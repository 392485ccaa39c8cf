//! Shared experiment plumbing for the paper-reproduction binaries and the
//! Criterion benchmarks.
//!
//! Every binary in `src/bin/` regenerates one table or figure of
//! Qiu & Pedram (DAC 1999); see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured outcomes.

#![forbid(unsafe_code)]

use dpm_core::{DpmError, PmPolicy, PmSystem, SpModel, SrModel};
use dpm_harness::{Json, Registry, TaskRecord};
use dpm_sim::controller::{Controller, TableController};
use dpm_sim::workload::PoissonWorkload;
use dpm_sim::{SimConfig, SimError, SimReport, Simulator};

/// The paper's Section V experimental setup for a given arrival rate:
/// three-mode server, queue capacity 5.
///
/// # Errors
///
/// Propagates model validation failures (none for the paper's parameters).
pub fn paper_system(lambda: f64) -> Result<PmSystem, DpmError> {
    PmSystem::builder()
        .provider(SpModel::dac99_server()?)
        .requestor(SrModel::poisson(lambda)?)
        .capacity(5)
        .build()
}

/// The paper's workload size.
pub const PAPER_REQUESTS: u64 = 50_000;

/// Simulates a stationary policy on the paper's setup.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn simulate_policy(
    system: &PmSystem,
    policy: &PmPolicy,
    name: &str,
    seed: u64,
    requests: u64,
) -> Result<SimReport, SimError> {
    let controller = TableController::new(system, policy)?.named(name);
    simulate_controller(system, controller, seed, requests)
}

/// Simulates an arbitrary controller on the paper's setup.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn simulate_controller<C: Controller>(
    system: &PmSystem,
    controller: C,
    seed: u64,
    requests: u64,
) -> Result<SimReport, SimError> {
    Simulator::new(
        system.provider().clone(),
        system.capacity(),
        PoissonWorkload::new(system.requestor().rate())?,
        controller,
        SimConfig::new(seed).max_requests(requests),
    )
    .run()
}

/// Serializes a [`SimReport`]'s deterministic metrics for a harness task
/// record. Every field is a pure function of the model and the seed, so
/// artifacts from different worker counts compare byte-identical.
#[must_use]
pub fn report_to_json(report: &SimReport) -> Json {
    let mut out = Json::object();
    out.set("power", Json::num(report.average_power()));
    out.set("queue", Json::num(report.average_queue_length()));
    out.set("wait", Json::num(report.average_waiting_time()));
    out.set(
        "switches_per_s",
        Json::num(report.switches() as f64 / report.duration()),
    );
    out.set("consultation_rate", Json::num(report.consultation_rate()));
    out.set("loss", Json::num(report.loss_fraction()));
    out.set("duration", Json::num(report.duration()));
    out
}

/// Records a [`SimReport`]'s engine counters into task telemetry.
pub fn record_sim_telemetry(registry: &Registry, report: &SimReport) {
    registry.incr("sim.events", report.events());
    registry.incr("sim.arrivals", report.arrivals());
    registry.incr("sim.completed", report.completed());
    registry.incr("sim.lost", report.lost());
    registry.incr("sim.switches", report.switches());
    registry.incr("sim.consultations", report.consultations());
}

/// Mean of a per-point numeric `result` field, for table rendering.
///
/// Returns NaN when the point has no records or lacks the field — e.g.
/// when every replication of the point failed in a resilient run — so a
/// partial table still renders instead of tearing the binary down.
#[must_use]
pub fn point_mean(records: &[TaskRecord], point: usize, field: &str) -> f64 {
    dpm_harness::runner::mean_of(records, point, field).unwrap_or(f64::NAN)
}

/// A timer mean (seconds) from a record's telemetry snapshot, when
/// present. Timers are wall-clock and excluded from artifact comparisons.
#[must_use]
pub fn timer_mean_secs(record: &TaskRecord, name: &str) -> Option<f64> {
    let timer = record.telemetry.get("timers")?.get(name)?;
    let sum = timer.get("sum")?.as_f64()?;
    let count = timer.get("count")?.as_f64()?;
    // dpm-lint: allow(float_eq, reason = "count is an integer-valued accumulator; exactly 0.0 means no samples")
    if count == 0.0 {
        None
    } else {
        Some(sum / count)
    }
}

/// A counter value from a record's telemetry snapshot, when present.
#[must_use]
pub fn counter_value(record: &TaskRecord, name: &str) -> Option<i128> {
    match record.telemetry.get("counters")?.get(name)? {
        Json::Int(v) => Some(*v),
        _ => None,
    }
}

/// Wall-clock timing for the benchmark binaries.
///
/// The single sanctioned home for wall-clock reads in the workspace: the
/// benchmark binaries measure here, and everything measured lands under
/// an artifact's volatile `timers`/`provenance` keys, which
/// `dpm_harness::artifact::diff` strips before comparing.
pub mod timing {
    use std::time::Instant; // dpm-lint: allow(nondeterminism, reason = "the shared benchmark timer; measurements land under volatile artifact keys only")

    /// Runs `body` once, returning its output and the elapsed seconds.
    pub fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now(); // dpm-lint: allow(nondeterminism, reason = "the shared benchmark timer; measurements land under volatile artifact keys only")
        let out = body();
        (out, start.elapsed().as_secs_f64())
    }

    /// Runs `body` once untimed (warm-up), then `rounds` timed repetitions;
    /// returns the last output and the mean seconds per round.
    pub fn time_sweeps<T>(rounds: usize, mut body: impl FnMut() -> T) -> (T, f64) {
        let mut out = body();
        let ((), total) = timed(|| {
            for _ in 0..rounds {
                out = body();
            }
        });
        #[allow(clippy::cast_precision_loss)]
        (out, total / rounds.max(1) as f64)
    }
}

pub use timing::{time_sweeps, timed};

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a rule matching [`row`] widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_builds() {
        let sys = paper_system(1.0 / 6.0).unwrap();
        assert_eq!(sys.n_states(), 23);
    }

    #[test]
    fn simulate_policy_runs() {
        let sys = paper_system(1.0 / 6.0).unwrap();
        let policy = PmPolicy::greedy(&sys).unwrap();
        let report = simulate_policy(&sys, &policy, "greedy", 1, 2_000).unwrap();
        assert_eq!(report.arrivals(), 2_000);
        assert_eq!(report.policy(), "greedy");
    }
}
