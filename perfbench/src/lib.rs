//! The repository's benchmark: the path from model to served fleet,
//! end to end and layer by layer.
//!
//! Four closed-loop workloads, each a batch of work repeated until the
//! run's measuring time is spent (see `README.md` for why each exists):
//!
//! * [`Workload::Frontier`] — the paper's weight sweep, solved by policy
//!   iteration on the solve-plan pool ([`frontier`]);
//! * [`Workload::Fleet`] — K-server fleet analysis, lumped and
//!   matrix-free ([`fleet`]);
//! * [`Workload::Serve`] and [`Workload::ServeJournaled`] — a compiled
//!   policy served to a sharded fleet, the second with a checkpoint
//!   journal and a hot swap ([`serving`]).
//!
//! An untraced run reports the end-to-end metrics of one workload. A
//! traced run reports the per-layer metrics of the whole stack, measured
//! from spans ([`span`]) around the calls this crate makes into each
//! layer's public API.
//!
//! End-to-end times are reported at a reference host speed: a fixed
//! probe of the benchmark's own code ([`speed`]), timed between units of
//! work, scales each measured time, so the host's slow and fast phases
//! cancel and the program's changes do not.
//!
//! Every wall-clock read goes through [`dpm_bench::timed`], the
//! workspace's one sanctioned timer.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod frontier;
pub mod host;
pub mod run;
pub mod serving;
pub mod span;
pub mod speed;
pub mod stats;

pub use run::{run_workload, RunReport};

/// Where runs write their files: the journal of `serve-journaled`
/// (removed after each batch) and the traced run's record. Inside the
/// package, so a run writes only inside its own source tree.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The error type of a benchmark run that could not finish. A failed
/// correctness check is not an error; it is reported in [`RunReport`].
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's power/delay frontier, solved at three capacities.
    Frontier,
    /// K-server fleet analysis of the paper's SYS chain.
    Fleet,
    /// The optimal policy served to a sharded fleet.
    Serve,
    /// The same fleet with a checkpoint journal and a hot swap.
    ServeJournaled,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Frontier,
        Workload::Fleet,
        Workload::Serve,
        Workload::ServeJournaled,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Frontier => "frontier",
            Workload::Fleet => "fleet",
            Workload::Serve => "serve",
            Workload::ServeJournaled => "serve-journaled",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Sizes small enough for smoke tests, exercising every code path.
    Tiny,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: &'static str,
    /// Unit, such as `s`, `1/s` or `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }

    /// Appends a count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.push(name, "count", value as f64);
    }

    /// The value of metric `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// One correctness check and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The measured quantity behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its verdict and detail.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// One timed unit of work, as the measuring loop sees it.
pub trait Unit {
    /// Wall time of the unit.
    fn wall_s(&self) -> f64;
    /// Operations the unit attempted and failed.
    fn ops(&self) -> stats::Ops;
    /// Units of work completed: the numerator of `work_per_s`.
    fn work(&self) -> f64;
    /// Failed operations, described.
    fn failures(&self) -> Vec<String>;
    /// Drops what the checks need only from the first unit, once the
    /// unit has been measured. Units held for the checks must not grow
    /// the process's peak memory with the number of units run.
    fn shed(&mut self) {}
}

/// What one workload's part of a traced run measured, beside the
/// per-layer metrics it recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// Wall time of the workload's unit of work, untraced.
    pub untraced_wall_s: f64,
    /// Wall time of the same work with spans around each layer call.
    pub traced_wall_s: f64,
    /// Operations of the traced unit.
    pub ops: stats::Ops,
    /// Checks made along the way.
    pub checks: Vec<Check>,
    /// Failed operations, described.
    pub failures: Vec<String>,
}

/// Seconds of wall time as a positive divisor.
fn positive(secs: f64) -> f64 {
    secs.max(f64::MIN_POSITIVE)
}
