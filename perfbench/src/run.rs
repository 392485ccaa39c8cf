//! One benchmark run: set-up, the measured phase, checks and the report.

use dpm_bench::timed;
use dpm_harness::Json;

use crate::fleet::Fleet;
use crate::frontier::Frontier;
use crate::host::{peak_rss_mb, Provenance};
use crate::serving::Serving;
use crate::span::Trace;
use crate::speed::{probe, PROBE_REFERENCE_S};
use crate::stats::{median, percentile, Ops};
use crate::{positive, Check, Error, Metrics, Size, Unit, Workload};

/// Set-ups timed per round. A round runs before the measured phase and
/// after each unit of work, and `setup_s` is the median over all rounds:
/// set-up takes milliseconds, so samples taken only at process start
/// would measure the host's state in those milliseconds.
pub const SETUP_REPEATS: usize = 11;

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Where the numbers were measured.
    pub provenance: Provenance,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The workload-named metrics the end-to-end ones summarise,
    /// reported beside them (untraced runs only).
    pub detail: Metrics,
    /// Units of work timed.
    pub batches: usize,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Failed operations, described.
    pub failures: Vec<String>,
    /// Spans of a traced run.
    pub trace: Trace,
}

impl RunReport {
    /// Whether every correctness check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// with their units.
    #[must_use]
    pub fn result_json(&self) -> Json {
        let mut out = Json::object();
        out.set("correct", self.correct());
        out.set("attempted", self.ops.attempted);
        out.set("failed", self.ops.failed);
        out.set("metrics", metrics_json(&self.metrics));
        out
    }

    /// Everything the run measured, with host provenance under the
    /// volatile `provenance` key.
    #[must_use]
    pub fn record_json(&self) -> Json {
        let mut out = Json::object();
        out.set("workload", self.workload.name());
        out.set("traced", self.traced);
        out.set("provenance", self.provenance.to_json());
        out.set("metrics", metrics_json(&self.metrics));
        out.set("detail", metrics_json(&self.detail));
        out.set("batches", self.batches);
        out.set("attempted", self.ops.attempted);
        out.set("failed", self.ops.failed);
        out.set(
            "checks",
            Json::Array(
                self.checks
                    .iter()
                    .map(|c| {
                        let mut o = Json::object();
                        o.set("name", c.name.as_str());
                        o.set("passed", c.passed);
                        o.set("detail", c.detail.as_str());
                        o
                    })
                    .collect(),
            ),
        );
        out.set(
            "failures",
            Json::Array(
                self.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        );
        if self.traced {
            out.set("spans", self.trace.to_json());
        }
        out
    }
}

fn metrics_json(metrics: &Metrics) -> Json {
    let mut out = Json::object();
    for m in &metrics.0 {
        let mut o = Json::object();
        o.set("value", Json::num(m.value));
        o.set("unit", m.unit);
        out.set(m.name, o);
    }
    out
}

/// Runs `workload`: untraced, its end-to-end metrics over `seconds` of
/// repeated batches; traced, the per-layer metrics of the whole stack.
///
/// # Errors
///
/// Returns an error if set-up or a unit of work cannot run at all, or a
/// metric cannot be formed. Failed operations and failed checks are not
/// errors; they are in the report.
pub fn run_workload(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunReport, Error> {
    let provenance = Provenance::collect(seed);
    let report = if traced {
        traced_run(workload, size, provenance)?
    } else {
        untraced_run(workload, size, provenance, seconds)?
    };
    if let Some(bad) = report.metrics.0.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", bad.name, bad.value).into());
    }
    Ok(report)
}

/// Times one round of [`SETUP_REPEATS`] set-ups; returns the last.
fn setup_round<S>(
    setup: &mut impl FnMut() -> Result<S, Error>,
    samples: &mut Vec<f64>,
) -> Result<S, Error> {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (built, secs) = timed(&mut *setup);
        last = Some(built?);
        samples.push(secs);
    }
    last.ok_or_else(|| "no set-up ran".into())
}

/// What the measuring loop timed: wall seconds as measured, and the
/// speed probe's wall seconds beside each.
#[derive(Debug, Clone, Default, PartialEq)]
struct Timings {
    /// Wall seconds of each set-up.
    setups: Vec<f64>,
    /// The probe taken just before each set-up's round.
    setup_probes: Vec<f64>,
    /// The probes taken before and after each unit of work, averaged
    /// geometrically; in unit order.
    unit_probes: Vec<f64>,
    /// Every probe taken, in order.
    probes: Vec<f64>,
}

impl Timings {
    /// Median set-up seconds, as measured and at the reference speed.
    fn setup_s(&self) -> Result<(f64, f64), Error> {
        let adjusted: Vec<f64> = self
            .setups
            .iter()
            .zip(&self.setup_probes)
            .map(|(&secs, &probe)| at_reference_speed(secs, probe))
            .collect();
        Ok((median(&self.setups)?, median(&adjusted)?))
    }
}

/// `secs` measured while the probe took `probe_s`, in seconds at the
/// speed of the host where it takes [`PROBE_REFERENCE_S`].
fn at_reference_speed(secs: f64, probe_s: f64) -> f64 {
    secs * PROBE_REFERENCE_S / positive(probe_s)
}

/// Sets up, then runs units of work until they and the probes between
/// them add up to `seconds` of wall time (at least one unit). The speed
/// probe runs before the first set-up round and after every unit, and a
/// set-up round follows each unit. Returns the last set-up, the units
/// and the timings.
fn measure<S, B: Unit>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, Error>,
    mut unit: impl FnMut(&S) -> Result<B, Error>,
) -> Result<(S, Vec<B>, Timings), Error> {
    let mut t = Timings::default();
    let mut probe_s = probe()?;
    t.probes.push(probe_s);
    let mut built = setup_round(&mut setup, &mut t.setups)?;
    t.setup_probes.resize(t.setups.len(), probe_s);
    let mut units = Vec::new();
    let mut spent = 0.0;
    while units.is_empty() || spent < seconds {
        let mut u = unit(&built)?;
        let after = probe()?;
        spent += u.wall_s() + after;
        t.unit_probes.push((probe_s * after).sqrt());
        t.probes.push(after);
        probe_s = after;
        if !units.is_empty() {
            u.shed();
        }
        units.push(u);
        built = setup_round(&mut setup, &mut t.setups)?;
        t.setup_probes.resize(t.setups.len(), probe_s);
    }
    Ok((built, units, t))
}

/// The end-to-end metrics every workload reports, the same figures as
/// measured (for the record line), and the operations and failures of
/// the measured units.
fn summarize<B: Unit>(
    timings: &Timings,
    units: &[B],
) -> Result<(Metrics, Metrics, Ops, Vec<String>), Error> {
    let mut ops = Ops::default();
    let mut walls = Vec::with_capacity(units.len());
    let mut adjusted = Vec::with_capacity(units.len());
    let mut rates = Vec::with_capacity(units.len());
    for (u, &probe_s) in units.iter().zip(&timings.unit_probes) {
        ops.absorb(u.ops());
        let wall = at_reference_speed(u.wall_s(), probe_s);
        walls.push(u.wall_s());
        adjusted.push(wall);
        rates.push(u.work() / positive(wall));
    }
    let (raw_setup_s, setup_s) = timings.setup_s()?;
    let mut m = Metrics::default();
    m.push("setup_s", "s", setup_s);
    m.push("wall_s", "s", median(&adjusted)?);
    m.push("work_per_s", "1/s", median(&rates)?);
    m.push("peak_rss_mb", "MB", peak_rss_mb()?);
    let mut measured = Metrics::default();
    measured.push("measured_setup_s", "s", raw_setup_s);
    measured.push("measured_wall_s", "s", median(&walls)?);
    measured.push("probe_s", "s", median(&timings.probes)?);
    let failures = units.first().map(Unit::failures).unwrap_or_default();
    Ok((m, measured, ops, failures))
}

fn untraced_run(
    workload: Workload,
    size: Size,
    provenance: Provenance,
    seconds: f64,
) -> Result<RunReport, Error> {
    let seed = provenance.seed;
    let mut detail = Metrics::default();
    let (metrics, measured, ops, failures, batches, checks) = match workload {
        Workload::Frontier => {
            let (frontier, units, timings) =
                measure(seconds, || Frontier::setup(size, seed), Frontier::batch)?;
            let (metrics, measured, ops, failures) = summarize(&timings, &units)?;
            let times: Vec<f64> = units
                .iter()
                .flat_map(|b| b.points.iter().map(|p| p.wall_s))
                .collect();
            detail.push(
                "solves_per_s",
                "1/s",
                metrics.get("work_per_s").unwrap_or(0.0),
            );
            detail.push("solve_p50_s", "s", median(&times)?);
            detail.push("solve_p90_s", "s", percentile(&times, 0.9)?);
            detail.count("solve_samples", times.len() as u64);
            let checks = frontier.checks(&units)?;
            (metrics, measured, ops, failures, units.len(), checks)
        }
        Workload::Fleet => {
            let (fleet, units, timings) =
                measure(seconds, || Fleet::setup(size, seed), |f| Ok(f.batch()))?;
            let (metrics, measured, ops, failures) = summarize(&timings, &units)?;
            let checks = fleet.checks(&units);
            (metrics, measured, ops, failures, units.len(), checks)
        }
        Workload::Serve | Workload::ServeJournaled => {
            let journaled = workload == Workload::ServeJournaled;
            let (serving, units, timings) = measure(
                seconds,
                || Serving::setup(size, seed, journaled),
                |s| s.batch(journaled),
            )?;
            let (metrics, measured, ops, failures) = summarize(&timings, &units)?;
            detail.push(
                "events_per_s",
                "1/s",
                metrics.get("work_per_s").unwrap_or(0.0),
            );
            if let Some(b) = units.first() {
                detail.count("events", b.events());
                if journaled {
                    #[allow(clippy::cast_precision_loss)]
                    detail.push("journal_bytes", "bytes", b.journal_bytes as f64);
                }
            }
            let checks = serving.checks(&units, journaled)?;
            (metrics, measured, ops, failures, units.len(), checks)
        }
    };
    detail.0.extend(measured.0);
    detail.push("failed_frac", "ratio", ops.failed_frac());
    Ok(RunReport {
        workload,
        traced: false,
        provenance,
        ops,
        metrics,
        detail,
        batches,
        checks,
        failures,
        trace: Trace::new(),
    })
}

/// The traced run: every layer of the stack, each workload's unit of work
/// once untraced and once in spans. `workload` selects whose operations,
/// failures and tracing overhead are reported.
fn traced_run(workload: Workload, size: Size, provenance: Provenance) -> Result<RunReport, Error> {
    let seed = provenance.seed;
    let mut trace = Trace::new();
    let mut layers = Metrics::default();
    let frontier = Frontier::setup(size, seed)?.trace(&mut trace, &mut layers)?;
    let fleet = Fleet::setup(size, seed)?.trace(&mut trace, &mut layers)?;
    let (serve, journaled) = Serving::setup(size, seed, true)?.trace(&mut trace, &mut layers)?;
    let mut checks = Vec::new();
    let mut failures = Vec::new();
    let mut selected = None;
    for (w, part) in [
        (Workload::Frontier, frontier),
        (Workload::Fleet, fleet),
        (Workload::Serve, serve),
        (Workload::ServeJournaled, journaled),
    ] {
        checks.extend(part.checks.iter().cloned().map(|mut c| {
            c.name = format!("{}: {}", w.name(), c.name);
            c
        }));
        failures.extend(part.failures.iter().map(|f| format!("{}: {f}", w.name())));
        if w == workload {
            selected = Some(part);
        }
    }
    let selected = selected.ok_or("selected workload was not traced")?;
    layers.push(
        "trace.overhead_s",
        "s",
        selected.traced_wall_s - selected.untraced_wall_s,
    );
    layers.push("failed_frac", "ratio", selected.ops.failed_frac());
    Ok(RunReport {
        workload,
        traced: true,
        provenance,
        ops: selected.ops,
        metrics: layers,
        detail: Metrics::default(),
        batches: 1,
        checks,
        failures,
        trace,
    })
}
