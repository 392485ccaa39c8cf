//! `serve` and `serve-journaled`: the optimal policy, compiled and served.
//!
//! The paper's Q = 5 system under its optimal w = 1 policy is served to a
//! fleet of independent simulated systems on 2 shards. The journaled
//! variant adds a checkpoint journal at the default cadence and one
//! validated hot swap to the w = 5 policy mid-run, so the same layer
//! writes beside its reads. Solving and compiling happen in set-up.

use std::hint::black_box;
use std::io::Read;
use std::path::PathBuf;
use std::sync::Arc;

use dpm_bench::{paper_system, timed};
use dpm_core::{optimize, PmPolicy, PmSystem};
use dpm_harness::artifact;
use dpm_harness::seed::{derive_seed, derive_serve_seed};
use dpm_serve::{serve, CompiledController, CompiledPolicy, ServeConfig, ServeOutcome, SwapPlan};
use dpm_sim::workload::PoissonWorkload;
use dpm_sim::{SimConfig, Simulator};

use crate::span::{Recorder, Trace};
use crate::stats::{median, Ops};
use crate::{positive, Check, Error, Metrics, Size, Traced, Unit};

/// Serving shards: load stays within 2 threads, so a 2-core machine
/// measures the same work as a larger one.
const SHARDS: usize = 2;

/// Weight of the served policy.
const SERVED_WEIGHT: f64 = 1.0;

/// Weight of the policy swapped in mid-run.
const SWAP_WEIGHT: f64 = 5.0;

/// Plan point of the fleet root seed's derivation from `--seed`.
const ROOT_SEED_POINT: u64 = 0x5e17e;

/// The set-up serving workload: policies solved and compiled.
#[derive(Debug, Clone)]
pub struct Serving {
    system: PmSystem,
    table: PmPolicy,
    compiled: CompiledPolicy,
    swap: Option<(CompiledPolicy, PmPolicy)>,
    root_seed: u64,
    systems: usize,
    requests: u64,
    swap_at_events: u64,
    journal: PathBuf,
}

/// One serve of the whole fleet.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Wall time of the serve.
    pub wall_s: f64,
    /// The fleet's outcome, until [`Unit::shed`] drops it.
    outcome: Option<ServeOutcome>,
    /// The outcome's fingerprint.
    fingerprint: u64,
    /// Simulated events served.
    events: u64,
    /// Systems attempted and failed (quarantined or otherwise unserved).
    ops: Ops,
    /// Journal size in bytes (0 when not journaled).
    pub journal_bytes: u64,
    /// Journal lines (0 when not journaled).
    pub journal_lines: u64,
}

impl Batch {
    fn new(wall_s: f64, outcome: ServeOutcome, journal_bytes: u64, journal_lines: u64) -> Batch {
        let systems = outcome.systems() as u64;
        Batch {
            wall_s,
            fingerprint: outcome.fingerprint(),
            events: outcome.merged().events(),
            ops: Ops {
                attempted: systems,
                failed: systems.saturating_sub(outcome.served() as u64),
            },
            outcome: Some(outcome),
            journal_bytes,
            journal_lines,
        }
    }

    /// Simulated events served.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The fleet's outcome.
    ///
    /// # Errors
    ///
    /// Returns an error if the outcome was shed.
    pub fn outcome(&self) -> Result<&ServeOutcome, Error> {
        self.outcome
            .as_ref()
            .ok_or_else(|| "the batch's outcome was shed".into())
    }
}

impl Unit for Batch {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    /// Events served.
    fn work(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let events = self.events as f64;
        events
    }

    /// Unserved systems, by index and status.
    fn failures(&self) -> Vec<String> {
        self.outcome.as_ref().map_or_else(Vec::new, |outcome| {
            outcome
                .records()
                .iter()
                .filter(|r| !r.is_served())
                .map(|r| format!("system {}: {:?}", r.system(), r.status()))
                .collect()
        })
    }

    /// Drops the outcome (512 systems' reports), keeping its fingerprint,
    /// so that the outcomes held do not grow the process's peak memory
    /// with the number of batches a run fits in.
    fn shed(&mut self) {
        self.outcome = None;
    }
}

impl Serving {
    /// Solves and compiles the served policy, and with `journaled` the
    /// swap-in policy too. The fleet root seed is derived from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates model, solver and compilation failures.
    pub fn setup(size: Size, seed: u64, journaled: bool) -> Result<Serving, Error> {
        let (systems, requests, swap_at_events) = match size {
            Size::Full => (512, 40_000, 70_000),
            Size::Tiny => (8, 500, 800),
        };
        let system = paper_system(1.0 / 6.0)?;
        let served = optimize::optimal_policy(&system, SERVED_WEIGHT)?;
        let compiled = CompiledPolicy::compile(&system, served.policy())?;
        let swap = if journaled {
            let next = optimize::optimal_policy(&system, SWAP_WEIGHT)?;
            Some((
                CompiledPolicy::compile(&system, next.policy())?,
                next.policy().clone(),
            ))
        } else {
            None
        };
        Ok(Serving {
            system,
            table: served.policy().clone(),
            compiled,
            swap,
            root_seed: derive_seed(seed, ROOT_SEED_POINT, 0),
            systems,
            requests,
            swap_at_events,
            journal: PathBuf::from(crate::OUT_DIR)
                .join(format!("journal-{}-{seed}.jsonl", std::process::id())),
        })
    }

    fn config(&self, shards: usize, swaps: bool) -> ServeConfig {
        let config = ServeConfig::new(self.root_seed)
            .systems(self.systems)
            .requests_per_system(self.requests)
            .shards(shards);
        match (&self.swap, swaps) {
            (Some((compiled, table)), true) => config.swaps(SwapPlan::new().swap_at_checked(
                self.swap_at_events,
                compiled.clone(),
                table.clone(),
            )),
            _ => config,
        }
    }

    /// Serves the fleet on 2 shards: plain, or journaled with the hot
    /// swap. The journal is written under [`crate::OUT_DIR`] and removed
    /// after it has been measured.
    ///
    /// # Errors
    ///
    /// Propagates serve and journal I/O failures.
    pub fn batch(&self, journaled: bool) -> Result<Batch, Error> {
        if !journaled {
            let (outcome, wall_s) =
                timed(|| serve(&self.system, &self.compiled, &self.config(SHARDS, false)));
            return Ok(Batch::new(wall_s, outcome?, 0, 0));
        }
        if let Some(dir) = self.journal.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let config = self.config(SHARDS, true).checkpoint(&self.journal);
        let (outcome, wall_s) = timed(|| serve(&self.system, &self.compiled, &config));
        let measured = journal_size(&self.journal);
        std::fs::remove_file(&self.journal)?;
        let (journal_bytes, journal_lines) = measured?;
        Ok(Batch::new(wall_s, outcome?, journal_bytes, journal_lines))
    }

    /// The untraced run's checks. Both variants: every batch served the
    /// same fleet, every served system saw all its arrivals, and every
    /// event consulted the policy once. Plain: 1 and 2 shards give the
    /// same fleet. Journaled: the swap was accepted, and the journaled
    /// outcome equals an unjournaled serve with the same swap plan.
    ///
    /// # Errors
    ///
    /// Propagates failures of the reference serves.
    pub fn checks(&self, batches: &[Batch], journaled: bool) -> Result<Vec<Check>, Error> {
        let Some(first) = batches.first() else {
            return Ok(vec![Check::new("serve.batches", false, "no batch ran")]);
        };
        let outcome = first.outcome()?;
        let mut checks = self.outcome_checks(outcome);
        let repeat = batches.iter().all(|b| b.fingerprint == first.fingerprint);
        checks.push(Check::new(
            "serve.deterministic",
            repeat,
            format!(
                "{} batches, fingerprint {:016x}",
                batches.len(),
                first.fingerprint
            ),
        ));
        if journaled {
            let reference = serve(&self.system, &self.compiled, &self.config(SHARDS, true))?;
            checks.push(same_outcome(
                "serve.journaled_matches_unjournaled",
                outcome,
                &reference,
            ));
            let accepted = outcome
                .swap_outcomes()
                .iter()
                .all(dpm_serve::SwapOutcome::accepted);
            checks.push(Check::new(
                "serve.swap_accepted",
                accepted && !outcome.swap_outcomes().is_empty(),
                format!("{:?}", outcome.swap_outcomes()),
            ));
            checks.push(Check::new(
                "serve.journal_written",
                first.journal_lines > 0,
                format!(
                    "{} bytes, {} lines",
                    first.journal_bytes, first.journal_lines
                ),
            ));
        } else {
            let one = serve(&self.system, &self.compiled, &self.config(1, false))?;
            checks.push(same_outcome("serve.shards_bit_identical", outcome, &one));
        }
        Ok(checks)
    }

    fn outcome_checks(&self, outcome: &ServeOutcome) -> Vec<Check> {
        let merged = outcome.merged();
        let expected = outcome.served() as u64 * self.requests;
        vec![
            Check::new(
                "serve.arrivals",
                merged.arrivals() == expected,
                format!(
                    "{} arrivals, {} served systems x {} requests",
                    merged.arrivals(),
                    outcome.served(),
                    self.requests
                ),
            ),
            Check::new(
                "serve.lookups_equal_events",
                merged.consultations() == merged.events(),
                format!(
                    "{} policy lookups, {} events",
                    merged.consultations(),
                    merged.events()
                ),
            ),
        ]
    }

    /// The traced run's serving part, for both variants: set-up probes
    /// (compile, lookup, one system through the simulator), then each
    /// variant untraced and in a span, plus the 1-shard baseline.
    /// Returns the plain and the journaled variant's overhead records.
    ///
    /// # Errors
    ///
    /// Propagates serve and journal failures.
    pub fn trace(
        &self,
        trace: &mut Trace,
        layers: &mut Metrics,
    ) -> Result<(Traced, Traced), Error> {
        let mut compile_samples = Vec::with_capacity(21);
        for _ in 0..21 {
            let (compiled, secs) = timed(|| CompiledPolicy::compile(&self.system, &self.table));
            black_box(compiled?);
            compile_samples.push(secs);
        }
        layers.push("serve.compile_s", "s", median(&compile_samples)?);

        let n_states = self.system.n_states();
        let rounds = 20_000usize;
        let mut lookup_samples = Vec::with_capacity(5);
        let mut lookups_agree = true;
        for i in 0..n_states {
            lookups_agree &=
                self.compiled.action(self.system.state(i)) == Some(self.table.destination(i));
        }
        for _ in 0..5 {
            let (acc, secs) = timed(|| {
                let mut acc = 0usize;
                for _ in 0..rounds {
                    for i in 0..n_states {
                        acc += self
                            .compiled
                            .action(black_box(self.system.state(i)))
                            .unwrap_or(0);
                    }
                }
                black_box(acc)
            });
            black_box(acc);
            #[allow(clippy::cast_precision_loss)]
            lookup_samples.push(secs * 1e9 / (rounds * n_states).max(1) as f64);
        }
        layers.push("serve.lookup_ns", "ns", median(&lookup_samples)?);

        let untraced_plain = self.batch(false)?;
        let untraced_journaled = self.batch(true)?;
        let mut rec = Recorder::new(trace);
        let plain = rec.leaf("serve.fleet", || self.batch(false))?;
        let one_shard = rec.leaf("serve.fleet_1_shard", || {
            serve(&self.system, &self.compiled, &self.config(1, false))
        })?;
        let journaled = rec.leaf("serve.fleet_journaled", || self.batch(true))?;
        let (plain_outcome, journaled_outcome) = (plain.outcome()?, journaled.outcome()?);
        let single = self.single_systems(plain_outcome)?;

        let plain_s = trace.total_s("serve.fleet");
        let one_shard_s = trace.total_s("serve.fleet_1_shard");
        let journaled_s = trace.total_s("serve.fleet_journaled");

        layers.push("sim.single_events_per_s", "1/s", single.events_per_s);
        layers.push(
            "serve.shard_imbalance",
            "ratio",
            self.shard_imbalance(plain_outcome),
        );
        layers.count("serve.events", plain.events());
        layers.count(
            "serve.policy_lookups",
            plain_outcome.merged().consultations(),
        );
        layers.count("serve.retried", retried(plain_outcome));
        layers.count("serve.quarantined", plain_outcome.quarantined() as u64);
        layers.push(
            "serve.journal_bytes",
            "bytes",
            journaled.journal_bytes as f64,
        );
        layers.count("serve.journal_lines", journaled.journal_lines);
        layers.count(
            "serve.swaps_accepted",
            journaled_outcome
                .swap_outcomes()
                .iter()
                .filter(|s| s.accepted())
                .count() as u64,
        );
        layers.push(
            "serve.shard_speedup",
            "ratio",
            one_shard_s / positive(plain_s),
        );

        let mut plain_checks = self.outcome_checks(plain_outcome);
        plain_checks.push(same_outcome(
            "serve.shards_bit_identical",
            plain_outcome,
            &one_shard,
        ));
        plain_checks.push(same_outcome(
            "serve.deterministic",
            plain_outcome,
            untraced_plain.outcome()?,
        ));
        plain_checks.push(Check::new(
            "serve.compiled_matches_table",
            lookups_agree,
            format!("{n_states} states looked up"),
        ));
        plain_checks.push(Check::new(
            "sim.single_matches_fleet",
            single.matches_fleet,
            format!("{} systems run alone through the simulator", single.systems),
        ));
        let mut journaled_checks = self.outcome_checks(journaled_outcome);
        journaled_checks.push(same_outcome(
            "serve.journaled_deterministic",
            journaled_outcome,
            untraced_journaled.outcome()?,
        ));
        Ok((
            Traced {
                untraced_wall_s: untraced_plain.wall_s,
                traced_wall_s: plain_s,
                ops: plain.ops(),
                checks: plain_checks,
                failures: plain.failures(),
            },
            Traced {
                untraced_wall_s: untraced_journaled.wall_s,
                traced_wall_s: journaled_s,
                ops: journaled.ops(),
                checks: journaled_checks,
                failures: journaled.failures(),
            },
        ))
    }

    /// Runs the fleet's first systems alone through `dpm_sim::Simulator`
    /// with a `CompiledController`, as the fleet builds them: the serve
    /// layer's overhead is the gap between this rate and the fleet's.
    fn single_systems(&self, fleet: &ServeOutcome) -> Result<Single, Error> {
        let systems = self.systems.min(8);
        let policy = Arc::new(self.compiled.clone());
        let mut samples = Vec::with_capacity(3);
        let mut matches_fleet = true;
        for _ in 0..3 {
            let mut events = 0u64;
            let mut secs = 0.0;
            for system in 0..systems {
                let seed = derive_serve_seed(self.root_seed, system as u64);
                let simulator = Simulator::new(
                    self.system.provider().clone(),
                    self.system.capacity(),
                    PoissonWorkload::new(self.system.requestor().rate())?,
                    CompiledController::new(Arc::clone(&policy)),
                    SimConfig::new(seed).max_requests(self.requests),
                );
                let (report, run_s) = timed(|| simulator.run());
                let report = report?;
                secs += run_s;
                events += report.events();
                matches_fleet &= fleet
                    .records()
                    .get(system)
                    .and_then(|r| r.report())
                    .is_some_and(|r| *r == report);
            }
            #[allow(clippy::cast_precision_loss)]
            samples.push(events as f64 / positive(secs));
        }
        Ok(Single {
            systems,
            events_per_s: median(&samples)?,
            matches_fleet,
        })
    }

    /// Max over mean events per contiguous shard chunk, as the engine
    /// partitions systems.
    fn shard_imbalance(&self, outcome: &ServeOutcome) -> f64 {
        let chunk = self.systems.div_ceil(SHARDS).max(1);
        let per_shard: Vec<f64> = outcome
            .records()
            .chunks(chunk)
            .map(|c| {
                #[allow(clippy::cast_precision_loss)]
                let events = c
                    .iter()
                    .filter_map(|r| r.report())
                    .map(dpm_sim::SimReport::events)
                    .sum::<u64>() as f64;
                events
            })
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        per_shard.iter().copied().fold(0.0, f64::max) / positive(mean)
    }
}

/// One-system simulator throughput.
struct Single {
    systems: usize,
    events_per_s: f64,
    matches_fleet: bool,
}

fn retried(outcome: &ServeOutcome) -> u64 {
    outcome
        .records()
        .iter()
        .filter(|r| r.attempts() > 1)
        .count() as u64
}

/// Two outcomes are the same fleet: equal fingerprints and canonical
/// artifacts equal at tolerance 0.
fn same_outcome(name: &str, a: &ServeOutcome, b: &ServeOutcome) -> Check {
    let diffs = artifact::diff(&a.to_json(), &b.to_json(), 0.0);
    Check::new(
        name,
        a.fingerprint() == b.fingerprint() && diffs.is_empty(),
        format!(
            "fingerprints {:016x} / {:016x}, {} artifact differences",
            a.fingerprint(),
            b.fingerprint(),
            diffs.len()
        ),
    )
}

/// The journal's size in bytes, from its metadata, and its line count,
/// streamed through a fixed 64 KiB buffer so that measuring the journal
/// adds at most that buffer to the process's peak memory.
fn journal_size(path: &std::path::Path) -> std::io::Result<(u64, u64)> {
    let bytes = std::fs::metadata(path)?.len();
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let mut lines = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        lines += buf
            .get(..n)
            .map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count()) as u64;
    }
    Ok((bytes, lines))
}
