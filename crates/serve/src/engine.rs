//! The sharded serving runtime: many simulated systems, few threads, one
//! shared compiled policy, bit-identical output at any shard count — now
//! wrapped in a supervision layer that isolates per-system failures,
//! retries them under one attempt budget, journals every retry
//! decision and settlement to a JSONL checkpoint, and hot-swaps the shared
//! policy at deterministic event-count barriers.
//!
//! # Determinism argument
//!
//! Three properties compose into the shard-count invariance guarantee:
//!
//! 1. **Per-system seeding.** System `i` draws its randomness from
//!    `dpm_harness::seed::derive_serve_attempt_seed(root, i, a)` — a pure
//!    function of the fleet index and the attempt's seed-stream index,
//!    never of the shard or the interleaving.
//! 2. **Closed per-system state.** Each [`dpm_sim::SimRun`] owns its RNG
//!    and queue; stepping runs in any order cannot perturb one another, so
//!    a shard batching 256 events of system A between batches of system B
//!    produces exactly the serial event sequences.
//! 3. **Fleet-order merging.** Shards only step systems; once every shard
//!    has returned, the records are stitched in fleet-index order and each
//!    served report is folded into [`dpm_sim::MergedReport`] once, in that
//!    order. The floating-point sums therefore see the same additions in
//!    the same order at every shard count.
//!
//! The supervision layer preserves all three. Every recovery decision is
//! a pure function of `(system, event count, attempt)`: panics are caught
//! per batch with [`std::panic::catch_unwind`] and replayed from event
//! zero under the *same* seed (so a recovered system's report is
//! bit-identical to a never-faulted run); engine errors — deterministic
//! in the seed — retry under a fresh seed stream; a retried system steps
//! again on its shard's next round-robin visit. Hot swaps apply when a
//! system's own event counter crosses the scheduled barrier, which is the
//! same event at every shard count and on every replay.
//!
//! Checkpointing follows the same logic: because the engine is
//! deterministic in its seed, a system's attempt counters (attempts plus
//! seed-stream index) are a complete checkpoint — restore is replay from
//! event zero. The journal therefore records only what changes those
//! counters or ends a system: one `epoch` per retry decision and one
//! record per settlement, never progress within an attempt. Killing the
//! process at *any* point and resuming from the journal reproduces the
//! uninterrupted run bit-for-bit, a claim `bench_serve --resume` and the
//! CI chaos smoke check at tolerance 0.
//!
//! The [`ServeOutcome`] additionally carries a fingerprint over every
//! served system's report, so "N shards ≡ 1 shard" is checkable from the
//! artifact alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use dpm_core::{PmSystem, SpModel};
use dpm_harness::{journal::Journal, pool::panic_message, seed::derive_serve_attempt_seed, Json};
use dpm_sim::workload::PoissonWorkload;
use dpm_sim::{MergedReport, SimConfig, SimError, SimReport, SimRun, Simulator};

use crate::checkpoint::{self, Restored};
use crate::supervise::SwapEntry;
use crate::{
    CompiledController, CompiledPolicy, ConfigError, ErrorClass, ServeError, ServeFaultPlan,
    SwapOutcome, SwapPlan, SystemRecord, SystemStatus,
};

/// Format tag of the serialized serve outcome.
pub const SERVE_OUTCOME_FORMAT: &str = "dpm-serve-outcome/v2";

/// Configuration of a serving run: fleet size, shard count, per-system
/// workload volume, batching grain, and the supervision knobs (attempt
/// budget, fault injection, swap schedule, checkpoint journal).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    root_seed: u64,
    systems: usize,
    shards: usize,
    requests_per_system: u64,
    batch_events: usize,
    max_attempts: u32,
    faults: ServeFaultPlan,
    swaps: SwapPlan,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
}

impl ServeConfig {
    /// A default fleet: 64 systems, 1 shard, 1000 requests each, events
    /// batched 256 at a time, at most 3 attempts per system, no faults,
    /// no swaps, no journal.
    #[must_use]
    pub fn new(root_seed: u64) -> Self {
        ServeConfig {
            root_seed,
            systems: 64,
            shards: 1,
            requests_per_system: 1_000,
            batch_events: 256,
            max_attempts: 3,
            faults: ServeFaultPlan::new(),
            swaps: SwapPlan::new(),
            checkpoint: None,
            resume: None,
        }
    }

    /// Sets the number of independent simulated systems.
    #[must_use]
    pub fn systems(mut self, n: usize) -> Self {
        self.systems = n;
        self
    }

    /// Sets the number of worker threads (shards).
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the workload volume per system.
    #[must_use]
    pub fn requests_per_system(mut self, n: u64) -> Self {
        self.requests_per_system = n;
        self
    }

    /// Sets how many events a shard processes per system before moving to
    /// the next (cache-friendliness knob; no effect on results).
    #[must_use]
    pub fn batch_events(mut self, n: usize) -> Self {
        self.batch_events = n;
        self
    }

    /// Sets how many attempts (first try included) a system may use
    /// before it is quarantined (clamped to at least 1). Panics and engine
    /// errors draw from this one budget; setup failures are never retried
    /// (see [`ErrorClass`]).
    #[must_use]
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Arms a deterministic fault-injection plan (tests and chaos smokes).
    #[must_use]
    pub fn faults(mut self, faults: ServeFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules epoch-coordinated hot policy swaps.
    #[must_use]
    pub fn swaps(mut self, swaps: SwapPlan) -> Self {
        self.swaps = swaps;
        self
    }

    /// Writes a fleet checkpoint journal to `path`: the fleet header, one
    /// `epoch` record per retry decision and one record per settled
    /// system. Nothing is written for progress within an attempt: resume
    /// replays each in-flight system from event zero, so the attempt
    /// counters are all a journal needs.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Resumes from the journal at `path`: settled systems are carried
    /// forward verbatim, in-flight systems replay deterministically.
    ///
    /// The resume journal is read in full before a `checkpoint` journal is
    /// created, so resuming from and checkpointing to the *same* path is
    /// safe.
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }
}

fn validate_config(config: &ServeConfig) -> Result<(), ConfigError> {
    if config.systems == 0 {
        return Err(ConfigError::NoSystems);
    }
    if config.shards == 0 {
        return Err(ConfigError::NoShards);
    }
    if config.batch_events == 0 {
        return Err(ConfigError::NoBatchEvents);
    }
    if config.shards > config.systems {
        return Err(ConfigError::ShardsExceedSystems {
            shards: config.shards,
            systems: config.systems,
        });
    }
    Ok(())
}

/// Merged result of a serving run, plus the per-system supervision trail.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    root_seed: u64,
    systems: usize,
    shards: usize,
    requests_per_system: u64,
    merged: MergedReport,
    fingerprint: u64,
    records: Vec<SystemRecord>,
    swaps: Vec<SwapOutcome>,
}

impl ServeOutcome {
    /// Deterministic aggregate over every *served* system (quarantined
    /// systems are excluded).
    #[must_use]
    pub fn merged(&self) -> &MergedReport {
        &self.merged
    }

    /// FNV-1a digest over every served system's report in fleet order —
    /// equal fingerprints mean bit-identical per-system results, not just
    /// equal totals.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of systems in the fleet (served or quarantined).
    #[must_use]
    pub fn systems(&self) -> usize {
        self.systems
    }

    /// Number of shards the run used (does not affect results).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-system supervision records, in fleet order.
    #[must_use]
    pub fn records(&self) -> &[SystemRecord] {
        &self.records
    }

    /// Validation verdict for each scheduled hot swap, in plan order.
    #[must_use]
    pub fn swap_outcomes(&self) -> &[SwapOutcome] {
        &self.swaps
    }

    /// Number of systems that ran to completion.
    #[must_use]
    pub fn served(&self) -> usize {
        self.records.iter().filter(|r| r.is_served()).count()
    }

    /// Number of systems quarantined after exhausting their retry budget.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.systems - self.served()
    }

    /// Serializes the outcome as versioned canonical JSON.
    ///
    /// The shard count lands under the volatile `provenance` key, so
    /// artifacts from runs at different shard counts diff clean at
    /// tolerance 0 (`dpm_harness::artifact::diff`) exactly when the
    /// results are bit-identical. The supervision trail (incident list,
    /// swap verdicts) is canonical: it too is deterministic at any shard
    /// count and across kill/resume cycles.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let m = &self.merged;
        let mut totals = Json::object();
        totals.set("events", m.events());
        totals.set("policy_lookups", m.consultations());
        totals.set("arrivals", m.arrivals());
        totals.set("completed", m.completed());
        totals.set("lost", m.lost());
        totals.set("switches", m.switches());
        totals.set("sim_seconds", Json::num(m.duration()));
        totals.set("energy_joules", Json::num(m.total_energy()));
        totals.set("switch_energy_joules", Json::num(m.switch_energy()));
        let mut averages = Json::object();
        averages.set("power_watts", Json::num(m.average_power()));
        averages.set("queue_length", Json::num(m.average_queue_length()));
        averages.set("waiting_seconds", Json::num(m.average_waiting_time()));
        averages.set("loss_fraction", Json::num(m.loss_fraction()));

        let mut supervision = Json::object();
        supervision.set("served", self.served());
        supervision.set("quarantined", self.quarantined());
        supervision.set(
            "retried",
            self.records.iter().filter(|r| r.attempts() > 1).count(),
        );
        supervision.set(
            "incidents",
            Json::Array(
                self.records
                    .iter()
                    .filter(|r| r.attempts() > 1 || !r.is_served())
                    .map(|r| {
                        let mut incident = Json::object();
                        incident.set("system", r.system());
                        incident.set("attempts", u64::from(r.attempts()));
                        incident.set("seed_attempt", u64::from(r.seed_attempt()));
                        match r.status() {
                            SystemStatus::Served(_) => {
                                incident.set("status", "served");
                            }
                            SystemStatus::Quarantined { class, error } => {
                                incident.set("status", "quarantined");
                                incident.set("class", class.as_str());
                                incident.set("error", error.clone());
                            }
                        }
                        incident
                    })
                    .collect(),
            ),
        );
        supervision.set(
            "swaps",
            Json::Array(
                self.swaps
                    .iter()
                    .map(|s| {
                        let mut swap = Json::object();
                        swap.set("at_events", s.at_events());
                        swap.set("accepted", s.accepted());
                        if let Some(reason) = s.reason() {
                            swap.set("reason", reason);
                        }
                        swap
                    })
                    .collect(),
            ),
        );

        let mut provenance = Json::object();
        provenance.set("shards", self.shards);
        let mut doc = Json::object();
        doc.set("format", SERVE_OUTCOME_FORMAT);
        doc.set("root_seed", self.root_seed);
        doc.set("systems", self.systems);
        doc.set("requests_per_system", self.requests_per_system);
        doc.set("fingerprint", format!("{:016x}", self.fingerprint));
        doc.set("totals", totals);
        doc.set("averages", averages);
        doc.set("supervision", supervision);
        doc.set("provenance", provenance);
        doc
    }
}

/// Validates every scheduled swap against the served system before the
/// fleet starts. Rejected artifacts never enter the schedule — the run
/// proceeds under the surviving entries and the rejection (with reason)
/// is reported on the outcome.
fn validate_swaps(
    system: &PmSystem,
    plan: &SwapPlan,
) -> (Vec<(u64, Arc<CompiledPolicy>)>, Vec<SwapOutcome>) {
    let mut schedule = Vec::with_capacity(plan.entries.len());
    let mut outcomes = Vec::with_capacity(plan.entries.len());
    for entry in &plan.entries {
        match validate_swap_entry(system, entry) {
            Ok(()) => {
                schedule.push((entry.at_events, Arc::new(entry.policy.clone())));
                outcomes.push(SwapOutcome {
                    at_events: entry.at_events,
                    accepted: true,
                    reason: None,
                });
            }
            Err(reason) => outcomes.push(SwapOutcome {
                at_events: entry.at_events,
                accepted: false,
                reason: Some(reason),
            }),
        }
    }
    // Stable by barrier: entries scheduled at the same barrier apply in
    // plan order, so the last one wins there — deterministically.
    schedule.sort_by_key(|(at_events, _)| *at_events);
    (schedule, outcomes)
}

fn validate_swap_entry(system: &PmSystem, entry: &SwapEntry) -> Result<(), String> {
    if entry.at_events == 0 {
        return Err(
            "swap barrier must be positive (a swap at 0 would predate the fleet)".to_owned(),
        );
    }
    let policy = &entry.policy;
    let sp = system.provider();
    if policy.n_modes() != sp.n_modes() {
        return Err(format!(
            "policy compiled for {} modes, system has {}",
            policy.n_modes(),
            sp.n_modes()
        ));
    }
    if policy.capacity() != system.capacity() {
        return Err(format!(
            "policy compiled for capacity {}, system has {}",
            policy.capacity(),
            system.capacity()
        ));
    }
    if policy.n_states() != system.n_states() {
        return Err(format!(
            "policy covers {} states, system has {}",
            policy.n_states(),
            system.n_states()
        ));
    }
    if let Some(table) = &entry.table {
        if table.destinations().len() != system.n_states() {
            return Err(format!(
                "source table covers {} states, system has {}",
                table.destinations().len(),
                system.n_states()
            ));
        }
    }
    for (index, &state) in system.states().iter().enumerate() {
        let Some(dest) = policy.action(state) else {
            return Err(format!("state {index} has no compiled action"));
        };
        if !system.action_destinations(index).contains(&dest) {
            return Err(format!("state {index} commands invalid destination {dest}"));
        }
        if let Some(table) = &entry.table {
            let expected = table.destination(index);
            if expected != dest {
                return Err(format!(
                    "state {index}: compiled action {dest} disagrees with the source table ({expected})"
                ));
            }
        }
    }
    Ok(())
}

/// Drives a fleet of independent simulated systems against one compiled
/// policy, partitioned across `config.shards` threads, under supervision:
/// per-system failures are isolated, retried within the attempt budget,
/// and quarantined on exhaustion; retries and settlements are
/// journaled when a checkpoint path is configured; scheduled hot swaps
/// replace the shared policy at deterministic per-system event barriers.
///
/// Results are bit-identical for any shard count and across kill/resume
/// cycles (see the module docs for the argument); the shard count only
/// changes wall-clock time.
///
/// # Errors
///
/// Returns [`ServeError::Config`] for a degenerate configuration (empty
/// fleet, zero shards or batch, more shards than systems — see
/// [`ConfigError`]), [`ServeError::Checkpoint`] if a journal cannot be
/// read, validated or written, and [`ServeError::ShardPanic`] if a worker
/// thread dies outside the supervised stepping closure (a bug —
/// per-system panics are isolated and retried, not propagated).
pub fn serve(
    system: &PmSystem,
    policy: &CompiledPolicy,
    config: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    validate_config(config)?;
    let (schedule, swap_results) = validate_swaps(system, &config.swaps);
    let restored = match &config.resume {
        Some(path) => checkpoint::load(
            path,
            config.root_seed,
            config.systems,
            config.requests_per_system,
        )?,
        None => vec![Restored::Fresh; config.systems],
    };
    let journal = match &config.checkpoint {
        Some(path) => Some(checkpoint::create(
            path,
            config.root_seed,
            config.requests_per_system,
            &restored,
        )?),
        None => None,
    };

    let shared = Arc::new(policy.clone());
    let shards = config.shards;
    let chunk = config.systems.div_ceil(shards);
    let ctx = ShardCtx {
        system,
        provider: Arc::new(system.provider().clone()),
        initial: &shared,
        schedule: &schedule,
        config,
        journal: journal.as_ref(),
        lambda: system.requestor().rate(),
    };

    let mut shard_results: Vec<Result<Vec<SystemRecord>, ServeError>> = Vec::with_capacity(shards);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let start = shard * chunk;
            let end = ((shard + 1) * chunk).min(config.systems);
            let ctx = &ctx;
            let restored = &restored;
            handles.push(scope.spawn(move || run_shard(ctx, shard, start..end, restored)));
        }
        for (shard, handle) in handles.into_iter().enumerate() {
            shard_results.push(
                handle
                    .join()
                    .unwrap_or(Err(ServeError::ShardPanic { shard })),
            );
        }
    });

    let mut records: Vec<SystemRecord> = Vec::with_capacity(config.systems);
    for result in shard_results {
        records.extend(result?);
    }
    let mut merged = MergedReport::new();
    let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    for record in &records {
        if let Some(report) = record.report() {
            absorb_fingerprint(&mut fingerprint, report);
            merged.absorb(report);
        }
    }
    Ok(ServeOutcome {
        root_seed: config.root_seed,
        systems: config.systems,
        shards,
        requests_per_system: config.requests_per_system,
        merged,
        fingerprint,
        records,
        swaps: swap_results,
    })
}

/// Everything a shard needs to build, supervise and journal its systems.
struct ShardCtx<'a> {
    system: &'a PmSystem,
    /// The served provider, shared by every system's run.
    provider: Arc<SpModel>,
    initial: &'a Arc<CompiledPolicy>,
    schedule: &'a [(u64, Arc<CompiledPolicy>)],
    config: &'a ServeConfig,
    journal: Option<&'a Journal>,
    lambda: f64,
}

/// Supervision state of one system in a shard's round-robin.
struct Slot {
    system: usize,
    /// Attempts started (1 = first try in progress).
    attempts: u32,
    /// Seed-stream index of the current attempt (engine retries advance
    /// it; panic retries replay it).
    seed_attempt: u32,
    /// Seed of the current attempt's stream, derived once per (re)build.
    seed: u64,
    /// Next unapplied entry in the swap schedule.
    next_swap: usize,
    run: Option<SimRun<PoissonWorkload, CompiledController>>,
    record: Option<SystemRecord>,
}

impl Slot {
    fn new(system: usize) -> Self {
        Slot {
            system,
            attempts: 1,
            seed_attempt: 0,
            seed: 0,
            next_swap: 0,
            run: None,
            record: None,
        }
    }
}

impl ShardCtx<'_> {
    /// Appends `record()` to the fleet's journal, if it keeps one.
    fn append(&self, record: impl FnOnce() -> Json) -> Result<(), ServeError> {
        match self.journal {
            Some(journal) => journal.append(&record()).map_err(checkpoint::journal_err),
            None => Ok(()),
        }
    }

    /// Builds (or rebuilds) a slot's run for its current seed stream,
    /// caching that stream's seed on the slot for the epoch a retry
    /// journals. Every error is a setup failure ([`ErrorClass::Setup`]).
    fn build(
        &self,
        slot: &mut Slot,
    ) -> Result<SimRun<PoissonWorkload, CompiledController>, String> {
        let system_index = slot.system;
        slot.seed = derive_serve_attempt_seed(
            self.config.root_seed,
            system_index as u64,
            slot.seed_attempt,
        );
        if self.config.faults.setup_armed(system_index) {
            return Err(format!("injected setup failure for system {system_index}"));
        }
        let workload = PoissonWorkload::new(self.lambda).map_err(|e| e.to_string())?;
        Simulator::new(
            Arc::clone(&self.provider),
            self.system.capacity(),
            workload,
            CompiledController::new(Arc::clone(self.initial)),
            SimConfig::new(slot.seed).max_requests(self.config.requests_per_system),
        )
        .start()
        .map_err(|e| e.to_string())
    }

    /// Settles a system as quarantined and journals the verdict.
    fn quarantine(
        &self,
        slot: &mut Slot,
        class: ErrorClass,
        error: String,
    ) -> Result<(), ServeError> {
        slot.run = None;
        let record = SystemRecord {
            system: slot.system,
            attempts: slot.attempts,
            seed_attempt: slot.seed_attempt,
            status: SystemStatus::Quarantined { class, error },
        };
        self.append(|| checkpoint::settled(&record))?;
        slot.record = Some(record);
        Ok(())
    }

    /// Handles a panic or engine error in `slot`'s current attempt:
    /// quarantine once the budget is spent, otherwise rebuild for a retry —
    /// panics replay the same seed stream, engine errors advance to a
    /// fresh one (replaying a deterministic engine would fail identically).
    fn fail(&self, slot: &mut Slot, class: ErrorClass, error: String) -> Result<(), ServeError> {
        if slot.attempts >= self.config.max_attempts {
            return self.quarantine(slot, class, error);
        }
        slot.attempts = slot.attempts.saturating_add(1);
        if class == ErrorClass::Engine {
            slot.seed_attempt = slot.seed_attempt.saturating_add(1);
        }
        slot.next_swap = 0;
        match self.build(slot) {
            Ok(run) => {
                slot.run = Some(run);
                // Persist the retry decision immediately: a kill right
                // after this line resumes into the same attempt counters.
                self.append(|| {
                    checkpoint::epoch(slot.system, slot.attempts, slot.seed_attempt, slot.seed)
                })
            }
            Err(message) => self.quarantine(slot, ErrorClass::Setup, message),
        }
    }
}

/// Builds a slot's first run (for its restored seed stream). A setup
/// failure quarantines the system at once: it is deterministic in the
/// configuration, so no retry could pass.
fn init_run(ctx: &ShardCtx<'_>, slot: &mut Slot) -> Result<(), ServeError> {
    match ctx.build(slot) {
        Ok(run) => {
            slot.run = Some(run);
            Ok(())
        }
        Err(message) => ctx.quarantine(slot, ErrorClass::Setup, message),
    }
}

/// Runs one shard's contiguous block of systems with batched event
/// processing under supervision, returning settled records in fleet order.
fn run_shard(
    ctx: &ShardCtx<'_>,
    shard: usize,
    range: std::ops::Range<usize>,
    restored: &[Restored],
) -> Result<Vec<SystemRecord>, ServeError> {
    let mut slots = Vec::with_capacity(range.len());
    for i in range {
        let mut slot = Slot::new(i);
        match restored.get(i) {
            Some(Restored::Settled(record)) => slot.record = Some(record.clone()),
            Some(Restored::InFlight {
                attempts,
                seed_attempt,
            }) => {
                slot.attempts = (*attempts).max(1);
                slot.seed_attempt = *seed_attempt;
                init_run(ctx, &mut slot)?;
            }
            _ => init_run(ctx, &mut slot)?,
        }
        slots.push(slot);
    }

    // Round-robin over the block, `batch_events` events per system per
    // visit: the shared policy tables stay hot while each system's state
    // stays compact. Purely a scheduling choice — per-run results are
    // interleaving-invariant, so batching cannot change any system's
    // numbers.
    let mut live = slots.iter().filter(|s| s.run.is_some()).count();
    while live > 0 {
        live = 0;
        for slot in &mut slots {
            if slot.run.is_none() {
                continue;
            }
            let system_index = slot.system;
            let attempt_index = slot.attempts.saturating_sub(1);
            let batch = {
                let Slot { run, next_swap, .. } = slot;
                let Some(run) = run.as_mut() else { continue };
                catch_unwind(AssertUnwindSafe(|| {
                    step_batch(run, system_index, next_swap, ctx, attempt_index)
                }))
            };
            match batch {
                Ok(Ok(true)) => live += 1,
                Ok(Ok(false)) => {
                    if let Some(run) = slot.run.take() {
                        let record = SystemRecord {
                            system: slot.system,
                            attempts: slot.attempts,
                            seed_attempt: slot.seed_attempt,
                            status: SystemStatus::Served(run.into_report()),
                        };
                        ctx.append(|| checkpoint::settled(&record))?;
                        slot.record = Some(record);
                    }
                }
                Ok(Err(source)) => {
                    ctx.fail(slot, ErrorClass::Engine, source.to_string())?;
                    if slot.run.is_some() {
                        live += 1;
                    }
                }
                Err(payload) => {
                    ctx.fail(slot, ErrorClass::Panic, panic_message(payload.as_ref()))?;
                    if slot.run.is_some() {
                        live += 1;
                    }
                }
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.record.ok_or(ServeError::ShardPanic { shard }))
        .collect()
}

/// Steps one system for up to `batch_events` events, applying due swaps
/// and armed faults *before* each step so every decision keys off the
/// system's own event counter — identical at any shard count, batch grain
/// or replay. Returns `Ok(false)` once the run finishes.
///
/// Events before the batch's first barrier (the event count at which the
/// next swap applies or before which the next fault is armed) cannot meet
/// either, so they step unchecked; the per-event checks run from there on.
fn step_batch(
    run: &mut SimRun<PoissonWorkload, CompiledController>,
    system: usize,
    next_swap: &mut usize,
    ctx: &ShardCtx<'_>,
    attempt_index: u32,
) -> Result<bool, SimError> {
    let events = run.events();
    let swap_at = ctx.schedule.get(*next_swap).map_or(u64::MAX, |(at, _)| *at);
    let fault_at = ctx
        .config
        .faults
        .next_armed(system, events.saturating_add(1), attempt_index)
        .map_or(u64::MAX, |upcoming| upcoming - 1);
    let unchecked = usize::try_from(swap_at.min(fault_at).saturating_sub(events))
        .unwrap_or(usize::MAX)
        .min(ctx.config.batch_events);
    for _ in 0..unchecked {
        if !run.step()? {
            return Ok(false);
        }
    }
    for _ in unchecked..ctx.config.batch_events {
        // The swap barrier: entry (at, policy) applies once this system
        // has processed `at` events, so event `at + 1` and everything
        // after consult the new policy.
        while let Some((at_events, policy)) = ctx.schedule.get(*next_swap) {
            if run.events() < *at_events {
                break;
            }
            run.controller_mut().swap_policy(Arc::clone(policy));
            *next_swap += 1;
        }
        let upcoming = run.events().saturating_add(1);
        if ctx
            .config
            .faults
            .panic_armed(system, upcoming, attempt_index)
        {
            // dpm-lint: allow(no_panic, reason = "deterministic fault injection: this panic exists so tests and chaos smokes can exercise the supervisor's catch_unwind isolation")
            panic!("injected panic in system {system} before event {upcoming}");
        }
        if ctx
            .config
            .faults
            .error_armed(system, upcoming, attempt_index)
        {
            return Err(SimError::InvalidConfig {
                reason: format!("injected engine error in system {system} before event {upcoming}"),
            });
        }
        if !run.step()? || run.is_finished() {
            return Ok(false);
        }
    }
    Ok(!run.is_finished())
}

/// Folds one report into the running FNV-1a fleet fingerprint: every
/// statistic a report exposes, bit-exact (floats by their IEEE bits).
fn absorb_fingerprint(hash: &mut u64, report: &SimReport) {
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(report.seed());
    eat(report.duration().to_bits());
    eat(report.total_energy().to_bits());
    eat(report.switch_energy().to_bits());
    eat(report.average_queue_length().to_bits());
    eat(report.average_waiting_time().to_bits());
    eat(report.arrivals());
    eat(report.completed());
    eat(report.lost());
    eat(report.switches());
    eat(report.consultations());
    eat(report.events());
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::{PmPolicy, SpModel, SrModel};
    use dpm_harness::artifact;

    fn system() -> PmSystem {
        PmSystem::builder()
            .provider(SpModel::dac99_server().unwrap())
            .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
            .capacity(5)
            .build()
            .unwrap()
    }

    fn compiled(system: &PmSystem) -> CompiledPolicy {
        CompiledPolicy::compile(system, &PmPolicy::greedy(system).unwrap()).unwrap()
    }

    #[test]
    fn shard_count_is_bit_invariant() {
        let system = system();
        let policy = compiled(&system);
        let outcome = |shards| {
            serve(
                &system,
                &policy,
                &ServeConfig::new(7)
                    .systems(12)
                    .requests_per_system(400)
                    .shards(shards),
            )
            .unwrap()
        };
        let serial = outcome(1);
        assert_eq!(serial.merged().runs(), 12);
        assert_eq!(serial.served(), 12);
        assert!(serial.merged().events() > 0);
        for shards in [2, 3, 5, 12] {
            let sharded = outcome(shards);
            assert_eq!(
                sharded.fingerprint(),
                serial.fingerprint(),
                "{shards} shards"
            );
            assert_eq!(sharded.merged(), serial.merged(), "{shards} shards");
            assert_eq!(sharded.records(), serial.records(), "{shards} shards");
            // The canonical artifacts diff clean at tolerance 0 once the
            // volatile provenance (which records the shard count) is out.
            assert_eq!(
                artifact::diff(&sharded.to_json(), &serial.to_json(), 0.0),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn batch_grain_does_not_change_results() {
        let system = system();
        let policy = compiled(&system);
        let outcome = |batch| {
            serve(
                &system,
                &policy,
                &ServeConfig::new(3)
                    .systems(6)
                    .requests_per_system(300)
                    .shards(2)
                    .batch_events(batch),
            )
            .unwrap()
        };
        let base = outcome(256);
        for batch in [1, 7, 1024] {
            assert_eq!(outcome(batch), base, "batch {batch}");
        }
    }

    #[test]
    fn policy_lookups_count_every_consultation() {
        let system = system();
        let policy = compiled(&system);
        let outcome = serve(
            &system,
            &policy,
            &ServeConfig::new(11).systems(4).requests_per_system(200),
        )
        .unwrap();
        // The compiled controller is consulted exactly once per engine
        // consultation; the merged lookup count rides on that statistic.
        assert!(outcome.merged().consultations() >= outcome.merged().events());
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let system = system();
        let policy = compiled(&system);
        let check =
            |config: ServeConfig, expected: ConfigError| match serve(&system, &policy, &config) {
                Err(ServeError::Config(e)) => assert_eq!(e, expected),
                other => panic!("expected Config({expected:?}), got {other:?}"),
            };
        check(ServeConfig::new(1).systems(0), ConfigError::NoSystems);
        check(ServeConfig::new(1).shards(0), ConfigError::NoShards);
        check(
            ServeConfig::new(1).batch_events(0),
            ConfigError::NoBatchEvents,
        );
        // More shards than systems used to clamp silently; it now fails
        // loudly so fleet sizing mistakes surface.
        check(
            ServeConfig::new(1).systems(3).shards(8),
            ConfigError::ShardsExceedSystems {
                shards: 8,
                systems: 3,
            },
        );
    }

    #[test]
    fn outcome_artifact_has_the_documented_shape() {
        let system = system();
        let policy = compiled(&system);
        let outcome = serve(
            &system,
            &policy,
            &ServeConfig::new(5).systems(3).requests_per_system(100),
        )
        .unwrap();
        let doc = outcome.to_json();
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some(SERVE_OUTCOME_FORMAT)
        );
        for key in ["root_seed", "systems", "requests_per_system", "fingerprint"] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        let totals = doc.get("totals").unwrap();
        for key in ["events", "policy_lookups", "sim_seconds", "energy_joules"] {
            assert!(totals.get(key).is_some(), "missing totals.{key}");
        }
        let supervision = doc.get("supervision").unwrap();
        for key in ["served", "quarantined", "retried", "incidents", "swaps"] {
            assert!(supervision.get(key).is_some(), "missing supervision.{key}");
        }
        // A clean run reports no incidents and full service.
        assert_eq!(supervision.get("served"), Some(&Json::Int(3)));
        assert_eq!(supervision.get("quarantined"), Some(&Json::Int(0)));
        // Round-trips through the canonical renderer.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
