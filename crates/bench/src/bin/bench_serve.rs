//! Canonical serving-throughput benchmark: the `dpm-serve` runtime into
//! `BENCH_serve.json`, sibling to `BENCH_solve.json`.
//!
//! Three measurement groups, each with a correctness check riding along:
//!
//! 1. **Sharded serving throughput**: an optimal policy for the paper's
//!    server is compiled and a fleet of `--systems` independent systems
//!    is served at every shard count in `--shards` (default `1,2,8`),
//!    recording events/sec and policy-lookups/sec. Every shard count
//!    must produce a **bit-identical** outcome (equal fleet
//!    fingerprints, equal canonical artifacts at tolerance 0) — the
//!    speedups are *recorded*, not asserted, since the CI container may
//!    be single-core.
//! 2. **Compiled-vs-table lookup microbench**: every state of a
//!    large-capacity system (`--lookup-capacity`, default 200) is looked
//!    up through the compiled tables and through the source
//!    `PmPolicy::command` path; the compiled path must answer
//!    identically on every state *and* measurably faster.
//! 3. **Artifact**: deterministic fields (`params`, `checks`, `serve`)
//!    are canonical; wall-clock rates live under the `timers` key, which
//!    the artifact diff strips. `--outcome-out` additionally writes the
//!    serve outcome alone (atomically: `artifact::write` stages a temp
//!    file and renames), which `scripts/ci.sh` diffs across shard counts
//!    at tolerance 0 on multi-core hosts.
//!
//! Passing any resilience flag (`--checkpoint`, `--resume`,
//! `--inject-panic`, `--inject-error`, `--max-attempts`) switches the
//! binary into **supervised chaos mode**: one supervised serve at the
//! first `--shards` count, with faults given as `SYS@EVENTS[:ATTEMPTS]`
//! (comma-separated; `max` = every attempt) and retries and settlements
//! journaled for kill-and-resume. The mode self-gates: every served system that never
//! left its original seed stream must report **field-for-field** what a
//! fault-free fleet reports, and the binary exits nonzero otherwise. The
//! sweep and microbench are skipped in this mode.
//!
//! ```text
//! cargo run --release -p dpm-bench --bin bench_serve -- \
//!     [--systems N] [--requests R] [--shards LIST] [--rounds K] \
//!     [--lookup-capacity Q] [--weight W] [--seed S] \
//!     [--out results/BENCH_serve.json] [--outcome-out PATH] \
//!     [--checkpoint J] [--resume J] [--max-attempts A] \
//!     [--inject-panic SYS@EVENTS[:ATTEMPTS],...] \
//!     [--inject-error SYS@EVENTS[:ATTEMPTS],...]
//! ```

use std::hint::black_box;

use dpm_bench::{paper_system, row, rule, time_sweeps, timed};
use dpm_core::{optimize, PmPolicy, PmSystem, SpModel, SrModel};
use dpm_harness::{
    artifact,
    cli::{self, Args},
    Json,
};
use dpm_serve::{serve, CompiledPolicy, ServeConfig, ServeFaultPlan, ServeOutcome};

/// One serving measurement: shard count, outcome, wall seconds.
struct ServeRow {
    shards: usize,
    outcome: ServeOutcome,
    secs: f64,
}

impl ServeRow {
    fn events_per_sec(&self) -> f64 {
        self.outcome.merged().events() as f64 / self.secs.max(f64::MIN_POSITIVE)
    }

    fn lookups_per_sec(&self) -> f64 {
        self.outcome.merged().consultations() as f64 / self.secs.max(f64::MIN_POSITIVE)
    }
}

/// One parsed fault site: `(system, events, attempts)`.
type FaultSite = (usize, u64, u32);

/// Parses a serve fault spec: comma-separated `SYS@EVENTS` or
/// `SYS@EVENTS:ATTEMPTS` entries (`max` arms every attempt).
fn parse_serve_faults(
    spec: Option<&str>,
    flag: &str,
) -> Result<Vec<FaultSite>, Box<dyn std::error::Error>> {
    let Some(spec) = spec else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        let bad = || format!("--{flag} expects SYS@EVENTS[:ATTEMPTS], got `{entry}`").into();
        let Some((system, rest)) = entry.split_once('@') else {
            return Err(bad());
        };
        let (events, attempts) = match rest.split_once(':') {
            Some((events, attempts)) => (events, attempts),
            None => (rest, "1"),
        };
        let system: usize = system.parse().map_err(|_| bad())?;
        let events: u64 = events.parse().map_err(|_| bad())?;
        let attempts: u32 = if attempts == "max" {
            u32::MAX
        } else {
            attempts.parse().map_err(|_| bad())?
        };
        out.push((system, events, attempts));
    }
    Ok(out)
}

/// Supervised chaos mode: one supervised serve (faults, attempt budget,
/// journal), self-gated against a fault-free fleet.
#[allow(clippy::too_many_arguments)]
fn run_supervised(
    system: &PmSystem,
    compiled: &CompiledPolicy,
    args: &Args,
    root_seed: u64,
    systems: usize,
    requests: u64,
    shards: usize,
    outcome_out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut faults = ServeFaultPlan::new();
    for (sys, events, attempts) in parse_serve_faults(args.get("inject-panic"), "inject-panic")? {
        faults = faults.panic_at(sys, events, attempts);
    }
    for (sys, events, attempts) in parse_serve_faults(args.get("inject-error"), "inject-error")? {
        faults = faults.error_at(sys, events, attempts);
    }
    let mut config = ServeConfig::new(root_seed)
        .systems(systems)
        .requests_per_system(requests)
        .shards(shards)
        .faults(faults);
    if args.get("max-attempts").is_some() {
        let attempts = args.get_u64("max-attempts", 0)?;
        config = config.max_attempts(u32::try_from(attempts).unwrap_or(u32::MAX));
    }
    if let Some(path) = args.get("checkpoint") {
        config = config.checkpoint(path);
    }
    if let Some(path) = args.get("resume") {
        config = config.resume(path);
    }

    let (outcome, secs) = timed(|| serve(system, compiled, &config));
    let outcome = outcome?;

    // Self-gate: panic recoveries replay their original seed, so every
    // served system still on seed stream 0 must report exactly what a
    // never-faulted fleet reports for it. (Engine-class retries reseed
    // and quarantined systems have no report; both are out of scope.)
    let reference = serve(
        system,
        compiled,
        &ServeConfig::new(root_seed)
            .systems(systems)
            .requests_per_system(requests)
            .shards(shards),
    )?;
    let mut gated = 0usize;
    let mut survivors_match = true;
    for (record, clean) in outcome.records().iter().zip(reference.records()) {
        if record.is_served() && record.seed_attempt() == 0 {
            gated += 1;
            survivors_match &= record.report() == clean.report();
        }
    }
    let retried = outcome
        .records()
        .iter()
        .filter(|r| r.attempts() > 1)
        .count();
    println!(
        "supervised serve ({systems} systems x {requests} requests, {shards} shards): \
         {} served, {} quarantined, {retried} retried in {secs:.3}s",
        outcome.served(),
        outcome.quarantined(),
    );
    println!(
        "checks: surviving original-seed systems identical to fault-free fleet = \
         {survivors_match} ({gated} gated)"
    );
    if !outcome_out.is_empty() {
        artifact::write(outcome_out, &outcome.to_json())?;
        println!("outcome artifact: {outcome_out}");
    }
    if !survivors_match {
        return Err("supervised serve diverged from the fault-free fleet".into());
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&cli::with_resilience_flags(&[
        "systems",
        "requests",
        "shards",
        "rounds",
        "lookup-capacity",
        "weight",
        "seed",
        "out",
        "outcome-out",
    ]))?;
    let systems = args.get_usize("systems", 256)?.max(1);
    let requests = args.get_u64("requests", 2_000)?.max(1);
    let shard_counts = args.get_usize_list("shards", &[1, 2, 8])?;
    let rounds = args.get_usize("rounds", 200)?.max(1);
    let lookup_capacity = args.get_usize("lookup-capacity", 200)?.max(2);
    let weight = args.get_f64("weight", 1.0)?;
    let root_seed = args.get_u64("seed", 4200)?;
    let out = args.get_str("out", "results/BENCH_serve.json");
    let outcome_out = args.get_str("outcome-out", "");

    // ------------------------------------------------------------------
    // 1. Compile the optimal policy for the paper's server.
    // ------------------------------------------------------------------
    let system = paper_system(1.0 / 6.0)?;
    let solution = optimize::optimal_policy(&system, weight)?;
    let policy = solution.policy();
    let compiled = CompiledPolicy::compile(&system, policy)?;
    let mut serve_matches_table = true;
    for i in 0..system.n_states() {
        serve_matches_table &= compiled.action(system.state(i)) == Some(policy.destination(i));
    }

    // Any resilience flag switches to supervised chaos mode: one
    // supervised fleet, self-gated, no sweep or microbench.
    let supervised = [
        "checkpoint",
        "resume",
        "inject-panic",
        "inject-error",
        "max-attempts",
    ]
    .iter()
    .any(|flag| args.get(flag).is_some());
    if supervised {
        if !serve_matches_table {
            return Err("compiled policy disagrees with its source table".into());
        }
        let shards = shard_counts.first().copied().unwrap_or(1).max(1);
        return run_supervised(
            &system,
            &compiled,
            &args,
            root_seed,
            systems,
            requests,
            shards,
            &outcome_out,
        );
    }

    // ------------------------------------------------------------------
    // 2. Sharded serving throughput at each shard count.
    // ------------------------------------------------------------------
    let mut serve_rows: Vec<ServeRow> = Vec::with_capacity(shard_counts.len());
    for &shards in &shard_counts {
        let config = ServeConfig::new(root_seed)
            .systems(systems)
            .requests_per_system(requests)
            .shards(shards.max(1));
        let (outcome, secs) = timed(|| serve(&system, &compiled, &config));
        serve_rows.push(ServeRow {
            shards: shards.max(1),
            outcome: outcome?,
            secs,
        });
    }
    let Some(first) = serve_rows.first() else {
        return Err("no shard counts measured".into());
    };
    // Speedups are quoted against the 1-shard row when one was measured
    // (so `--shards 4,1` still records a real multi-worker speedup), and
    // against the first row otherwise.
    let baseline = serve_rows.iter().find(|r| r.shards == 1).unwrap_or(first);
    let baseline_secs = baseline.secs;
    let mut shards_bit_identical = true;
    for row_ in &serve_rows {
        shards_bit_identical &= row_.outcome.fingerprint() == first.outcome.fingerprint()
            && artifact::diff(&row_.outcome.to_json(), &first.outcome.to_json(), 0.0).is_empty();
    }

    // ------------------------------------------------------------------
    // 3. Compiled-vs-table lookup microbench on a big state space.
    // ------------------------------------------------------------------
    let big = PmSystem::builder()
        .provider(SpModel::dac99_server()?)
        .requestor(SrModel::poisson(1.0 / 6.0)?)
        .capacity(lookup_capacity)
        .build()?;
    let big_policy = PmPolicy::greedy(&big)?;
    let big_compiled = CompiledPolicy::compile(&big, &big_policy)?;
    let n_lookup_states = big.n_states();
    let mut lookup_agrees = true;
    for i in 0..n_lookup_states {
        lookup_agrees &=
            big_compiled.action(big.state(i)) == big_policy.command(&big, big.state(i)).ok();
    }
    let (table_sum, table_secs) = time_sweeps(rounds, || {
        let mut acc = 0usize;
        for i in 0..n_lookup_states {
            acc += big_policy
                .command(&big, black_box(big.state(i)))
                .unwrap_or(0);
        }
        black_box(acc)
    });
    let (compiled_sum, compiled_secs) = time_sweeps(rounds, || {
        let mut acc = 0usize;
        for i in 0..n_lookup_states {
            acc += big_compiled.action(black_box(big.state(i))).unwrap_or(0);
        }
        black_box(acc)
    });
    lookup_agrees &= table_sum == compiled_sum;
    let lookup_speedup = table_secs / compiled_secs.max(f64::MIN_POSITIVE);
    let compiled_faster = compiled_secs < table_secs;
    let per_lookup_ns = |secs: f64| secs * 1e9 / n_lookup_states.max(1) as f64;

    // ------------------------------------------------------------------
    // Report + artifact.
    // ------------------------------------------------------------------
    let widths = [8usize, 12, 16, 16, 10];
    println!(
        "Serving throughput ({systems} systems x {requests} requests, optimal policy w={weight})"
    );
    row(
        &[
            "shards".into(),
            "secs".into(),
            "events/sec".into(),
            "lookups/sec".into(),
            "speedup".into(),
        ],
        &widths,
    );
    rule(&widths);
    for r in &serve_rows {
        row(
            &[
                format!("{}", r.shards),
                format!("{:.3}", r.secs),
                format!("{:.3e}", r.events_per_sec()),
                format!("{:.3e}", r.lookups_per_sec()),
                format!("{:.2}x", baseline_secs / r.secs.max(f64::MIN_POSITIVE)),
            ],
            &widths,
        );
    }
    println!(
        "\nLookup microbench ({n_lookup_states} states, capacity {lookup_capacity}, {rounds} \
         rounds): table {:.1} ns, compiled {:.1} ns, {lookup_speedup:.1}x",
        per_lookup_ns(table_secs),
        per_lookup_ns(compiled_secs),
    );
    println!(
        "checks: compiled matches table = {serve_matches_table}, shards bit-identical = \
         {shards_bit_identical}, lookup agrees = {lookup_agrees}, compiled faster = \
         {compiled_faster}"
    );

    let mut doc = Json::object();
    doc.set("schema_version", 1u64);
    doc.set("experiment", "bench_serve");
    let mut params = Json::object();
    params.set("systems", systems);
    params.set("requests_per_system", requests);
    params.set(
        "shard_counts",
        Json::Array(shard_counts.iter().map(|&s| Json::Int(s as i128)).collect()),
    );
    params.set("rounds", rounds);
    params.set("lookup_capacity", lookup_capacity);
    params.set("lookup_states", n_lookup_states);
    params.set("weight", Json::num(weight));
    params.set("root_seed", root_seed);
    doc.set("params", params);
    // The deterministic serve outcome (identical at every shard count).
    doc.set("serve", first.outcome.to_json());
    let mut checks = Json::object();
    checks.set("compiled_matches_table", serve_matches_table);
    checks.set("shard_counts_bit_identical", shards_bit_identical);
    checks.set("lookup_paths_agree", lookup_agrees);
    checks.set("compiled_lookup_faster", compiled_faster);
    doc.set("checks", checks);
    let mut timers = Json::object();
    for r in &serve_rows {
        timers.set(
            &format!("serve_{}_shards_secs", r.shards),
            Json::num(r.secs),
        );
        timers.set(
            &format!("serve_{}_shards_events_per_sec", r.shards),
            Json::num(r.events_per_sec()),
        );
        timers.set(
            &format!("serve_{}_shards_lookups_per_sec", r.shards),
            Json::num(r.lookups_per_sec()),
        );
        timers.set(
            &format!("serve_{}_shards_speedup_vs_1", r.shards),
            Json::num(baseline_secs / r.secs.max(f64::MIN_POSITIVE)),
        );
    }
    timers.set("lookup_table_ns", Json::num(per_lookup_ns(table_secs)));
    timers.set(
        "lookup_compiled_ns",
        Json::num(per_lookup_ns(compiled_secs)),
    );
    timers.set("lookup_compiled_speedup", Json::num(lookup_speedup));
    doc.set("timers", timers);

    if !outcome_out.is_empty() {
        artifact::write(&outcome_out, &first.outcome.to_json())?;
    }
    artifact::write(&out, &doc)?;
    if !(serve_matches_table && shards_bit_identical && lookup_agrees && compiled_faster) {
        return Err("serving correctness/performance checks failed (see artifact)".into());
    }
    println!("artifact: {out}");
    Ok(())
}
