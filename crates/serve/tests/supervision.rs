//! Supervision-layer tests: the shared attempt budget, panic isolation,
//! quarantine, hot policy swaps, fleet-order merging, and the
//! kill-at-any-point + resume bit-identity guarantee of the fleet
//! checkpoint journal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
use dpm_harness::{artifact, seed::derive_serve_attempt_seed, Json};
use dpm_serve::{
    serve, CompiledController, CompiledPolicy, ErrorClass, ServeConfig, ServeFaultPlan, SwapPlan,
    SystemStatus,
};
use dpm_sim::{workload::PoissonWorkload, MergedReport, SimConfig, SimReport, Simulator};

fn system() -> PmSystem {
    PmSystem::builder()
        .provider(SpModel::dac99_server().unwrap())
        .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
        .capacity(5)
        .build()
        .unwrap()
}

fn greedy(system: &PmSystem) -> CompiledPolicy {
    CompiledPolicy::compile(system, &PmPolicy::greedy(system).unwrap()).unwrap()
}

/// A unique scratch path: per-process, per-call.
fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("dpm-serve-supervision");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{n}-{name}", std::process::id()))
}

#[test]
fn panic_retry_replays_the_same_seed_bit_identically() {
    let system = system();
    let policy = greedy(&system);
    let base = ServeConfig::new(21).systems(8).requests_per_system(600);
    let clean = serve(&system, &policy, &base).unwrap();
    let faulted = serve(
        &system,
        &policy,
        &base
            .clone()
            .faults(ServeFaultPlan::new().panic_at(3, 400, 1)),
    )
    .unwrap();
    // The panicked system replayed its original seed, so every report —
    // and therefore the fleet fingerprint — matches the clean run.
    assert_eq!(faulted.fingerprint(), clean.fingerprint());
    assert_eq!(faulted.merged(), clean.merged());
    for (f, c) in faulted.records().iter().zip(clean.records()) {
        assert_eq!(f.report(), c.report(), "system {}", f.system());
    }
    let recovered = &faulted.records()[3];
    assert_eq!(recovered.attempts(), 2, "one failure, one successful retry");
    assert_eq!(recovered.seed_attempt(), 0, "panic retries replay the seed");
    assert!(recovered.is_served());
    // The supervision trail differs from clean only where it should.
    assert_eq!(faulted.served(), 8);
    assert!(clean.records().iter().all(|r| r.attempts() == 1));
}

#[test]
fn panic_budget_exhaustion_quarantines_without_disturbing_the_fleet() {
    let system = system();
    let policy = greedy(&system);
    let base = ServeConfig::new(22).systems(6).requests_per_system(500);
    let clean = serve(&system, &policy, &base).unwrap();
    let config = base
        .clone()
        .faults(ServeFaultPlan::new().panic_at(2, 300, u32::MAX))
        .max_attempts(3);
    let faulted = serve(&system, &policy, &config).unwrap();
    let victim = &faulted.records()[2];
    assert_eq!(victim.attempts(), 3, "budget fully consumed");
    match victim.status() {
        SystemStatus::Quarantined { class, error } => {
            assert_eq!(*class, ErrorClass::Panic);
            assert!(error.contains("injected panic"), "{error}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(faulted.served(), 5);
    assert_eq!(faulted.quarantined(), 1);
    assert_eq!(faulted.merged().runs(), 5, "quarantined system excluded");
    // Every surviving system's report is untouched by the sick neighbour.
    for (f, c) in faulted.records().iter().zip(clean.records()) {
        if f.system() != 2 {
            assert_eq!(f.report(), c.report(), "system {}", f.system());
        }
    }
    // Quarantine is shard-invariant like everything else.
    let sharded = serve(&system, &policy, &config.clone().shards(3)).unwrap();
    assert_eq!(sharded.fingerprint(), faulted.fingerprint());
    assert_eq!(sharded.records(), faulted.records());
}

#[test]
fn engine_error_retry_draws_a_fresh_seed_stream() {
    let system = system();
    let policy = greedy(&system);
    let config = ServeConfig::new(23)
        .systems(6)
        .requests_per_system(500)
        .faults(ServeFaultPlan::new().error_at(4, 250, 1));
    let outcome = serve(&system, &policy, &config).unwrap();
    let retried = &outcome.records()[4];
    assert_eq!(retried.attempts(), 2);
    assert_eq!(
        retried.seed_attempt(),
        1,
        "engine retries reseed: the same stream would fail identically"
    );
    let report = retried.report().expect("served after the reseed");
    assert_eq!(report.seed(), derive_serve_attempt_seed(23, 4, 1));
    assert_eq!(outcome.served(), 6);
    // Deterministic across shard counts, reseed and all.
    let sharded = serve(&system, &policy, &config.clone().shards(2)).unwrap();
    assert_eq!(sharded.records(), outcome.records());
    assert_eq!(sharded.fingerprint(), outcome.fingerprint());
}

#[test]
fn engine_budget_exhaustion_quarantines_with_the_engine_class() {
    let system = system();
    let policy = greedy(&system);
    let outcome = serve(
        &system,
        &policy,
        &ServeConfig::new(24)
            .systems(4)
            .requests_per_system(400)
            .faults(ServeFaultPlan::new().error_at(1, 200, u32::MAX))
            .max_attempts(2),
    )
    .unwrap();
    let victim = &outcome.records()[1];
    assert_eq!(victim.attempts(), 2);
    assert_eq!(
        victim.seed_attempt(),
        1,
        "the retry did reseed before failing"
    );
    match victim.status() {
        SystemStatus::Quarantined { class, error } => {
            assert_eq!(*class, ErrorClass::Engine);
            assert!(error.contains("injected engine error"), "{error}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(outcome.merged().runs(), 3);
}

#[test]
fn setup_failures_quarantine_immediately_without_retry() {
    let system = system();
    let policy = greedy(&system);
    let outcome = serve(
        &system,
        &policy,
        &ServeConfig::new(25)
            .systems(5)
            .requests_per_system(300)
            .faults(ServeFaultPlan::new().setup_failure(0))
            .max_attempts(5),
    )
    .unwrap();
    let victim = &outcome.records()[0];
    assert_eq!(victim.attempts(), 1, "setup failures are never retried");
    match victim.status() {
        SystemStatus::Quarantined { class, .. } => assert_eq!(*class, ErrorClass::Setup),
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(outcome.served(), 4);
    assert_eq!(outcome.merged().runs(), 4);
}

#[test]
fn panics_and_engine_errors_draw_from_one_clamped_budget() {
    let system = system();
    let policy = greedy(&system);
    // System 2 panics on its first attempt and hits an engine error on its
    // second: three attempts serve it, two quarantine it, and a budget of
    // zero counts as one.
    let faults = ServeFaultPlan::new()
        .panic_at(2, 100, 1)
        .error_at(2, 200, 2);
    let record = |max_attempts| {
        let config = ServeConfig::new(32)
            .systems(4)
            .requests_per_system(400)
            .faults(faults.clone())
            .max_attempts(max_attempts);
        serve(&system, &policy, &config).unwrap().records()[2].clone()
    };
    let served = record(3);
    assert!(served.is_served());
    assert_eq!((served.attempts(), served.seed_attempt()), (3, 1));
    for (max_attempts, attempts, expected) in [
        (2, 2, ErrorClass::Engine),
        (1, 1, ErrorClass::Panic),
        (0, 1, ErrorClass::Panic),
    ] {
        let record = record(max_attempts);
        assert_eq!(record.attempts(), attempts, "max_attempts({max_attempts})");
        match record.status() {
            SystemStatus::Quarantined { class, .. } => assert_eq!(*class, expected),
            other => panic!("expected quarantine, got {other:?}"),
        }
    }
}

/// The bits of every float readout of a merged aggregate.
fn float_bits(m: &MergedReport) -> [u64; 10] {
    [
        m.duration(),
        m.occupancy_energy(),
        m.switch_energy(),
        m.total_energy(),
        m.queue_integral(),
        m.sojourn_sum(),
        m.average_power(),
        m.average_queue_length(),
        m.average_waiting_time(),
        m.loss_fraction(),
    ]
    .map(f64::to_bits)
}

#[test]
fn merged_is_the_fleet_order_fold_of_served_reports() {
    let system = system();
    let policy = greedy(&system);
    let full = scratch("merged-full.jsonl");
    let cut = scratch("merged-cut.jsonl");
    // System 2 panics on every attempt and is quarantined; 5 retries once.
    let config = ServeConfig::new(33)
        .systems(9)
        .requests_per_system(500)
        .faults(
            ServeFaultPlan::new()
                .panic_at(2, 150, u32::MAX)
                .panic_at(5, 300, 1),
        );
    serve(&system, &policy, &config.clone().checkpoint(&full)).unwrap();
    let text = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    std::fs::write(&cut, lines[..lines.len() / 2].join("\n")).unwrap();
    let run = |config: ServeConfig| serve(&system, &policy, &config).unwrap();
    let outcomes = [
        ("1 shard", run(config.clone())),
        ("3 shards", run(config.clone().shards(3))),
        ("resumed", run(config.clone().shards(3).resume(&cut))),
    ];
    for (case, outcome) in &outcomes {
        let mut fold = MergedReport::new();
        for report in outcome.records().iter().filter_map(|r| r.report()) {
            fold.absorb(report);
        }
        // Counters compare exactly under `==`; floats also by their bits.
        assert_eq!(outcome.merged(), &fold, "{case}");
        assert_eq!(float_bits(outcome.merged()), float_bits(&fold), "{case}");
        assert_eq!((outcome.merged().runs(), outcome.quarantined()), (8, 1));
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&cut).ok();
}

#[test]
fn accepted_swaps_change_results_deterministically() {
    let system = system();
    let policy = greedy(&system);
    let replacement =
        CompiledPolicy::compile(&system, &PmPolicy::always_on(&system, 0).unwrap()).unwrap();
    let base = ServeConfig::new(26).systems(6).requests_per_system(600);
    let unswapped = serve(&system, &policy, &base).unwrap();
    let swapped_config = base
        .clone()
        .swaps(SwapPlan::new().swap_at(500, replacement.clone()));
    let swapped = serve(&system, &policy, &swapped_config).unwrap();
    assert_eq!(swapped.swap_outcomes().len(), 1);
    assert!(swapped.swap_outcomes()[0].accepted());
    assert_eq!(swapped.swap_outcomes()[0].at_events(), 500);
    assert_ne!(
        swapped.fingerprint(),
        unswapped.fingerprint(),
        "an always-on takeover must change the trajectories"
    );
    // The barrier is each system's own event counter, so the swapped run
    // is still bit-identical at every shard count.
    for shards in [2, 3, 6] {
        let sharded = serve(&system, &policy, &swapped_config.clone().shards(shards)).unwrap();
        assert_eq!(
            sharded.fingerprint(),
            swapped.fingerprint(),
            "{shards} shards"
        );
        assert_eq!(sharded.records(), swapped.records(), "{shards} shards");
    }
    // swap_at_checked with the matching source table also passes.
    let checked = serve(
        &system,
        &policy,
        &base.clone().swaps(SwapPlan::new().swap_at_checked(
            500,
            replacement,
            PmPolicy::always_on(&system, 0).unwrap(),
        )),
    )
    .unwrap();
    assert!(checked.swap_outcomes()[0].accepted());
    assert_eq!(checked.fingerprint(), swapped.fingerprint());
}

#[test]
fn invalid_swap_artifacts_are_rejected_without_disturbing_the_fleet() {
    let system = system();
    let policy = greedy(&system);
    // A policy compiled for a different queue capacity: wrong shape.
    let small = PmSystem::builder()
        .provider(SpModel::dac99_server().unwrap())
        .requestor(SrModel::poisson(1.0 / 6.0).unwrap())
        .capacity(2)
        .build()
        .unwrap();
    let corrupt = CompiledPolicy::compile(&small, &PmPolicy::greedy(&small).unwrap()).unwrap();
    let base = ServeConfig::new(27).systems(5).requests_per_system(400);
    let clean = serve(&system, &policy, &base).unwrap();
    let outcome = serve(
        &system,
        &policy,
        &base.clone().swaps(SwapPlan::new().swap_at(300, corrupt)),
    )
    .unwrap();
    assert!(!outcome.swap_outcomes()[0].accepted());
    assert!(
        outcome.swap_outcomes()[0]
            .reason()
            .is_some_and(|r| r.contains("capacity")),
        "{:?}",
        outcome.swap_outcomes()[0].reason()
    );
    // The fleet ran to completion under the original policy as if the
    // bad artifact had never been scheduled.
    assert_eq!(outcome.fingerprint(), clean.fingerprint());
    assert_eq!(outcome.merged(), clean.merged());

    // A well-shaped artifact that disagrees with its claimed source
    // table fails the compiled==table spot-check.
    let mismatched = serve(
        &system,
        &policy,
        &base.clone().swaps(SwapPlan::new().swap_at_checked(
            300,
            greedy(&system),
            PmPolicy::always_on(&system, 0).unwrap(),
        )),
    )
    .unwrap();
    assert!(!mismatched.swap_outcomes()[0].accepted());
    assert!(
        mismatched.swap_outcomes()[0]
            .reason()
            .is_some_and(|r| r.contains("disagrees")),
        "{:?}",
        mismatched.swap_outcomes()[0].reason()
    );
    assert_eq!(mismatched.fingerprint(), clean.fingerprint());

    // A barrier of zero can never be honoured (event counts are 1-based).
    let zero = serve(
        &system,
        &policy,
        &base
            .clone()
            .swaps(SwapPlan::new().swap_at(0, greedy(&system))),
    )
    .unwrap();
    assert!(!zero.swap_outcomes()[0].accepted());
    assert_eq!(zero.fingerprint(), clean.fingerprint());
}

/// Steps the first attempt of fleet system `index` one event at a time,
/// swapping policies after exactly the scheduled event counts: the
/// reference for serve's swap barrier, with no batching involved.
fn stepped_report(
    system: &PmSystem,
    root_seed: u64,
    index: usize,
    requests: u64,
    initial: &CompiledPolicy,
    swaps: &[(u64, &CompiledPolicy)],
) -> SimReport {
    let mut run = Simulator::new(
        system.provider().clone(),
        system.capacity(),
        PoissonWorkload::new(system.requestor().rate()).unwrap(),
        CompiledController::new(Arc::new(initial.clone())),
        SimConfig::new(derive_serve_attempt_seed(root_seed, index as u64, 0))
            .max_requests(requests),
    )
    .start()
    .unwrap();
    let mut pending = swaps.iter().peekable();
    loop {
        if let Some((_, policy)) = pending.next_if(|(at, _)| run.events() == *at) {
            run.controller_mut()
                .swap_policy(Arc::new(CompiledPolicy::clone(policy)));
        }
        if !run.step().unwrap() {
            return run.into_report();
        }
    }
}

#[test]
fn batch_edge_barriers_match_per_event_checks() {
    const BATCH: u64 = 64;
    let system = system();
    let greedy = greedy(&system);
    let always_on =
        CompiledPolicy::compile(&system, &PmPolicy::always_on(&system, 0).unwrap()).unwrap();
    // Swaps that apply before the first, a middle and the last event of a
    // batch (entry `at` applies before event `at + 1`).
    let swaps = [
        (2 * BATCH, &always_on),
        (5 * BATCH + 31, &greedy),
        (9 * BATCH - 1, &always_on),
    ];
    let plan = swaps.iter().fold(SwapPlan::new(), |plan, &(at, policy)| {
        plan.swap_at(at, policy.clone())
    });
    // On every attempt: a panic before the first event of a batch, and an
    // engine error before the last one.
    let panic_event = 3 * BATCH + 1;
    let error_event = 4 * BATCH;
    let config = ServeConfig::new(27)
        .systems(4)
        .requests_per_system(400)
        .swaps(plan)
        .faults(
            ServeFaultPlan::new()
                .panic_at(1, panic_event, u32::MAX)
                .error_at(2, error_event, u32::MAX),
        );
    let checked = serve(&system, &greedy, &config.clone().batch_events(1)).unwrap();
    for shards in [1, 2] {
        let batched = serve(
            &system,
            &greedy,
            &config.clone().batch_events(BATCH as usize).shards(shards),
        )
        .unwrap();
        assert_eq!(batched.fingerprint(), checked.fingerprint(), "{shards}");
        assert_eq!(batched.records(), checked.records(), "{shards} shards");
        assert_eq!(batched.swap_outcomes(), checked.swap_outcomes());
        assert_eq!(
            artifact::diff(&batched.to_json(), &checked.to_json(), 0.0),
            Vec::<String>::new(),
            "{shards} shards"
        );
    }
    let quarantines = [
        (
            1,
            ErrorClass::Panic,
            format!("injected panic in system 1 before event {panic_event}"),
        ),
        (
            2,
            ErrorClass::Engine,
            format!("injected engine error in system 2 before event {error_event}"),
        ),
    ];
    for (index, expected, message) in quarantines {
        match checked.records()[index].status() {
            SystemStatus::Quarantined { class, error } => {
                assert_eq!(*class, expected);
                assert!(error.contains(&message), "{error}");
            }
            other => panic!("system {index}: expected quarantine, got {other:?}"),
        }
    }
    // The healthy systems swapped after exactly the scheduled counts.
    for index in [0, 3] {
        let report = checked.records()[index].report().expect("served");
        assert!(report.events() > 9 * BATCH, "every swap lands in the run");
        assert_eq!(
            *report,
            stepped_report(&system, 27, index, 400, &greedy, &swaps),
            "system {index}"
        );
    }
}

#[test]
fn finished_runs_resume_to_identical_outcomes_through_compaction() {
    let system = system();
    let policy = greedy(&system);
    let first_journal = scratch("finished-1.jsonl");
    let second_journal = scratch("finished-2.jsonl");
    let base = ServeConfig::new(28)
        .systems(6)
        .requests_per_system(500)
        .faults(ServeFaultPlan::new().panic_at(1, 100, 1).setup_failure(5));
    let reference = serve(&system, &policy, &base.clone().checkpoint(&first_journal)).unwrap();
    // Resume the finished fleet: every system is carried forward from the
    // journal (compacted into range records in the new journal) and the
    // outcome — including the supervision trail — is identical.
    let resumed = serve(
        &system,
        &policy,
        &base
            .clone()
            .resume(&first_journal)
            .checkpoint(&second_journal),
    )
    .unwrap();
    assert_eq!(resumed.records(), reference.records());
    assert_eq!(resumed.fingerprint(), reference.fingerprint());
    // And the compacted journal itself resumes identically (second hop).
    let rehop = serve(&system, &policy, &base.clone().resume(&second_journal)).unwrap();
    assert_eq!(rehop.records(), reference.records());
    assert_eq!(
        artifact::diff(&rehop.to_json(), &reference.to_json(), 0.0),
        Vec::<String>::new()
    );
    std::fs::remove_file(&first_journal).ok();
    std::fs::remove_file(&second_journal).ok();
}

/// The fleet the journal tests kill and resume: mid-run supervision
/// activity (one panic retry, one engine retry), so the journal carries
/// retry state, not just settlements, across the kill.
fn kill_fleet() -> ServeConfig {
    ServeConfig::new(29)
        .systems(10)
        .requests_per_system(800)
        .faults(
            ServeFaultPlan::new()
                .panic_at(1, 200, 1)
                .error_at(4, 150, 1),
        )
}

fn journal_records(path: &std::path::Path) -> Vec<Json> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let header = Json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(
        header.get("format").and_then(Json::as_str),
        Some("dpm-serve-checkpoint/v1")
    );
    lines.map(|line| Json::parse(line).unwrap()).collect()
}

fn field(record: &Json, key: &str) -> i128 {
    match record.get(key) {
        Some(Json::Int(v)) => *v,
        other => panic!("{key}: {other:?}"),
    }
}

fn kind(record: &Json) -> &str {
    record.get("kind").and_then(Json::as_str).unwrap()
}

#[test]
fn fault_free_journal_holds_the_header_and_one_settlement_per_system() {
    let system = system();
    let policy = greedy(&system);
    let path = scratch("shape-clean.jsonl");
    let outcome = serve(
        &system,
        &policy,
        &ServeConfig::new(30)
            .systems(7)
            .requests_per_system(2_000)
            .shards(2)
            .checkpoint(&path),
    )
    .unwrap();
    assert!(
        outcome
            .records()
            .iter()
            .all(|r| r.report().unwrap().events() > 1_024),
        "every system runs long enough for progress to be worth recording"
    );
    let records = journal_records(&path);
    assert_eq!(records.len(), 7, "N + 1 lines with the header");
    let mut systems: Vec<i128> = records.iter().map(|r| field(r, "system")).collect();
    systems.sort_unstable();
    assert_eq!(systems, (0..7).collect::<Vec<_>>());
    assert!(records.iter().all(|r| kind(r) == "done"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_journal_holds_one_epoch_per_retry_and_one_settlement_per_system() {
    let system = system();
    let policy = greedy(&system);
    let path = scratch("shape-faulted.jsonl");
    let config = ServeConfig::new(31)
        .systems(10)
        .requests_per_system(800)
        .shards(2)
        .faults(
            ServeFaultPlan::new()
                .panic_at(1, 200, 1)
                .error_at(4, 150, 1)
                .panic_at(6, 100, u32::MAX)
                .setup_failure(8),
        )
        .max_attempts(3)
        .checkpoint(&path);
    let outcome = serve(&system, &policy, &config).unwrap();
    assert_eq!(outcome.quarantined(), 2, "systems 6 and 8");
    let records = journal_records(&path);
    let (epochs, settlements): (Vec<&Json>, Vec<&Json>) =
        records.iter().partition(|r| kind(r) == "epoch");
    // One epoch per retry decision, each at event 0: system 1 retries its
    // panic once, 4 its engine error once, 6 its panic twice before the
    // budget of 3 is spent; the setup failure on 8 is never retried.
    let mut retried: Vec<(i128, i128, i128)> = epochs
        .iter()
        .map(|r| {
            assert_eq!(field(r, "events"), 0);
            (
                field(r, "system"),
                field(r, "attempts"),
                field(r, "seed_attempt"),
            )
        })
        .collect();
    retried.sort_unstable();
    assert_eq!(retried, vec![(1, 2, 0), (4, 2, 1), (6, 2, 0), (6, 3, 0)]);
    let mut settled: Vec<i128> = settlements.iter().map(|r| field(r, "system")).collect();
    settled.sort_unstable();
    assert_eq!(settled, (0..10).collect::<Vec<_>>());
    assert_eq!(records.len(), 4 + 10);
    std::fs::remove_file(&path).ok();
}

/// Kill-at-any-point: truncating the journal after EVERY prefix of its
/// records, with and without a torn half of the next record (what a
/// SIGKILL mid-append leaves behind), and resuming at 1, 2 and 4 shards
/// reproduces the uninterrupted run field-for-field.
#[test]
fn kill_at_every_record_resumes_bit_identically() {
    let system = system();
    let policy = greedy(&system);
    let full_journal = scratch("kill-full.jsonl");
    let cut_journal = scratch("kill-cut.jsonl");
    let reference = serve(
        &system,
        &policy,
        &kill_fleet().shards(2).checkpoint(&full_journal),
    )
    .unwrap();
    let text = std::fs::read_to_string(&full_journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let records = &lines[1..];
    assert_eq!(records.len(), 2 + 10, "two retries, ten settlements");
    for keep in 0..=records.len() {
        for torn in [false, true] {
            let mut truncated = lines[0].to_owned();
            for line in &records[..keep] {
                truncated.push('\n');
                truncated.push_str(line);
            }
            if torn {
                let Some(next) = records.get(keep) else {
                    continue;
                };
                truncated.push('\n');
                truncated.push_str(&next[..next.len() / 2]);
            }
            std::fs::write(&cut_journal, &truncated).unwrap();
            for shards in [1, 2, 4] {
                let resumed = serve(
                    &system,
                    &policy,
                    &kill_fleet().shards(shards).resume(&cut_journal),
                )
                .unwrap();
                let case = format!("{keep} records, torn {torn}, {shards} shards");
                assert_eq!(resumed.records(), reference.records(), "{case}");
                assert_eq!(resumed.fingerprint(), reference.fingerprint(), "{case}");
                assert_eq!(resumed.merged(), reference.merged(), "{case}");
                assert_eq!(
                    artifact::diff(&resumed.to_json(), &reference.to_json(), 0.0),
                    Vec::<String>::new(),
                    "{case}"
                );
            }
        }
    }
    std::fs::remove_file(&full_journal).ok();
    std::fs::remove_file(&cut_journal).ok();
}

/// Journals from writers that also appended periodic progress epochs
/// (`events > 0`) still resume: the loader reads only their attempt
/// counters, and replay re-derives the progress.
#[test]
fn journals_with_progress_epochs_resume_bit_identically() {
    let system = system();
    let policy = greedy(&system);
    let full_journal = scratch("progress-full.jsonl");
    let progress_journal = scratch("progress-cut.jsonl");
    let reference = serve(
        &system,
        &policy,
        &kill_fleet().shards(2).checkpoint(&full_journal),
    )
    .unwrap();
    let text = std::fs::read_to_string(&full_journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let settlement = |system: i128| {
        lines[1..]
            .iter()
            .find(|line| {
                let record = Json::parse(line).unwrap();
                kind(&record) == "done" && field(&record, "system") == system
            })
            .unwrap()
    };
    let epoch = |system: u64, events: u64, attempts: u32, seed_attempt: u32| {
        format!(
            "{{\"kind\":\"epoch\",\"system\":{system},\"events\":{events},\
             \"attempts\":{attempts},\"seed_attempt\":{seed_attempt},\"seed\":{}}}",
            derive_serve_attempt_seed(29, system, seed_attempt)
        )
    };
    // What a writer with a 64-event progress cadence would have left at a
    // kill: progress on every system, system 4 retried after its engine
    // error (fresh stream) and system 1 after its panic (same stream),
    // each with progress on the new attempt, and two systems settled.
    let mut journal = vec![lines[0].to_owned()];
    for events in [64, 128] {
        journal.extend((0..10).map(|i| epoch(i, events, 1, 0)));
    }
    journal.push(epoch(4, 0, 2, 1));
    journal.push(epoch(4, 64, 2, 1));
    journal.push(epoch(1, 0, 2, 0));
    journal.push(epoch(1, 128, 2, 0));
    journal.push((*settlement(0)).to_owned());
    journal.push((*settlement(9)).to_owned());
    journal.push(epoch(5, 192, 1, 0));
    std::fs::write(&progress_journal, journal.join("\n")).unwrap();
    for shards in [1, 2] {
        let resumed = serve(
            &system,
            &policy,
            &kill_fleet().shards(shards).resume(&progress_journal),
        )
        .unwrap();
        assert_eq!(resumed.records(), reference.records(), "{shards} shards");
        assert_eq!(
            artifact::diff(&resumed.to_json(), &reference.to_json(), 0.0),
            Vec::<String>::new(),
            "{shards} shards"
        );
    }
    std::fs::remove_file(&full_journal).ok();
    std::fs::remove_file(&progress_journal).ok();
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The CI chaos fleet (`scripts/ci.sh`, `bench_serve` in supervised
/// mode) on one shard, so its journal's line order is deterministic: the
/// optimal policy, panics on systems 3 and 5, an engine error on every
/// attempt of system 7, three attempts per system.
fn chaos_fleet() -> (PmSystem, CompiledPolicy, ServeConfig) {
    let system = system();
    let solution = dpm_core::optimize::optimal_policy(&system, 1.0).unwrap();
    let policy = CompiledPolicy::compile(&system, solution.policy()).unwrap();
    let config = ServeConfig::new(99)
        .systems(16)
        .requests_per_system(200_000)
        .shards(1)
        .faults(
            ServeFaultPlan::new()
                .panic_at(3, 400, 1)
                .panic_at(5, 250, 2)
                .error_at(7, 300, u32::MAX),
        )
        .max_attempts(3);
    (system, policy, config)
}

/// Digests of the chaos fleet's 1-shard journal, fresh and rewritten by
/// resumed runs (so the rewrite carries `settled_run` records and epochs
/// forward). A change to the sorted-line digest or to the rewrite of the
/// journal without system 5's settlement is a change of the on-disk
/// format; the other two also move with the round-robin order in which a
/// 1-shard run appends retries and settlements.
#[test]
fn chaos_journal_bytes_match_the_golden_digests() {
    let (system, policy, config) = chaos_fleet();
    let fresh = scratch("golden-fresh.jsonl");
    serve(&system, &policy, &config.clone().checkpoint(&fresh)).unwrap();
    let text = std::fs::read_to_string(&fresh).unwrap();
    assert_eq!(
        text.lines().count(),
        22,
        "header, 5 retries, 16 settlements"
    );
    assert_eq!(
        format!("{:016x}", fnv1a(text.as_bytes())),
        "cce14c93dd3533f6",
        "fresh journal"
    );
    let mut sorted: Vec<&str> = text.lines().collect();
    sorted.sort_unstable();
    assert_eq!(
        format!("{:016x}", fnv1a(sorted.join("\n").as_bytes())),
        "215ce9c91e8b0a9c",
        "fresh journal's lines, in sorted order"
    );

    let lines: Vec<&str> = text.lines().collect();
    let in_flight = |keep: usize| {
        lines[1..=keep]
            .iter()
            .filter(|line| line.contains("\"kind\":\"epoch\""))
            .filter(|line| {
                let record = Json::parse(line).unwrap();
                !lines[1..=keep].iter().any(|other| {
                    let other = Json::parse(other).unwrap();
                    kind(&other) != "epoch" && field(&other, "system") == field(&record, "system")
                })
            })
            .count()
    };
    // The longest prefix that still leaves a retried system in flight
    // and has settled at least two systems.
    let keep = (1..lines.len())
        .rev()
        .find(|&keep| in_flight(keep) > 0 && keep >= 7)
        .unwrap();
    // The same journal without the settlement of system 5, which was
    // retried twice: the rewrite carries its last epoch forward.
    let without_5: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|line| !(line.contains("\"kind\":\"done\"") && line.ends_with("\"system\":5}")))
        .collect();
    assert_eq!(without_5.len(), lines.len() - 1);
    let cut = scratch("golden-cut.jsonl");
    let resumed = scratch("golden-resumed.jsonl");
    for (kept, digest) in [
        (&lines[..=keep], "f9ad179f3f6f31d6"),
        (&without_5[..], "8bd331b42031185b"),
    ] {
        std::fs::write(&cut, kept.join("\n") + "\n").unwrap();
        serve(
            &system,
            &policy,
            &config.clone().resume(&cut).checkpoint(&resumed),
        )
        .unwrap();
        let text = std::fs::read_to_string(&resumed).unwrap();
        assert!(text.contains("\"kind\":\"settled_run\""), "{text}");
        assert_eq!(
            format!("{:016x}", fnv1a(text.as_bytes())),
            digest,
            "resumed journal"
        );
    }
    for path in [fresh, cut, resumed] {
        std::fs::remove_file(path).ok();
    }
}
