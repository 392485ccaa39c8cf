//! Supervision-layer tests: per-error-class retry budgets, panic
//! isolation, quarantine, hot policy swaps, and the kill-at-any-point +
//! resume bit-identity guarantee of the fleet checkpoint journal.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
use dpm_harness::{artifact, seed::derive_serve_attempt_seed};
use dpm_serve::{
    serve, CompiledController, CompiledPolicy, ErrorClass, RetryPolicy, ServeConfig,
    ServeFaultPlan, SwapPlan, SystemStatus,
};
use dpm_sim::{workload::PoissonWorkload, SimConfig, SimReport, Simulator};
use proptest::prelude::*;

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
        .retry(RetryPolicy::new().panic_attempts(3));
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
            .retry(RetryPolicy::new().engine_attempts(2)),
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
            .faults(ServeFaultPlan::new().setup_failure(0)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill-at-any-point: truncating the journal after ANY prefix of its
    /// records (optionally with a torn trailing line, as a real SIGKILL
    /// leaves behind) and resuming — at any shard count — reproduces the
    /// uninterrupted run field-for-field.
    #[test]
    fn kill_at_random_epoch_resumes_bit_identically(
        cut in 0usize..10_000,
        torn_flag in 0usize..2,
        shard_pick in 0usize..3,
    ) {
        let torn = torn_flag == 1;
        let shards = [1usize, 2, 4][shard_pick];
        let system = system();
        let policy = greedy(&system);
        let full_journal = scratch("kill-full.jsonl");
        let base = ServeConfig::new(29)
            .systems(10)
            .requests_per_system(800)
            .checkpoint_every(64)
            // Mid-run supervision activity, so the journal carries retry
            // state (not just progress) across the kill.
            .faults(ServeFaultPlan::new().panic_at(1, 200, 1).error_at(4, 150, 1));
        let reference = serve(
            &system,
            &policy,
            &base.clone().shards(2).checkpoint(&full_journal),
        ).unwrap();

        // Simulate the kill: keep the header plus a random prefix of the
        // records, optionally followed by a torn half-record.
        let text = std::fs::read_to_string(&full_journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert!(lines.len() > 1, "journal should hold records");
        let records = &lines[1..];
        let keep = cut % (records.len() + 1);
        let mut truncated = lines[0].to_owned();
        for line in &records[..keep] {
            truncated.push('\n');
            truncated.push_str(line);
        }
        if torn {
            if let Some(next) = records.get(keep) {
                truncated.push('\n');
                truncated.push_str(&next[..next.len() / 2]);
            }
        }
        let cut_journal = scratch("kill-cut.jsonl");
        std::fs::write(&cut_journal, &truncated).unwrap();

        let resumed = serve(
            &system,
            &policy,
            &base.clone().shards(shards).resume(&cut_journal),
        ).unwrap();
        prop_assert_eq!(resumed.records(), reference.records());
        prop_assert_eq!(resumed.fingerprint(), reference.fingerprint());
        prop_assert_eq!(resumed.merged(), reference.merged());
        prop_assert_eq!(
            artifact::diff(&resumed.to_json(), &reference.to_json(), 0.0),
            Vec::<String>::new()
        );
        std::fs::remove_file(&full_journal).ok();
        std::fs::remove_file(&cut_journal).ok();
    }
}
