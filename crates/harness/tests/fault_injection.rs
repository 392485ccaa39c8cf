//! Fault-injection gate: the resilient runner must lose no results to a
//! crashing task, converge under retry, resume bit-identically from a
//! partial journal at any worker count, and carry the CTMC solver
//! fallback chain through a real pathological model.
//!
//! These tests are the executable form of the failure-handling contract
//! described in DESIGN.md — CI runs a black-box twin of them through the
//! experiment binaries (`--inject-panic`, `--checkpoint`, `--resume`).

use dpm_ctmc::{stationary, CtmcError, Generator};
use dpm_harness::{
    artifact, checkpoint,
    plan::Plan,
    runner::{run_plan_resilient, FaultPlan, RunConfig, TaskCtx, TaskOutcome},
    Json, PlanPoint,
};

/// A deterministic stand-in task: the "measurement" is a pure function of
/// the derived seed, so bit-identity across runs is checkable exactly.
fn measure(ctx: &TaskCtx<'_>) -> Result<Json, String> {
    ctx.telemetry.incr("calls", 1);
    let x = ctx.point.param("x").unwrap().as_f64().unwrap();
    let mut out = Json::object();
    #[allow(clippy::cast_precision_loss)]
    out.set("value", x * (ctx.seed % 10_000) as f64 / 7.0);
    Ok(out)
}

fn plan() -> Plan {
    Plan::new("fault-gate", 777)
        .replications(4)
        .point(PlanPoint::new("a").with("x", 1.0))
        .point(PlanPoint::new("b").with("x", 2.0))
        .point(PlanPoint::new("c").with("x", 3.0))
        .point(PlanPoint::new("d").with("x", 4.0))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dpm-harness-fault-injection");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

#[test]
fn permanent_fault_loses_exactly_one_task() {
    let p = plan();
    let clean = run_plan_resilient(&p, &RunConfig::new(4), measure).unwrap();
    let config = RunConfig::new(4)
        .max_attempts(2)
        .faults(FaultPlan::new().panic_on(5, u32::MAX));
    let report = run_plan_resilient(&p, &config, measure).unwrap();

    assert_eq!(report.n_ok(), p.n_tasks() - 1);
    assert_eq!(report.n_failed(), 1);
    match &report.outcomes[5] {
        TaskOutcome::Failed(failure) => {
            assert_eq!(failure.index, 5);
            assert_eq!(failure.attempts, 2);
            assert!(
                failure.error.contains("injected panic"),
                "{}",
                failure.error
            );
        }
        other => panic!("task 5 should have failed, got {other:?}"),
    }
    // Every other task is bit-identical to the fault-free run.
    for (i, (faulty, clean)) in report.outcomes.iter().zip(&clean.outcomes).enumerate() {
        if i == 5 {
            continue;
        }
        let (faulty, clean) = (faulty.record().unwrap(), clean.record().unwrap());
        assert_eq!(
            (faulty.seed, &faulty.result),
            (clean.seed, &clean.result),
            "task {i}"
        );
    }
    // And the failure is visible in the v2 artifact.
    let doc = artifact::build_run(&p, 4, &report);
    let Some(Json::Array(tasks)) = doc.get("tasks") else {
        panic!("artifact has no tasks array")
    };
    assert_eq!(
        tasks[5].get("status").and_then(Json::as_str),
        Some("failed")
    );
    assert_eq!(tasks[5].get("attempts"), Some(&Json::Int(2)));
    assert!(tasks[5].get("error").is_some());
    let prov = doc.get("provenance").unwrap();
    assert_eq!(prov.get("tasks_failed"), Some(&Json::Int(1)));
}

#[test]
fn retry_converges_and_retried_runs_are_reproducible() {
    let p = plan();
    let config = || {
        RunConfig::new(4)
            .max_attempts(3)
            .faults(FaultPlan::new().error_on(2, 1).panic_on(9, 2))
    };
    let first = run_plan_resilient(&p, &config(), measure).unwrap();
    assert_eq!(first.n_ok(), p.n_tasks());
    assert_eq!(first.n_retried(), 2);
    assert_eq!(first.outcomes[2].attempts(), 2);
    assert_eq!(first.outcomes[9].attempts(), 3);

    // A second identical run — and one at a different worker count — is
    // bit-identical, retries included.
    for workers in [1, 4] {
        let again = run_plan_resilient(&p, &config().max_attempts(3), measure).unwrap();
        let a = artifact::build_run(&p, workers, &first);
        let b = artifact::build_run(&p, workers, &again);
        assert_eq!(artifact::diff(&a, &b, 0.0), Vec::<String>::new());
    }
}

#[test]
fn resume_from_partial_journal_is_bit_identical_at_any_worker_count() {
    let p = plan();
    let full_journal = temp_path("full");
    let full =
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&full_journal), measure).unwrap();
    let reference = artifact::build_run(&p, 1, &full);

    // Simulate a kill after 6 completed tasks: keep header + 6 entries.
    let text = std::fs::read_to_string(&full_journal).unwrap();
    let partial: String = text.lines().take(7).flat_map(|line| [line, "\n"]).collect();
    let partial_journal = temp_path("partial");
    std::fs::write(&partial_journal, partial).unwrap();

    for workers in [1, 2, 8] {
        let continued_journal = temp_path(&format!("continued-{workers}"));
        let report = run_plan_resilient(
            &p,
            &RunConfig::new(workers)
                .resume(&partial_journal)
                .checkpoint(&continued_journal),
            measure,
        )
        .unwrap();
        assert_eq!(report.resumed, 6);
        assert_eq!(report.n_ok(), p.n_tasks());
        let resumed_doc = artifact::build_run(&p, workers, &report);
        assert_eq!(
            artifact::diff(&reference, &resumed_doc, 0.0),
            Vec::<String>::new()
        );
        // The continued journal is itself a complete resume source.
        let restored = checkpoint::load_completed(&continued_journal, &p).unwrap();
        assert_eq!(restored.len(), p.n_tasks());
        std::fs::remove_file(&continued_journal).ok();
    }
    std::fs::remove_file(&full_journal).ok();
    std::fs::remove_file(&partial_journal).ok();
}

#[test]
fn resume_from_v2_artifact_reruns_only_failures() {
    let p = plan();
    let config = RunConfig::new(2)
        .max_attempts(1)
        .faults(FaultPlan::new().error_on(3, u32::MAX));
    let broken = run_plan_resilient(&p, &config, measure).unwrap();
    assert_eq!(broken.n_failed(), 1);
    let artifact_path = temp_path("artifact");
    artifact::write(&artifact_path, &artifact::build_run(&p, 2, &broken)).unwrap();

    let report =
        run_plan_resilient(&p, &RunConfig::new(2).resume(&artifact_path), measure).unwrap();
    assert_eq!(report.resumed, p.n_tasks() - 1);
    assert_eq!(report.n_ok(), p.n_tasks());
    // The healed run equals a fault-free one exactly.
    let clean = run_plan_resilient(&p, &RunConfig::new(2), measure).unwrap();
    let a = artifact::build_run(&p, 2, &report);
    let b = artifact::build_run(&p, 2, &clean);
    assert_eq!(artifact::diff(&a, &b, 0.0), Vec::<String>::new());
    std::fs::remove_file(&artifact_path).ok();
}

/// An irreducible ring with chords on which one BiCGSTAB step cannot
/// converge (ILU(0) drops the fill-in), so a task built on the
/// fallback-armed `Solver` with a one-step budget only succeeds if the
/// escalation chain engages — proving the solver fallback is reachable
/// from inside a harness task. A chain with two closed classes has no
/// unique stationary distribution, and the task reports that as an error.
#[test]
fn solver_fallback_chain_carries_a_pathological_model_through_the_harness() {
    let p = Plan::new("fallback-gate", 13)
        .replications(2)
        .point(PlanPoint::new("starved-krylov"))
        .point(PlanPoint::new("two-closed-classes"));
    let report = run_plan_resilient(&p, &RunConfig::new(2).max_attempts(1), |ctx| {
        let mut b = Generator::builder(6);
        if ctx.point.label() == "starved-krylov" {
            for (from, to, rate) in [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 4, 1.0),
                (4, 5, 2.0),
                (5, 0, 1.0),
                (0, 3, 0.5),
                (4, 1, 0.7),
                (2, 5, 0.3),
            ] {
                b.add_rate(from, to, rate);
            }
        } else {
            for (from, to, rate) in [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 3.0), (3, 2, 1.0)] {
                b.add_rate(from, to, rate);
            }
        }
        let g = b.build().map_err(|e| e.to_string())?;
        let (pi, stats) = stationary::Solver::new(stationary::FALLBACK_CHAIN[0])
            .max_iters(1)
            .with_default_fallback()
            .solve(&g)
            .map_err(|e| e.to_string())?;
        ctx.telemetry
            .incr("solver.escalations", stats.escalation().len() as u64);
        let mut out = Json::object();
        out.set("sum", Json::num(pi.iter().sum()));
        out.set("escalated", stats.escalated());
        out.set("method", format!("{:?}", stats.method()).as_str());
        Ok(out)
    })
    .unwrap();
    assert_eq!(report.n_ok(), 2);
    assert_eq!(report.n_failed(), 2);
    for outcome in &report.outcomes {
        match outcome {
            TaskOutcome::Ok(record) => {
                assert_eq!(record.result.get("escalated"), Some(&Json::Bool(true)));
                assert_eq!(record.result.get("method"), Some(&Json::from("Gth")));
                assert!((record.result.get("sum").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-10);
                let escalations = record
                    .telemetry
                    .get("counters")
                    .unwrap()
                    .get("solver.escalations");
                assert_eq!(escalations.and_then(Json::as_f64), Some(1.0));
            }
            TaskOutcome::Failed(failure) => {
                assert_eq!(
                    p.points()[failure.point_index].label(),
                    "two-closed-classes"
                );
                assert_eq!(
                    failure.error,
                    CtmcError::Reducible { classes: 4 }.to_string()
                );
            }
        }
    }
}
