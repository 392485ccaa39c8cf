//! The plan runner's checkpoint codec: what its journal records mean.
//!
//! The journal itself — header line, line-atomic appends, the tolerated
//! torn last line — is [`crate::journal`]. Here a journal's header
//! identifies the plan (name, root seed, points, replications, schema
//! version), and each record is one *completed* task, appended as the
//! task finishes. Failed tasks are never journaled — on resume they
//! simply run again.
//!
//! [`load_completed`] restores the completed set for
//! [`crate::runner::run_plan_resilient`]. It accepts either a journal or
//! a full schema-v2 artifact (so a finished run's output doubles as a
//! resume source), and validates that the source was written for the
//! *same* plan — name, root seed, grid and per-task seeds all have to
//! line up. A record that fails validation is a hard
//! [`HarnessError::Checkpoint`] wherever it sits: silently dropping
//! entries would break the bit-identical resume guarantee.
//!
//! # Compaction
//!
//! When a resumed run rewrites its journal, the carried-forward tasks are
//! **compacted**: each maximal run of contiguous task indices becomes one
//! *range record* (`{"run_start": s, "entries": [...]}`), one line and one
//! flush instead of one per task. The per-entry `task` index is implied
//! by position, so the rewritten journal is also smaller. Live tasks
//! finishing mid-run still append individually — compaction only ever
//! applies to records already validated by a resume.

use std::collections::BTreeMap;
use std::path::Path;

use crate::artifact::SCHEMA_VERSION;
use crate::journal::{self, Journal};
use crate::json::Json;
use crate::plan::Plan;
use crate::runner::TaskRecord;
use crate::seed::derive_attempt_seed;
use crate::HarnessError;

/// Value of the `journal` field on a journal's header line.
pub const JOURNAL_TAG: &str = "dpm-harness-checkpoint";

/// Creates (truncating) the checkpoint journal for `plan` at `path` and
/// carries `completed` forward into it as range records.
pub(crate) fn create(
    path: &Path,
    plan: &Plan,
    completed: &BTreeMap<usize, TaskRecord>,
) -> Result<Journal, HarnessError> {
    let mut header = Json::object();
    header.set("journal", JOURNAL_TAG);
    header.set("schema_version", SCHEMA_VERSION);
    header.set("experiment", plan.name());
    header.set("plan", plan.to_json());
    let journal = Journal::create(path, &header)?;
    for (start, run) in journal::contiguous_runs(completed.iter().map(|(&i, r)| (i, r))) {
        let mut node = Json::object();
        node.set("run_start", start);
        node.set(
            "entries",
            Json::Array(run.into_iter().map(entry_body).collect()),
        );
        journal.append(&node)?;
    }
    Ok(journal)
}

/// The journal record of task `index`, completed by this run.
pub(crate) fn entry(index: usize, record: &TaskRecord) -> Json {
    let mut node = entry_body(record);
    node.set("task", index);
    node
}

/// The index-free body of a journal entry; range records imply each
/// entry's task index from its position.
fn entry_body(record: &TaskRecord) -> Json {
    let mut node = Json::object();
    node.set("point", record.point_index);
    node.set("replication", record.replication);
    node.set("seed", record.seed);
    node.set("attempts", u64::from(record.attempts));
    node.set("result", record.result.clone());
    node.set("telemetry", record.telemetry.clone());
    node.set("wall_secs", Json::num(record.wall_secs));
    node
}

/// Restores the completed-task set from `path` — a checkpoint journal or
/// a full schema-v2 artifact — keyed by flat task index.
///
/// # Errors
///
/// Returns [`HarnessError::Checkpoint`] if the source was written for a
/// different plan or contains a malformed interior entry, and propagates
/// filesystem failures.
pub fn load_completed(
    path: impl AsRef<Path>,
    plan: &Plan,
) -> Result<BTreeMap<usize, TaskRecord>, HarnessError> {
    let journal::Contents { header, records } = journal::read(path)?;
    if header.get("journal").and_then(Json::as_str) != Some(JOURNAL_TAG) {
        // An artifact is one pretty-printed document: a header alone.
        if header.get("tasks").is_some() && records.is_empty() {
            return from_artifact(&header, plan);
        }
        return Err(reject(
            "file is neither a checkpoint journal nor a run artifact",
        ));
    }
    validate_header(&header, plan)?;
    let mut completed = BTreeMap::new();
    for (line, node) in &records {
        if let Some(start) = get_index(node, "run_start") {
            // A compacted range record: entry k covers task start + k.
            let Some(Json::Array(runs)) = node.get("entries") else {
                return Err(reject(format!(
                    "line {line}: range record without an `entries` array"
                )));
            };
            for (offset, entry) in runs.iter().enumerate() {
                let index = start + offset;
                let record = record_from_node(entry, plan, index)
                    .map_err(|why| reject(format!("line {line}: entry {offset}: {why}")))?;
                completed.insert(index, record);
            }
            continue;
        }
        let index = get_index(node, "task")
            .ok_or_else(|| reject(format!("line {line}: missing task index")))?;
        let record = record_from_node(node, plan, index)
            .map_err(|why| reject(format!("line {line}: {why}")))?;
        completed.insert(index, record);
    }
    Ok(completed)
}

fn reject(reason: impl Into<String>) -> HarnessError {
    HarnessError::Checkpoint {
        reason: reason.into(),
    }
}

fn validate_header(header: &Json, plan: &Plan) -> Result<(), HarnessError> {
    let version = header.get("schema_version");
    if version != Some(&Json::Int(i128::from(SCHEMA_VERSION))) {
        return Err(reject(format!(
            "schema_version {version:?} is not resumable (need {SCHEMA_VERSION})"
        )));
    }
    let experiment = header.get("experiment").and_then(Json::as_str);
    if experiment != Some(plan.name()) {
        return Err(reject(format!(
            "written for experiment {experiment:?}, resuming `{}`",
            plan.name()
        )));
    }
    if header.get("plan") != Some(&plan.to_json()) {
        return Err(reject(
            "plan differs (root seed, points or replications changed)",
        ));
    }
    Ok(())
}

fn from_artifact(doc: &Json, plan: &Plan) -> Result<BTreeMap<usize, TaskRecord>, HarnessError> {
    validate_header(doc, plan)?;
    let Some(Json::Array(tasks)) = doc.get("tasks") else {
        return Err(reject("artifact `tasks` is not an array"));
    };
    if tasks.len() != plan.n_tasks() {
        return Err(reject(format!(
            "artifact has {} tasks, plan has {}",
            tasks.len(),
            plan.n_tasks()
        )));
    }
    let mut completed = BTreeMap::new();
    for (index, node) in tasks.iter().enumerate() {
        if node.get("status").and_then(Json::as_str) != Some("ok") {
            continue; // failed tasks rerun on resume
        }
        let record = record_from_node(node, plan, index)
            .map_err(|why| reject(format!("task {index}: {why}")))?;
        completed.insert(index, record);
    }
    Ok(completed)
}

/// Rebuilds a [`TaskRecord`] from a journal entry or artifact task node,
/// cross-checking every deterministic field against the plan.
fn record_from_node(node: &Json, plan: &Plan, index: usize) -> Result<TaskRecord, String> {
    if index >= plan.n_tasks() {
        return Err(format!(
            "task index {index} out of range for a {}-task plan",
            plan.n_tasks()
        ));
    }
    let (point_index, replication) = plan.task_coordinates(index);
    if get_index(node, "point") != Some(point_index)
        || node.get("replication").and_then(Json::as_u64) != Some(replication)
    {
        return Err(format!(
            "grid coordinates disagree with plan (expected point {point_index}, replication {replication})"
        ));
    }
    let seed = node
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("missing seed")?;
    let attempts = node
        .get("attempts")
        .and_then(Json::as_u64)
        .and_then(|a| u32::try_from(a).ok())
        .filter(|&a| a >= 1)
        .ok_or("missing or invalid attempt count")?;
    let expected = derive_attempt_seed(
        plan.root_seed(),
        point_index as u64,
        replication,
        attempts - 1,
    );
    if seed != expected {
        return Err(format!(
            "seed {seed} does not match attempt {} of this plan (expected {expected})",
            attempts - 1
        ));
    }
    let result = node.get("result").ok_or("missing result")?.clone();
    let telemetry = node.get("telemetry").ok_or("missing telemetry")?.clone();
    let wall_secs = node.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0);
    Ok(TaskRecord {
        point_index,
        replication,
        seed,
        result,
        telemetry,
        wall_secs,
        attempts,
    })
}

/// A task or point index field.
fn get_index(node: &Json, key: &str) -> Option<usize> {
    usize::try_from(node.get(key)?.as_u64()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanPoint;
    use crate::runner::{run_plan_resilient, RunConfig, TaskCtx};

    fn plan() -> Plan {
        Plan::new("ckpt", 23)
            .replications(2)
            .point(PlanPoint::new("a").with("x", 1.0))
            .point(PlanPoint::new("b").with("x", 2.0))
    }

    fn task(ctx: &TaskCtx<'_>) -> Result<Json, String> {
        ctx.telemetry.incr("calls", 1);
        let mut out = Json::object();
        #[allow(clippy::cast_precision_loss)]
        out.set("v", (ctx.seed % 97) as f64 / 7.0);
        Ok(out)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dpm-harness-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn journal_round_trips_every_record_bit_exactly() {
        let p = plan();
        let path = temp_path("round-trip");
        let report = run_plan_resilient(&p, &RunConfig::new(2).checkpoint(&path), task).unwrap();
        let restored = load_completed(&path, &p).unwrap();
        assert_eq!(restored.len(), p.n_tasks());
        for (index, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(&restored[&index], outcome.record().unwrap());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_interior_corruption_is_fatal() {
        let p = plan();
        let path = temp_path("torn");
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&path), task).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Simulate a kill mid-append: the last line is half-written.
        let torn: String =
            text.trim_end().rsplit_once('\n').unwrap().0.to_owned() + "\n{\"task\":3,\"poi";
        std::fs::write(&path, &torn).unwrap();
        let restored = load_completed(&path, &p).unwrap();
        assert_eq!(restored.len(), p.n_tasks() - 1); // the torn entry is lost
        assert!(!restored.contains_key(&(p.n_tasks() - 1)));

        // Corrupt an interior line: hard error, not silent data loss.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[2] = "{broken";
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = load_completed(&path, &p).unwrap_err();
        assert!(matches!(err, HarnessError::Checkpoint { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_for_a_different_plan_is_rejected() {
        let p = plan();
        let path = temp_path("mismatch");
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&path), task).unwrap();

        let reseeded = Plan::new("ckpt", 24)
            .replications(2)
            .point(PlanPoint::new("a").with("x", 1.0))
            .point(PlanPoint::new("b").with("x", 2.0));
        let err = load_completed(&path, &reseeded).unwrap_err();
        assert!(err.to_string().contains("plan differs"), "{err}");

        let renamed = Plan::new("other", 23)
            .replications(2)
            .point(PlanPoint::new("a"));
        let err = load_completed(&path, &renamed).unwrap_err();
        assert!(err.to_string().contains("experiment"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_journal_restores_nothing() {
        let p = plan();
        let path = temp_path("header-only");
        create(&path, &p, &BTreeMap::new()).unwrap();
        assert!(load_completed(&path, &p).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_journal_compacts_contiguous_runs_into_range_records() {
        let p = plan();
        let first = temp_path("compact-first");
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&first), task).unwrap();

        // Resume into a fresh journal: all 6 completed tasks are one
        // contiguous run, so the rewrite is header + ONE range record.
        let second = temp_path("compact-second");
        let report = run_plan_resilient(
            &p,
            &RunConfig::new(2).resume(&first).checkpoint(&second),
            task,
        )
        .unwrap();
        assert_eq!(report.resumed, p.n_tasks());
        let text = std::fs::read_to_string(&second).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.lines().nth(1).unwrap().contains("\"run_start\":0"));

        // And the compacted journal restores every record bit-exactly.
        let restored = load_completed(&second, &p).unwrap();
        assert_eq!(restored.len(), p.n_tasks());
        for (index, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(&restored[&index], outcome.record().unwrap());
        }
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }

    #[test]
    fn gapped_completed_sets_split_into_one_range_record_per_run() {
        let p = plan();
        let first = temp_path("gap-first");
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&first), task).unwrap();

        // Drop tasks 1 and 3 from the journal (keep {0, 2}) so the
        // carried-forward set has a gap.
        let text = std::fs::read_to_string(&first).unwrap();
        let kept: Vec<&str> = text
            .lines()
            .filter(|line| !line.contains("\"task\":1") && !line.contains("\"task\":3"))
            .collect();
        std::fs::write(&first, kept.join("\n") + "\n").unwrap();

        let second = temp_path("gap-second");
        let report = run_plan_resilient(
            &p,
            &RunConfig::new(2).resume(&first).checkpoint(&second),
            task,
        )
        .unwrap();
        assert_eq!(report.resumed, 2);
        assert_eq!(report.n_ok(), p.n_tasks());
        let rewritten = std::fs::read_to_string(&second).unwrap();
        // Header + range {0} + range {2} + two live appends for the
        // re-executed tasks 1 and 3.
        assert_eq!(rewritten.lines().count(), 5, "{rewritten}");
        assert!(rewritten.contains("\"run_start\":0"));
        assert!(rewritten.contains("\"run_start\":2"));
        let restored = load_completed(&second, &p).unwrap();
        assert_eq!(restored.len(), p.n_tasks());
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }

    /// The completed records of a fault-free run, keyed by task index.
    fn completed(p: &Plan) -> BTreeMap<usize, TaskRecord> {
        let report = run_plan_resilient(p, &RunConfig::new(1), task).unwrap();
        report
            .outcomes
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| (index, outcome.record().unwrap().clone()))
            .collect()
    }

    #[test]
    fn torn_trailing_range_record_is_dropped_interior_is_fatal() {
        let p = plan();
        let path = temp_path("torn-range");
        // Tasks {0, 1} and {3, 4}: two range records.
        let mut records = completed(&p);
        records.retain(|&index, _| index != 2 && index != 5);
        drop(create(&path, &p, &records).unwrap());

        let full = std::fs::read_to_string(&path).unwrap();
        assert_eq!(full.lines().count(), 3, "{full}");
        let torn: String =
            full.trim_end().rsplit_once('\n').unwrap().0.to_owned() + "\n{\"run_start\":3,\"ent";
        std::fs::write(&path, &torn).unwrap();
        let restored = load_completed(&path, &p).unwrap();
        assert_eq!(restored.len(), 2); // only the first range survives

        // A malformed interior range record is a hard error.
        let mut lines: Vec<&str> = full.lines().collect();
        lines[1] = "{\"run_start\":0,\"entries\":7}";
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = load_completed(&path, &p).unwrap_err();
        assert!(err.to_string().contains("entries"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_records_validate_seeds_per_entry() {
        let p = plan();
        let path = temp_path("range-seed");
        // Write the run shifted by one: every entry's grid coordinates
        // and seed disagree with the index implied by its position.
        let shifted: BTreeMap<usize, TaskRecord> = completed(&p)
            .into_iter()
            .take(3)
            .map(|(index, record)| (index + 1, record))
            .collect();
        drop(create(&path, &p, &shifted).unwrap());
        let err = load_completed(&path, &p).unwrap_err();
        assert!(matches!(err, HarnessError::Checkpoint { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_blank_line_is_corruption() {
        let p = plan();
        let path = temp_path("blank");
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&path), task).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (head, tail) = text.split_at(text.find('\n').unwrap() + 1);
        std::fs::write(&path, format!("{head}\n{tail}")).unwrap();
        let err = load_completed(&path, &p).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // A trailing blank line is a torn last line: nothing is lost.
        std::fs::write(&path, format!("{text}\n")).unwrap();
        assert_eq!(load_completed(&path, &p).unwrap().len(), p.n_tasks());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_seed_is_rejected() {
        let p = plan();
        let path = temp_path("tampered");
        run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&path), task).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen(&format!("\"seed\":{}", p.task_seed(0)), "\"seed\":1", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let err = load_completed(&path, &p).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
