//! Incremental checkpoint journals for resumable runs.
//!
//! A journal is a JSONL file: one header line identifying the plan
//! (name, root seed, points, replications, schema version), then one
//! compact JSON line per *completed* task, appended and flushed as tasks
//! finish. Failed tasks are never journaled — on resume they simply run
//! again.
//!
//! [`load_completed`] restores the completed set for
//! [`crate::runner::run_plan_resilient`]. It accepts either a journal or
//! a full schema-v2 artifact (so a finished run's output doubles as a
//! resume source), validates that the source was written for the *same*
//! plan — name, root seed, grid and per-task seeds all have to line up —
//! and tolerates exactly one torn trailing line, the signature of a run
//! killed mid-append. Anything else malformed is a hard
//! [`HarnessError::Checkpoint`]: silently dropping interior entries
//! would break the bit-identical resume guarantee.
//!
//! # Compaction
//!
//! When a resumed run rewrites its journal, the carried-forward tasks are
//! **compacted**: each maximal run of contiguous task indices becomes one
//! *range record* (`{"run_start": s, "entries": [...]}`) written and
//! flushed once via [`Journal::append_run`], instead of one line and one
//! `fsync`-able flush per task. A long resume chain therefore costs
//! `O(gaps)` writes, not `O(completed tasks)`, and the per-entry `task`
//! index is implied by position, so the rewritten journal is also
//! smaller. Live tasks finishing mid-run still append individually —
//! compaction only ever applies to records already validated by a resume.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;

use crate::artifact::SCHEMA_VERSION;
use crate::json::Json;
use crate::plan::Plan;
use crate::runner::TaskRecord;
use crate::seed::derive_attempt_seed;
use crate::HarnessError;

/// Value of the `journal` field on a journal's header line.
pub const JOURNAL_TAG: &str = "dpm-harness-checkpoint";

/// An open checkpoint journal being written by a run.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating) the journal at `path` and writes the plan
    /// header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(path: impl AsRef<Path>, plan: &Plan) -> Result<Journal, HarnessError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = File::create(path)?;
        let mut header = Json::object();
        header.set("journal", JOURNAL_TAG);
        header.set("schema_version", SCHEMA_VERSION);
        header.set("experiment", plan.name());
        header.set("plan", plan.to_json());
        header.write_line(&mut file)?;
        file.flush()?;
        Ok(Journal { file })
    }

    /// Appends one completed task and flushes, so the entry survives a
    /// kill immediately after.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, index: usize, record: &TaskRecord) -> Result<(), HarnessError> {
        entry_json(index, record).write_line(&mut self.file)?;
        self.file.flush()?;
        Ok(())
    }

    /// Appends one *range record* covering the contiguous task indices
    /// `start, start + 1, …` — one journal line, one flush, however many
    /// tasks the run spans. Used to compact carried-forward tasks when a
    /// resumed run rewrites its journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append_run(
        &mut self,
        start: usize,
        records: &[&TaskRecord],
    ) -> Result<(), HarnessError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut node = Json::object();
        node.set("run_start", start);
        node.set(
            "entries",
            Json::Array(records.iter().map(|r| entry_body(r)).collect()),
        );
        node.write_line(&mut self.file)?;
        self.file.flush()?;
        Ok(())
    }
}

fn entry_json(index: usize, record: &TaskRecord) -> Json {
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
    let text = std::fs::read_to_string(path)?;
    // A whole-file parse succeeds only for an artifact or a header-only
    // journal; a journal with entries has trailing lines and falls
    // through to line-wise parsing.
    if let Ok(doc) = Json::parse(&text) {
        if doc.get("journal").and_then(Json::as_str) == Some(JOURNAL_TAG) {
            validate_header(&doc, plan)?;
            return Ok(BTreeMap::new());
        }
        if doc.get("tasks").is_some() {
            return from_artifact(&doc, plan);
        }
        return Err(reject(
            "file is neither a checkpoint journal nor a run artifact",
        ));
    }
    from_journal(&text, plan)
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

fn from_journal(text: &str, plan: &Plan) -> Result<BTreeMap<usize, TaskRecord>, HarnessError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty());
    let Some((_, header_line)) = lines.next() else {
        return Err(reject("journal is empty"));
    };
    let header =
        Json::parse(header_line).map_err(|e| reject(format!("malformed journal header: {e}")))?;
    if header.get("journal").and_then(Json::as_str) != Some(JOURNAL_TAG) {
        return Err(reject("first line is not a journal header"));
    }
    validate_header(&header, plan)?;

    let entries: Vec<(usize, &str)> = lines.collect();
    let mut completed = BTreeMap::new();
    for (position, &(line_number, line)) in entries.iter().enumerate() {
        let node = match Json::parse(line) {
            Ok(node) => node,
            // A torn final line is the normal signature of a run killed
            // mid-append; that task simply reruns on resume.
            Err(_) if position + 1 == entries.len() => break,
            Err(e) => return Err(reject(format!("line {}: {e}", line_number + 1))),
        };
        if let Some(start) = get_usize(&node, "run_start") {
            // A compacted range record: entry k covers task start + k.
            let Some(Json::Array(runs)) = node.get("entries") else {
                return Err(reject(format!(
                    "line {}: range record without an `entries` array",
                    line_number + 1
                )));
            };
            for (offset, entry) in runs.iter().enumerate() {
                let index = start + offset;
                let record = record_from_node(entry, plan, index).map_err(|why| {
                    reject(format!("line {}: entry {offset}: {why}", line_number + 1))
                })?;
                completed.insert(index, record);
            }
            continue;
        }
        let index = get_usize(&node, "task")
            .ok_or_else(|| reject(format!("line {}: missing task index", line_number + 1)))?;
        let record = record_from_node(&node, plan, index)
            .map_err(|why| reject(format!("line {}: {why}", line_number + 1)))?;
        completed.insert(index, record);
    }
    Ok(completed)
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
    if get_usize(node, "point") != Some(point_index)
        || get_u64(node, "replication") != Some(replication)
    {
        return Err(format!(
            "grid coordinates disagree with plan (expected point {point_index}, replication {replication})"
        ));
    }
    let seed = get_u64(node, "seed").ok_or("missing seed")?;
    let attempts = get_u64(node, "attempts")
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

fn get_u64(node: &Json, key: &str) -> Option<u64> {
    match node.get(key)? {
        Json::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn get_usize(node: &Json, key: &str) -> Option<usize> {
    get_u64(node, key).and_then(|v| usize::try_from(v).ok())
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
        Journal::create(&path, &p).unwrap();
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

    #[test]
    fn torn_trailing_range_record_is_dropped_interior_is_fatal() {
        let p = plan();
        let path = temp_path("torn-range");
        let mut journal = Journal::create(&path, &p).unwrap();
        let report = run_plan_resilient(&p, &RunConfig::new(1), task).unwrap();
        let records: Vec<&TaskRecord> = report
            .outcomes
            .iter()
            .map(|o| o.record().unwrap())
            .collect();
        journal.append_run(0, &records[0..2]).unwrap();
        journal.append_run(2, &records[2..4]).unwrap();
        drop(journal);

        let full = std::fs::read_to_string(&path).unwrap();
        let torn: String =
            full.trim_end().rsplit_once('\n').unwrap().0.to_owned() + "\n{\"run_start\":2,\"ent";
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
        let mut journal = Journal::create(&path, &p).unwrap();
        let report = run_plan_resilient(&p, &RunConfig::new(1), task).unwrap();
        let records: Vec<&TaskRecord> = report
            .outcomes
            .iter()
            .map(|o| o.record().unwrap())
            .collect();
        // Write the run shifted by one: every entry's grid coordinates
        // and seed disagree with the index implied by its position.
        journal.append_run(1, &records[0..3]).unwrap();
        drop(journal);
        let err = load_completed(&path, &p).unwrap_err();
        assert!(matches!(err, HarnessError::Checkpoint { .. }), "{err}");
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
