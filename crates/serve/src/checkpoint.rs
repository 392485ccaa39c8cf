//! The serve fleet's checkpoint codec: what its journal records mean.
//!
//! The journal itself — header line, line-atomic appends, the tolerated
//! torn last line — is `dpm_harness::journal`, shared with the plan
//! runner. Here the header identifies the fleet (format tag, root seed,
//! fleet size, per-system workload), and each record is one supervision
//! decision, appended as it happens:
//!
//! * `epoch` — a system starts attempt `attempts` under seed stream
//!   `seed_attempt`: written at every retry decision, and for every
//!   in-flight system when a resumed run opens its journal. Because the
//!   engine is deterministic in its seed, those two counters are a
//!   complete checkpoint: restore is replay from event zero, which
//!   re-derives every later state bit-exactly. The record's `events`
//!   field is written as 0; the loader accepts any value there and
//!   ignores it, so journals that also carry periodic progress epochs
//!   (`events > 0`, as older writers appended) still resume.
//! * `done` — the system finished; the full bit-exact report rides on
//!   the record (floats in Rust's shortest round-trip form, which the
//!   canonical JSON layer parses back to identical bits).
//! * `quarantined` — the system exhausted its retry budget.
//! * `settled_run` — compaction: when a resumed run rewrites its
//!   journal, each maximal run of contiguous already-settled systems
//!   becomes one range record (the fleet twin of the plan runner's
//!   `run_start` records), so a long resume chain costs `O(gaps)` writes.
//!
//! A fault-free fleet of `N` systems thus journals `N + 1` lines, however
//! long it runs.
//!
//! Any well-formed record that fails validation (a seed that disagrees
//! with re-derivation, a system outside the fleet, an unknown kind) is a
//! hard error wherever it sits, the last line included: silently
//! dropping entries would break the bit-identical resume guarantee.

use std::path::Path;

use dpm_harness::journal::{self, Journal};
use dpm_harness::{seed::derive_serve_attempt_seed, HarnessError, Json};
use dpm_sim::{ReportParts, SimReport};

use crate::{ErrorClass, ServeError, SystemRecord, SystemStatus};

/// Value of the `format` field on the journal's header line.
pub(crate) const JOURNAL_FORMAT: &str = "dpm-serve-checkpoint/v1";

fn checkpoint_err(reason: impl Into<String>) -> ServeError {
    ServeError::Checkpoint {
        reason: reason.into(),
    }
}

/// A journal failure as the fleet reports it.
pub(crate) fn journal_err(e: HarnessError) -> ServeError {
    match e {
        HarnessError::Checkpoint { reason } => checkpoint_err(reason),
        other => checkpoint_err(other.to_string()),
    }
}

/// Creates (truncating) the fleet journal at `path` and carries the
/// resumed state forward into it, in fleet order: each maximal run of
/// contiguous settled systems as one range record, and one epoch per
/// in-flight system, so a second kill before that system retries or
/// settles still resumes it correctly.
pub(crate) fn create(
    path: &Path,
    root_seed: u64,
    requests_per_system: u64,
    restored: &[Restored],
) -> Result<Journal, ServeError> {
    let mut header = Json::object();
    header.set("format", JOURNAL_FORMAT);
    header.set("root_seed", root_seed);
    header.set("systems", restored.len());
    header.set("requests_per_system", requests_per_system);
    let journal = Journal::create(path, &header).map_err(journal_err)?;
    let settled = restored.iter().enumerate().filter_map(|(i, r)| match r {
        Restored::Settled(record) => Some((i, record)),
        _ => None,
    });
    let mut lines: Vec<(usize, Json)> = journal::contiguous_runs(settled)
        .into_iter()
        .map(|(start, run)| (start, settled_run(start, &run)))
        .collect();
    lines.extend(restored.iter().enumerate().filter_map(|(i, r)| match r {
        Restored::InFlight {
            attempts,
            seed_attempt,
        } => {
            let seed = derive_serve_attempt_seed(root_seed, i as u64, *seed_attempt);
            Some((i, epoch(i, *attempts, *seed_attempt, seed)))
        }
        _ => None,
    }));
    lines.sort_by_key(|&(system, _)| system);
    for (_, line) in &lines {
        journal.append(line).map_err(journal_err)?;
    }
    Ok(journal)
}

/// The epoch record of `system` starting attempt `attempts` under seed
/// stream `seed_attempt` (whose seed is `seed`), at event 0.
pub(crate) fn epoch(system: usize, attempts: u32, seed_attempt: u32, seed: u64) -> Json {
    let mut doc = Json::object();
    doc.set("kind", "epoch");
    doc.set("system", system);
    doc.set("events", 0_u64);
    doc.set("attempts", u64::from(attempts));
    doc.set("seed_attempt", u64::from(seed_attempt));
    doc.set("seed", seed);
    doc
}

/// The range record of the contiguous settled systems `start, start + 1,
/// …`; each entry's system index is implied by its position.
fn settled_run(start: usize, records: &[&SystemRecord]) -> Json {
    let mut doc = Json::object();
    doc.set("kind", "settled_run");
    doc.set("start", start);
    doc.set(
        "entries",
        Json::Array(records.iter().map(|r| settled_body(r)).collect()),
    );
    doc
}

/// The record of one settled (done or quarantined) system.
pub(crate) fn settled(record: &SystemRecord) -> Json {
    let mut doc = settled_body(record);
    doc.set("system", record.system);
    doc
}

/// A settled record without its system index, which range records imply.
fn settled_body(record: &SystemRecord) -> Json {
    let mut doc = Json::object();
    doc.set("attempts", u64::from(record.attempts));
    doc.set("seed_attempt", u64::from(record.seed_attempt));
    match &record.status {
        SystemStatus::Served(report) => {
            doc.set("kind", "done");
            doc.set("report", report_to_json(report));
        }
        SystemStatus::Quarantined { class, error } => {
            doc.set("kind", "quarantined");
            doc.set("class", class.as_str());
            doc.set("error", error.clone());
        }
    }
    doc
}

fn report_to_json(report: &SimReport) -> Json {
    let parts = report.parts();
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
    let mut doc = Json::object();
    doc.set("policy", parts.policy);
    doc.set("seed", parts.seed);
    doc.set("duration", Json::num(parts.duration));
    doc.set("occupancy_energy", Json::num(parts.occupancy_energy));
    doc.set("switch_energy", Json::num(parts.switch_energy));
    doc.set("queue_integral", Json::num(parts.queue_integral));
    doc.set("arrivals", parts.arrivals);
    doc.set("completed", parts.completed);
    doc.set("lost", parts.lost);
    doc.set("switches", parts.switches);
    doc.set("sojourn_sum", Json::num(parts.sojourn_sum));
    doc.set("consultations", parts.consultations);
    doc.set("events", parts.events);
    doc.set("power_ci", opt(parts.power_ci));
    doc.set("sojourn_ci", opt(parts.sojourn_ci));
    doc
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let field = doc.get(key);
    field
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{key}: expected a non-negative integer, got {field:?}"))
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, String> {
    let v = get_u64(doc, key)?;
    u32::try_from(v).map_err(|_| format!("{key}: {v} does not fit u32"))
}

fn get_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{key}: expected a number"))
}

fn get_opt_f64(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        Some(Json::Null) => Ok(None),
        _ => get_f64(doc, key).map(Some),
    }
}

fn get_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{key}: expected a string"))
}

fn report_from_json(doc: &Json) -> Result<SimReport, String> {
    Ok(SimReport::from_parts(ReportParts {
        policy: get_str(doc, "policy")?,
        seed: get_u64(doc, "seed")?,
        duration: get_f64(doc, "duration")?,
        occupancy_energy: get_f64(doc, "occupancy_energy")?,
        switch_energy: get_f64(doc, "switch_energy")?,
        queue_integral: get_f64(doc, "queue_integral")?,
        arrivals: get_u64(doc, "arrivals")?,
        completed: get_u64(doc, "completed")?,
        lost: get_u64(doc, "lost")?,
        switches: get_u64(doc, "switches")?,
        sojourn_sum: get_f64(doc, "sojourn_sum")?,
        consultations: get_u64(doc, "consultations")?,
        events: get_u64(doc, "events")?,
        power_ci: get_opt_f64(doc, "power_ci")?,
        sojourn_ci: get_opt_f64(doc, "sojourn_ci")?,
    }))
}

/// What the journal knows about one system.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Restored {
    /// Never journaled: start from scratch.
    Fresh,
    /// Mid-flight at the kill: restart the attempt counters and replay
    /// from event zero.
    InFlight {
        /// Attempts started (≥ 1).
        attempts: u32,
        /// Seed-stream index of the in-flight attempt.
        seed_attempt: u32,
    },
    /// Settled (served or quarantined): carry the record forward.
    Settled(SystemRecord),
}

/// Parses one record line into `(system, restored)` updates.
fn interpret_line(
    doc: &Json,
    root_seed: u64,
    systems: usize,
) -> Result<Vec<(usize, Restored)>, String> {
    let in_fleet = |system: usize| {
        if system < systems {
            Ok(system)
        } else {
            Err(format!(
                "system {system} outside the {systems}-system fleet"
            ))
        }
    };
    let index = |key: &str| {
        usize::try_from(get_u64(doc, key)?).map_err(|_| format!("{key}: does not fit usize"))
    };
    let kind = get_str(doc, "kind")?;
    match kind.as_str() {
        "epoch" => {
            let system = in_fleet(index("system")?)?;
            let attempts = get_u32(doc, "attempts")?;
            let seed_attempt = get_u32(doc, "seed_attempt")?;
            let seed = get_u64(doc, "seed")?;
            // Progress within an attempt is never needed (replay starts
            // at event 0), but the field is part of the record's format.
            get_u64(doc, "events")?;
            validate_counters(system, attempts, seed_attempt)?;
            let expected = derive_serve_attempt_seed(root_seed, system as u64, seed_attempt);
            if seed != expected {
                return Err(format!(
                    "system {system} epoch seed {seed:#x} does not match derived seed {expected:#x}"
                ));
            }
            let restored = Restored::InFlight {
                attempts,
                seed_attempt,
            };
            Ok(vec![(system, restored)])
        }
        "done" | "quarantined" => {
            let system = in_fleet(index("system")?)?;
            let record = settled_from_json(doc, &kind, system, root_seed)?;
            Ok(vec![(system, Restored::Settled(record))])
        }
        "settled_run" => {
            let start = index("start")?;
            let Some(Json::Array(entries)) = doc.get("entries") else {
                return Err("entries: expected an array".to_owned());
            };
            let settle = |(offset, entry): (usize, &Json)| {
                let system = start
                    .checked_add(offset)
                    .ok_or_else(|| "start + offset overflows".to_owned())?;
                let system = in_fleet(system)?;
                let kind = get_str(entry, "kind")?;
                if kind != "done" && kind != "quarantined" {
                    return Err(format!("settled_run entry has kind {kind:?}"));
                }
                let record = settled_from_json(entry, &kind, system, root_seed)?;
                Ok((system, Restored::Settled(record)))
            };
            entries.iter().enumerate().map(settle).collect()
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

fn validate_counters(system: usize, attempts: u32, seed_attempt: u32) -> Result<(), String> {
    if attempts == 0 {
        return Err(format!("system {system}: attempts must be at least 1"));
    }
    if seed_attempt >= attempts {
        return Err(format!(
            "system {system}: seed_attempt {seed_attempt} not below attempts {attempts}"
        ));
    }
    Ok(())
}

fn settled_from_json(
    doc: &Json,
    kind: &str,
    system: usize,
    root_seed: u64,
) -> Result<SystemRecord, String> {
    let attempts = get_u32(doc, "attempts")?;
    let seed_attempt = get_u32(doc, "seed_attempt")?;
    validate_counters(system, attempts, seed_attempt)?;
    let status = if kind == "done" {
        let report_doc = doc
            .get("report")
            .ok_or_else(|| "report: missing".to_owned())?;
        let report = report_from_json(report_doc)?;
        let expected = derive_serve_attempt_seed(root_seed, system as u64, seed_attempt);
        if report.seed() != expected {
            return Err(format!(
                "system {system} report seed {:#x} does not match derived seed {expected:#x}",
                report.seed()
            ));
        }
        SystemStatus::Served(report)
    } else {
        let class_name = get_str(doc, "class")?;
        let class = ErrorClass::parse(&class_name)
            .ok_or_else(|| format!("class: unknown error class {class_name:?}"))?;
        SystemStatus::Quarantined {
            class,
            error: get_str(doc, "error")?,
        }
    };
    Ok(SystemRecord {
        system,
        attempts,
        seed_attempt,
        status,
    })
}

/// Loads a fleet journal and restores the per-system state for a resume.
///
/// Later records supersede earlier ones for the same system (an append
/// order the supervisor guarantees), so the last word on each system
/// wins.
pub(crate) fn load(
    path: &Path,
    root_seed: u64,
    systems: usize,
    requests_per_system: u64,
) -> Result<Vec<Restored>, ServeError> {
    let journal::Contents { header, records } = journal::read(path).map_err(journal_err)?;
    let format = header.get("format").and_then(Json::as_str).unwrap_or("");
    if format != JOURNAL_FORMAT {
        return Err(checkpoint_err(format!(
            "expected format {JOURNAL_FORMAT:?}, got {format:?}"
        )));
    }
    let check = |key: &str, want: u64| -> Result<(), ServeError> {
        let got = get_u64(&header, key).map_err(checkpoint_err)?;
        if got != want {
            return Err(checkpoint_err(format!(
                "journal was written for {key} = {got}, this run has {key} = {want}"
            )));
        }
        Ok(())
    };
    check("root_seed", root_seed)?;
    check("systems", systems as u64)?;
    check("requests_per_system", requests_per_system)?;

    let mut restored = vec![Restored::Fresh; systems];
    for (line, doc) in &records {
        let updates = interpret_line(doc, root_seed, systems)
            .map_err(|reason| checkpoint_err(format!("line {line}: {reason}")))?;
        for (system, state) in updates {
            if let Some(slot) = restored.get_mut(system) {
                *slot = state;
            }
        }
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_harness::seed::derive_serve_seed;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dpm-serve-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn sample_report(seed: u64) -> SimReport {
        SimReport::from_parts(ReportParts {
            policy: "compiled".to_owned(),
            seed,
            duration: 123.456_789_012_345_67,
            occupancy_energy: 1.0e-3 + 1.0e-17,
            switch_energy: 9.25,
            queue_integral: 88.5,
            arrivals: 400,
            completed: 398,
            lost: 2,
            switches: 41,
            sojourn_sum: 777.125,
            consultations: 1200,
            events: 1500,
            power_ci: Some(0.062_5),
            sojourn_ci: None,
        })
    }

    #[test]
    fn reports_round_trip_bit_exactly_through_record_lines() {
        let report = sample_report(derive_serve_seed(3, 0));
        let record = SystemRecord {
            system: 0,
            attempts: 2,
            seed_attempt: 0,
            status: SystemStatus::Served(report.clone()),
        };
        let doc = settled(&record);
        let reparsed = Json::parse(&doc.render_compact()).unwrap();
        let restored = settled_from_json(&reparsed, "done", 0, 3).unwrap();
        assert_eq!(restored, record);
        assert_eq!(restored.report(), Some(&report));
    }

    /// A fresh journal for a fleet of `systems`.
    fn fresh(path: &Path, root_seed: u64, systems: usize, requests: u64) -> Journal {
        create(path, root_seed, requests, &vec![Restored::Fresh; systems]).unwrap()
    }

    #[test]
    fn journal_round_trips_epochs_and_settled_records() {
        let path = scratch("round-trip.jsonl");
        let journal = fresh(&path, 7, 4, 100);
        journal
            .append(&epoch(1, 1, 0, derive_serve_seed(7, 1)))
            .unwrap();
        let done = SystemRecord {
            system: 2,
            attempts: 1,
            seed_attempt: 0,
            status: SystemStatus::Served(sample_report(derive_serve_seed(7, 2))),
        };
        journal.append(&settled(&done)).unwrap();
        let quarantined = SystemRecord {
            system: 3,
            attempts: 2,
            seed_attempt: 1,
            status: SystemStatus::Quarantined {
                class: ErrorClass::Engine,
                error: "injected".to_owned(),
            },
        };
        journal.append(&settled(&quarantined)).unwrap();
        drop(journal);

        let restored = load(&path, 7, 4, 100).unwrap();
        assert_eq!(restored[0], Restored::Fresh);
        assert_eq!(
            restored[1],
            Restored::InFlight {
                attempts: 1,
                seed_attempt: 0
            }
        );
        assert_eq!(restored[2], Restored::Settled(done));
        assert_eq!(restored[3], Restored::Settled(quarantined));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compacted_runs_expand_by_position() {
        let path = scratch("compacted.jsonl");
        let settled_at = |i: usize| {
            Restored::Settled(SystemRecord {
                system: i,
                attempts: 1,
                seed_attempt: 0,
                status: SystemStatus::Served(sample_report(derive_serve_seed(9, i as u64))),
            })
        };
        let in_flight = Restored::InFlight {
            attempts: 2,
            seed_attempt: 1,
        };
        let carried = vec![
            settled_at(0),
            settled_at(1),
            in_flight.clone(),
            Restored::Fresh,
            settled_at(4),
        ];
        drop(create(&path, 9, 50, &carried).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let kinds: Vec<String> = text
            .lines()
            .skip(1)
            .map(|line| get_str(&Json::parse(line).unwrap(), "kind").unwrap())
            .collect();
        assert_eq!(kinds, ["settled_run", "epoch", "settled_run"], "{text}");
        assert_eq!(load(&path, 9, 5, 50).unwrap(), carried);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_line_is_tolerated_but_interior_corruption_is_fatal() {
        let path = scratch("torn.jsonl");
        let journal = fresh(&path, 5, 2, 10);
        journal
            .append(&epoch(0, 1, 0, derive_serve_seed(5, 0)))
            .unwrap();
        drop(journal);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"epoch\",\"system\":1,\"eve");
        std::fs::write(&path, &text).unwrap();
        let restored = load(&path, 5, 2, 10).unwrap();
        assert!(matches!(restored[0], Restored::InFlight { .. }));
        assert_eq!(restored[1], Restored::Fresh);

        // The same junk followed by a valid line is interior corruption.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&format!(
            "\n{{\"kind\":\"epoch\",\"system\":0,\"events\":128,\"attempts\":1,\
             \"seed_attempt\":0,\"seed\":{}}}\n",
            derive_serve_seed(5, 0)
        ));
        std::fs::write(&path, &text).unwrap();
        assert!(matches!(
            load(&path, 5, 2, 10),
            Err(ServeError::Checkpoint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_blank_line_is_corruption() {
        let path = scratch("blank.jsonl");
        let journal = fresh(&path, 5, 2, 10);
        journal
            .append(&epoch(0, 1, 0, derive_serve_seed(5, 0)))
            .unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let (head, tail) = text.split_at(text.find('\n').unwrap() + 1);
        std::fs::write(&path, format!("{head}\n{tail}")).unwrap();
        let err = load(&path, 5, 2, 10).unwrap_err();
        assert!(
            matches!(&err, ServeError::Checkpoint { reason } if reason.starts_with("line 2:")),
            "{err}"
        );
        // A trailing blank line is a torn last line: nothing is lost.
        std::fs::write(&path, format!("{text}\n")).unwrap();
        let restored = load(&path, 5, 2, 10).unwrap();
        assert!(matches!(restored[0], Restored::InFlight { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_and_seed_mismatches_are_rejected() {
        let path = scratch("mismatch.jsonl");
        let journal = fresh(&path, 11, 2, 10);
        journal
            .append(&epoch(0, 1, 0, derive_serve_seed(11, 0)))
            .unwrap();
        drop(journal);
        // Wrong fleet parameters.
        for (root, systems, requests) in [(12, 2, 10), (11, 3, 10), (11, 2, 99)] {
            assert!(matches!(
                load(&path, root, systems, requests),
                Err(ServeError::Checkpoint { .. })
            ));
        }
        // A tampered seed fails derivation validation (interior line).
        let journal = fresh(&path, 11, 2, 10);
        journal.append(&epoch(0, 1, 0, 0xdead_beef)).unwrap();
        journal
            .append(&epoch(1, 1, 0, derive_serve_seed(11, 1)))
            .unwrap();
        drop(journal);
        assert!(matches!(
            load(&path, 11, 2, 10),
            Err(ServeError::Checkpoint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn well_formed_but_invalid_final_record_is_rejected_not_dropped() {
        let path = scratch("invalid-final.jsonl");
        let seed = derive_serve_seed(13, 1);
        let epoch = |system: usize, kind: &str, seed: u64| {
            format!(
                "{{\"kind\":\"{kind}\",\"system\":{system},\"events\":0,\
                 \"attempts\":1,\"seed_attempt\":0,\"seed\":{seed}}}"
            )
        };
        let journal_with = |last: &str| {
            drop(fresh(&path, 13, 2, 10));
            let mut text = std::fs::read_to_string(&path).unwrap();
            text.push_str(&epoch(0, "epoch", derive_serve_seed(13, 0)));
            text.push('\n');
            text.push_str(last);
            std::fs::write(&path, &text).unwrap();
            load(&path, 13, 2, 10)
        };
        // A tampered seed, a system outside the fleet and an unknown kind
        // are complete lines, not torn appends: each is a hard error.
        for last in [
            epoch(1, "epoch", 0xdead_beef),
            epoch(2, "epoch", derive_serve_seed(13, 2)),
            epoch(1, "progress", seed),
        ] {
            assert!(
                matches!(journal_with(&last), Err(ServeError::Checkpoint { .. })),
                "{last}"
            );
        }
        // The same valid record is restored, and half of it is a torn
        // append that is dropped.
        let valid = epoch(1, "epoch", seed);
        let restored = journal_with(&valid).unwrap();
        assert!(matches!(restored[1], Restored::InFlight { .. }));
        let restored = journal_with(&valid[..valid.len() / 2]).unwrap();
        assert!(matches!(restored[0], Restored::InFlight { .. }));
        assert_eq!(restored[1], Restored::Fresh);
        std::fs::remove_file(&path).unwrap();
    }
}
