//! The plan runner's checkpoint journal, end to end: its on-disk format
//! is pinned by digest, and a run killed after any record — or in the
//! middle of appending one — resumes bit-identically.

use dpm_harness::{
    plan::Plan,
    runner::{run_plan_resilient, RunConfig, RunReport, TaskCtx},
    Json, PlanPoint,
};

/// A deterministic stand-in task: the measurement is a pure function of
/// the derived seed.
fn measure(ctx: &TaskCtx<'_>) -> Result<Json, String> {
    ctx.telemetry.incr("calls", 1);
    let x = ctx.point.param("x").unwrap().as_f64().unwrap();
    let mut out = Json::object();
    #[allow(clippy::cast_precision_loss)]
    out.set("value", x * (ctx.seed % 10_000) as f64 / 7.0);
    Ok(out)
}

fn plan() -> Plan {
    Plan::new("journal-gate", 4242)
        .replications(3)
        .point(PlanPoint::new("a").with("x", 1.0))
        .point(PlanPoint::new("b").with("x", 2.0))
        .point(PlanPoint::new("c").with("x", 3.0))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dpm-harness-journal");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The journal text with every `wall_secs` value replaced by `0`: the
/// one field that measures the host, not the run.
fn mask_wall_secs(text: &str) -> String {
    const KEY: &str = "\"wall_secs\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = &rest[at + KEY.len()..];
        let end = rest.find([',', '}']).unwrap();
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The deterministic fields of every outcome (everything but
/// `wall_secs`), for bit-identity comparisons.
fn deterministic(report: &RunReport) -> Vec<String> {
    report
        .outcomes
        .iter()
        .map(|outcome| {
            let record = outcome.record().unwrap();
            format!(
                "{} {} {} {} {} {}",
                record.point_index,
                record.replication,
                record.seed,
                record.attempts,
                record.result.render_compact(),
                record.telemetry.render_compact()
            )
        })
        .collect()
}

/// Digests of 1-worker journals — fresh, and rewritten by a run resumed
/// from a gapped prefix (two range records, then live appends) — with
/// `wall_secs` masked. Recorded before the journal code was shared with
/// the serve fleet; a change here is a change of the on-disk format.
#[test]
fn journal_bytes_match_the_golden_digests() {
    let p = plan();
    let fresh = temp_path("golden-fresh");
    run_plan_resilient(&p, &RunConfig::new(1).checkpoint(&fresh), measure).unwrap();
    let text = std::fs::read_to_string(&fresh).unwrap();
    assert_eq!(text.lines().count(), 1 + p.n_tasks());
    assert_eq!(
        format!("{:016x}", fnv1a(mask_wall_secs(&text).as_bytes())),
        "e742d54c3ca61a9f",
        "fresh journal"
    );

    // Keep tasks 0, 1, 3 and 4: the resumed run carries them forward as
    // range records {0, 1} and {3, 4}, then appends 2 and 5.. live.
    let gapped: String = text
        .lines()
        .enumerate()
        .filter(|&(line, _)| matches!(line, 0 | 1 | 2 | 4 | 5))
        .flat_map(|(_, line)| [line, "\n"])
        .collect();
    let cut = temp_path("golden-cut");
    std::fs::write(&cut, gapped).unwrap();
    let resumed = temp_path("golden-resumed");
    run_plan_resilient(
        &p,
        &RunConfig::new(1).resume(&cut).checkpoint(&resumed),
        measure,
    )
    .unwrap();
    let text = std::fs::read_to_string(&resumed).unwrap();
    assert_eq!(text.matches("\"run_start\"").count(), 2, "{text}");
    assert_eq!(
        format!("{:016x}", fnv1a(mask_wall_secs(&text).as_bytes())),
        "b4e325c895c22b96",
        "resumed journal"
    );
    for path in [fresh, cut, resumed] {
        std::fs::remove_file(path).ok();
    }
}

/// Kill at any point: a resume from every line prefix of a journal —
/// whole, and with half of the next line appended, as a kill mid-append
/// leaves it — at 1 and 2 workers reproduces the uninterrupted run's
/// deterministic fields exactly. Both a fresh journal and one rewritten
/// by a resumed run (range records first) are cut.
#[test]
fn kill_at_every_record_resumes_bit_identically() {
    let p = plan();
    let fresh = temp_path("kill-fresh");
    let reference = run_plan_resilient(&p, &RunConfig::new(2).checkpoint(&fresh), measure).unwrap();
    let expected = deterministic(&reference);

    // A journal with range records: resume from the first four lines.
    let text = std::fs::read_to_string(&fresh).unwrap();
    let head: String = text.lines().take(4).flat_map(|line| [line, "\n"]).collect();
    let head_path = temp_path("kill-head");
    std::fs::write(&head_path, head).unwrap();
    let rewritten = temp_path("kill-rewritten");
    run_plan_resilient(
        &p,
        &RunConfig::new(2).resume(&head_path).checkpoint(&rewritten),
        measure,
    )
    .unwrap();
    assert!(std::fs::read_to_string(&rewritten)
        .unwrap()
        .contains("\"run_start\""));

    let cut = temp_path("kill-cut");
    for source in [&fresh, &rewritten] {
        let text = std::fs::read_to_string(source).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 1..=lines.len() {
            for torn in [false, true] {
                let mut truncated = lines[..keep].join("\n");
                if torn {
                    let Some(next) = lines.get(keep) else {
                        continue;
                    };
                    truncated.push('\n');
                    truncated.push_str(&next[..next.len() / 2]);
                }
                std::fs::write(&cut, &truncated).unwrap();
                for workers in [1, 2] {
                    let resumed =
                        run_plan_resilient(&p, &RunConfig::new(workers).resume(&cut), measure)
                            .unwrap();
                    assert_eq!(
                        deterministic(&resumed),
                        expected,
                        "{} lines of {}, torn {torn}, {workers} workers",
                        keep,
                        source.display()
                    );
                }
            }
        }
    }
    for path in [fresh, head_path, rewritten, cut] {
        std::fs::remove_file(path).ok();
    }
}
