//! The `dpm-lint` command-line driver.
//!
//! ```text
//! dpm-lint [--root DIR] [--deny] [--json PATH] [--baseline PATH] \
//!          [--list-rules] [--fix-unused-allows [--apply]] [FILE...]
//! ```
//!
//! With no `FILE` operands the whole workspace under `--root` (default:
//! the current directory) is checked; with operands, exactly those files.
//! `--deny` turns findings into a nonzero exit status (the CI gate);
//! `--json` additionally writes the canonical-JSON report.
//!
//! `--baseline PATH` reads a previous `--json` report and fails the run on
//! drift: a rule whose *allow* count grew (exemptions accumulating
//! silently), a rule whose *finding* count grew past the recorded
//! `counts_by_rule` (new violations that were reasoned away at baseline
//! time), a panic-class allow reachable from a `serve`/`run_plan*` root
//! that the baseline's `panic_reachability` does not list for the same
//! `(path, function, rule)`, or a schema id whose version moved
//! backwards. Counts at or below the baseline pass (shrinkage is
//! progress; refresh the baseline to lock it in). Reachability is keyed
//! by function rather than line, so edits that only move an allow do not
//! drift.
//!
//! `--fix-unused-allows` rewrites files whose allow directives suppressed
//! nothing. By default it prints the would-be changes as a diff and exits
//! nonzero if any exist; with `--apply` it writes each rewrite atomically
//! (temp file + rename) and exits zero.
//!
//! Exit status: 0 clean (or findings without `--deny`), 1 findings under
//! `--deny`, drift past `--baseline`, or pending `--fix-unused-allows`
//! changes without `--apply`; 2 usage or I/O error.

use dpm_harness::Json;
use dpm_lint::{check_files, check_workspace, fix, rules, LintError, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    deny: bool,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    list_rules: bool,
    fix_unused: bool,
    apply: bool,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, LintError> {
    let mut opts = Options {
        root: PathBuf::from("."),
        deny: false,
        json: None,
        baseline: None,
        list_rules: false,
        fix_unused: false,
        apply: false,
        files: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                let value = iter
                    .next()
                    .ok_or_else(|| LintError::Usage("--root needs a directory".to_owned()))?;
                opts.root = PathBuf::from(value);
            }
            "--json" => {
                let value = iter
                    .next()
                    .ok_or_else(|| LintError::Usage("--json needs a path".to_owned()))?;
                opts.json = Some(PathBuf::from(value));
            }
            "--baseline" => {
                let value = iter.next().ok_or_else(|| {
                    LintError::Usage("--baseline needs a JSON report path".to_owned())
                })?;
                opts.baseline = Some(PathBuf::from(value));
            }
            "--deny" => opts.deny = true,
            "--list-rules" => opts.list_rules = true,
            "--fix-unused-allows" => opts.fix_unused = true,
            "--apply" => opts.apply = true,
            "--help" | "-h" => {
                return Err(LintError::Usage(
                    "dpm-lint [--root DIR] [--deny] [--json PATH] [--baseline PATH] \
                     [--list-rules] [--fix-unused-allows [--apply]] [FILE...]"
                        .to_owned(),
                ))
            }
            flag if flag.starts_with("--") => {
                return Err(LintError::Usage(format!("unknown flag `{flag}`")));
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.apply && !opts.fix_unused {
        return Err(LintError::Usage(
            "--apply only makes sense with --fix-unused-allows".to_owned(),
        ));
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<Report, LintError> {
    if opts.files.is_empty() {
        check_workspace(&opts.root)
    } else {
        check_files(&opts.files)
    }
}

/// Compares the run against a previous `--json` report at `baseline_path`
/// (see [`drift_from`]).
fn baseline_drift(report: &Report, baseline_path: &Path) -> Result<Vec<String>, LintError> {
    let text =
        std::fs::read_to_string(baseline_path).map_err(|e| LintError::io(baseline_path, &e))?;
    let doc = Json::parse(&text).map_err(|e| {
        LintError::Usage(format!(
            "{}: not a dpm-lint JSON report: {e}",
            baseline_path.display()
        ))
    })?;
    Ok(drift_from(report, &doc))
}

/// Returns one message per regression against the baseline report `doc`:
/// an allow count or finding count that grew, a panic-class allow newly
/// reachable from a hot root, or a schema version that moved backwards.
fn drift_from(report: &Report, doc: &Json) -> Vec<String> {
    let mut drift = Vec::new();
    for (rule, &now) in &report.allows_by_rule {
        let then = doc
            .get("allows_by_rule")
            .and_then(|allows| allows.get(rule))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        #[allow(clippy::cast_precision_loss)]
        if now as f64 > then {
            drift.push(format!(
                "allow({rule}) count grew {then} -> {now}; remove the new \
                 exemption or refresh the baseline"
            ));
        }
    }
    // Findings drift: the baseline's zero-filled counts are the ceiling.
    let mut finding_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &report.findings {
        *finding_counts.entry(f.rule).or_insert(0) += 1;
    }
    for rule in rules::all_rules() {
        let now = finding_counts.get(rule).copied().unwrap_or(0);
        let Some(then) = doc
            .get("counts_by_rule")
            .and_then(|counts| counts.get(rule))
            .and_then(Json::as_f64)
        else {
            continue; // rule unknown to the baseline (pre-v2 report)
        };
        #[allow(clippy::cast_precision_loss)]
        if now as f64 > then {
            drift.push(format!(
                "finding({rule}) count grew {then} -> {now}; fix the new \
                 violations or annotate them with reasons"
            ));
        }
    }
    // Reachability drift: every hot root of a panic-class allow must be
    // listed for its (path, function, rule) in the baseline. A baseline
    // without the block (pre-v2 report) is not checked.
    if let Some(Json::Array(entries)) = doc.get("panic_reachability") {
        fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
            entry.get(key).and_then(Json::as_str).unwrap_or_default()
        }
        let mut listed = BTreeSet::new();
        for e in entries {
            if let Some(Json::Array(roots)) = e.get("reachable_from") {
                for root in roots.iter().filter_map(Json::as_str) {
                    listed.insert([text(e, "path"), text(e, "function"), text(e, "rule"), root]);
                }
            }
        }
        for site in &report.panic_reachability {
            for root in &site.reachable_from {
                let key = [&*site.path, &*site.function, site.rule, &**root];
                if !listed.contains(&key) {
                    drift.push(format!(
                        "allow({}) in `{}` ({}:{}) is reachable from `{root}`, which the \
                         baseline does not list; make the function panic-free or \
                         refresh the baseline",
                        site.rule, site.function, site.path, site.line
                    ));
                }
            }
        }
    }
    // Schema monotonicity: versions never move backwards.
    if let Some(Json::Array(entries)) = doc.get("schema_registry") {
        let then_versions: BTreeMap<String, f64> = entries
            .iter()
            .filter_map(|e| {
                let base = e.get("base")?.as_str()?.to_owned();
                let version = e.get("version")?.as_f64()?;
                Some((base, version))
            })
            .collect();
        for entry in &report.schema_registry {
            if let Some(&then) = then_versions.get(&entry.base) {
                #[allow(clippy::cast_precision_loss)]
                if (entry.version as f64) < then {
                    drift.push(format!(
                        "schema `{}` regressed v{then} -> v{}; versions only move \
                         forward",
                        entry.base, entry.version
                    ));
                }
            }
        }
    }
    drift
}

/// Applies (or previews) removal of every `unused_allow` directive the
/// report found. Returns the number of files with pending or applied
/// changes.
fn fix_unused_allows(opts: &Options, report: &Report) -> Result<usize, LintError> {
    let mut by_path: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for f in &report.findings {
        if f.rule == rules::UNUSED_ALLOW {
            by_path.entry(&f.path).or_default().insert(f.line);
        }
    }
    let mut touched = 0usize;
    for (rel, lines) in by_path {
        // Workspace runs report paths relative to --root; explicit file
        // operands are reported as given.
        let path = if opts.files.is_empty() {
            opts.root.join(rel)
        } else {
            PathBuf::from(rel)
        };
        let source = std::fs::read_to_string(&path).map_err(|e| LintError::io(&path, &e))?;
        if opts.apply {
            let fixed = fix::remove_directives(&source, &lines);
            let tmp = path.with_extension("rs.dpm-lint-fix");
            std::fs::write(&tmp, &fixed).map_err(|e| LintError::io(&tmp, &e))?;
            std::fs::rename(&tmp, &path).map_err(|e| LintError::io(&path, &e))?;
            println!("fixed {rel}: removed {} unused allow(s)", lines.len());
        } else {
            println!("--- {rel}");
            for change in fix::diff_lines(&source, &lines) {
                match change {
                    fix::DiffLine::Removed(line, old) => {
                        println!("@@ line {line}\n-{old}");
                    }
                    fix::DiffLine::Rewritten(line, old, new) => {
                        println!("@@ line {line}\n-{old}\n+{new}");
                    }
                }
            }
        }
        touched += 1;
    }
    Ok(touched)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("dpm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        for (name, description) in rules::ALLOWABLE_RULES {
            println!("{name}: {description}");
        }
        return ExitCode::SUCCESS;
    }
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("dpm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.fix_unused {
        return match fix_unused_allows(&opts, &report) {
            Ok(0) => {
                println!("dpm-lint: no unused allows to fix");
                ExitCode::SUCCESS
            }
            Ok(_) if opts.apply => ExitCode::SUCCESS,
            Ok(n) => {
                println!("dpm-lint: {n} file(s) have unused allows; rerun with --apply to write");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("dpm-lint: {e}");
                ExitCode::from(2)
            }
        };
    }
    print!("{}", report.render_human());
    if let Some(json_path) = &opts.json {
        if let Err(e) = std::fs::write(json_path, report.render_json()) {
            eprintln!("dpm-lint: {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(baseline_path) = &opts.baseline {
        match baseline_drift(&report, baseline_path) {
            Ok(drift) if drift.is_empty() => {}
            Ok(drift) => {
                for line in &drift {
                    eprintln!("dpm-lint: baseline drift: {line}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("dpm-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.deny && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_lint::report::PanicSite;

    /// The baseline's drift against a run whose one panic-class allow in
    /// `PmSystem::index_of` (at `line`) is reachable from `run_plan` and
    /// `serve`; the baseline lists it at line 190 with `reachable_from`.
    fn drift(line: usize, reachable_from: &str) -> Vec<String> {
        let report = Report {
            findings: Vec::new(),
            files_scanned: 1,
            allows_used: 1,
            allows_by_rule: BTreeMap::new(),
            schema_registry: Vec::new(),
            panic_reachability: vec![PanicSite {
                path: "crates/core/src/system.rs".to_owned(),
                line,
                rule: "no_panic",
                function: "PmSystem::index_of".to_owned(),
                reachable_from: vec!["run_plan".to_owned(), "serve".to_owned()],
            }],
        };
        let baseline = Json::parse(&format!(
            r#"{{"panic_reachability": [{{"function": "PmSystem::index_of", "line": 190,
                "path": "crates/core/src/system.rs", "reachable_from": {reachable_from},
                "rule": "no_panic"}}]}}"#
        ));
        drift_from(&report, &baseline.unwrap())
    }

    #[test]
    fn a_panic_allow_reachable_from_an_unlisted_root_drifts() {
        let cold = drift(190, "[]");
        assert_eq!(cold.len(), 2, "{cold:?}");
        assert!(cold[0].contains("`run_plan`") && cold[1].contains("`serve`"));
        let one_more = drift(190, r#"["serve"]"#);
        assert_eq!(one_more.len(), 1, "{one_more:?}");
        assert!(one_more[0].contains("`run_plan`"), "{one_more:?}");
        // Keyed by function, not line: a moved allow with the same roots
        // passes.
        assert!(drift(240, r#"["run_plan", "serve"]"#).is_empty());
    }
}
