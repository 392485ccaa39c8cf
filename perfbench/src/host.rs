//! Host provenance and process memory, recorded beside every number.

use dpm_harness::Json;
use std::process::Command;

/// Where a set of numbers was measured. Every field is volatile: it
/// describes the host and build, never the workload's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Cores the process may run on.
    pub nproc: usize,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the repository rooted at the working
    /// directory, or `unknown` (a source export has no repository).
    pub git_commit: String,
    /// The benchmark's `--seed`.
    pub seed: u64,
}

impl Provenance {
    /// Reads the host's provenance. Helper processes are waited for.
    #[must_use]
    pub fn collect(seed: u64) -> Provenance {
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: first_line_of(Command::new("rustc").arg("--version")),
            // `GIT_DIR` pins git to the working directory's own `.git`, so
            // it never searches parent directories for a repository.
            git_commit: first_line_of(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_DIR", ".git"),
            ),
            seed,
        }
    }

    /// The provenance as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("nproc", self.nproc);
        o.set("profile", self.profile);
        o.set("rustc", self.rustc.as_str());
        o.set("git_commit", self.git_commit.as_str());
        o.set("seed", self.seed);
        o
    }
}

/// First line of a helper command's standard output, or `unknown` if it
/// cannot run or fails. `Command::output` waits for the child to exit.
fn first_line_of(command: &mut Command) -> String {
    match command.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map_or_else(|| "unknown".to_owned(), |l| l.trim().to_owned()),
        _ => "unknown".to_owned(),
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
///
/// # Errors
///
/// Returns a message if `/proc/self/status` is unreadable or lacks the
/// field (non-Linux hosts).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("/proc/self/status has no VmHWM line")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}
