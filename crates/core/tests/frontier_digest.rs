//! Golden digest of the paper server's power/delay frontier.
//!
//! `optimal_policy` is solved at the same log-spaced weights the perfbench
//! `frontier` workload sweeps, and every observable output is folded into
//! one FNV-1a digest: for a solved point its destinations, policy-iteration
//! rounds and the bits of power, queue length, loss rate and switch
//! frequency; for a failed point its error message. A change to the
//! numerical kernels that moves any of these bits moves the digest.
//!
//! The Q = 20 sweep runs with the suite. The full 102-point sweep
//! (Q = 20, 50, 100) is slow in a debug build, so it is `#[ignore]`d here
//! and run optimized by `scripts/ci.sh`:
//!
//! ```text
//! cargo test --release -p dpm-core --test frontier_digest -- --ignored
//! ```

use std::fmt::Write as _;

use dpm_core::{optimize, PmSystem, SpModel, SrModel};

/// Arrival rate of the paper's Section V workload.
const LAMBDA: f64 = 1.0 / 6.0;

/// Weights per capacity.
const WEIGHTS: usize = 34;

/// Weight `i` of `n` log-spaced weights in 0.02–200.
fn log_weight(i: usize, n: usize) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let t = i as f64 / (n - 1) as f64;
    0.02 * 1e4f64.powf(t)
}

/// The paper server at queue capacity `capacity`.
fn paper_system(capacity: usize) -> PmSystem {
    PmSystem::builder()
        .provider(SpModel::dac99_server().unwrap())
        .requestor(SrModel::poisson(LAMBDA).unwrap())
        .capacity(capacity)
        .build()
        .unwrap()
}

/// One line per point, in sweep order: capacity, weight bits, then the
/// solution's outputs or the error message.
fn frontier_lines(capacities: &[usize]) -> String {
    let mut lines = String::new();
    for &capacity in capacities {
        let system = paper_system(capacity);
        for i in 0..WEIGHTS {
            let weight = log_weight(i, WEIGHTS);
            let _ = write!(lines, "Q={capacity} w={:016x} ", weight.to_bits());
            let _ = match optimize::optimal_policy(&system, weight) {
                Ok(s) => {
                    let m = s.metrics();
                    writeln!(
                        lines,
                        "ok it={} power={:016x} queue={:016x} loss={:016x} switch={:016x} dest={:?}",
                        s.iterations(),
                        m.power().to_bits(),
                        m.queue_length().to_bits(),
                        m.loss_rate().to_bits(),
                        m.switch_frequency().to_bits(),
                        s.policy().destinations(),
                    )
                }
                Err(e) => writeln!(lines, "err {e}"),
            };
        }
    }
    lines
}

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts the digest and the failure count of one sweep.
fn assert_digest(capacities: &[usize], digest: u64, failures: usize) {
    let lines = frontier_lines(capacities);
    let failed = lines.lines().filter(|l| l.contains(" err ")).count();
    assert_eq!(
        (format!("{:016x}", fnv1a(&lines)), failed),
        (format!("{digest:016x}"), failures),
        "frontier over Q = {capacities:?} moved:\n{lines}"
    );
}

#[test]
fn q20_frontier_matches_golden_digest() {
    assert_digest(&[20], 0x6998_1d3c_2d39_171a, 7);
}

#[test]
#[ignore = "102 solves; run optimized by scripts/ci.sh"]
fn full_frontier_matches_golden_digest() {
    assert_digest(&[20, 50, 100], 0xd13e_fcb2_5d75_4206, 25);
}

/// `optimal_policy` takes its metrics from the factors policy iteration's
/// last round built over the CTMDP's generator; `PmSystem::evaluate`
/// factors the generator `PmSystem` builds itself. At every solved Q = 20
/// weight the two generators are the same CSR arrays, bit for bit, and
/// the two sets of metrics agree in every bit.
#[test]
fn q20_optimal_metrics_match_a_fresh_evaluation() {
    let system = paper_system(20);
    let entries = |csr: &dpm_linalg::CsrMatrix| {
        csr.iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut solved = 0;
    for i in 0..WEIGHTS {
        let weight = log_weight(i, WEIGHTS);
        let Ok(solution) = optimize::optimal_policy(&system, weight) else {
            continue;
        };
        solved += 1;
        let policy = solution.policy();
        let mdp_policy = policy.to_mdp_policy(&system).unwrap();
        let ctmdp = system.ctmdp(weight).unwrap();
        assert_eq!(
            entries(ctmdp.sparse_generator_for(&mdp_policy).unwrap().csr()),
            entries(system.sparse_generator_for(policy).unwrap().csr()),
            "w = {weight}: the two generator builders differ"
        );
        let (got, want) = (solution.metrics(), system.evaluate(policy).unwrap());
        for (name, a, b) in [
            ("power", got.power(), want.power()),
            ("queue", got.queue_length(), want.queue_length()),
            ("loss", got.loss_rate(), want.loss_rate()),
            ("switch", got.switch_frequency(), want.switch_frequency()),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "w = {weight}: {name} {a} vs {b}");
        }
    }
    assert_eq!(solved, WEIGHTS - 7);
}
