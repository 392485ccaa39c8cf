//! The benchmark's own tests: its statistics, failure accounting, span
//! arithmetic, and a tiny-size smoke of every workload whose metric names
//! must match `BENCHMARK.json`.

use dpm_harness::Json;
use dpm_perfbench::span::{Recorder, Span, Trace};
use dpm_perfbench::stats::{median, percentile, Ops, StatsError, MIN_BEYOND};
use dpm_perfbench::{run_workload, Size, Workload};

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.9), Ok(90.0));
    assert!(matches!(
        percentile(&samples[..99], 0.9),
        Err(StatsError::TooFewBeyond { beyond: 9, .. })
    ));
    // The median of 19 samples leaves 9 beyond it; of 20, 10.
    assert!(percentile(&samples[..19], 0.5).is_err());
    assert_eq!(percentile(&samples[..20], 0.5), Ok(10.0));
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn percentile_and_median_reject_bad_input() {
    assert_eq!(percentile(&[], 0.5), Err(StatsError::Empty));
    assert_eq!(median(&[]), Err(StatsError::Empty));
    assert_eq!(median(&[1.0, f64::NAN]), Err(StatsError::NonFinite));
    assert_eq!(
        percentile(&[1.0; 40], 1.0),
        Err(StatsError::BadPercentile(1.0))
    );
    assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
}

#[test]
fn failed_frac_counts_failures_against_attempts() {
    let mut ops = Ops::default();
    assert_eq!(ops.failed_frac(), 0.0);
    for i in 0..102 {
        ops.record(i % 4 != 0 || i >= 100);
    }
    assert_eq!(ops.attempted, 102);
    assert_eq!(ops.failed, 25);
    assert_eq!(ops.succeeded(), 77);
    assert!((ops.failed_frac() - 25.0 / 102.0).abs() < 1e-15);
    let mut total = Ops::default();
    total.absorb(ops);
    total.absorb(Ops {
        attempted: 4,
        failed: 0,
    });
    assert_eq!((total.attempted, total.failed), (106, 25));
}

fn span(name: &'static str, parent: Option<usize>, duration_s: f64) -> Span {
    Span {
        request: 0,
        name,
        parent,
        duration_s,
    }
}

#[test]
fn self_time_is_duration_minus_child_durations() {
    let mut trace = Trace::new();
    let root = trace.push(span("root", None, 10.0));
    trace.push(span("a", Some(root), 2.0));
    trace.push(span("a", Some(root), 3.0));
    let c = trace.push(span("c", Some(root), 4.0));
    // A grandchild is charged to its own parent, not to the root.
    trace.push(span("grandchild", Some(c), 1.0));
    assert!((trace.self_time_s(root) - 1.0).abs() < 1e-12);
    assert!((trace.self_time_s(c) - 3.0).abs() < 1e-12);
    assert!((trace.total_s("a") - 5.0).abs() < 1e-12);
    assert!((trace.total_self_s("a") - 5.0).abs() < 1e-12);
    assert_eq!(trace.self_time_s(99), 0.0);
}

#[test]
fn recorder_nests_measured_spans_per_request() {
    let mut trace = Trace::new();
    let mut rec = Recorder::new(&mut trace);
    let answer = rec.span("outer", |rec| {
        let x = rec.leaf("inner", || (0..10_000u64).sum::<u64>());
        rec.leaf("inner", || x + 1)
    });
    assert_eq!(answer, 49_995_001);
    let mut other = Trace::new();
    Recorder::new(&mut other).leaf("solo", || ());
    trace.append(other);

    let spans = trace.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!(spans[3].parent, None);
    assert_eq!(spans[3].request, 1, "appended requests keep distinct ids");
    // Children are measured inside their parent.
    assert!(trace.total_s("inner") <= spans[0].duration_s);
    assert!(trace.self_time_s(0) >= 0.0);
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(entries)) = doc.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    let mut names: Vec<String> = entries
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_owned()
        })
        .collect();
    names.sort();
    names
}

fn emitted(report: &dpm_perfbench::RunReport) -> Vec<String> {
    let mut names: Vec<String> = report.metrics.0.iter().map(|m| m.name.to_owned()).collect();
    names.sort();
    names
}

#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    let end_to_end = declared("end_to_end");
    for workload in Workload::ALL {
        let report = run_workload(workload, Size::Tiny, 7, 0.0, false).expect("tiny run completes");
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
        assert!(failed.is_empty(), "{}: {failed:?}", workload.name());
        assert!(report.ops.attempted >= 1);
        assert_eq!(report.ops.failed, 0, "{}", workload.name());
        assert_eq!(emitted(&report), end_to_end, "{}", workload.name());
        assert!(report.metrics.0.iter().all(|m| m.value > 0.0));
        assert_eq!(report.provenance.seed, 7);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let report =
        run_workload(Workload::ServeJournaled, Size::Tiny, 3, 0.0, true).expect("traced run");
    let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
    assert!(failed.is_empty(), "{failed:?}");
    assert_eq!(emitted(&report), declared("per_layer"));
    assert!(report.trace.spans().iter().any(|s| s.name == "core.ctmdp"));
    assert!(report
        .trace
        .spans()
        .iter()
        .any(|s| s.name == "serve.fleet_journaled"));
}

#[test]
fn end_to_end_times_are_put_at_the_reference_speed() {
    use dpm_perfbench::speed::{probe, PROBE_REFERENCE_S};
    let probe_s = probe().expect("the probe runs");
    assert!(probe_s.is_finite() && probe_s > 0.0);

    let report = run_workload(Workload::Serve, Size::Tiny, 5, 0.0, false).expect("tiny run");
    let get = |name: &str| {
        report
            .detail
            .get(name)
            .or_else(|| report.metrics.get(name))
            .unwrap_or_else(|| panic!("{name} is reported"))
    };
    // One unit, between two probes whose median is `probe_s`: its
    // scale, the reference time over the probes' geometric mean, is
    // close to the reference time over their median.
    let scale = get("wall_s") / get("measured_wall_s");
    let expected = PROBE_REFERENCE_S / get("probe_s");
    assert!(
        (scale / expected - 1.0).abs() < 0.5,
        "scale {scale}, expected about {expected}"
    );
    assert!(get("setup_s") > 0.0 && get("measured_setup_s") > 0.0);
}
