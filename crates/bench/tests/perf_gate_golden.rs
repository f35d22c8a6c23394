//! Golden coverage for the performance-regression gate.
//!
//! Two layers, mirroring `tbi_exp`'s `serialize_golden.rs` discipline:
//!
//! 1. **Report goldens** — [`tbi_bench::gate::evaluate`] runs on fixed
//!    synthetic documents (a regressed pair that must fail, a
//!    tolerance-boundary pair that must pass) and the rendered report is
//!    pinned byte-for-byte under `tests/fixtures/`.  Regenerate after an
//!    intentional format change:
//!
//!    ```text
//!    TBI_BLESS_GOLDEN=1 cargo test -p tbi_bench --test perf_gate_golden
//!    ```
//!
//! 2. **End-to-end injected regression** — `tbi_bench gate` runs against a
//!    committed synthetic artifact whose baseline metric is impossibly good;
//!    the gate must exit non-zero and name the failing metric.  A companion
//!    artifact with a modest baseline must pass.

use std::path::Path;
use std::process::Command;

use tbi_bench::gate::{evaluate, Check, CheckKind};
use tbi_exp::json::{parse, JsonValue};

const REGRESSED_REPORT: &str = include_str!("fixtures/gate_report_regressed.txt");
const BOUNDARY_REPORT: &str = include_str!("fixtures/gate_report_boundary.txt");
const DEGENERATE_REPORT: &str = include_str!("fixtures/gate_report_degenerate.txt");

fn doc(text: &str) -> JsonValue {
    parse(text).expect("test document parses")
}

/// With `TBI_BLESS_GOLDEN=1`, rewrites the fixture instead of comparing
/// (returns `true` when blessing happened).
fn bless(name: &str, contents: &str) -> bool {
    if std::env::var("TBI_BLESS_GOLDEN").is_err() {
        return false;
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, contents).unwrap();
    eprintln!("blessed {}", path.display());
    true
}

/// The check set of a representative bench (`engine_speed`-shaped, plus a
/// ratio check so every [`CheckKind`] appears in the goldens).
fn checks() -> Vec<Check> {
    vec![
        Check::new("records_identical", CheckKind::MustBeTrue),
        Check::new("speedup", CheckKind::MinRatio(0.5)),
        Check::new(
            "event_sim_cycles_per_second",
            CheckKind::AbsFloor(1000000.0),
        ),
    ]
}

#[test]
fn regressed_artifact_fails_every_check_and_matches_the_golden_report() {
    // Identity broken, speedup collapsed below half the baseline, absolute
    // throughput below the floor: all three checks must fail.
    let current = doc(r#"{"records_identical": false, "speedup": 4.25,
            "event_sim_cycles_per_second": 500000.0}"#);
    let committed = doc(r#"{"speedup": 13.5, "event_sim_cycles_per_second": 90000000.0}"#);
    let report = evaluate("engine_speed", &current, &committed, &checks());
    assert!(!report.passed(), "regressed artifact must fail the gate");
    assert!(report.results.iter().all(|r| !r.passed));
    let text = report.render();
    if bless("gate_report_regressed.txt", &text) {
        return;
    }
    assert_eq!(
        text, REGRESSED_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_regressed.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

#[test]
fn tolerance_boundary_artifact_passes_and_matches_the_golden_report() {
    // Every metric sits exactly on its boundary: the ratio check at
    // committed × tolerance, the floor check at the floor itself.  The gate
    // is inclusive (>=), so all must pass.
    let current = doc(r#"{"records_identical": true, "speedup": 6.75,
            "event_sim_cycles_per_second": 1000000.0}"#);
    let committed = doc(r#"{"speedup": 13.5, "event_sim_cycles_per_second": 90000000.0}"#);
    let report = evaluate("engine_speed", &current, &committed, &checks());
    assert!(report.passed(), "boundary artifact must pass the gate");
    let text = report.render();
    if bless("gate_report_boundary.txt", &text) {
        return;
    }
    assert_eq!(
        text, BOUNDARY_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_boundary.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

#[test]
fn degenerate_min_ratio_baselines_fail_cleanly_and_match_the_golden_report() {
    // A corrupt committed artifact must fail its `MinRatio` checks with a
    // diagnostic — never divide by zero, never pass against a meaningless
    // baseline, never panic on a non-numeric stand-in (non-finite floats
    // serialize as `null` under the artifact discipline, so `null` is the
    // on-disk face of a NaN/inf baseline).
    let current = doc(
        r#"{"zero_base": 1.0, "negative_base": 1.0, "null_base": 1.0,
            "missing_base": 1.0, "null_current": null}"#,
    );
    let committed = doc(
        r#"{"zero_base": 0.0, "negative_base": -13.5, "null_base": null,
            "null_current": 2.0}"#,
    );
    let checks = [
        Check::new("zero_base", CheckKind::MinRatio(0.5)),
        Check::new("negative_base", CheckKind::MinRatio(0.5)),
        Check::new("null_base", CheckKind::MinRatio(0.5)),
        Check::new("missing_base", CheckKind::MinRatio(0.5)),
        Check::new("null_current", CheckKind::MinRatio(0.5)),
    ];
    let report = evaluate("degenerate", &current, &committed, &checks);
    assert!(!report.passed(), "every degenerate baseline must fail");
    assert!(report.results.iter().all(|r| !r.passed));
    let text = report.render();
    if bless("gate_report_degenerate.txt", &text) {
        return;
    }
    assert_eq!(
        text, DEGENERATE_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_degenerate.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

/// Runs `tbi_bench gate` on one committed artifact fixture at a tiny re-run
/// size, returning (exit success, stdout).
fn run_gate(fixture: &str) -> (bool, String) {
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let output = Command::new(env!("CARGO_BIN_EXE_tbi_bench"))
        .arg("gate")
        .arg("--bursts")
        .arg("4000")
        .arg(&artifact)
        .output()
        .expect("tbi_bench binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn injected_regression_fixture_fails_the_gate_binary() {
    // The fixture claims an impossibly good committed baseline (1 → 2
    // channel scaling of 1000x), so any honest re-run regresses against it.
    let (success, stdout) = run_gate("gate_regressed_channels.json");
    assert!(!success, "gate must exit non-zero on the regressed fixture");
    assert!(
        stdout.contains("FAIL channel_sweep/min_scaling_1_to_2_optimized"),
        "gate must name the regressed metric:\n{stdout}"
    );
    assert!(
        stdout.contains("PERFORMANCE REGRESSION DETECTED"),
        "gate must print the failure banner:\n{stdout}"
    );
}

#[test]
fn modest_baseline_fixture_passes_the_gate_binary() {
    // Same artifact shape with a deliberately conservative baseline (1.0x
    // scaling): any healthy re-run clears 0.75 × 1.0 with a wide margin, so
    // this pins the gate's pass path end to end without depending on the
    // host's exact throughput.
    let (success, stdout) = run_gate("gate_passing_channels.json");
    assert!(
        success,
        "gate must exit zero on the passing fixture:\n{stdout}"
    );
    assert!(
        stdout.contains("PASS channel_sweep/min_scaling_1_to_2_optimized"),
        "gate must report the passing metric:\n{stdout}"
    );
    assert!(
        stdout.contains("all artifacts within tolerance"),
        "gate must print the success banner:\n{stdout}"
    );
}
