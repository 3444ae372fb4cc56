//! End-to-end coverage for the workspace-graph rules (R9–R12) on
//! committed fixture trees: each rule has a violating tree that fails
//! with the expected witness and a clean twin that passes. The CLI
//! half drives the built binary: exit codes, the printed lock-cycle
//! witness path, SARIF output validated against the required-property
//! subset, and the baseline-shrink contract (a fixed violation with a
//! leftover baseline entry exits 2 with a "stale entry" message).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use enki_lint::engine::{run_check, CheckConfig};
use enki_lint::{baseline, RuleId};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_tree(name: &str) -> enki_lint::Report {
    run_check(&CheckConfig {
        root: fixture_root(name),
        baseline: None,
    })
    .expect("fixture tree checks")
}

fn rules_of(report: &enki_lint::Report) -> Vec<RuleId> {
    report.violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------------
// Engine-level: one violating tree and one clean twin per rule.
// ---------------------------------------------------------------------------

#[test]
fn r9_cycle_tree_fails_with_the_full_witness_path() {
    let report = check_tree("ws_r9_cycle_bad");
    assert_eq!(rules_of(&report), vec![RuleId::LockOrder], "{:#?}", report.violations);
    let msg = &report.violations[0].message;
    assert!(msg.contains("lock-order cycle queues → slots → queues"), "{msg}");
    // Both hops of the witness, each with its acquisition site.
    assert!(msg.contains("holding `queues` (crates/solver/src/par.rs:6)"), "{msg}");
    assert!(msg.contains("acquires `slots` (crates/solver/src/par.rs:7)"), "{msg}");
    assert!(msg.contains("holding `slots` (crates/serve/src/edge.rs:5)"), "{msg}");
    assert!(msg.contains("acquires `queues` (crates/serve/src/edge.rs:6)"), "{msg}");
}

#[test]
fn r9_consistent_order_tree_passes() {
    let report = check_tree("ws_r9_cycle_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn nested_workspace_is_out_of_scope_but_workspace_crates_are_not() {
    // `harness/` declares its own `[workspace]`: another project, so the
    // walk skips it. The spawns in `crates/solver/src` and in the
    // non-workspace member crate still fail R5.
    let report = check_tree("ws_nested_workspace");
    let r5: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::ThreadDiscipline)
        .map(|v| v.path.as_str())
        .collect();
    assert_eq!(
        r5,
        vec!["crates/solver/src/spawn.rs", "member/src/lib.rs"],
        "{:#?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| !v.path.starts_with("harness/")),
        "{:#?}",
        report.violations
    );
}

#[test]
fn r10_taint_tree_fails_at_the_sink_call() {
    let report = check_tree("ws_r10_taint_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::DeterminismTaint],
        "{:#?}",
        report.violations
    );
    let v = &report.violations[0];
    assert_eq!(v.path, "crates/serve/src/edge.rs");
    assert!(v.message.contains("sink `append(…)`"), "{}", v.message);
    assert!(v.message.contains("Instant::now()"), "{}", v.message);
}

#[test]
fn r10_caller_supplied_time_tree_passes() {
    let report = check_tree("ws_r10_taint_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn r11_layering_tree_fails_on_manifest_and_source_edges() {
    let report = check_tree("ws_r11_layering_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::Layering, RuleId::Layering],
        "{:#?}",
        report.violations
    );
    // The Cargo.toml edge and the `use` both get their own finding.
    assert_eq!(report.violations[0].path, "crates/core/Cargo.toml");
    assert!(
        report.violations[0].message.contains("must not depend on `enki-obs`"),
        "{}",
        report.violations[0].message
    );
    assert_eq!(report.violations[1].path, "crates/core/src/config.rs");
    assert!(
        report.violations[1].message.contains("must not reference `enki-obs`"),
        "{}",
        report.violations[1].message
    );
}

#[test]
fn r11_clean_dag_tree_passes() {
    let report = check_tree("ws_r11_layering_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn r12_cast_tree_fails_naming_the_typed_value() {
    let report = check_tree("ws_r12_cast_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::CastDiscipline],
        "{:#?}",
        report.violations
    );
    let msg = &report.violations[0].message;
    assert!(msg.contains("`as u32`"), "{msg}");
    assert!(msg.contains("`total_bill`"), "{msg}");
    assert!(msg.contains("try_from"), "{msg}");
}

#[test]
fn r12_try_from_tree_passes() {
    let report = check_tree("ws_r12_cast_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn r12_scaled_value_tree_fails_naming_the_fixed_point_witness() {
    let report = check_tree("ws_r12_scaled_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::CastDiscipline],
        "{:#?}",
        report.violations
    );
    let msg = &report.violations[0].message;
    assert!(msg.contains("`as u32`"), "{msg}");
    assert!(msg.contains("`scaled_load`"), "{msg}");
    assert!(msg.contains("try_from"), "{msg}");
}

#[test]
fn r12_scaled_value_try_from_tree_passes() {
    let report = check_tree("ws_r12_scaled_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

// ---------------------------------------------------------------------------
// CLI-level: exit codes, printed witness, SARIF, baseline shrink.
// ---------------------------------------------------------------------------

fn run_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_enki-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn cli_prints_the_lock_cycle_witness_and_exits_1() {
    let root = fixture_root("ws_r9_cycle_bad");
    let out = run_cli(&["check", "--root", root.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("R9 [lock-order]"), "{stdout}");
    assert!(stdout.contains("lock-order cycle queues → slots → queues"), "{stdout}");
    assert!(stdout.contains("holding `queues` (crates/solver/src/par.rs:6)"), "{stdout}");
    assert!(stdout.contains("acquires `queues` (crates/serve/src/edge.rs:6)"), "{stdout}");
}

#[test]
fn cli_exits_0_on_the_clean_twin_trees() {
    for tree in [
        "ws_r9_cycle_good",
        "ws_r10_taint_good",
        "ws_r11_layering_good",
        "ws_r12_cast_good",
        "ws_r12_scaled_good",
    ] {
        let root = fixture_root(tree);
        let out = run_cli(&["check", "--root", root.to_str().expect("utf8 path")]);
        assert_eq!(out.status.code(), Some(0), "{tree}: {out:?}");
    }
}

#[test]
fn cli_sarif_output_validates_and_names_the_rule() {
    let root = fixture_root("ws_r12_cast_bad");
    let out = run_cli(&[
        "check",
        "--root",
        root.to_str().expect("utf8 path"),
        "--format",
        "sarif",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let sarif = String::from_utf8(out.stdout).expect("utf8");
    enki_lint::sarif::validate(&sarif).expect("emitted SARIF must validate");
    assert!(sarif.contains("\"ruleId\":\"R12\""), "{sarif}");
    assert!(sarif.contains("cast-discipline"), "{sarif}");
}

/// A scratch workspace under the target directory, cleaned up on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("enki-lint-{name}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/core/src")).expect("mkdir");
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn fixing_a_baselined_violation_exits_2_and_names_the_stale_file() {
    let ws = Scratch::new("shrink-cli");
    ws.write(
        "crates/core/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn pay(bill: Option<f64>) -> f64 { bill.unwrap() }\n",
    );

    // Baseline the violation with a justification: the tree goes green.
    let config = CheckConfig {
        root: ws.root.clone(),
        baseline: None,
    };
    let dirty = run_check(&config).expect("runs");
    assert_eq!(dirty.violations.len(), 1, "{:#?}", dirty.violations);
    let justified = baseline::render(&dirty.violations)
        .replace("UNJUSTIFIED: explain why", "tracked legacy site");
    ws.write("lint.baseline", &justified);
    let root = ws.root.to_str().expect("utf8 path").to_string();
    let out = run_cli(&["check", "--root", &root]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Fix the violation but leave the baseline entry behind: the entry
    // is stale, and staleness is a configuration error (exit 2), not a
    // rule violation (exit 1) — the baseline must shrink with the code.
    ws.write(
        "crates/core/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn pay(bill: Option<f64>) -> f64 { bill.unwrap_or(0.0) }\n",
    );
    let out = run_cli(&["check", "--root", &root]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("stale entry"), "{stdout}");
    assert!(stdout.contains("crates/core/src/lib.rs"), "{stdout}");
    assert!(stdout.contains("update or delete the entry"), "{stdout}");
}
