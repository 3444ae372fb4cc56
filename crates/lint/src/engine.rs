//! Workspace walking and check orchestration.

use std::path::{Path, PathBuf};

use crate::baseline;
use crate::context::analyze;
use crate::graph;
use crate::lexer::tokenize;
use crate::report::{git_rev, Report};
use crate::rules::{check_file, SourceFile, Violation};
use crate::taint;

/// Directory names never descended into: build output, vendored
/// dependency stand-ins, VCS metadata, and the linter's own rule
/// fixtures (which violate rules on purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Configuration for one `check` run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Baseline file; `None` disables suppression entirely.
    pub baseline: Option<PathBuf>,
}

/// Classifies one source file: which crate it belongs to, whether it
/// is a test target or a crate root, and its analyzed token stream.
#[must_use]
pub fn classify(rel_path: &str, source: &str) -> SourceFile {
    let tokens = tokenize(source);
    let ctx = analyze(&tokens);
    let crate_dir = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(str::to_string);
    let is_test_target = rel_path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    let is_crate_root = rel_path.ends_with("src/lib.rs")
        || rel_path.ends_with("src/main.rs")
        || (rel_path.contains("src/bin/") && rel_path.ends_with(".rs"));
    SourceFile {
        rel_path: rel_path.to_string(),
        crate_dir,
        is_test_target,
        is_crate_root,
        tokens,
        ctx,
    }
}

/// Whether `dir` holds a `Cargo.toml` that declares a `[workspace]` of
/// its own (a separate build, such as a benchmark harness that builds
/// against the workspace's crates by path without joining it).
fn is_separate_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|manifest| {
        manifest.lines().map(str::trim).any(|line| {
            line == "[workspace]" || line.starts_with("[workspace.")
        })
    })
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            // A nested workspace is another project: its own lint scope,
            // not this one's.
            if SKIP_DIRS.contains(&name) || is_separate_workspace(&path) {
                continue;
            }
            walk(&path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Discovers every lintable `.rs` file under `root`, sorted for
/// deterministic reports. Subdirectories whose `Cargo.toml` declares a
/// separate `[workspace]` are not descended into; `root` itself is
/// always scanned.
///
/// # Errors
///
/// Returns a message when a directory cannot be read.
#[must_use = "dropping the Result discards the file list and hides walk errors"]
pub fn discover(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    Ok(files)
}

/// Discovers every internal crate manifest (`crates/*/Cargo.toml`)
/// under `root`, sorted for deterministic reports.
fn discover_manifests(root: &Path) -> Vec<graph::Manifest> {
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path().join("Cargo.toml")))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            std::fs::read_to_string(p)
                .ok()
                .map(|text| graph::parse_manifest(&rel, &text))
        })
        .collect()
}

/// Runs the full check: walk, lex, per-file rule scan, the workspace
/// passes (R9 lock-order, R10 determinism-taint, R11 layering), and
/// baseline application.
///
/// # Errors
///
/// Returns a message on I/O failures or a malformed baseline file
/// (callers should treat this as a configuration error, distinct from
/// rule violations).
#[must_use = "dropping the report discards every finding and hides configuration errors"]
pub fn run_check(config: &CheckConfig) -> Result<Report, String> {
    let mut violations: Vec<Violation> = Vec::new();
    let files = discover(&config.root)?;
    let mut sources: Vec<SourceFile> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(&config.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let classified = classify(&rel, &source);
        violations.extend(check_file(&classified));
        sources.push(classified);
    }
    // Workspace passes see every file at once.
    let manifests = discover_manifests(&config.root);
    violations.extend(graph::lock_order(&sources));
    violations.extend(graph::layering(&sources, &manifests));
    violations.extend(taint::determinism_taint(&sources));
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });

    let mut report = Report {
        files: files.len(),
        git_rev: git_rev(&config.root),
        ..Report::default()
    };
    match &config.baseline {
        Some(path) if path.exists() => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
            let entries = baseline::parse(&text).map_err(|errors| errors.join("\n"))?;
            let reasons: std::collections::BTreeMap<(crate::rules::RuleId, String), String> =
                entries
                    .iter()
                    .map(|e| ((e.rule, e.path.clone()), e.reason.clone()))
                    .collect();
            let outcome = baseline::apply(&entries, violations);
            report.violations = outcome.remaining;
            report.suppressed = outcome
                .suppressed
                .into_iter()
                .map(|v| {
                    let reason = reasons
                        .get(&(v.rule, v.path.clone()))
                        .cloned()
                        .unwrap_or_default();
                    (v, reason)
                })
                .collect();
            report.stale = outcome.stale;
        }
        _ => report.violations = violations,
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_workspace_layout() {
        let f = classify("crates/solver/src/exact.rs", "fn f() {}");
        assert_eq!(f.crate_dir.as_deref(), Some("solver"));
        assert!(!f.is_test_target);
        assert!(!f.is_crate_root);

        let f = classify("crates/agents/tests/chaos.rs", "fn f() {}");
        assert!(f.is_test_target);

        for root in [
            "src/lib.rs",
            "crates/core/src/lib.rs",
            "crates/lint/src/main.rs",
            "crates/bench/src/bin/repro_all.rs",
        ] {
            assert!(classify(root, "").is_crate_root, "{root}");
        }
        assert!(!classify("crates/core/src/time.rs", "").is_crate_root);
    }
}
