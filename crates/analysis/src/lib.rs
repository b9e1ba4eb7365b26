//! preempt-lint: static preemption-safety analysis for the PreemptDB
//! workspace.
//!
//! The compiler cannot see the invariants this engine's correctness
//! rests on: preemption points must not fire inside latch critical
//! sections (wherever the guard flows), the global latch acquisition
//! order must be acyclic, handler-reachable code must not allocate or
//! panic, and the UPID / watchdog / request-queue handoffs depend on exact
//! atomic orderings. This crate walks every workspace source file with a
//! hand-rolled lexer (the CI image is hermetic — no `syn`), builds a
//! workspace-wide symbol table and call graph, and enforces those
//! invariants as lint rules. See DESIGN.md §12 for the rule catalogue,
//! the protocol spec table format, the suppression syntax, and the
//! baseline workflow.

pub mod lexer;
pub mod lockorder;
pub mod model;
pub mod protocol;
pub mod regions;
pub mod report;
pub mod resolve;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::Finding;

use model::FileModel;

/// Analyze a single source string (used by the fixture tests). No loom
/// suite is attached, so the model-drift check does not run here.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    rules::run_all(&[FileModel::build(path, src)], &[])
}

/// Analyze a set of files together (cross-file rules see all of them).
/// The protocol spec table is cross-validated against whichever of the
/// workspace's loom suites exist under `root`.
pub fn analyze_files(root: &Path, paths: &[PathBuf]) -> Vec<Finding> {
    let mut models = Vec::new();
    for p in paths {
        let Ok(src) = std::fs::read_to_string(p) else { continue };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        models.push(FileModel::build(&rel, &src));
    }
    let mut suites: Vec<FileModel> = Vec::new();
    for mr in protocol::MODELS {
        if suites.iter().any(|s| s.path == mr.suite) {
            continue;
        }
        if let Ok(src) = std::fs::read_to_string(root.join(mr.suite)) {
            suites.push(FileModel::build(mr.suite, &src));
        }
    }
    rules::run_all(&models, &suites)
}

/// Analyze every production source file in the workspace rooted at
/// `root`: `crates/*/src/**/*.rs`. Fixture files, `vendor/`, and the
/// integration-test crate are excluded by construction; `#[cfg(test)]`
/// bodies are excluded by the model.
pub fn analyze_workspace(root: &Path) -> Vec<Finding> {
    let files = workspace_files(root);
    analyze_files(root, &files)
}

/// Enumerate the files `analyze_workspace` covers.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else { return files };
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}
