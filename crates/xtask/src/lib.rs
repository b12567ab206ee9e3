//! The xtask static-analysis library: lexical model ([`scan`]), function
//! spans ([`model`]), the per-file lints L4, L5, L6 and L8 ([`lints`]),
//! and the whole-workspace driver ([`runner`]). The packet path's
//! no-panic and no-SipHash rules are clippy's, not this crate's.
//!
//! Split out of the `xtask` binary so the `lint_selftest` integration test
//! can run every lint against the fixture snippets under
//! `tests/fixtures/`.

pub mod ci_check;
pub mod lints;
pub mod model;
pub mod runner;
pub mod scan;

use std::path::{Path, PathBuf};

/// Workspace root, resolved from this crate's manifest directory so the
/// lint works from any working directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively, in deterministic order.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}
