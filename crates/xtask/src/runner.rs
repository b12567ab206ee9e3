//! The whole-workspace lint driver: file discovery, the per-file passes,
//! marker suppression, stale-marker detection (M2), and the tree-level L6.

use std::path::Path;

use crate::lints::{self, Violation};
use crate::scan::SourceFile;

/// Crates the lint reads; `allow_lint` markers anywhere in them are checked
/// (M1/M2). Excluded on purpose: `simnet` (seeded RNG is its whole job),
/// `bench` (timing harness), `compat` (out-of-workspace shims), `xtask`
/// (this tool).
const LINTED_CRATES: &[&str] = &[
    "analytics",
    "baselines",
    "core",
    "dns",
    "flow",
    "net",
    "orgdb",
    "resolver",
    "telemetry",
];

/// Hot-path crates: per-packet code where a panic, a SipHash map or an
/// allocation sized off the wire is a correctness/performance bug (L1, L2,
/// L8).
const HOT_CRATES: &[&str] = &["net", "dns", "flow", "resolver", "telemetry"];
/// Crates whose hot paths carry metric updates and must use the `tm_*!`
/// macros (L5). The `telemetry` crate itself is exempt: it *defines* the
/// recorder functions the macros expand to.
const L5_EXEMPT_CRATES: &[&str] = &["telemetry"];
/// Extra files outside the hot crates whose metric updates L5 checks.
const L5_EXTRA_FILES: &[&str] = &["crates/core/src/sniffer.rs"];
/// Crates whose public API must cite the paper (L4).
const DOC_CRATES: &[&str] = &["resolver", "dns"];
/// Individual per-packet files in crates that are otherwise not hot
/// (the `core` crate also holds reporting/export code where a panic is
/// acceptable). These get the hot-path treatment (L1, L2, L5).
const HOT_FILES: &[&str] = &["crates/core/src/engine.rs", "crates/core/src/pipeline.rs"];
/// `core` files that hold per-record state sized while the trace streams
/// (L8, on top of the hot crates).
const L8_EXTRA_FILES: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/sniffer.rs",
    "crates/core/src/daemon.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/window.rs",
];

/// Result of a full lint run.
pub struct LintOutcome {
    /// Active (post-suppression) findings, sorted by path then line.
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

/// Raw findings of every per-file lint that applies to `file` of `krate`.
fn lint_file(krate: &str, file: &SourceFile) -> Vec<Violation> {
    let rel = file.path.to_string_lossy().replace('\\', "/");
    let is = |files: &[&str]| files.contains(&rel.as_str());
    let hot_crate = HOT_CRATES.contains(&krate);
    let mut raw = Vec::new();
    if hot_crate || is(HOT_FILES) {
        raw.extend(lints::l1_no_panics(file));
        raw.extend(lints::l2_no_siphash_maps(file));
    }
    if (hot_crate && !L5_EXEMPT_CRATES.contains(&krate)) || is(HOT_FILES) || is(L5_EXTRA_FILES) {
        raw.extend(lints::l5_telemetry_macros(file));
    }
    if DOC_CRATES.contains(&krate) {
        raw.extend(lints::l4_docs_cite_paper(file));
    }
    if hot_crate || is(L8_EXTRA_FILES) {
        raw.extend(lints::l8_bounded_alloc(file));
    }
    raw
}

/// Run every lint over the workspace at `root`.
pub fn run(root: &Path) -> Result<LintOutcome, String> {
    let mut violations: Vec<Violation> = Vec::new();
    let mut files_scanned = 0usize;
    for krate in LINTED_CRATES {
        for path in crate::rust_files(&root.join("crates").join(krate).join("src")) {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let file = SourceFile::parse(rel, &text);
            // Suppression + marker hygiene (M1, then M2 on the leftovers).
            let (active, used) = lints::suppress(&file, lint_file(krate, &file));
            violations.extend(active);
            violations.extend(lints::check_markers(&file));
            violations.extend(lints::m2_stale_markers(&file, &used));
            files_scanned += 1;
        }
    }
    violations.extend(lints::l6_proptest_corpora(root));

    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(LintOutcome {
        violations,
        files_scanned,
    })
}
