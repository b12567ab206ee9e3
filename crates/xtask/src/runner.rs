//! The whole-workspace lint driver: file discovery, crate-dependency
//! parsing, the L1–L6 per-file passes, the L7–L10 reachability passes,
//! marker suppression, and stale-marker detection (M2).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::graph::Workspace;
use crate::lints::{self, Violation};
use crate::scan::SourceFile;

/// Crates the call graph covers. Excluded on purpose: `simnet` (seeded RNG
/// is its whole job), `bench` (timing harness), `compat` (out-of-workspace
/// shims), `xtask` (this tool).
pub const GRAPH_CRATES: &[&str] = &[
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

/// Hot-path crates: per-packet code where a panic or a SipHash map is a
/// correctness/performance bug (L1, L2).
const HOT_CRATES: &[&str] = &["net", "dns", "flow", "resolver", "telemetry"];
/// Crates whose hot paths carry metric updates and must use the `tm_*!`
/// macros (L5). The `telemetry` crate itself is exempt: it *defines* the
/// recorder functions the macros expand to.
const L5_EXEMPT_CRATES: &[&str] = &["telemetry"];
/// Extra files outside the hot crates whose metric updates L5 checks.
const L5_EXTRA_FILES: &[&str] = &["crates/core/src/sniffer.rs"];
/// Crates holding locks whose guard discipline L3 checks.
const LOCK_CRATES: &[&str] = &["resolver"];
/// Crates whose public API must cite the paper (L4).
const DOC_CRATES: &[&str] = &["resolver", "dns"];
/// Individual per-packet files in crates that are otherwise not hot
/// (the `core` crate also holds reporting/export code where a panic is
/// acceptable). These get the hot-path treatment (L1, L2) plus the guard
/// discipline check (L3) — the pipeline sends across bounded channels,
/// the classic place to deadlock a sniffer.
const HOT_FILES: &[&str] = &["crates/core/src/engine.rs", "crates/core/src/pipeline.rs"];

/// Where the `metrics!` catalog lives (L9).
const METRIC_CATALOG: &str = "crates/telemetry/src/metric.rs";
/// Where the `trace_events!` catalog lives (L10).
const TRACE_CATALOG: &str = "crates/telemetry/src/trace.rs";

/// Result of a full lint run.
pub struct LintOutcome {
    /// Active (post-suppression) findings, sorted by path then line.
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

/// Parse each graph crate's `Cargo.toml` for its in-workspace dependencies
/// (`dnhunter-*` / `dnhunter` lines), by crate dir name.
pub fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = BTreeMap::new();
    for krate in GRAPH_CRATES {
        let manifest = root.join("crates").join(krate).join("Cargo.toml");
        let mut deps = BTreeSet::new();
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            for line in text.lines() {
                let line = line.trim();
                let Some(name) = line
                    .split(['=', '.', ' '])
                    .next()
                    .map(str::trim)
                    .filter(|n| n.starts_with("dnhunter"))
                else {
                    continue;
                };
                let underscored = name.replace('-', "_");
                if let Some(dir) = crate::model::crate_dir_of_use(&underscored) {
                    if dir != *krate {
                        deps.insert(dir.to_string());
                    }
                }
            }
        }
        out.insert(krate.to_string(), deps);
    }
    out
}

/// Read and parse every `.rs` file of the graph crates, with paths
/// relative to `root`.
fn load_sources(root: &Path) -> Result<Vec<(String, SourceFile)>, String> {
    let mut sources = Vec::new();
    for krate in GRAPH_CRATES {
        let src = root.join("crates").join(krate).join("src");
        for path in crate::rust_files(&src) {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            sources.push((krate.to_string(), SourceFile::parse(rel, &text)));
        }
    }
    Ok(sources)
}

/// Run every lint over the workspace at `root`.
pub fn run(root: &Path) -> Result<LintOutcome, String> {
    let deps = crate_deps(root);
    let sources = load_sources(root)?;
    let ws = Workspace::build(sources, &deps);
    let files_scanned = ws.files.len();

    // Raw findings, grouped per file for suppression.
    let mut per_file: Vec<Vec<Violation>> = (0..ws.files.len()).map(|_| Vec::new()).collect();
    for (fi, file) in ws.files.iter().enumerate() {
        let krate = file.krate.as_str();
        let sf = &file.source;
        let rel = sf.path.to_string_lossy().replace('\\', "/");
        let hot = HOT_CRATES.contains(&krate) || HOT_FILES.iter().any(|h| rel == *h);
        if hot {
            per_file[fi].extend(lints::l1_no_panics(sf));
            per_file[fi].extend(lints::l2_no_siphash_maps(sf));
            if !L5_EXEMPT_CRATES.contains(&krate) {
                per_file[fi].extend(lints::l5_telemetry_macros(sf));
            }
        }
        if L5_EXTRA_FILES.iter().any(|h| rel == *h) {
            per_file[fi].extend(lints::l5_telemetry_macros(sf));
        }
        if LOCK_CRATES.contains(&krate) || HOT_FILES.iter().any(|h| rel == *h) {
            per_file[fi].extend(lints::l3_no_guard_across_shards(sf));
        }
        if DOC_CRATES.contains(&krate) {
            per_file[fi].extend(lints::l4_docs_cite_paper(sf));
        }
        // L11 is opt-in via the `retract_state(...)` marker, so it runs on
        // every file; unmarked files produce no findings.
        per_file[fi].extend(lints::l11_retraction_coverage(sf));
    }
    for v in crate::reach::l7_determinism(&ws)
        .into_iter()
        .chain(crate::reach::l8_bounded_alloc(&ws))
        .chain(crate::reach::l9_metric_catalog(
            &ws,
            &PathBuf::from(METRIC_CATALOG),
        ))
        .chain(crate::reach::l10_trace_catalog(
            &ws,
            &PathBuf::from(TRACE_CATALOG),
        ))
    {
        match ws.files.iter().position(|f| f.source.path == v.path) {
            Some(fi) => per_file[fi].push(v),
            None => per_file[0].push(v), // catalog-missing sentinel
        }
    }

    // Suppression + marker hygiene (M1 first, then M2 on the leftovers).
    let mut violations: Vec<Violation> = Vec::new();
    for (fi, raw) in per_file.into_iter().enumerate() {
        let sf = &ws.files[fi].source;
        let (active, used) = lints::suppress(sf, raw);
        violations.extend(active);
        violations.extend(lints::check_markers(sf));
        violations.extend(lints::m2_stale_markers(sf, &used));
    }
    violations.extend(lints::l6_proptest_corpora(root));

    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(LintOutcome {
        violations,
        files_scanned,
    })
}
