//! Fixture-based self-tests for every lint (L1, L2, L4, L5, L6, L8).
//!
//! Each lint has a corpus under `tests/fixtures/l<N>/` with at least two
//! `bad_*` cases (must each produce ≥1 finding, all carrying that lint's
//! code) and two `clean_*` cases (must produce none). The harness runs the
//! same suppression (`allow_lint` markers) and stale-marker (M2) passes as
//! the real driver, so a clean fixture may also demonstrate an audited
//! marker — and a *stale* marker in a fixture fails the clean check.
//!
//! Case shapes:
//! * L1, L2, L4, L5, L8: one `.rs` file per case, linted in isolation.
//! * L6: a miniature workspace tree per case; `gitignore` files are named
//!   without the leading dot in the fixture (so the real repo lint never
//!   sees them) and renamed during the copy into a temp dir.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::lints::{self, Violation};
use xtask::scan::SourceFile;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Walk one lint's fixture dir, run `run` on each case, and enforce the
/// bad/clean contract plus the ≥2-of-each floor.
fn check_fixtures(lint: &'static str, run: impl Fn(&Path) -> Vec<Violation>) {
    let dir = fixtures_dir().join(lint.to_ascii_lowercase());
    let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing fixture dir {}: {e}", dir.display()))
        .flatten()
        .map(|e| e.path())
        .collect();
    cases.sort();
    let (mut bad, mut clean) = (0usize, 0usize);
    for case in cases {
        let name = case
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let findings = run(&case);
        if name.starts_with("bad") {
            bad += 1;
            assert!(
                !findings.is_empty(),
                "{lint} fixture `{name}` should produce at least one finding"
            );
            for f in &findings {
                assert_eq!(
                    f.lint, lint,
                    "{lint} fixture `{name}` produced a foreign finding: {f:?}"
                );
            }
        } else if name.starts_with("clean") {
            clean += 1;
            assert!(
                findings.is_empty(),
                "{lint} fixture `{name}` should be clean, got {findings:#?}"
            );
        } else {
            panic!("fixture `{name}` must be named bad_* or clean_*");
        }
    }
    assert!(bad >= 2, "{lint}: need >=2 bad fixtures, found {bad}");
    assert!(clean >= 2, "{lint}: need >=2 clean fixtures, found {clean}");
}

/// Lint one fixture file with a per-file lint, then apply the marker
/// suppression and stale-marker passes exactly as the driver does.
fn per_file(run: fn(&SourceFile) -> Vec<Violation>) -> impl Fn(&Path) -> Vec<Violation> {
    move |path| {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let rel = PathBuf::from(path.file_name().expect("fixture file name"));
        let sf = SourceFile::parse(rel, &text);
        let (mut out, used) = lints::suppress(&sf, run(&sf));
        out.extend(lints::m2_stale_markers(&sf, &used));
        out
    }
}

/// Copy a fixture tree into `dst`, renaming `gitignore` → `.gitignore` so
/// the L6 gitignore scan sees what a real workspace would contain.
fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap_or_else(|e| panic!("mkdir {}: {e}", dst.display()));
    for entry in fs::read_dir(src).unwrap().flatten() {
        let from = entry.path();
        let name = entry.file_name();
        let name = if name == "gitignore" {
            ".gitignore".into()
        } else {
            name
        };
        let to = dst.join(&name);
        if from.is_dir() {
            copy_tree(&from, &to);
        } else {
            fs::copy(&from, &to)
                .unwrap_or_else(|e| panic!("copy {} -> {}: {e}", from.display(), to.display()));
        }
    }
}

/// L6 inspects the filesystem, so each case is staged in a temp dir.
fn l6_case(case: &Path) -> Vec<Violation> {
    let name = case
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp =
        std::env::temp_dir().join(format!("xtask-lint-selftest-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    copy_tree(case, &tmp);
    let out = lints::l6_proptest_corpora(&tmp);
    let _ = fs::remove_dir_all(&tmp);
    out
}

#[test]
fn l1_fixture_corpus() {
    check_fixtures("L1", per_file(lints::l1_no_panics));
}

#[test]
fn l2_fixture_corpus() {
    check_fixtures("L2", per_file(lints::l2_no_siphash_maps));
}

#[test]
fn l4_fixture_corpus() {
    check_fixtures("L4", per_file(lints::l4_docs_cite_paper));
}

#[test]
fn l5_fixture_corpus() {
    check_fixtures("L5", per_file(lints::l5_telemetry_macros));
}

#[test]
fn l6_fixture_corpus() {
    check_fixtures("L6", l6_case);
}

#[test]
fn l8_fixture_corpus() {
    check_fixtures("L8", per_file(lints::l8_bounded_alloc));
}

/// The bug L8 exists for: the DNS decoder once pre-sized its sections
/// straight from the header's attacker-controlled u16 counts. The real
/// `codec.rs` is clean, and removing any one of its
/// `.min(MAX_SECTION_PREALLOC)` clamps yields exactly one L8 finding.
#[test]
fn l8_catches_each_stripped_codec_clamp() {
    const CLAMP: &str = ".min(MAX_SECTION_PREALLOC)";
    let path = xtask::workspace_root().join("crates/dns/src/codec.rs");
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    // Suppression only: the file's L1 markers would look stale to an
    // L8-only M2 pass.
    let lint = |src: &str| {
        let sf = SourceFile::parse(PathBuf::from("codec.rs"), src);
        lints::suppress(&sf, lints::l8_bounded_alloc(&sf)).0
    };
    let clean = lint(&text);
    assert!(clean.is_empty(), "codec.rs should be L8-clean: {clean:#?}");

    let clamps: Vec<usize> = text.match_indices(CLAMP).map(|(pos, _)| pos).collect();
    assert!(
        clamps.len() >= 2,
        "expected the section clamps in codec.rs, found {}",
        clamps.len()
    );
    for pos in clamps {
        let stripped = format!("{}{}", &text[..pos], &text[pos + CLAMP.len()..]);
        let line = text[..pos].lines().count();
        let found = lint(&stripped);
        assert!(
            found.len() == 1 && found[0].lint == "L8",
            "stripping the clamp on line {line} should give one L8 finding, got {found:#?}"
        );
    }
}

/// Smoke: the full driver parses the real workspace without erroring.
/// (Whether the workspace is *clean* is CI's lint step, not a unit test —
/// an in-progress tree with a marker-pending finding should not also fail
/// the test suite.)
#[test]
fn runner_handles_the_real_workspace() {
    let outcome = xtask::runner::run(&xtask::workspace_root()).expect("lint driver runs");
    assert!(
        outcome.files_scanned > 50,
        "expected the real workspace, scanned only {} files",
        outcome.files_scanned
    );
}
