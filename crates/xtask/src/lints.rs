//! The DN-Hunter invariant lints (L1, L2, L4, L5, L6, L8).
//!
//! Each lint is a pass over a [`SourceFile`] (comments and string bodies
//! already blanked, test spans marked) and reports [`Violation`]s; L6 reads
//! the tree instead. Lints are suppressible per line or per item with
//! `// allow_lint(Lx): reason` marker comments; a marker with a missing
//! reason or unknown lint id is itself an error (`M1`), so the allowlist
//! stays auditable.
//!
//! | id | invariant |
//! |----|-----------|
//! | L1 | no `unwrap`/`expect`/panicking macros/unchecked indexing in hot-path crates |
//! | L2 | no default-hasher `HashMap` in per-packet paths |
//! | L4 | every public item in `resolver`/`dns` documented with a paper citation |
//! | L5 | hot-path metric updates use the `tm_*!` macros, with no allocation/locking in the update |
//! | L6 | property-test corpora are committed and never gitignored |
//! | L8 | allocation sizes derived from a function's parameters are clamped by a named cap |

use std::collections::BTreeSet;

use crate::model::fn_items;
use crate::scan::SourceFile;

/// A single lint finding.
#[derive(Debug)]
pub struct Violation {
    pub path: std::path::PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

fn violation(
    file: &SourceFile,
    idx: usize,
    lint: &'static str,
    message: impl Into<String>,
) -> Violation {
    Violation {
        path: file.path.clone(),
        line: idx + 1,
        lint,
        message: message.into(),
    }
}

/// Every lint id an `allow_lint` marker may name (M1).
pub const KNOWN_LINTS: &[&str] = &["L1", "L2", "L4", "L5", "L6", "L8"];

/// Apply `allow_lint` marker suppression to raw findings: drop the ones a
/// matching marker covers, and report which marker (by index into
/// `file.markers`) suppressed something — the complement is what M2 flags
/// as stale. Lints return *all* findings precisely so this split is
/// possible; `check_markers` (M1) findings are never suppressible.
pub fn suppress(file: &SourceFile, raw: Vec<Violation>) -> (Vec<Violation>, Vec<usize>) {
    let masks: Vec<Vec<bool>> = file.markers.iter().map(|m| file.marker_mask(m)).collect();
    let mut used: Vec<usize> = Vec::new();
    let mut active = Vec::new();
    for v in raw {
        let mut suppressed = false;
        for (mi, m) in file.markers.iter().enumerate() {
            if m.lint == v.lint && !m.reason.is_empty() && masks[mi][v.line - 1] {
                suppressed = true;
                if !used.contains(&mi) {
                    used.push(mi);
                }
            }
        }
        if !suppressed || v.lint == "M1" || v.lint == "M2" {
            active.push(v);
        }
    }
    (active, used)
}

/// M2: markers that suppress nothing are stale — they stop documenting a
/// real exception and start hiding future regressions. `used` holds the
/// marker indices `suppress` consumed for this file.
pub fn m2_stale_markers(file: &SourceFile, used: &[usize]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (mi, m) in file.markers.iter().enumerate() {
        if !KNOWN_LINTS.contains(&m.lint.as_str()) || m.reason.is_empty() {
            continue; // M1's problem, not M2's
        }
        if !used.contains(&mi) {
            out.push(violation(
                file,
                m.line,
                "M2",
                format!(
                    "stale `allow_lint({})` marker: it no longer suppresses any finding; remove it",
                    m.lint
                ),
            ));
        }
    }
    out
}

/// M1: markers must name a known lint and give a non-empty reason.
pub fn check_markers(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for m in &file.markers {
        if !KNOWN_LINTS.contains(&m.lint.as_str()) {
            out.push(violation(
                file,
                m.line,
                "M1",
                format!("allow_lint marker names unknown lint `{}`", m.lint),
            ));
        } else if m.reason.is_empty() {
            out.push(violation(
                file,
                m.line,
                "M1",
                format!(
                    "allow_lint({}) marker needs a `: reason` explaining why it is safe",
                    m.lint
                ),
            ));
        }
    }
    out
}

/// L1: panic-free hot path. Flags `.unwrap()`, `.expect(`, the panicking
/// macros, and subscript indexing (`x[...]`, which panics out of bounds —
/// `get`/`get_mut` are the checked alternatives).
pub fn l1_no_panics(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let code = line.code.as_str();
        if code.trim_start().starts_with("#[") {
            continue; // attribute, not executable code
        }
        if code.contains(".unwrap()") {
            out.push(violation(file, i, "L1", "`.unwrap()` in hot-path code"));
        }
        if code.contains(".expect(") {
            out.push(violation(file, i, "L1", "`.expect(...)` in hot-path code"));
        }
        for mac in ["panic!", "todo!", "unimplemented!", "unreachable!"] {
            for (pos, _) in code.match_indices(mac) {
                let before_ok = pos == 0 || !is_ident_char(char_at(code, pos - 1));
                if before_ok {
                    out.push(violation(
                        file,
                        i,
                        "L1",
                        format!("`{mac}` in hot-path code"),
                    ));
                }
            }
        }
        for idx in subscript_positions(code) {
            let snippet: String = code[..idx].chars().rev().take(24).collect::<String>();
            let snippet: String = snippet.chars().rev().collect();
            out.push(violation(
                file,
                i,
                "L1",
                format!("unchecked indexing (`...{}[`); use `get`/`get_mut` or allowlist with the guarding bounds check", snippet.trim_start()),
            ));
        }
    }
    out
}

fn char_at(s: &str, byte_idx: usize) -> char {
    s[byte_idx..].chars().next().unwrap_or(' ')
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Keywords that may directly precede an array-literal or slice-type `[`;
/// an identifier ending in one of these is not a subscripted expression.
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "in", "return", "break", "as", "else", "match", "if", "while", "mut", "ref", "move", "dyn",
    "impl", "where", "yield", "const", "static", "let", "pub",
];

/// Byte offsets of `[` characters that subscript an expression (previous
/// non-space char is an identifier char, `)`, or `]` — but not a keyword
/// and not a lifetime name, which precede array literals and slice types).
fn subscript_positions(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let mut j = i;
        let prev = loop {
            if j == 0 {
                break None;
            }
            j -= 1;
            let c = bytes[j] as char;
            if c != ' ' {
                break Some((j, c));
            }
        };
        match prev {
            Some((j, c)) if is_ident_char(c) || c == ')' || c == ']' => {
                if is_ident_char(c) {
                    // Walk to the start of the word.
                    let mut w = j;
                    while w > 0 && is_ident_char(bytes[w - 1] as char) {
                        w -= 1;
                    }
                    let word = &code[w..=j];
                    if PRE_BRACKET_KEYWORDS.contains(&word) {
                        continue;
                    }
                    if w > 0 && bytes[w - 1] == b'\'' {
                        continue; // lifetime: `&'a [u8]`
                    }
                }
                out.push(i);
            }
            _ => {}
        }
    }
    out
}

/// L2: per-packet maps must not use SipHash. Flags `HashMap` construction
/// (`::new`, `::default`, `::with_capacity`) and two-parameter `HashMap<K,
/// V>` types; a third generic parameter (a custom `BuildHasher`, as in
/// `resolver::maps::FnvHashMap`) passes.
pub fn l2_no_siphash_maps(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let code = line.code.as_str();
        let trimmed = code.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            continue; // imports are fine; usage sites are flagged
        }
        for (pos, _) in code.match_indices("HashMap") {
            if pos > 0 && is_ident_char(char_at(code, pos - 1)) {
                continue; // part of a longer identifier, e.g. FnvHashMap
            }
            let after = &code[pos + "HashMap".len()..];
            let after_trim = after.trim_start();
            if let Some(rest) = after_trim.strip_prefix("::") {
                for ctor in ["new", "default", "with_capacity"] {
                    if rest.starts_with(ctor) {
                        out.push(violation(
                            file,
                            i,
                            "L2",
                            format!(
                                "`HashMap::{ctor}` uses the default SipHash hasher in a per-packet path; use `resolver::maps::FnvHashMap`"
                            ),
                        ));
                    }
                }
            } else if after_trim.starts_with('<') {
                // Join following lines so multi-line generics parse.
                let mut generics = after_trim.to_string();
                let mut j = i + 1;
                while angle_depth(&generics).is_none() && j < file.lines.len() && j < i + 10 {
                    generics.push(' ');
                    generics.push_str(file.lines[j].code.trim());
                    j += 1;
                }
                if let Some(commas) = angle_depth(&generics) {
                    if commas < 2 {
                        out.push(violation(
                            file,
                            i,
                            "L2",
                            "`HashMap<K, V>` defaults to SipHash in a per-packet path; add a hasher parameter or use `resolver::maps::FnvHashMap`",
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Parse a `<...>` group at the start of `s`; return `Some(top_level_commas)`
/// if it closes within `s`, `None` if unbalanced (caller joins more lines).
fn angle_depth(s: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut commas = 0usize;
    for c in s.chars() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(commas);
                }
            }
            ',' if depth == 1 => commas += 1,
            ';' if depth == 0 => return Some(commas),
            _ => {}
        }
    }
    None
}

/// Recorder entry points that must not be called directly from hot-path
/// code (the `tm_*!` macros are the sanctioned spelling — one greppable
/// idiom, and the macro layer is where any future compile-out lands).
const L5_RECORDER_FNS: &[&str] = &["counter_add(", "gauge_add(", "observe(", "span("];

/// Tokens that mean a metric update allocates, formats, or locks — all
/// forbidden inside a per-packet increment.
const L5_HEAVY_TOKENS: &[&str] = &[
    "format!",
    ".to_string()",
    ".to_owned()",
    "String::",
    "vec!",
    "Vec::new",
    "Box::new",
    "Mutex",
    ".lock(",
];

/// L5: telemetry hygiene on the hot path. Two rules:
///
/// 1. Metric updates go through the `tm_count!`/`tm_gauge!`/`tm_observe!`/
///    `tm_span!` macros — a direct `telemetry::counter_add(...)` (or any
///    `*telemetry::` recorder-function call) is flagged.
/// 2. A line performing a metric update must not also allocate, format,
///    or take a lock: the update must stay a thread-local load plus one
///    relaxed `fetch_add`.
pub fn l5_telemetry_macros(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let code = line.code.as_str();
        for f in L5_RECORDER_FNS {
            for (pos, _) in code.match_indices(f) {
                // Only calls through a telemetry path are recorder calls;
                // `snap.get(..)` or a local `observe(` helper is not.
                if code[..pos].ends_with("telemetry::") {
                    let name = f.trim_end_matches('(');
                    out.push(violation(
                        file,
                        i,
                        "L5",
                        format!(
                            "direct `telemetry::{name}(...)` call on the hot path; use the `tm_*!` macros"
                        ),
                    ));
                }
            }
        }
        let is_update = ["tm_count!", "tm_gauge!", "tm_observe!", "tm_span!"]
            .iter()
            .any(|m| code.contains(m));
        if is_update {
            for heavy in L5_HEAVY_TOKENS {
                if code.contains(heavy) {
                    out.push(violation(
                        file,
                        i,
                        "L5",
                        format!(
                            "`{}` in a metric update; increments must not allocate, format, or lock",
                            heavy.trim_matches(['.', '(', '!'])
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Citation tokens accepted by L4: paper sections, figures, algorithms, or
/// the RFCs the wire formats implement.
const CITATION_TOKENS: &[&str] = &[
    "§",
    "Algorithm",
    "Fig.",
    "Eq.",
    "Table",
    "paper",
    "RFC",
    "DN-Hunter",
];

fn has_citation(text: &str) -> bool {
    CITATION_TOKENS.iter().any(|t| text.contains(t))
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// L4: every public item carries a doc comment citing the paper (or RFC)
/// it implements, and every file opens with a cited module doc.
pub fn l4_docs_cite_paper(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    // File-level: the module doc (`//!`) must exist and cite.
    let module_doc: String = file
        .lines
        .iter()
        .filter(|l| l.inner_doc)
        .map(|l| l.comment.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    if module_doc.is_empty() {
        out.push(violation(
            file,
            0,
            "L4",
            "file has no `//!` module doc; add one citing the paper section it implements",
        ));
    } else if !has_citation(&module_doc) {
        out.push(violation(
            file,
            0,
            "L4",
            "module doc cites no paper section (§ / Algorithm / Fig. / RFC ...)",
        ));
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let trimmed = line.code.trim();
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        if trimmed.starts_with("pub(") || rest.starts_with("use ") {
            continue; // restricted visibility / re-exports
        }
        // Strip fn qualifiers so `pub async fn` / `pub const fn` match.
        let rest = rest
            .trim_start_matches("async ")
            .trim_start_matches("unsafe ")
            .trim_start_matches("const fn")
            .trim_start_matches("const ");
        let first = rest.split_whitespace().next().unwrap_or(rest);
        let is_item = first.is_empty() // `pub const fn` fully stripped
            || ITEM_KEYWORDS.iter().any(|k| first == *k || first.starts_with(&format!("{k}<")));
        if !is_item {
            continue; // struct field (`pub x: T`) or similar
        }
        // Collect the contiguous doc block above, skipping attributes.
        let mut j = i;
        let mut doc = String::new();
        while j > 0 {
            j -= 1;
            let above = &file.lines[j];
            let t = above.code.trim();
            if above.doc {
                doc.insert_str(0, above.comment.as_str());
                doc.insert(0, '\n');
            } else if t.starts_with("#[") || (t.is_empty() && !above.comment.is_empty()) {
                continue; // attribute or marker comment between doc and item
            } else {
                break;
            }
        }
        let item = trimmed.chars().take(48).collect::<String>();
        if doc.trim().is_empty() {
            out.push(violation(
                file,
                i,
                "L4",
                format!("public item `{item}` has no doc comment"),
            ));
        } else if !has_citation(&doc) {
            out.push(violation(
                file,
                i,
                "L4",
                format!("doc for `{item}` cites no paper section (§ / Algorithm / Fig. / RFC ...)"),
            ));
        }
    }
    out
}

/// L6: property-test corpora are committed and never gitignored. Every
/// `crates/*/tests/properties.rs` must have a sibling
/// `properties.proptest-regressions` file in the tree (the seed corpus of
/// previously-failing cases), and no `.gitignore` anywhere in the
/// workspace may hide `proptest-regressions` files — a hidden corpus
/// silently un-pins every regression it recorded.
pub fn l6_proptest_corpora(root: &std::path::Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<std::path::PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        let props = dir.join("tests").join("properties.rs");
        if !props.is_file() {
            continue;
        }
        let corpus = dir.join("tests").join("properties.proptest-regressions");
        if !corpus.is_file() {
            out.push(Violation {
                path: props.strip_prefix(root).unwrap_or(&props).to_path_buf(),
                line: 1,
                lint: "L6",
                message: "property tests have no committed sibling \
                          `properties.proptest-regressions` corpus"
                    .into(),
            });
        }
    }
    for ignore in gitignore_files(root) {
        let Ok(text) = std::fs::read_to_string(&ignore) else {
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if !line.starts_with('#')
                && !line.starts_with('!')
                && line.contains("proptest-regressions")
            {
                out.push(Violation {
                    path: ignore.strip_prefix(root).unwrap_or(&ignore).to_path_buf(),
                    line: i + 1,
                    lint: "L6",
                    message: format!("`{line}` gitignores proptest regression corpora"),
                });
            }
        }
    }
    out
}

/// Every `.gitignore` in the tree, skipping build output.
fn gitignore_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<std::path::PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && name != ".git" {
                out.extend(gitignore_files(&path));
            }
        } else if name == ".gitignore" {
            out.push(path);
        }
    }
    out
}

/// Allocation tokens L8 inspects; the size expression is their paren group.
const ALLOC_TOKENS: &[&str] = &["with_capacity(", ".reserve(", ".reserve_exact(", ".resize("];

/// L8: allocation sizes derived from a function's parameters must be
/// clamped by a named cap constant on the same statement. Header counts
/// are attacker-controlled; a u16 `qdcount` must never turn into a
/// 65 535-slot prealloc per datagram. Taint is intraprocedural: every
/// non-test fn's parameters seed it, and `let` bindings whose initializer
/// mentions a tainted name propagate it. A builder whose sizes come from
/// data the program already holds says so with an `allow_lint(L8)` marker.
pub fn l8_bounded_alloc(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines = &file.lines;
    for item in fn_items(file) {
        if item.test {
            continue;
        }
        let last = item.end.min(lines.len() - 1);
        let mut tainted: BTreeSet<String> = item.params.into_iter().collect();
        let mut i = (item.start + 1).min(item.end); // skip the signature
        while i <= last {
            // Skip blank and comment-only lines so findings anchor on
            // the statement's first *code* line — that is the line an
            // `allow_lint` marker above the statement covers.
            if lines[i].code.trim().is_empty() {
                i += 1;
                continue;
            }
            // Join one statement: lines until one ends in `;`, `{`, `}`, `,`.
            let first = i;
            let mut stmt = String::new();
            loop {
                let l = lines[i].code.trim();
                stmt.push_str(l);
                stmt.push(' ');
                let done = l.ends_with([';', '{', '}', ',']) || i >= last || i >= first + 12;
                i += 1;
                if done {
                    break;
                }
            }
            if lines[first].test {
                continue;
            }
            // Taint propagation through let-bindings, including tuple /
            // struct destructuring (`let (header, counts) = dec.header()?`).
            if let Some((pat, rhs)) = stmt
                .trim_start()
                .strip_prefix("let ")
                .and_then(|r| r.split_once('='))
            {
                // Drop the type annotation so `v: Vec<u8>` taints only `v`.
                let pat = pat.split(':').next().unwrap_or(pat);
                if tainted.iter().any(|t| contains_word(rhs, t)) {
                    for name in idents_of(pat) {
                        if name != "mut" && name != "ref" {
                            tainted.insert(name);
                        }
                    }
                }
            }
            let is_tainted = |size: &str| tainted.iter().any(|t| contains_word(size, t));
            if is_clamped(&stmt) {
                continue;
            }
            let alloc = ALLOC_TOKENS.iter().find(|tok| {
                stmt.match_indices(**tok)
                    .any(|(pos, _)| is_tainted(group_args(&stmt, pos + tok.len() - 1, '(', ')')))
            });
            let message = if let Some(tok) = alloc {
                format!(
                    "allocation size in `{}` derives from a parameter of `{}`; clamp it with `.min(SOME_CAP)` on the same statement",
                    tok.trim_matches(['.', '(']),
                    item.name
                )
            } else if stmt.match_indices("vec![").any(|(pos, _)| {
                let inner = group_args(&stmt, pos + "vec![".len() - 1, '[', ']');
                inner
                    .rsplit_once(';')
                    .is_some_and(|(_, len)| is_tainted(len))
            }) {
                format!(
                    "`vec![…; n]` length derives from a parameter of `{}`; clamp it with `.min(SOME_CAP)` on the same statement",
                    item.name
                )
            } else {
                continue;
            };
            out.push(violation(file, first, "L8", message));
        }
    }
    out
}

/// A size expression is "clamped" when the statement pins it under a named
/// cap: a `.min(`/`.clamp(`/`cmp::min(` call plus a SCREAMING_CASE
/// constant somewhere in the statement.
fn is_clamped(stmt: &str) -> bool {
    (stmt.contains("min(") || stmt.contains(".clamp(")) && has_cap_const(stmt)
}

/// Any SCREAMING_CASE identifier (≥2 letters, no lowercase).
fn has_cap_const(stmt: &str) -> bool {
    idents_of(stmt).iter().any(|w| {
        w.chars().filter(char::is_ascii_alphabetic).count() >= 2
            && !w.chars().any(|c| c.is_ascii_lowercase())
    })
}

/// All identifier tokens of `s`, in order.
fn idents_of(s: &str) -> Vec<String> {
    s.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// Contents of the `open`…`close` group whose opener sits at byte `at`.
fn group_args(s: &str, at: usize, open: char, close: char) -> &str {
    let mut depth = 0i32;
    for (i, c) in s[at..].char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return &s[at + 1..at + i];
            }
        }
    }
    &s[at + 1..]
}

/// True when `needle` occurs in `hay` as a whole identifier (no ident
/// character on either side).
fn contains_word(hay: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(p) = hay[start..].find(needle) {
        let p = start + p;
        let before_ok = !hay[..p].chars().next_back().is_some_and(is_ident);
        let after_ok = !hay[p + needle.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = p + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("mem.rs"), src)
    }

    #[test]
    fn l1_catches_unwrap_expect_panic_indexing() {
        let f = file("fn f(v: &[u8]) -> u8 {\n    let a = v.first().unwrap();\n    let b = o.expect(\"x\");\n    panic!(\"boom\");\n    v[0]\n}\n");
        let v = l1_no_panics(&f);
        let kinds: Vec<&str> = v
            .iter()
            .map(|x| x.message.split(['`', ' ']).nth(1).unwrap_or(""))
            .collect();
        assert_eq!(v.len(), 4, "{kinds:?}");
    }

    #[test]
    fn l1_ignores_tests_strings_comments_and_allows() {
        let src = "fn f() {\n    let s = \"don't .unwrap() me\"; // .unwrap() here neither\n    let x = v[0]; // allow_lint(L1): length checked two lines up\n}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = file(src);
        let raw = l1_no_panics(&f);
        assert_eq!(raw.len(), 1, "the allowed line is still a raw finding");
        let (active, used) = suppress(&f, raw);
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(used, vec![0], "the marker was consumed");
    }

    #[test]
    fn m2_flags_markers_that_suppress_nothing() {
        let src = "fn f() {\n    let x = v.first(); // allow_lint(L1): nothing wrong on this line anymore\n}\n";
        let f = file(src);
        let (_, used) = suppress(&f, l1_no_panics(&f));
        let v = m2_stale_markers(&f, &used);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale"));
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn l1_does_not_flag_array_types_or_macros() {
        let src = "fn f() {\n    let a: [u8; 4] = [0; 4];\n    let v = vec![1, 2];\n    let s = &buf;\n}\n";
        assert!(l1_no_panics(&file(src)).is_empty());
    }

    #[test]
    fn l2_flags_default_hasher_only() {
        let src = "struct S {\n    flows: HashMap<Key, Rec>,\n}\nfn f() {\n    let m: FnvHashMap<u8, u8> = FnvHashMap::default();\n    let bad = HashMap::new();\n    type T = HashMap<K, V, FnvBuildHasher>;\n}\n";
        let v = l2_no_siphash_maps(&file(src));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 6);
    }

    #[test]
    fn l4_requires_cited_docs() {
        let src = "//! Implements paper §3.1.1.\n\n/// Undocumented section reference missing here.\npub fn f() {}\n\n/// The Clist of Algorithm 1.\npub struct Clist;\n\npub fn bare() {}\n";
        let v = l4_docs_cite_paper(&file(src));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("cites no paper"));
        assert!(v[1].message.contains("no doc comment"));
    }

    #[test]
    fn m1_rejects_reasonless_or_unknown_markers() {
        let src = "fn f() {\n    let x = v[0]; // allow_lint(L1)\n    let y = v[1]; // allow_lint(L42): what\n}\n";
        let v = check_markers(&file(src));
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn l5_flags_direct_recorder_calls() {
        let src = "fn f() {\n    telemetry::counter_add(Tm::IngestFrames, 1);\n    dnhunter_telemetry::observe(Tm::BatchItems, n);\n    let _t = telemetry::span(Tm::MergeNanos);\n}\n";
        let v = l5_telemetry_macros(&file(src));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].message.contains("tm_*!"));
    }

    #[test]
    fn l5_accepts_macro_updates_and_unrelated_calls() {
        let src = "fn f() {\n    tm_count!(Tm::IngestFrames);\n    dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::NetParses);\n    tm_observe!(Tm::BatchItems, batch.items.len() as u64);\n    snap.observe_something(1);\n    let g = self.state.lock();\n}\n";
        assert!(l5_telemetry_macros(&file(src)).is_empty());
    }

    #[test]
    fn l5_flags_allocation_in_updates() {
        let src = "fn f() {\n    tm_count!(lookup(format!(\"{x}\")));\n    tm_observe!(Tm::BatchItems, items.to_string().len() as u64);\n    tm_gauge!(Tm::FlowTableSize, self.state.lock().len() as i64);\n}\n";
        let v = l5_telemetry_macros(&file(src));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].message.contains("must not allocate"));
    }

    #[test]
    fn l5_respects_allow_markers_and_tests() {
        let src = "fn f() {\n    telemetry::counter_add(m, 1); // allow_lint(L5): startup path, not per-packet\n}\n#[cfg(test)]\nmod tests {\n    fn t() { telemetry::counter_add(m, 1); }\n}\n";
        let f = file(src);
        let (active, used) = suppress(&f, l5_telemetry_macros(&f));
        assert!(active.is_empty(), "{active:?}");
        assert_eq!(used.len(), 1);
    }

    #[test]
    fn l8_flags_unclamped_tainted_capacity() {
        let src = "fn decode(buf: &[u8], count: u16) {\n    let n = count as usize;\n    let v: Vec<u8> = Vec::with_capacity(n);\n    let w: Vec<u8> = Vec::with_capacity(64);\n}\n";
        let v = l8_bounded_alloc(&file(src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn l8_accepts_clamped_sizes_and_untainted_code() {
        let src = "fn decode(buf: &[u8], count: u16) {\n    let v: Vec<u8> = Vec::with_capacity((count as usize).min(MAX_RECORDS));\n    let mut s = String::new();\n    s.reserve(self.cfg.batch);\n}\n#[cfg(test)]\nmod tests {\n    fn t(count: u16) {\n        let v: Vec<u8> = Vec::with_capacity(count as usize);\n    }\n}\n";
        let v = l8_bounded_alloc(&file(src));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn l8_flags_vec_macro_and_resize_through_taint_chain() {
        let src = "fn ingest(len: u16) {\n    let n = len as usize + 2;\n    let buf = vec![0u8; n];\n    let mut v: Vec<u8> = Vec::new();\n    v.resize(n, 0);\n}\n";
        let v = l8_bounded_alloc(&file(src));
        assert_eq!(v.len(), 2, "{v:?}");
    }
}
