//! The DN-Hunter invariant lints (L1–L5).
//!
//! Each lint is a pass over a [`SourceFile`] (comments and string bodies
//! already blanked, test spans marked) and reports [`Violation`]s. Lints are
//! suppressible per line or per item with `// allow_lint(Lx): reason`
//! marker comments; a marker with a missing reason or unknown lint id is
//! itself an error (`M1`), so the allowlist stays auditable.
//!
//! | id | invariant |
//! |----|-----------|
//! | L1 | no `unwrap`/`expect`/panicking macros/unchecked indexing in hot-path crates |
//! | L2 | no default-hasher `HashMap` in per-packet paths |
//! | L3 | no lock guard held across another lock/shard/eviction call |
//! | L4 | every public item in `resolver`/`dns` documented with a paper citation |
//! | L5 | hot-path metric updates use the `tm_*!` macros, with no allocation/locking in the update |
//! | L11 | every field of a `retract_state(<fn>)`-marked struct is covered by `<fn>` or carries a reasoned `not_retracted:` waiver |

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

const KNOWN_LINTS: &[&str] = &[
    "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11",
];

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

/// L3: a named lock guard must not stay live across another lock
/// acquisition, a shard-array access, an eviction/backref callback, or a
/// (possibly blocking) channel `send`/`recv` — a guard held across a full
/// ring's send is the pipeline's deadlock shape. Chained single-statement
/// locking (`self.shards[i].lock().insert(...)`) drops its temporary guard
/// at the semicolon and is fine.
pub fn l3_no_guard_across_shards(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    // Active named guards: (name, depth at binding).
    let mut guards: Vec<(String, usize)> = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        let code = line.code.as_str();
        let trimmed = code.trim();
        let acquires = [".lock(", ".read(", ".write("]
            .iter()
            .any(|t| code.contains(t));
        // A `let` keeps the guard alive only when the acquisition is the
        // *final* call: `let st = *s.lock().stats();` copies out and drops
        // the temporary guard at the semicolon.
        let is_binding = trimmed.starts_with("let ") && acquires && lock_is_final_call(trimmed);
        // A line is risky even if it *binds* a new guard — acquiring a
        // second lock while one is held is the classic L3 violation.
        if !line.test && !guards.is_empty() {
            let risky = acquires
                || code.contains("self.shards")
                || code.contains("evict")
                || code.contains("remove_backrefs")
                || code.contains(".send(")
                || code.contains(".recv(");
            if risky {
                let names: Vec<&str> = guards.iter().map(|(n, _)| n.as_str()).collect();
                out.push(violation(
                    file,
                    i,
                    "L3",
                    format!(
                        "lock guard `{}` may still be held across this lock/shard/eviction/channel call; drop it first",
                        names.join("`, `")
                    ),
                ));
            }
        }
        if is_binding && !line.test {
            if let Some(name) = binding_name(trimmed) {
                guards.push((name, depth));
            }
        }
        // Explicit drops end a guard's liveness.
        for g in 0..guards.len() {
            let name = guards[g].0.clone();
            if code.contains(&format!("drop({name})")) {
                guards.remove(g);
                break;
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|&(_, d)| d <= depth);
                }
                _ => {}
            }
        }
    }
    out
}

/// True when the last `.lock(`/`.read(`/`.write(` call in `code` is the
/// end of the expression (followed only by `;`, `?`, or nothing), i.e. the
/// guard itself is what gets bound.
fn lock_is_final_call(code: &str) -> bool {
    let Some(pos) = [".lock(", ".read(", ".write("]
        .iter()
        .filter_map(|t| code.rfind(t).map(|p| p + t.len()))
        .max()
    else {
        return false;
    };
    // Walk past the matching close paren.
    let mut depth = 1i32;
    let mut rest = "";
    for (off, c) in code[pos..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    rest = &code[pos + off + 1..];
                    break;
                }
            }
            _ => {}
        }
    }
    matches!(rest.trim(), "" | ";" | "?" | "?;")
}

/// `let [mut] name = ...` → `name`; `None` for destructuring patterns.
fn binding_name(trimmed: &str) -> Option<String> {
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() || !rest[name.len()..].trim_start().starts_with(['=', ':']) {
        return None;
    }
    Some(name)
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

/// L11: retraction coverage. A `// retract_state(<fn>)` marker above a
/// struct declares that `<fn>` (in the same file) is the struct's
/// subtractive inverse. Every field of the struct must then be named in
/// the body of `<fn>`, unless the field's own line carries a
/// `not_retracted: <reason>` comment waiving it. A waiver without a
/// reason, a marker not followed by a struct, and a marker naming a
/// function the file does not define are all findings — so no piece of
/// mergeable sink state can silently go without an inverse.
pub fn l11_retraction_coverage(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (mi, line) in file.lines.iter().enumerate() {
        let Some(pos) = line.comment.find("retract_state(") else {
            continue;
        };
        let rest = &line.comment[pos + "retract_state(".len()..];
        let Some(end) = rest.find(')') else {
            out.push(violation(
                file,
                mi,
                "L11",
                "malformed `retract_state(...)` marker: missing `)`",
            ));
            continue;
        };
        let fn_name = rest[..end].trim();
        if fn_name.is_empty()
            || !fn_name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            out.push(violation(
                file,
                mi,
                "L11",
                "`retract_state(...)` marker must name the inverse function",
            ));
            continue;
        }

        // The struct the marker annotates: the next line with real code,
        // skipping attributes, must declare one.
        let mut struct_idx = None;
        for (i, l) in file.lines.iter().enumerate().skip(mi + 1) {
            let code = l.code.trim();
            if code.is_empty() || code.starts_with("#[") {
                continue;
            }
            if contains_word(code, "struct") {
                struct_idx = Some(i);
            }
            break;
        }
        let Some(si) = struct_idx else {
            out.push(violation(
                file,
                mi,
                "L11",
                format!(
                    "`retract_state({fn_name})` marker is not followed by a struct declaration"
                ),
            ));
            continue;
        };

        // Collect the struct's named fields and their waivers.
        let mut fields: Vec<(usize, String, Option<String>)> = Vec::new();
        let mut balance: i64 = 0;
        for (i, l) in file.lines.iter().enumerate().skip(si) {
            let at_field_depth = balance == 1 && i > si;
            if at_field_depth {
                let code = l.code.trim();
                let without_vis = code
                    .strip_prefix("pub(crate)")
                    .or_else(|| code.strip_prefix("pub(super)"))
                    .or_else(|| code.strip_prefix("pub"))
                    .unwrap_or(code)
                    .trim_start();
                if let Some(colon) = without_vis.find(':') {
                    let ident = without_vis[..colon].trim();
                    if !ident.is_empty()
                        && !without_vis[colon..].starts_with("::")
                        && ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        let waiver = l
                            .comment
                            .find("not_retracted:")
                            .map(|p| l.comment[p + "not_retracted:".len()..].trim().to_string());
                        fields.push((i, ident.to_string(), waiver));
                    }
                }
            }
            balance += l.code.matches('{').count() as i64;
            balance -= l.code.matches('}').count() as i64;
            if balance <= 0 && i > si {
                break;
            }
        }

        // The inverse function's body, concatenated.
        let mut body = String::new();
        let mut fn_line = None;
        for (i, l) in file.lines.iter().enumerate() {
            let code = &l.code;
            if let Some(p) = code.find("fn ") {
                let after = code[p + 3..].trim_start();
                if after.starts_with(fn_name)
                    && after[fn_name.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c == '(' || c == '<' || c.is_whitespace())
                {
                    fn_line = Some(i);
                    break;
                }
            }
        }
        match fn_line {
            None => {
                out.push(violation(
                    file,
                    mi,
                    "L11",
                    format!("`retract_state({fn_name})`: no function `{fn_name}` in this file"),
                ));
                continue;
            }
            Some(fi) => {
                let mut fn_balance: i64 = 0;
                let mut opened = false;
                for l in file.lines.iter().skip(fi) {
                    body.push_str(&l.code);
                    body.push('\n');
                    fn_balance += l.code.matches('{').count() as i64;
                    fn_balance -= l.code.matches('}').count() as i64;
                    if fn_balance > 0 {
                        opened = true;
                    }
                    if opened && fn_balance <= 0 {
                        break;
                    }
                }
            }
        }

        for (fi, name, waiver) in fields {
            match waiver {
                Some(reason) if reason.is_empty() => {
                    out.push(violation(
                        file,
                        fi,
                        "L11",
                        format!(
                            "field `{name}` waives retraction with `not_retracted:` but gives no reason"
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    if !contains_word(&body, &name) {
                        out.push(violation(
                            file,
                            fi,
                            "L11",
                            format!(
                                "field `{name}` is not covered by `{fn_name}` and carries no \
                                 `not_retracted:` waiver — merged state it accumulates can never \
                                 be retracted"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
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
    fn l3_flags_guard_held_across_second_lock() {
        let src = "fn f(&self) {\n    let g = self.shards[0].lock();\n    let h = self.shards[1].lock();\n    g.insert(x);\n}\n";
        let v = l3_no_guard_across_shards(&file(src));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn l3_accepts_chained_and_dropped_guards() {
        let src = "fn f(&self) {\n    self.shards[0].lock().insert(x);\n    let g = self.shards[1].lock();\n    let y = g.peek();\n    drop(g);\n    self.shards[2].lock().insert(y);\n}\n";
        assert!(l3_no_guard_across_shards(&file(src)).is_empty());
    }

    #[test]
    fn l3_flags_guard_held_across_channel_send_or_recv() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    self.tx.send(batch);\n    drop(g);\n    let h = self.state.lock();\n    let item = self.rx.recv();\n}\n";
        let v = l3_no_guard_across_shards(&file(src));
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 6);
        assert!(v[0].message.contains("channel"));
    }

    #[test]
    fn l3_guard_dies_at_block_end() {
        let src = "fn f(&self) {\n    {\n        let g = self.shards[0].lock();\n        g.insert(x);\n    }\n    self.shards[1].lock().insert(y);\n}\n";
        assert!(l3_no_guard_across_shards(&file(src)).is_empty());
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
}
