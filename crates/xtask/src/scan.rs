//! A lightweight lexical model of a Rust source file.
//!
//! The invariant lints don't need types or name resolution — they need to
//! know, for every line, *what is code* (as opposed to comment or string
//! literal), whether the line sits inside test-only code, at which brace
//! depth it starts, and which `allow_lint` markers cover it. This module
//! computes exactly that with a character-level state machine, so the lints
//! themselves can be simple substring scans over the blanked `code` text.

/// One analysed source line.
#[derive(Debug)]
pub struct Line {
    /// The line with comment bodies and string/char literal contents
    /// replaced by spaces. Quote characters are kept so tokens don't merge.
    pub code: String,
    /// Concatenated text of all comments on the line.
    pub comment: String,
    /// True for `///` / `//!` doc-comment lines.
    pub doc: bool,
    /// True for `//!` inner doc-comment lines specifically.
    pub inner_doc: bool,
    /// Brace depth at the start of the line.
    pub depth: usize,
    /// Line is inside `#[cfg(test)]` / `#[test]` code.
    pub test: bool,
}

/// A parsed `// allow_lint(Lx): reason` marker.
#[derive(Debug)]
pub struct Marker {
    /// Zero-based line index the marker comment sits on.
    pub line: usize,
    /// The lint id, e.g. `"L1"`.
    pub lint: String,
    /// The justification after the colon.
    pub reason: String,
    /// True when the marker line carries no code of its own.
    pub standalone: bool,
}

/// A fully analysed file.
#[derive(Debug)]
pub struct SourceFile {
    pub path: std::path::PathBuf,
    pub lines: Vec<Line>,
    pub markers: Vec<Marker>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    Block(u32),
    Str,
    RawStr(u32),
}

impl SourceFile {
    /// Lex `text` into the per-line model.
    pub fn parse(path: std::path::PathBuf, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut state = State::Code;
        for raw in text.lines() {
            let (line, next) = lex_line(raw, state);
            state = next;
            lines.push(line);
        }
        mark_depth_and_tests(&mut lines);
        let markers = collect_markers(&lines);
        SourceFile {
            path,
            lines,
            markers,
        }
    }

    /// Per-line coverage of one marker: `true` where it suppresses its lint.
    ///
    /// Marker scope rules:
    /// * a marker sharing its line with code covers that line;
    /// * a standalone marker covers the next non-comment, non-attribute
    ///   line; if that line opens an item (`fn` / `impl` / `mod` / ...),
    ///   the whole braced item body is covered.
    pub fn marker_mask(&self, m: &Marker) -> Vec<bool> {
        let mut mask = vec![false; self.lines.len()];
        if !m.standalone {
            mask[m.line] = true;
            return mask;
        }
        // Find the first following line that is real code.
        let Some(target) = (m.line + 1..self.lines.len()).find(|&i| {
            let t = self.lines[i].code.trim();
            !t.is_empty() && !t.starts_with("#[")
        }) else {
            return mask;
        };
        mask[target] = true;
        if opens_item(self.lines[target].code.trim()) {
            let base = self.lines[target].depth;
            // Cover the (possibly multi-line) signature, then the body
            // until the brace depth falls back to the opening level.
            let mut entered = false;
            for (i, slot) in mask.iter_mut().enumerate().skip(target + 1) {
                let d = self.lines[i].depth;
                if entered && d <= base {
                    break;
                }
                if !entered && d <= base && self.lines[i].code.trim_end().ends_with(';') {
                    // Braceless item (e.g. trait method declaration):
                    // cover through the terminating `;` and stop.
                    *slot = true;
                    break;
                }
                if d > base {
                    entered = true;
                }
                *slot = true;
            }
        }
        mask
    }
}

/// Does this line begin a braced item whose whole body a standalone marker
/// should cover?
fn opens_item(trimmed: &str) -> bool {
    let t = trimmed
        .trim_start_matches("pub(crate) ")
        .trim_start_matches("pub(super) ")
        .trim_start_matches("pub ");
    [
        "fn ",
        "impl ",
        "impl<",
        "mod ",
        "struct ",
        "enum ",
        "trait ",
        "unsafe fn ",
        "const fn ",
        "async fn ",
    ]
    .iter()
    .any(|k| t.starts_with(k))
}

fn lex_line(raw: &str, mut state: State) -> (Line, State) {
    let bytes: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut doc = false;
    let mut inner_doc = false;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match state {
            State::Block(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    state = if depth > 1 {
                        State::Block(depth - 1)
                    } else {
                        State::Code
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    state = State::Block(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push(' ');
                    if i + 1 < bytes.len() {
                        code.push(' ');
                        i += 1;
                    }
                    i += 1;
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&bytes, i + 1, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&'/') {
                    // Line comment; `///` and `//!` are docs.
                    let rest: String = bytes[i..].iter().collect();
                    doc = rest.starts_with("///") || rest.starts_with("//!");
                    inner_doc = rest.starts_with("//!");
                    comment.push_str(rest.trim_start_matches('/').trim_start_matches('!'));
                    break;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    state = State::Block(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    // Plain (or byte) string start; the `b` prefix stays code.
                    state = State::Str;
                    code.push('"');
                    i += 1;
                } else if is_raw_str_start(&bytes, i) {
                    // `r"…"`, `r#"…"#`, or byte-raw `br#"…"#`: the prefix
                    // letters stay code, hash marks and contents blank out.
                    if bytes[i] == 'b' {
                        code.push('b');
                        i += 1;
                    }
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    state = State::RawStr(hashes);
                    code.push('r');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    code.push('"');
                    i = j + 1;
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if bytes.get(i + 1) == Some(&'\\') {
                        // '\x' escape: the char right after the backslash is
                        // the escaped one (possibly a quote, as in `'\''`);
                        // skip it before scanning for the closing quote.
                        code.push('\'');
                        let mut j = i + 3;
                        while j < bytes.len() && bytes[j] != '\'' {
                            j += 1;
                        }
                        for _ in i + 1..=j.min(bytes.len().saturating_sub(1)) {
                            code.push(' ');
                        }
                        i = j + 1;
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        code.push_str("'  ");
                        i += 3;
                    } else {
                        // Lifetime: leave as code.
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    // A line comment never crosses lines.
    (
        Line {
            code,
            comment,
            doc,
            inner_doc,
            depth: 0,
            test: false,
        },
        state,
    )
}

fn is_raw_str_start(bytes: &[char], i: usize) -> bool {
    if bytes[i] != 'r' && !(bytes[i] == 'b' && bytes.get(i + 1) == Some(&'r')) {
        return false;
    }
    // Previous char must not be part of an identifier (e.g. `for`).
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let start = if bytes[i] == 'b' { i + 2 } else { i + 1 };
    let mut j = start;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

fn closes_raw(bytes: &[char], from: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| bytes.get(from + k) == Some(&'#'))
}

/// Second pass: brace depth at line start, plus test-span marking for
/// `#[cfg(test)]` and `#[test]` items.
fn mark_depth_and_tests(lines: &mut [Line]) {
    let mut depth = 0usize;
    // (depth the guarded item's block was opened at) for active test spans.
    let mut test_until_depth: Option<usize> = None;
    let mut pending_attr = false;
    for line in lines.iter_mut() {
        line.depth = depth;
        let code = line.code.clone();
        let trimmed = code.trim();
        if test_until_depth.is_none()
            && (trimmed.contains("cfg(test)") || trimmed.contains("#[test]"))
        {
            pending_attr = true;
        }
        if pending_attr || test_until_depth.is_some() {
            line.test = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_attr {
                        test_until_depth = Some(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_until_depth == Some(depth) {
                        test_until_depth = None;
                    }
                }
                // Attribute applied to a braceless item (`use`, `mod x;`).
                ';' if pending_attr => pending_attr = false,
                _ => {}
            }
        }
    }
}

/// Extract `allow_lint(Lx): reason` markers from comments.
fn collect_markers(lines: &[Line]) -> Vec<Marker> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let mut rest = line.comment.as_str();
        while let Some(pos) = rest.find("allow_lint(") {
            rest = &rest[pos + "allow_lint(".len()..];
            let Some(close) = rest.find(')') else { break };
            let lint = rest[..close].trim().to_string();
            let after = &rest[close + 1..];
            let reason = after
                .strip_prefix(':')
                .map(|r| r.trim().to_string())
                .unwrap_or_default();
            out.push(Marker {
                line: i,
                lint,
                reason,
                standalone: line.code.trim().is_empty(),
            });
            rest = after;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("mem.rs"), src)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = parse("let s = \"x.unwrap()\"; // .unwrap() in comment\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains(".unwrap() in comment"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = parse("let s = r#\"a[0].unwrap()\"#; let t = v[0];\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("v[0]"));
    }

    #[test]
    fn char_literals_do_not_eat_the_line() {
        let f = parse("if c == '\"' { x.push('y') }\n");
        assert!(f.lines[0].code.contains("push"));
    }

    #[test]
    fn byte_raw_strings_are_blanked() {
        // `br#"…"#` used to mis-lex: the `b` prefix failed the raw-string
        // check, so the `"` opened a plain string that the first `"` inside
        // the raw contents closed — swallowing the rest of the line.
        let f = parse("let s = br#\"a\".unwrap()\"#; x.unwrap();\n");
        assert!(
            f.lines[0].code.matches(".unwrap()").count() == 1,
            "raw contents must be blanked, code after must survive: {:?}",
            f.lines[0].code
        );
        assert!(f.lines[0].code.contains("x.unwrap()"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_leak_a_quote() {
        // `'\''` used to stop scanning at the *escaped* quote, leaving the
        // closing quote to start a phantom char literal that could swallow
        // following code.
        let f = parse("let q = '\\''; v.unwrap();\n");
        assert!(
            f.lines[0].code.contains("v.unwrap()"),
            "code after the literal must survive: {:?}",
            f.lines[0].code
        );
    }

    #[test]
    fn multiline_raw_strings_blank_until_the_matching_close() {
        let f = parse("let s = r#\"line one\nstill .unwrap() string\n\"#; a.unwrap();\n");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("a.unwrap()"));
    }

    #[test]
    fn lifetime_ticks_leave_code_intact() {
        let f = parse("fn f<'a>(x: &'a [u8], y: &'_ str) -> &'a str { y }\n");
        let code = &f.lines[0].code;
        assert!(code.contains("[u8]") && code.contains("str"), "{code:?}");
    }

    #[test]
    fn cfg_test_spans_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let f = parse(src);
        assert!(!f.lines[0].test);
        assert!(f.lines[1].test && f.lines[3].test && f.lines[4].test);
        assert!(!f.lines[5].test);
    }

    #[test]
    fn standalone_marker_covers_whole_item() {
        let src =
            "// allow_lint(L1): fixture\nfn f() {\n    a[0];\n    b[1];\n}\nfn g() { c[2]; }\n";
        let f = parse(src);
        let mask = f.marker_mask(&f.markers[0]);
        assert!(mask[1] && mask[2] && mask[3]);
        assert!(!mask[5]);
    }

    #[test]
    fn inline_marker_covers_its_line_only() {
        let src = "let x = v[0]; // allow_lint(L1): bounds-checked above\nlet y = v[1];\n";
        let f = parse(src);
        let mask = f.marker_mask(&f.markers[0]);
        assert!(mask[0]);
        assert!(!mask[1]);
    }
}
