//! Function spans on top of [`crate::scan::SourceFile`].
//!
//! L8's taint tracking is intraprocedural: it needs to know where each
//! function's body starts and ends, what its parameters are called (they
//! seed the taint), and whether it is test code. This module lifts the
//! lexical model into a list of [`FnItem`]s per file — no types, no name
//! resolution, no call graph.

use crate::scan::{Line, SourceFile};

/// One `fn` item: its span, parameters, and test flag.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Zero-based inclusive span from the `fn` line to the closing brace.
    pub start: usize,
    pub end: usize,
    /// Parameter identifier names (excluding `self`).
    pub params: Vec<String>,
    /// True when the item sits in `#[cfg(test)]` / `#[test]` code.
    pub test: bool,
}

/// Every `fn` item of `file`, in source order. Nested fns are listed too;
/// their lines also fall inside the outer item's span.
pub fn fn_items(file: &SourceFile) -> Vec<FnItem> {
    let lines = &file.lines;
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(name) = fn_name_of(line.code.trim()) {
            let (sig_end, params) = parse_signature(lines, i);
            out.push(FnItem {
                name,
                start: i,
                end: body_end(lines, i, sig_end),
                params,
                test: line.test,
            });
        }
    }
    out
}

/// `fn name` on this line (handles `pub`, `pub(crate)`, `const`, `async`,
/// `unsafe` qualifiers). Returns the identifier after `fn `.
fn fn_name_of(trimmed: &str) -> Option<String> {
    // Reject lines where `fn` appears only in a type position (e.g.
    // `Box<dyn Fn(...)>` is `Fn`, not `fn`). Look for the keyword token.
    let mut rest = trimmed;
    loop {
        let pos = rest.find("fn ")?;
        let before_ok = pos == 0
            || rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c == ' ' || c == '(');
        let candidate = &rest[pos + 3..];
        if before_ok {
            let name: String = candidate
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                return None;
            }
            // Qualifier sanity: everything before must be fn qualifiers.
            let prefix = rest[..pos].trim();
            let ok = prefix.is_empty()
                || prefix.split_whitespace().all(|w| {
                    matches!(w, "pub" | "const" | "async" | "unsafe" | "extern")
                        || w.starts_with("pub(")
                });
            if ok {
                return Some(name);
            }
        }
        rest = &rest[pos + 3..];
    }
}

/// Join signature lines from `start` until the parameter list closes and a
/// `{` or `;` is found; return (last signature line, param names).
fn parse_signature(lines: &[Line], start: usize) -> (usize, Vec<String>) {
    let mut sig = String::new();
    let mut end = start;
    for (k, l) in lines.iter().enumerate().skip(start) {
        sig.push_str(l.code.as_str());
        sig.push(' ');
        end = k;
        // The signature is complete once the top-level paren group closed
        // and we hit the body brace or a `;` (trait method/extern decl).
        if paren_closed(&sig) && (sig.contains('{') || sig.trim_end().ends_with(';')) {
            break;
        }
        if k > start + 30 {
            break; // runaway guard: malformed code
        }
    }
    (end, param_names(&sig))
}

fn paren_closed(sig: &str) -> bool {
    let Some(open) = sig.find('(') else {
        return false;
    };
    let mut depth = 0i32;
    for c in sig[open..].chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Parameter names out of a joined signature: split the top-level comma
/// list, take the pattern side of each `name: Type`.
fn param_names(sig: &str) -> Vec<String> {
    let Some(open) = sig.find('(') else {
        return Vec::new();
    };
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut cur = String::new();
    let mut parts: Vec<String> = Vec::new();
    for c in sig[open..].chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                if depth > 1 {
                    cur.push(c);
                }
            }
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                cur.push(c);
            }
            '<' => {
                angle += 1;
                cur.push(c);
            }
            '>' => {
                angle -= 1;
                cur.push(c);
            }
            ',' if depth == 1 && angle <= 0 => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    let mut out = Vec::new();
    for p in parts {
        let pat = p.split(':').next().unwrap_or("").trim();
        let pat = pat
            .trim_start_matches("mut ")
            .trim_start_matches("ref ")
            .trim();
        if pat.is_empty() || pat.contains("self") {
            continue;
        }
        let name: String = pat
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() && name != "_" {
            out.push(name);
        }
    }
    out
}

/// Last line of the fn body: from the signature's `{`, walk until brace
/// depth returns to the opening level. Braceless (`;`) items end at the
/// signature.
fn body_end(lines: &[Line], start: usize, sig_end: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    for (k, l) in lines.iter().enumerate().skip(start) {
        for c in l.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened && k >= sig_end => return k,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return k;
        }
    }
    lines.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn items(src: &str) -> Vec<FnItem> {
        fn_items(&SourceFile::parse(PathBuf::from("mem.rs"), src))
    }

    #[test]
    fn fn_spans_and_params() {
        let src = "struct S;\nimpl S {\n    pub fn a(&self, x: u8) -> u8 {\n        helper(x)\n    }\n}\nfn helper(v: u8) -> u8 {\n    v\n}\n";
        let fns = items(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].params, vec!["x"]);
        assert_eq!((fns[0].start, fns[0].end), (2, 4));
        assert_eq!(fns[1].name, "helper");
        assert_eq!(fns[1].params, vec!["v"]);
    }

    #[test]
    fn multiline_signature_params() {
        let src = "fn f(\n    alpha: u32,\n    beta: &[u8],\n) -> u32 {\n    alpha\n}\n";
        let fns = items(src);
        assert_eq!(fns[0].params, vec!["alpha", "beta"]);
        assert_eq!(fns[0].end, 5);
    }

    #[test]
    fn fn_types_are_not_items_and_tests_are_flagged() {
        let src = "fn f(cb: Box<dyn Fn(u8)>) {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let fns = items(src);
        let names: Vec<(&str, bool)> = fns.iter().map(|f| (f.name.as_str(), f.test)).collect();
        assert_eq!(names, vec![("f", false), ("t", true)]);
    }
}
