//! The one JSON writer of core's outputs: the `--json` flow rows
//! ([`crate::export::write_json_lines`]), the stream and window renders and
//! the rotation emitter. Hand-rolled, zero-dependency and deterministic:
//! strings escape `"`, `\` and every control character (as `\u00XX`), so
//! the same value always writes the same bytes.

pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

pub(crate) fn push_f64(out: &mut String, v: f64) {
    // Fixed 6-decimal formatting: deterministic across platforms, enough
    // precision for fractions and Eq. 1 scores.
    out.push_str(&format!("{v:.6}"));
}

pub(crate) fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

pub(crate) fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `v` written by `push`, or `null`.
pub(crate) fn push_opt<T>(out: &mut String, v: Option<T>, push: impl FnOnce(&mut String, T)) {
    match v {
        Some(v) => push(out, v),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_every_control_character() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\u{1}\n\t\u{1f}é");
        assert_eq!(s, "\"a\\\"b\\\\c\\u0001\\u000a\\u0009\\u001fé\"");
    }

    #[test]
    fn numbers_and_nulls() {
        let mut s = String::new();
        push_u64(&mut s, u64::MAX);
        s.push(',');
        push_opt(&mut s, None::<u64>, push_u64);
        s.push(',');
        push_opt(&mut s, Some(0), push_u64);
        s.push(',');
        push_f64(&mut s, 0.5);
        s.push(',');
        push_bool(&mut s, false);
        assert_eq!(s, "18446744073709551615,null,0,0.500000,false");
    }
}
