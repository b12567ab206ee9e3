//! Recursive-descent JSON parser producing a [`Value`] tree.

use crate::{Error, Number, Value};

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub(crate) fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: read the low half if present.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                            continue; // hex4 advanced past the digits
                        }
                        other => {
                            return Err(Error::new(format!(
                                "bad escape {:?} at offset {}",
                                other.map(|c| c as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| Error::new("unterminated string".to_string()))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error::new("unterminated string".to_string())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(Error::new("truncated \\u escape".to_string()));
        };
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("bad \\u escape".to_string()))?;
        let cp = u32::from_str_radix(digits, 16)
            .map_err(|_| Error::new("bad \\u escape".to_string()))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number".to_string()))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I64(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::F64(v)))
            .map_err(|_| Error::new(format!("bad number `{text}` at offset {start}")))
    }
}
