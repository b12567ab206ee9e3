//! Small helpers over the workspace's `serde_json::Value`: builders and an
//! indented writer (the recorded outputs are committed, so they should
//! diff line by line).

use serde_json::{Number, Value};

pub fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

pub fn int(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The members of an object, empty for anything else.
pub fn members(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(entries) => entries,
        _ => &[],
    }
}

/// `v` as indented JSON. Arrays of scalars stay on one line.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write(v, 0, &mut out);
    out.push('\n');
    out
}

fn write(v: &Value, depth: usize, out: &mut String) {
    let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
    match v {
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                pad(out, depth + 1);
                out.push_str(&Value::String(k.clone()).to_string());
                out.push_str(": ");
                write(item, depth + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
        Value::Array(items)
            if items
                .iter()
                .any(|i| matches!(i, Value::Object(_) | Value::Array(_))) =>
        {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                write(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        scalar_or_flat => out.push_str(&scalar_or_flat.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let v = obj([
            ("a", num(1.5)),
            ("b", Value::Array(vec![int(1), int(2)])),
            ("c", Value::Array(vec![obj([("d", text("x\"y"))])])),
            ("e", obj::<&str>([])),
        ]);
        let s = pretty(&v);
        assert!(s.contains("\"b\": [1,2]"), "{s}");
        assert_eq!(serde_json::from_str::<Value>(&s).unwrap(), v);
        assert_eq!(members(&v).len(), 4);
        assert!(members(&num(1.0)).is_empty());
    }
}
