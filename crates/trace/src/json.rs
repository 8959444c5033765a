//! A minimal JSON tree: parse, render, and float-tolerant comparison.
//!
//! The workspace's one JSON tree, parser and renderer: trace NDJSON and
//! reports, the engine-spec `--spec` files, every `bench_results/*.json`
//! and the golden-fixture diffs all go through it. It is a small
//! recursive-descent parser over the RFC 8259 grammar (sufficient for
//! everything this workspace emits), an order-preserving object model, a
//! compact and a pretty renderer, and [`approx_eq`], which reports the
//! *path* of the first mismatch so a golden-test failure says exactly
//! which row and key drifted.

use std::fmt;

/// A parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as f64; bench output stays well inside
    /// the 2^53 exact-integer range).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, in declaration order.
    Object(Vec<(String, Value)>),
}

/// Parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array index lookup.
    pub fn at(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly (no whitespace). Non-finite numbers render as
    /// `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render pretty-printed with two-space indent.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some("  "), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<&str>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if *n == n.trunc() && n.abs() < 9e15 {
                    // Integral values print without an exponent or dot so
                    // counters and ids stay readable.
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

fn newline(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so this bounds its stack use whatever the
/// input; everything the workspace writes nests a few levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII in \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not emitted by our writers;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once: both are ASCII, so the run ends on a char
                    // boundary of the UTF-8 input and is validated once,
                    // keeping a long string linear.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }
}

/// Compare two JSON trees structurally, allowing numeric drift up to
/// `max(abs_tol, rel_tol * max(|a|, |b|))`. Strings, bools, nulls, key
/// sets, key order-insensitive object matching and array lengths must be
/// exact. On mismatch returns the JSON-pointer-style path of the first
/// difference.
pub fn approx_eq(a: &Value, b: &Value, rel_tol: f64, abs_tol: f64) -> Result<(), String> {
    fn walk(a: &Value, b: &Value, rel: f64, abs: f64, path: &str) -> Result<(), String> {
        match (a, b) {
            (Value::Null, Value::Null) => Ok(()),
            (Value::Bool(x), Value::Bool(y)) if x == y => Ok(()),
            (Value::Num(x), Value::Num(y)) => {
                let tol = abs.max(rel * x.abs().max(y.abs()));
                if (x - y).abs() <= tol || (x.is_nan() && y.is_nan()) {
                    Ok(())
                } else {
                    Err(format!("{path}: {x} != {y} (tol {tol:e})"))
                }
            }
            (Value::Str(x), Value::Str(y)) if x == y => Ok(()),
            (Value::Array(xs), Value::Array(ys)) => {
                if xs.len() != ys.len() {
                    return Err(format!("{path}: array length {} != {}", xs.len(), ys.len()));
                }
                for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                    walk(x, y, rel, abs, &format!("{path}/{i}"))?;
                }
                Ok(())
            }
            (Value::Object(xs), Value::Object(ys)) => {
                if xs.len() != ys.len() {
                    return Err(format!("{path}: object size {} != {}", xs.len(), ys.len()));
                }
                for (k, x) in xs {
                    let y = b
                        .get(k)
                        .ok_or_else(|| format!("{path}: missing key '{k}' on right"))?;
                    walk(x, y, rel, abs, &format!("{path}/{k}"))?;
                }
                Ok(())
            }
            _ => Err(format!(
                "{path}: type/value mismatch ({} vs {})",
                a.type_name(),
                b.type_name()
            )),
        }
    }
    walk(a, b, rel_tol, abs_tol, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null, "d": true, "e": {}}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().at(2).unwrap().as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        let re = Value::parse(&v.render()).unwrap();
        assert_eq!(v, re);
        let pretty = Value::parse(&v.render_pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn a_long_string_parses_in_one_pass() {
        // 1 MiB of one- to four-byte chars and escapes, in well under a
        // second: re-validating the rest of the input per char is
        // quadratic (this string took 156 s that way, release build).
        let unit = "aé€😀\\n\\\"";
        let text = format!("\"{}\"", unit.repeat((1 << 20) / unit.len()));
        let t = std::time::Instant::now();
        let v = Value::parse(&text).unwrap();
        assert!(t.elapsed() < std::time::Duration::from_secs(1));
        let want = "aé€😀\n\"".repeat((1 << 20) / unit.len());
        assert_eq!(v.as_str(), Some(want.as_str()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{\"a\": }").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("'single'").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&deep(MAX_DEPTH + 1)).is_err());
        // A million levels on a 2 MiB stack: unbounded recursion would
        // overflow it and abort the process.
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Value::parse(&"[".repeat(1_000_000)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(parsed);
    }

    #[test]
    fn approx_eq_tolerates_float_drift() {
        let a = Value::parse(r#"{"x": 1.0000001, "y": [0.0]}"#).unwrap();
        let b = Value::parse(r#"{"y": [1e-9], "x": 1.0}"#).unwrap();
        approx_eq(&a, &b, 1e-6, 1e-8).unwrap();
        let c = Value::parse(r#"{"x": 1.1, "y": [0.0]}"#).unwrap();
        let err = approx_eq(&a, &c, 1e-6, 1e-8).unwrap_err();
        assert!(err.contains("/x"), "path in error: {err}");
    }

    #[test]
    fn approx_eq_structural_mismatches() {
        let a = Value::parse(r#"{"x": [1, 2]}"#).unwrap();
        let b = Value::parse(r#"{"x": [1]}"#).unwrap();
        assert!(approx_eq(&a, &b, 0.0, 0.0).is_err());
        let c = Value::parse(r#"{"x": "1"}"#).unwrap();
        assert!(approx_eq(&a, &c, 0.0, 0.0).is_err());
        let d = Value::parse(r#"{"z": [1, 2]}"#).unwrap();
        assert!(approx_eq(&a, &d, 0.0, 0.0)
            .unwrap_err()
            .contains("missing key"));
    }

    #[test]
    fn parses_vendored_serializer_output() {
        // The exact shapes save_json emits: pretty, ".0" floats, escapes.
        let src = "{\n  \"label\": \"E4M3 / Static\",\n  \"rate\": 0.9264,\n  \"n\": 75.0\n}";
        let v = Value::parse(src).unwrap();
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(0.9264));
    }
}
