//! Offline stand-in for `serde_json` over the shim `serde::Value` model.
//!
//! Supports the subset the workspace uses: [`to_string`], [`to_string_pretty`]
//! and [`from_str`]. Numbers round-trip exactly (`u64`/`i64` stay integers,
//! floats use Rust's shortest round-trippable formatting); non-finite floats,
//! which JSON cannot express, are written as the strings `"inf"`, `"-inf"`
//! and `"nan"` and parsed back symmetrically.

#![forbid(unsafe_code)]

use serde::{Deserialize, Error, Serialize, Value};

/// Deepest array/object nesting [`from_str`] accepts: far above any derived
/// type, far below what would overflow the parser's stack.
const MAX_DEPTH: usize = 128;

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Uint(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(value, out, indent, depth + 1);
            }
            if !fields.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("\"nan\"");
    } else if f.is_infinite() {
        out.push_str(if f > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep serde_json's convention of marking floats with a decimal
        // point so integers and floats stay distinguishable.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&f.to_string());
    }
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b" \t\r\n".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(|s| match s.as_str() {
                "inf" => Value::Float(f64::INFINITY),
                "-inf" => Value::Float(f64::NEG_INFINITY),
                "nan" => Value::Float(f64::NAN),
                _ => Value::String(s),
            }),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ))),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error(format!("unexpected input at offset {}", self.pos))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at offset {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error(format!(
                        "expected ',' or '}}' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".into()))?,
            );
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u escape".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error("bad escape".into())),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else {
            text.parse::<u64>()
                .map(Value::Uint)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostile nesting is a typed error, not a stack overflow that kills
    /// the process; nesting up to the bound still parses.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = from_str::<Value>(&open.repeat(100_000)).unwrap_err();
            assert!(err.0.contains("nesting deeper than 128"), "{}", err.0);
        }
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
    }

    /// Every `i64` written by `to_string` reads back, the most negative one
    /// included (its magnitude does not fit an `i64`).
    #[test]
    fn every_i64_round_trips() {
        for n in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            assert_eq!(from_str::<i64>(&to_string(&n).unwrap()).unwrap(), n);
        }
    }
}
