//! Offline stand-in for `serde_json` over the shim `serde::Value` model.
//!
//! Supports the subset the workspace uses: [`to_string`], [`to_string_pretty`]
//! and [`from_str`]. JSON goes one way: the writer takes any `Serialize`
//! type, the reader yields a [`Value`] and nothing typed (its one input is
//! nkbench's own reports). The reader accepts only RFC 8259 JSON. Numbers
//! round-trip exactly (`u64`/`i64` stay integers, floats use Rust's shortest
//! round-trippable formatting); non-finite floats, which JSON cannot
//! express, are written as the strings `"inf"`, `"-inf"` and `"nan"` and
//! parsed back symmetrically.

#![forbid(unsafe_code)]

use serde::{Error, Serialize, Value};

/// Deepest array/object nesting [`from_str`] accepts: far above any written
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

/// Parse JSON text into a [`Value`].
pub fn from_str(s: &str) -> Result<Value, Error> {
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
    Ok(value)
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
                            // Exactly four hex digits: `from_str_radix` alone
                            // would also take a sign.
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let code = hex.iter().fold(0, |code, &b| {
                                code * 16 + (b as char).to_digit(16).expect("a hex digit")
                            });
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

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number by RFC 8259 §6: `-? (0 | [1-9][0-9]*) (\.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let invalid = |p: &Self| {
            Error(format!(
                "invalid number {:?}",
                String::from_utf8_lossy(&p.bytes[start..p.pos])
            ))
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(invalid(self));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let value = if is_float {
            text.parse::<f64>().ok().map(Value::Float)
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Value::Int)
        } else {
            text.parse::<u64>().ok().map(Value::Uint)
        };
        value.ok_or_else(|| invalid(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostile nesting is a typed error, not a stack overflow that kills
    /// the process; nesting up to the bound still parses. The bound is
    /// checked first, so a parser without it fails here instead of
    /// overflowing on the hostile text below.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        for open in ["[", "{\"a\":"] {
            let err = from_str(&open.repeat(100_000)).unwrap_err();
            assert!(err.0.contains("nesting deeper than 128"), "{}", err.0);
        }
    }

    /// Every integer `to_string` writes reads back, the most negative one
    /// included (its magnitude does not fit an `i64`).
    #[test]
    fn every_integer_round_trips() {
        for n in [i64::MIN, i64::MIN + 1, -1] {
            assert_eq!(
                from_str(&to_string(&Value::Int(n)).unwrap()),
                Ok(Value::Int(n))
            );
        }
        for n in [0, u64::MAX] {
            assert_eq!(from_str(&to_string(&n).unwrap()), Ok(Value::Uint(n)));
        }
    }

    /// The reader refuses text JSON forbids: a `\u` escape takes exactly
    /// four hex digits, and a number has no leading zero, no bare point
    /// and digits on both sides of its point (RFC 8259 §6). The forms the
    /// grammar allows still parse.
    #[test]
    fn text_json_forbids_is_refused() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u04""#,
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            ".5",
            "+1",
            "-",
            "1e",
            "1e+",
            "1.e5",
            "0x10",
        ] {
            assert!(from_str(bad).is_err(), "{bad} parsed");
        }
        for (good, want) in [
            ("\"\\u0041\\u00E9\"", Value::String("A\u{e9}".into())),
            ("0", Value::Uint(0)),
            ("10", Value::Uint(10)),
            ("-10", Value::Int(-10)),
            ("0.25", Value::Float(0.25)),
            ("-0.5", Value::Float(-0.5)),
            ("1e3", Value::Float(1e3)),
            ("2.5E-1", Value::Float(0.25)),
            ("1e+2", Value::Float(100.0)),
        ] {
            assert_eq!(from_str(good), Ok(want), "{good}");
        }
    }
}
