//! The little JSON this benchmark needs: reading the program's flat
//! one-object-per-line records (registry snapshot lines, access-log lines)
//! and writing numbers with every digit.

use std::collections::BTreeMap;

/// A scalar JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number.
    Num(f64),
    /// A string (escapes other than `\"` and `\\` are kept verbatim).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parses one flat JSON object (`{"k": scalar, ...}`, no nesting). `None`
/// when the line is not such an object.
pub fn parse_flat(line: &str) -> Option<BTreeMap<String, Value>> {
    let mut p = Parser {
        s: line.trim().as_bytes(),
        i: 0,
    };
    p.eat(b'{')?;
    let mut out = BTreeMap::new();
    p.ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
        return p.done().then_some(out);
    }
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.eat(b':')?;
        p.ws();
        let value = p.value()?;
        out.insert(key, value);
        p.ws();
        match p.peek()? {
            b',' => p.i += 1,
            b'}' => {
                p.i += 1;
                return p.done().then_some(out);
            }
            _ => return None,
        }
    }
}

/// The number under `key`, if present and numeric.
pub fn num(obj: &BTreeMap<String, Value>, key: &str) -> Option<f64> {
    match obj.get(key)? {
        Value::Num(v) => Some(*v),
        _ => None,
    }
}

/// The string under `key`, if present and a string.
pub fn str<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Option<&'a str> {
    match obj.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The boolean under `key`, if present and a boolean.
pub fn bool(obj: &BTreeMap<String, Value>, key: &str) -> Option<bool> {
    match obj.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives (non-finite values cannot be represented and become
/// `null`).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        (self.peek()? == c).then(|| self.i += 1)
    }

    fn done(&mut self) -> bool {
        self.ws();
        self.i == self.s.len()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    let next = *self.s.get(self.i + 1)?;
                    if !matches!(next, b'"' | b'\\') {
                        out.push(b'\\');
                    }
                    out.push(next);
                    self.i += 2;
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Option<Value> {
        let end = self.i + word.len();
        (self.s.get(self.i..end)? == word.as_bytes()).then(|| {
            self.i = end;
            value
        })
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => {
                let start = self.i;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).ok()?;
                text.parse().ok().map(Value::Num)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_registry_and_access_lines() {
        let t = parse_flat(
            r#"{"span":"nn.gcn","elapsed_us":1520,"count":44,"units":9,"unit":"node","rate_per_s":5.9e3}"#,
        )
        .unwrap();
        assert_eq!(str(&t, "span"), Some("nn.gcn"));
        assert_eq!(num(&t, "count"), Some(44.0));
        assert_eq!(num(&t, "rate_per_s"), Some(5900.0));
        let a = parse_flat(r#"{"req":3,"outcome":"ok","cache_hit":false,"x":null}"#).unwrap();
        assert_eq!(bool(&a, "cache_hit"), Some(false));
        assert_eq!(a.get("x"), Some(&Value::Null));
        assert_eq!(parse_flat("{}"), Some(BTreeMap::new()));
        assert_eq!(parse_flat(r#"{"a":1"#), None);
        assert_eq!(parse_flat(r#"{"a":{"b":1}}"#), None);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.1234567891234), "0.1234567891234");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }
}
