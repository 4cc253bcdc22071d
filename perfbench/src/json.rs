//! A small strict JSON writer and parser for the result line.
//!
//! The writer refuses non-finite numbers; the parser refuses duplicate
//! object keys, trailing input, invalid escapes and numbers that overflow
//! to infinity. [`parse_result`] then checks the result schema: exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`, and exactly the
//! expected metric names, each `{"value": <finite>, "unit": <string>}`.

use std::fmt::{self, Write as _};

/// A JSON value. Objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A write, parse or schema error.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonError {
    /// A number that is NaN or infinite (written or parsed).
    NonFinite { path: String },
    /// Malformed text at a byte offset.
    Syntax { offset: usize, what: &'static str },
    /// The same key twice in one object.
    DuplicateKey { key: String },
    /// A required key is absent.
    Missing { key: String },
    /// A key the schema does not allow.
    Unexpected { key: String },
    /// A value of the wrong JSON type.
    WrongType { key: String, expected: &'static str },
    /// Counts that contradict each other.
    Inconsistent { what: &'static str },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::NonFinite { path } => write!(f, "non-finite number at {path}"),
            JsonError::Syntax { offset, what } => {
                write!(f, "syntax error at byte {offset}: {what}")
            }
            JsonError::DuplicateKey { key } => write!(f, "duplicate key {key:?}"),
            JsonError::Missing { key } => write!(f, "missing key {key:?}"),
            JsonError::Unexpected { key } => write!(f, "unexpected key {key:?}"),
            JsonError::WrongType { key, expected } => write!(f, "{key:?} must be {expected}"),
            JsonError::Inconsistent { what } => write!(f, "inconsistent result: {what}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Serialize to compact text.
    pub fn write(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_into(&mut out, "$")?;
        Ok(out)
    }

    fn write_into(&self, out: &mut String, path: &str) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if !x.is_finite() {
                    return Err(JsonError::NonFinite {
                        path: path.to_string(),
                    });
                }
                // `Display` for f64 is the shortest round-trip decimal and
                // never uses an exponent, which is valid JSON.
                write!(out, "{x}").expect("writing to a String cannot fail");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out, &format!("{path}[{i}]"))?;
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if fields[..i].iter().any(|(prev, _)| prev == k) {
                        return Err(JsonError::DuplicateKey { key: k.clone() });
                    }
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_into(out, &format!("{path}.{k}"))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parse one complete JSON text (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value("$")?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError::Syntax {
            offset: self.i,
            what,
        }
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.s.get(self.i) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &'static str) -> Result<(), JsonError> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, path: &str) -> Result<Json, JsonError> {
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value(&format!("{path}[{}]", items.len()))?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    if self.s.get(self.i) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(JsonError::DuplicateKey { key });
                    }
                    self.ws();
                    if self.s.get(self.i) != Some(&b':') {
                        return Err(self.err("expected ':'"));
                    }
                    self.i += 1;
                    self.ws();
                    let v = self.value(&format!("{path}.{key}"))?;
                    fields.push((key, v));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(path),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self, path: &str) -> Result<Json, JsonError> {
        let start = self.i;
        let digits = |p: &mut Self| {
            let from = p.i;
            while let Some(b'0'..=b'9') = p.s.get(p.i) {
                p.i += 1;
            }
            p.i - from
        };
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let int_start = self.i;
        let n = digits(self);
        if n == 0 || (n > 1 && self.s[int_start] == b'0') {
            return Err(self.err("invalid number"));
        }
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if digits(self) == 0 {
                return Err(self.err("invalid fraction"));
            }
        }
        if let Some(b'e' | b'E') = self.s.get(self.i) {
            self.i += 1;
            if let Some(b'+' | b'-') = self.s.get(self.i) {
                self.i += 1;
            }
            if digits(self) == 0 {
                return Err(self.err("invalid exponent"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
        let x: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !x.is_finite() {
            return Err(JsonError::NonFinite {
                path: path.to_string(),
            });
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.i;
            while let Some(&b) = self.s.get(self.i) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.s.get(self.i) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.i += 4;
                            char::from_u32(hex).ok_or_else(|| self.err("unpaired surrogate"))?
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.i += 1;
                    out.push(c);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result line every benchmark run ends with.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl BenchResult {
    /// The result as a JSON object, metrics in the order given.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

fn whole(v: &Json, key: &str) -> Result<u64, JsonError> {
    match v {
        Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Ok(*x as u64),
        _ => Err(JsonError::WrongType {
            key: key.to_string(),
            expected: "a whole number",
        }),
    }
}

fn only_keys(fields: &[(String, Json)], allowed: &[&str]) -> Result<(), JsonError> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(JsonError::Unexpected { key: k.clone() });
        }
    }
    for k in allowed {
        if !fields.iter().any(|(f, _)| f == k) {
            return Err(JsonError::Missing {
                key: (*k).to_string(),
            });
        }
    }
    Ok(())
}

/// Parse a result line and check it carries exactly `expected` metrics.
pub fn parse_result(text: &str, expected: &[&str]) -> Result<BenchResult, JsonError> {
    let root = Json::parse(text)?;
    let Json::Obj(fields) = &root else {
        return Err(JsonError::WrongType {
            key: "$".into(),
            expected: "an object",
        });
    };
    only_keys(fields, &["correct", "attempted", "failed", "metrics"])?;
    let correct = match root.get("correct") {
        Some(Json::Bool(b)) => *b,
        _ => {
            return Err(JsonError::WrongType {
                key: "correct".into(),
                expected: "a boolean",
            })
        }
    };
    let attempted = whole(root.get("attempted").expect("checked"), "attempted")?;
    let failed = whole(root.get("failed").expect("checked"), "failed")?;
    if attempted == 0 {
        return Err(JsonError::Inconsistent {
            what: "attempted must be at least 1",
        });
    }
    if failed > attempted {
        return Err(JsonError::Inconsistent {
            what: "failed exceeds attempted",
        });
    }
    let Some(Json::Obj(ms)) = root.get("metrics") else {
        return Err(JsonError::WrongType {
            key: "metrics".into(),
            expected: "an object",
        });
    };
    only_keys(ms, expected)?;
    let mut metrics = Vec::with_capacity(ms.len());
    for (name, m) in ms {
        let Json::Obj(mf) = m else {
            return Err(JsonError::WrongType {
                key: name.clone(),
                expected: "an object",
            });
        };
        only_keys(mf, &["value", "unit"])?;
        let value = match m.get("value") {
            Some(Json::Num(x)) => *x,
            _ => {
                return Err(JsonError::WrongType {
                    key: name.clone(),
                    expected: "a number",
                })
            }
        };
        let unit = match m.get("unit") {
            Some(Json::Str(u)) => u.clone(),
            _ => {
                return Err(JsonError::WrongType {
                    key: name.clone(),
                    expected: "a string",
                })
            }
        };
        metrics.push(Metric {
            name: name.clone(),
            value,
            unit,
        });
    }
    Ok(BenchResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}
