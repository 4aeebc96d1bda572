//! The little JSON the benchmark needs: reading `BENCHMARK.json` and the
//! result line of a child run, and quoting strings on the way out. The
//! workspace vendors no JSON crate.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            _ => &[],
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let matches = self.bytes[self.at..].starts_with(literal.as_bytes());
        if matches {
            self.at += literal.len();
        }
        matches
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut members = BTreeMap::new();
        loop {
            self.skip_space();
            if self.eat("}") {
                return Ok(Value::Object(members));
            }
            if !members.is_empty() && !self.eat(",") {
                return Err(self.error("expected `,` or `}`"));
            }
            self.skip_space();
            let key = self.string()?;
            self.skip_space();
            if !self.eat(":") {
                return Err(self.error("expected `:`"));
            }
            members.insert(key, self.value()?);
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut items = Vec::new();
        loop {
            self.skip_space();
            if self.eat("]") {
                return Ok(Value::Array(items));
            }
            if !items.is_empty() && !self.eat(",") {
                return Err(self.error("expected `,` or `]`"));
            }
            items.push(self.value()?);
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.at)
                .ok_or_else(|| self.error("unterminated string"))?;
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escape = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(escape),
                        _ => return Err(self.error("unsupported escape")),
                    }
                }
                _ => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| self.error("expected a value"))
    }
}

/// Quotes `text` as a JSON string.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let value = parse(
            r#"{"correct": true, "attempted": 1000, "failed": 0,
                "metrics": {"ops_per_s": {"value": 1.25e6, "unit": "1/s"}}}"#,
        )
        .unwrap();
        assert_eq!(value.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(value.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let metric = value
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .unwrap();
        assert_eq!(metric.get("value").and_then(Value::as_f64), Some(1.25e6));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    #[test]
    fn parses_arrays_and_escapes() {
        let value = parse(r#"{"a": [1, -2.5, "x\"y\n", null, []], "b": {}}"#).unwrap();
        let items = value.get("a").unwrap().as_array();
        assert_eq!(items.len(), 5);
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_str(), Some("x\"y\n"));
        assert_eq!(items[3], Value::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "{} x", "\"open", "nope"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn quote_round_trips() {
        let text = "a \"quoted\" \\ line\nnext";
        assert_eq!(parse(&quote(text)).unwrap().as_str(), Some(text));
    }
}
