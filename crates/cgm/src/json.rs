//! The workspace's one JSON reader: string escaping for the hand-rolled
//! writers and a small recursive-descent parser for everything that reads
//! JSON back (export validation, the host-clock ledger). The repo is
//! offline-vendored, so there is no serde; number *formatting* stays with
//! each writer (`{}` in the Chrome trace).

/// Deepest nesting [`parse`] accepts before refusing the document.
const MAX_DEPTH: u32 = 256;

/// One parsed JSON value. Objects keep their members in document order,
/// duplicates included, so readers can enforce a canonical key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (may be infinite when the literal overflows `f64`).
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: `(key, value)` members in document order.
    Object(Vec<(String, Value)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Escape `s` as the body of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parse `text` as exactly one JSON value (RFC 8259) surrounded by
/// optional whitespace.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, at: 0 };
    p.ws();
    let value = p.value(0)?;
    p.ws();
    if p.at != text.len() {
        return Err(p.err("trailing data"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.at,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.at..].starts_with(lit) {
            self.at += lit.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Comma-separated items up to `close`; `item` parses one.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.at += 1; // the opening bracket
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(out);
        }
        loop {
            self.ws();
            out.push(item(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(out);
                }
                _ => return Err(self.err(format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.items(b'}', |p| {
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            Ok((key, p.value(depth + 1)?))
        })
        .map(Value::Object)
    }

    fn array(&mut self, depth: u32) -> Result<Value, ParseError> {
        self.items(b']', |p| p.value(depth + 1)).map(Value::Array)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte;
            // all three are ASCII, so the run ends on a char boundary.
            let rest = &self.text[self.at..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.at += run;
            let b = rest.as_bytes()[run];
            if b < 0x20 {
                return Err(self.err("raw control character in string"));
            }
            self.at += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.at += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => {
                    self.at -= 1;
                    return Err(self.err("bad escape"));
                }
            });
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// combining a surrogate pair when one follows.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) && self.text[self.at..].starts_with("\\u") {
            self.at += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("unpaired surrogate in \\u escape"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .text
            .get(self.at..self.at + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.at += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn digits(&mut self, what: &str) -> Result<(), ParseError> {
        let start = self.at;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == start {
            return Err(self.err(format!("expected {what}")));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        self.digits("digits")?;
        if self.peek() == Some(b'.') {
            self.at += 1;
            self.digits("fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.digits("exponent digits")?;
        }
        let v: f64 = self.text[start..self.at]
            .parse()
            .expect("a JSON number literal is a Rust float literal");
        Ok(Value::Number(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v =
            parse(" {\"a\":[1,2.5,-3e2,\"x\\n\\u00e9\\ud83d\\ude00\",true,false,null],\"b\":{}} ")
                .unwrap();
        let Value::Object(members) = v else {
            panic!("object")
        };
        assert_eq!(members[0].0, "a");
        assert_eq!(
            members[0].1,
            Value::Array(vec![
                Value::Number(1.0),
                Value::Number(2.5),
                Value::Number(-300.0),
                Value::String("x\né😀".into()),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ])
        );
        assert_eq!(members[1], ("b".into(), Value::Object(vec![])));
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        for (bad, offset) in [
            ("", 0),
            ("{\"a\":}", 5),
            ("[1,2,]", 5),
            ("\"unterminated", 1),
            ("{} extra", 3),
            ("[1.]", 3),
            ("\"\\x\"", 2),
            ("\"\\ud800\"", 7),
            ("nul", 0),
        ] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.offset, offset, "{bad:?}: {e}");
        }
    }

    #[test]
    fn nesting_is_depth_limited() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().message.contains("too deep"));
        let ok = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "quote\" slash\\ nl\n tab\t ctl\u{1} é";
        assert_eq!(
            parse(&format!("\"{}\"", escape(s))).unwrap(),
            Value::String(s.into())
        );
    }
}
