//! A minimal JSON reader/writer for the batch protocol.
//!
//! The build has no network access, so instead of `serde` this module
//! implements exactly the subset the JSON-lines job/result protocol
//! needs: parsing a line into a [`Json`] value and rendering one back
//! out. Objects preserve insertion order (results must be byte-stable
//! across runs), numbers are kept as `i64` when they are integral
//! (job ids and fuel bounds must not round-trip through `f64`), and
//! strings escape exactly the characters RFC 8259 requires.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered so rendering is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one JSON value from the whole input (trailing whitespace
    /// allowed, anything else is an error).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

/// Reads four hex digits starting at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u{hex}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected `\"` at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        let c = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: RFC 8259 encodes non-BMP
                            // characters as a \uXXXX\uXXXX pair.
                            if b.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                return Err(format!(
                                    "high surrogate \\u{code:04x} without a low surrogate"
                                ));
                            }
                            let low = hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!(
                                    "\\u{code:04x} must be followed by a low surrogate, \
                                     got \\u{low:04x}"
                                ));
                            }
                            *pos += 6;
                            let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(scalar).expect("valid surrogate pair")
                        } else {
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?
                        };
                        out.push(c);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Bulk-copy up to the next quote or escape: one UTF-8
                // validation per segment, not per character (a large
                // inline `src` would otherwise make parsing O(n²)).
                let seg_end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map(|off| *pos + off)
                    .ok_or("unterminated string")?;
                let seg = std::str::from_utf8(&b[*pos..seg_end]).map_err(|_| "invalid UTF-8")?;
                out.push_str(seg);
                *pos = seg_end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number")?;
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Json::Int(n));
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("`{text}` is not a number"))
}

/// Writes a string with RFC 8259 escaping.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => write!(f, "{x}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Builds an object from key/value pairs (the protocol's one-liner).
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for src in [
            r#"{"id":"j1","cmd":"run","src":"1 + 2","fuel":1000}"#,
            r#"[1,-2,3.5,true,false,null,"x"]"#,
            r#"{"nested":{"a":[{"b":"c"}]},"s":"line\nbreak \"quoted\""}"#,
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn integers_stay_integers() {
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.to_string(), "9007199254740993");
    }

    #[test]
    fn escapes() {
        let v = Json::Str("tab\there \"q\" \\ \u{1}".to_string());
        assert_eq!(v.to_string(), r#""tab\there \"q\" \\ \u0001""#);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Standard producers (e.g. json.dumps with ensure_ascii=True)
        // encode non-BMP characters as \u pairs.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // The raw character also passes straight through.
        assert_eq!(
            Json::parse("\"\u{1F600}\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // Lone or malformed surrogates are rejected, not mis-decoded.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn long_strings_parse_fast_and_faithfully() {
        // The bulk-copy segment path: a multi-hundred-KB src must
        // round-trip (and not take quadratic time — this test is the
        // canary; it would run for minutes per-char).
        let big = "lam[z](x: int). x + 1 // α β γ\n".repeat(20_000);
        let line = obj([("src", Json::Str(big.clone()))]).to_string();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("src").unwrap().as_str(), Some(big.as_str()));
    }
}
