//! Minimal JSON helpers: escaping, a strict line validator, and top-level
//! field extraction.
//!
//! The trace pipeline hand-writes its JSONL (the container has no serde),
//! so the validator here is the other half of the contract: CI and the
//! soak binary run every emitted line back through [`validate_json_line`]
//! before trusting a trace.

/// Escape a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
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

/// Format an `f64` as a JSON value. JSON has no NaN/Infinity, so
/// non-finite values become `null` — readers treat that as "unknown".
pub fn fmt_f64_json(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on an integral float prints without a dot; that is still
        // valid JSON, so leave it.
        s
    } else {
        "null".to_string()
    }
}

/// Strictly validate that `line` is one complete JSON value (no trailing
/// garbage). Returns the byte offset of the first error.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    let mut p = Parser {
        b: line.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at offset {}", self.i)
    }

    fn value(&mut self) -> Result<(), String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.i += 1; // '{'
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.i += 1; // '['
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.i += 1;
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') | Some(b'\\') | Some(b'/') | Some(b'b') | Some(b'f')
                        | Some(b'n') | Some(b'r') | Some(b't') => self.i += 1,
                        Some(b'u') => {
                            for k in 1..=4 {
                                if !self
                                    .b
                                    .get(self.i + k)
                                    .is_some_and(|c| c.is_ascii_hexdigit())
                                {
                                    return Err(self.err("bad \\u escape"));
                                }
                            }
                            self.i += 5;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control char in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let mut digits = 0;
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            let mut frac = 0;
            while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.b.get(self.i), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        debug_assert!(self.i > start);
        Ok(())
    }
}

/// Extract the raw token of a top-level `"key": <token>` pair from a
/// single-line JSON object. Nested objects/arrays are skipped correctly;
/// strings are returned with their quotes.
pub fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let b = line.as_bytes();
    let needle = format!("\"{key}\"");
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i;
                i = skip_string(b, i)?;
                if depth == 1 && line[start..i] == *needle {
                    // Only a key if a ':' follows; a string *value* equal
                    // to the key name is skipped and the scan continues.
                    let mut j = i;
                    while j < b.len() && (b[j] as char).is_whitespace() {
                        j += 1;
                    }
                    if b.get(j) != Some(&b':') {
                        continue;
                    }
                    j += 1;
                    while j < b.len() && (b[j] as char).is_whitespace() {
                        j += 1;
                    }
                    let vstart = j;
                    let vend = skip_value(b, j)?;
                    return Some(line[vstart..vend].trim_end());
                }
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth -= 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Extract and unescape a top-level string field.
pub fn field_str(line: &str, key: &str) -> Option<String> {
    let raw = field_raw(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Extract a top-level numeric field.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    field_raw(line, key)?.parse().ok()
}

/// Extract a top-level integer field.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

fn skip_string(b: &[u8], mut i: usize) -> Option<usize> {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

fn skip_value(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'"' => skip_string(b, i),
        b'{' | b'[' => {
            let mut depth = 0i32;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'"' => j = skip_string(b, j)?,
                    b'{' | b'[' => {
                        depth += 1;
                        j += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        j += 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                    _ => j += 1,
                }
            }
            None
        }
        _ => {
            let mut j = i;
            while j < b.len() && !matches!(b[j], b',' | b'}' | b']') {
                j += 1;
            }
            Some(j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_real_lines() {
        for line in [
            r#"{}"#,
            r#"{"a":1,"b":-2.5e-3,"c":"x\"y","d":[1,2,{"e":null}],"f":true}"#,
            r#"[1,2,3]"#,
            r#""just a string""#,
            r#"-0.125"#,
        ] {
            assert!(validate_json_line(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn validator_rejects_garbage() {
        for line in [
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{"scenario":"torn-partial-en"#,
            r#"{"a":01e}"#,
            r#"{"a":NaN}"#,
            r#"{"a":1} trailing"#,
            "",
        ] {
            assert!(validate_json_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1}";
        let line = format!("{{\"v\":\"{}\"}}", json_escape(nasty));
        assert!(validate_json_line(&line).is_ok());
        assert_eq!(field_str(&line, "v").as_deref(), Some(nasty));
    }

    #[test]
    fn field_extraction_skips_nested_structures() {
        let line = r#"{"cell":"a,b","inner":{"cell":"WRONG","n":1},"t_s":0.125,"slot":42,"arr":[{"cell":"ALSO WRONG"}]}"#;
        assert_eq!(field_str(line, "cell").as_deref(), Some("a,b"));
        assert_eq!(field_f64(line, "t_s"), Some(0.125));
        assert_eq!(field_u64(line, "slot"), Some(42));
        assert_eq!(field_raw(line, "missing"), None);
        // A string *value* equal to the key name must not derail the scan.
        let tricky = r#"{"a":"cell","cell":7}"#;
        assert_eq!(field_u64(tricky, "cell"), Some(7));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64_json(f64::NAN), "null");
        assert_eq!(fmt_f64_json(f64::INFINITY), "null");
        assert_eq!(fmt_f64_json(1.5), "1.5");
    }
}
