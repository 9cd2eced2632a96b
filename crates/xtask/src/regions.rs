//! Attribute-gated region detection on scrubbed source.
//!
//! Several lints need to know whether a byte offset sits inside the item
//! (or statement, block, field, or match arm) that a `#[cfg(...)]`
//! attribute gates. Without an AST this is computed structurally: find the
//! attribute, skip any further attributes, then take the extent of the
//! thing that follows — up to the matching `}` of the first top-level
//! brace block (with `else`-chain continuation), or the first `;` or `,`
//! at nesting depth 0, whichever ends the construct first.
//!
//! Scrubbing has already blanked strings and comments, so brace counting
//! cannot be derailed by literals. String *contents* are blanked but the
//! attribute text itself (e.g. `feature = "telemetry"`) must be matched
//! against the **original** source; offsets agree byte-for-byte.

use crate::scrub::Scrubbed;

/// Half-open byte range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    pub start: usize,
    pub end: usize,
}

impl Region {
    pub fn contains(&self, offset: usize) -> bool {
        offset >= self.start && offset < self.end
    }
}

/// True when `offset` falls in any region.
pub fn in_any(regions: &[Region], offset: usize) -> bool {
    regions.iter().any(|r| r.contains(offset))
}

/// Finds the extent of every item gated by an attribute for which
/// `attr_matches` returns true when given the attribute's original text
/// (including the `#[` … `]`).
pub fn gated_regions<F>(scrubbed: &Scrubbed, src: &str, attr_matches: F) -> Vec<Region>
where
    F: Fn(&str) -> bool,
{
    let text = scrubbed.text.as_bytes();
    let mut regions = Vec::new();
    let mut i = 0;
    while let Some(off) = scrubbed.text[i..].find("#[") {
        let attr_start = i + off;
        let attr_end = match matching_bracket(text, attr_start + 1) {
            Some(e) => e + 1,
            None => break,
        };
        i = attr_end;
        if !attr_matches(&src[attr_start..attr_end]) {
            continue;
        }
        if let Some(end) = item_extent(&scrubbed.text, attr_end) {
            regions.push(Region {
                start: attr_start,
                end,
            });
        }
    }
    regions
}

/// Offset of the `]` matching the `[` at `open` (which must point at `[`).
fn matching_bracket(text: &[u8], open: usize) -> Option<usize> {
    debug_assert_eq!(text[open], b'[');
    let mut depth = 0usize;
    for (j, &b) in text.iter().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// End offset (exclusive) of the item starting after position `from`
/// (which points just past a gating attribute's `]`).
fn item_extent(text: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut j = from;
    // Skip whitespace and any further attributes stacked on the item.
    loop {
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if text[j..].starts_with("#[") {
            j = matching_bracket(bytes, j + 1)? + 1;
        } else {
            break;
        }
    }
    // Walk to the end of the construct.
    let mut depth = 0i64;
    while j < bytes.len() {
        match bytes[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' => {
                if depth == 0 {
                    // A top-level block: the construct ends at its close,
                    // unless an `else` chain continues it.
                    let mut close = matching_brace(bytes, j)?;
                    loop {
                        let mut k = close + 1;
                        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                            k += 1;
                        }
                        if text[k..].starts_with("else") {
                            let next_open = text[k..].find('{').map(|o| k + o)?;
                            close = matching_brace(bytes, next_open)?;
                        } else {
                            return Some(close + 1);
                        }
                    }
                }
                depth += 1;
            }
            b'}' => {
                if depth == 0 {
                    // Enclosing scope closed before the construct did
                    // (e.g. a gated trailing expression): end here.
                    return Some(j);
                }
                depth -= 1;
            }
            b';' | b',' if depth == 0 => return Some(j + 1),
            _ => {}
        }
        j += 1;
    }
    Some(bytes.len())
}

/// Offset of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Regions gated by `#[cfg(test)]` (in-file test modules and helpers).
pub fn test_regions(scrubbed: &Scrubbed, src: &str) -> Vec<Region> {
    gated_regions(scrubbed, src, |attr| {
        attr.starts_with("#[cfg(") && attr.contains("test")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn telemetry_regions(src: &str) -> Vec<Region> {
        let s = scrub(src);
        gated_regions(&s, src, |attr| {
            attr.contains("feature") && attr.contains("\"telemetry\"")
        })
    }

    #[test]
    fn statement_gate_covers_to_semicolon() {
        let src = "fn f(t: &T) {\n    #[cfg(feature = \"telemetry\")]\n    t.end(clock, Stage::X, t0);\n    other();\n}\n";
        let r = telemetry_regions(src);
        assert_eq!(r.len(), 1);
        let end_call = src.find("t.end").unwrap();
        let other = src.find("other").unwrap();
        assert!(in_any(&r, end_call));
        assert!(!in_any(&r, other));
    }

    #[test]
    fn block_gate_covers_matching_brace_and_else() {
        let src = "fn f() {\n    #[cfg(feature = \"telemetry\")]\n    if x { a(); } else { b(); }\n    c();\n}\n";
        let r = telemetry_regions(src);
        assert_eq!(r.len(), 1);
        assert!(in_any(&r, src.find("a()").unwrap()));
        assert!(in_any(&r, src.find("b()").unwrap()));
        assert!(!in_any(&r, src.find("c()").unwrap()));
    }

    #[test]
    fn field_gate_covers_to_comma() {
        let src = "struct S {\n    #[cfg(feature = \"telemetry\")]\n    tracer: Tracer,\n    other: u32,\n}\n";
        let r = telemetry_regions(src);
        assert_eq!(r.len(), 1);
        assert!(in_any(&r, src.find("tracer:").unwrap()));
        assert!(!in_any(&r, src.find("other:").unwrap()));
    }

    #[test]
    fn fn_gate_covers_whole_body_with_stacked_attrs() {
        let src = "#[cfg(feature = \"telemetry\")]\n#[inline]\nfn traced() {\n    t.event(E::X);\n}\nfn plain() { t.event(E::Y); }\n";
        let r = telemetry_regions(src);
        assert_eq!(r.len(), 1);
        assert!(in_any(&r, src.find("E::X").unwrap()));
        assert!(!in_any(&r, src.find("E::Y").unwrap()));
    }

    #[test]
    fn cfg_test_mod_detected() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let s = scrub(src);
        let r = test_regions(&s, src);
        assert_eq!(r.len(), 1);
        assert!(in_any(&r, src.find("HashMap").unwrap()));
        assert!(!in_any(&r, src.find("real").unwrap()));
    }
}
