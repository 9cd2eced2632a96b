//! `lifecycle-single-writer` — `LinkLifecycle::apply` is the only
//! transition construction site.
//!
//! PR 1's state machine routes every link-state change through one
//! decision point so the transition log is a complete, ordered record of
//! the link's history. That collapses the moment any other module builds
//! a `Transition` value by hand — the log would contain entries the
//! state machine never decided. This pass forbids `Transition { … }`
//! struct literals everywhere except:
//!
//! - `crates/core/src/linkstate.rs` itself (the state machine), and
//! - test code (`tests/` files and `#[cfg(test)]` regions), which builds
//!   transition tapes to drive property tests.
//!
//! Reading, matching, cloning, or draining transitions is unrestricted —
//! only *construction* is single-writer.
//!
//! The fleet refactor adds a second rule with the same shape one level
//! up: in fleet mode, per-UE lifecycle state is written only by
//! `StateHandler::pass` (crates/core/src/statehandler.rs), which is the
//! sole site that converts queued intents into `LinkSignal`s. Any other
//! module spelling `LinkSignal` outside `crates/core/src/` is driving a
//! lifecycle machine directly instead of queueing an `Intent` — the
//! exact back door the StateHandler/IO split closes. Core itself (the
//! state machine, the single-link controller, the handler) is the
//! allowed writer set; tests are exempt as above.

use crate::diag::Finding;
use crate::lints::{find_token, snippet_at};
use crate::regions::{in_any, test_regions};
use crate::scrub::Scrubbed;
use std::path::Path;

pub fn in_scope(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    if p == "crates/core/src/linkstate.rs" {
        return false;
    }
    // Integration-test and fixture trees may construct transitions.
    if p.contains("/tests/") {
        return false;
    }
    p.starts_with("crates/") && p.contains("/src/")
}

pub fn run(rel: &Path, src: &str, scrubbed: &Scrubbed) -> Vec<Finding> {
    if !in_scope(rel) {
        return Vec::new();
    }
    let tests = test_regions(scrubbed, src);
    let mut out = Vec::new();
    // Match `Transition {` with any spacing, word-bounded on the left so
    // `TransitionCause {`-style names do not fire.
    let text = scrubbed.text.as_bytes();
    let mut i = 0;
    while let Some(off) = scrubbed.text[i..].find("Transition") {
        let start = i + off;
        i = start + "Transition".len();
        let before_ok =
            start == 0 || !(text[start - 1].is_ascii_alphanumeric() || text[start - 1] == b'_');
        let mut j = start + "Transition".len();
        if !before_ok || j >= text.len() {
            continue;
        }
        // Identifier continues (TransitionCause, Transitions) → not the type.
        if text[j].is_ascii_alphanumeric() || text[j] == b'_' {
            continue;
        }
        while j < text.len() && text[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= text.len() || text[j] != b'{' {
            continue;
        }
        if in_any(&tests, start) {
            continue;
        }
        let (line, col) = scrubbed.line_col(start);
        out.push(Finding {
            lint: "lifecycle-single-writer",
            file: rel.to_path_buf(),
            line,
            col,
            snippet: snippet_at(src, scrubbed, start),
            message: "`Transition { … }` constructed outside `LinkLifecycle::apply` \
                      (crates/core/src/linkstate.rs): the transition log must have one writer"
                .to_string(),
        });
    }
    // Fleet-mode rule: outside core, lifecycle machines are driven only
    // through the StateHandler's intent queue — naming `LinkSignal` at
    // all means a module is feeding a lifecycle directly.
    let p = rel.to_string_lossy().replace('\\', "/");
    if !p.starts_with("crates/core/src/") {
        for off in find_token(&scrubbed.text, "LinkSignal") {
            if in_any(&tests, off) {
                continue;
            }
            let (line, col) = scrubbed.line_col(off);
            out.push(Finding {
                lint: "lifecycle-single-writer",
                file: rel.to_path_buf(),
                line,
                col,
                snippet: snippet_at(src, scrubbed, off),
                message: "`LinkSignal` used outside crates/core/src/: fleet-mode lifecycle \
                          state is written only by `StateHandler::pass` — queue an `Intent` \
                          through the handler's `Io` instead of signalling a lifecycle directly"
                    .to_string(),
            });
        }
    }
    out
}
