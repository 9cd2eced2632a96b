//! `#[hot_path]` — the zero-allocation contract, stated at the definition.
//!
//! The steady-state slot loop runs on reused buffers (`SlotWorkspace`,
//! `ChannelSnapshot`, the `*_into` kernels, the superres
//! `SuperResScratch`) and is proved allocation-free with a counting
//! allocator (`crates/sim/tests/zero_alloc.rs`). That proof is a
//! single end-to-end test: it tells you *that* a slot allocated, not
//! *where*, and it only covers the configurations the test happens to
//! drive.
//!
//! This attribute states the contract function-by-function. It expands to
//! exactly its input — zero runtime cost, zero codegen difference — and
//! exists so `cargo xtask lint` can find every marked function and reject
//! allocating calls (`Vec::new`, `with_capacity`, `.clone()`,
//! `.collect()`, `format!`, `Box::new`, …) inside it at build time, with
//! a spanned diagnostic pointing at the call. Growth-by-`push` into a
//! caller-owned buffer remains legal: amortized growth reaches a fixed
//! point after warmup, which is the steady state the runtime test
//! measures.
//!
//! Suppress a deliberate exception at the call site with
//! `// xtask-allow(hot-path-alloc): <reason>` — the reason is mandatory
//! and the suppression itself is linted for staleness.
//!
//! ```ignore
//! use mmwave_hotpath::hot_path;
//!
//! #[hot_path]
//! pub fn steering_vector_into(geom: &ArrayGeometry, aod_deg: f64, out: &mut Vec<Complex64>) {
//!     out.clear();
//!     // … push per-element phasors; no fresh allocations …
//! }
//! ```

use proc_macro::TokenStream;

/// Marks a function as part of the zero-allocation steady-state path.
/// Pure pass-through: the item is returned untouched.
#[proc_macro_attribute]
pub fn hot_path(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
