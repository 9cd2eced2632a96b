//! Workspace call-graph extraction (the transitive-lint substrate).
//!
//! The per-file lints in `lints/*` check what a function *does*; the
//! transitive lints (`hot-path-closure`, `hot-path-panic`,
//! `determinism-taint`) check what a function *reaches*. This module
//! builds the reachability substrate: a lightweight item parser over the
//! position-preserving scrubbed view ([`crate::scrub`]) extracts every
//! `fn` item with its module path, attributes, and the call/method-call
//! tokens in its body; [`crate::resolve`] then resolves those tokens
//! against a workspace symbol table into edges.
//!
//! Like the rest of the engine this is AST-free by necessity (offline
//! build, no `syn`), which fixes the precision contract — documented in
//! DESIGN.md §16:
//!
//! - **Over-approximations** (may add edges that cannot execute): a
//!   method call `.f(…)` edges to every workspace method named `f` with a
//!   matching empty or non-empty argument list in the caller's crate
//!   dependency closure, unless the receiver is a `self.field` of a
//!   workspace type that has an `f` (this is also what makes
//!   trait-object dispatch sound); a fn named as a value edges where it
//!   is named, not where it is called; closure and nested-`fn` bodies
//!   are attributed to the enclosing item-level function.
//! - **Under-approximations** (may miss edges): macro-generated calls,
//!   `<T as Trait>::f` qualified-path calls, and body-local `use` imports
//!   are not resolved — they are recorded as *external* calls, never
//!   silently dropped. Calls the compiler makes (operators, `Display`,
//!   `Drop`, a global allocator) have no token; the unreached report
//!   roots them instead.
//!
//! Calls inside `#[cfg(feature = …)]` regions are kept apart
//! ([`CallGraph::feature_edges`]): the transitive lints judge the
//! default build, the unreached report every build.
//!
//! Test code (files under `tests/` and `#[cfg(test)]` regions) is parsed
//! but flagged, and neither resolves as a call target nor participates
//! in any transitive analysis.

use crate::regions::{gated_regions, in_any, test_regions, Region};
use crate::scrub::Scrubbed;
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` item anywhere in the workspace.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Simple name.
    pub name: String,
    /// `impl`/`trait` owner type, when the fn is a method.
    pub owner: Option<String>,
    /// The trait of an `impl Trait for Type` block the fn sits in.
    pub(crate) trait_impl: Option<String>,
    /// Module path including the crate root, e.g. `mmwave_dsp::sinc`.
    pub module: String,
    /// Raw attribute texts (scrubbed: string contents blanked).
    pub attrs: Vec<String>,
    /// Body byte range on the scrubbed text; `None` for bodyless decls.
    pub body: Option<Region>,
    /// Carries the `hot_path` marker attribute (any spelling, any
    /// position in the attribute stack, including inside `cfg_attr`).
    pub hot_path: bool,
    /// Lives in a `tests/` tree or a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Takes a parameter besides the `self` receiver.
    pub(crate) takes_args: bool,
}

impl FnNode {
    /// Qualified display path: `module::Owner::name` / `module::name`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.module, o, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// How a call token is spelled at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)` — plain name.
    Bare,
    /// `a::b::f(…)` — qualified path.
    Path,
    /// `.f(…)` — method syntax.
    Method,
    /// `f` or `a::f` named as a value (a fn pointer, `.map(f)`): an
    /// edge when it resolves to a workspace fn, and otherwise nothing,
    /// since most such tokens are variables.
    Ref,
}

/// One call token inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    /// Path segments (single element for `Bare`/`Method`).
    pub path: Vec<String>,
    /// Byte offset of the first segment (for spans).
    pub offset: usize,
    /// Sits in a `#[cfg(feature = …)]` region, so only a feature build
    /// makes the call.
    pub(crate) gated: bool,
    /// The argument list is empty: `f()`, `.f()`.
    pub(crate) no_args: bool,
    /// For `self.field.f(…)`, the field.
    pub(crate) self_field: Option<String>,
}

impl CallSite {
    pub fn display(&self) -> String {
        match self.kind {
            CallKind::Method => format!(".{}()", self.path[0]),
            CallKind::Ref => self.path.join("::"),
            _ => format!("{}()", self.path.join("::")),
        }
    }
}

/// Per-file resolution context: module path and `use` imports.
#[derive(Debug, Default)]
pub struct FileSyms {
    /// Module path of the file root, e.g. `mmwave_channel::snapshot`.
    pub module: String,
    /// Crate root for expanding `crate::` paths (differs from `module`'s
    /// first segment only for `src/bin/*` targets, which are their own
    /// crates).
    pub crate_root: String,
    /// `use` aliases: simple name → full (unexpanded) path.
    pub imports: BTreeMap<String, String>,
    /// `use path::*` glob targets.
    pub globs: Vec<String>,
    /// Head segment of every `a::b` path the file's non-test code
    /// spells, in `use` trees, types and bodies alike: with the crate
    /// names among them, the crate dependency graph method calls
    /// resolve over.
    pub(crate) path_heads: BTreeSet<String>,
    /// Names of the traits the file declares.
    pub(crate) traits: Vec<String>,
    /// `(struct, field)` → the field's type name, generics stripped
    /// (`tracer: mmwave_telemetry::Tracer` → `Tracer`).
    pub(crate) fields: BTreeMap<(String, String), String>,
}

/// The workspace call graph. `calls`, `edges`, and `external` are
/// parallel to `nodes`.
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// Raw call tokens per node.
    pub calls: Vec<Vec<CallSite>>,
    /// Resolved workspace-internal edges per node (sorted, deduped) that
    /// the default build makes.
    pub edges: Vec<Vec<usize>>,
    /// Edges only a feature build makes (feature-gated call sites), not
    /// repeated from `edges`.
    pub feature_edges: Vec<Vec<usize>>,
    /// Unresolved call spellings per node (sorted, deduped) — recorded,
    /// never silently dropped.
    pub external: Vec<Vec<String>>,
    /// Per-file symbol context (parallel to the file list).
    pub files: Vec<FileSyms>,
}

/// Crate-directory → library target name. The workspace is closed (no
/// path dependency leaves the repo) so a static table is exact; unknown
/// directories fall back to `dir` with `-` mapped to `_`.
const LIB_NAMES: &[(&str, &str)] = &[
    ("array", "mmwave_array"),
    ("baselines", "mmwave_baselines"),
    ("bench", "mmwave_bench"),
    ("channel", "mmwave_channel"),
    ("core", "mmreliable"),
    ("dsp", "mmwave_dsp"),
    ("hotpath", "mmwave_hotpath"),
    ("phy", "mmwave_phy"),
    ("sim", "mmwave_sim"),
    ("telemetry", "mmwave_telemetry"),
    ("xtask", "xtask"),
];

/// Module path and crate root for a workspace-relative file path.
/// Returns `(module, crate_root, is_test_tree)`.
pub fn file_module(rel: &str) -> (String, String, bool) {
    let rel = rel.replace('\\', "/");
    let parts: Vec<&str> = rel.split('/').collect();
    // Expected shapes: crates/<dir>/src/... or crates/<dir>/tests/...
    let (dir, rest) = if parts.len() >= 3 && parts[0] == "crates" {
        (parts[1], &parts[2..])
    } else {
        ("unknown", &parts[..])
    };
    let lib = LIB_NAMES
        .iter()
        .find(|(d, _)| *d == dir)
        .map(|(_, l)| l.to_string())
        .unwrap_or_else(|| dir.replace('-', "_"));
    let mut is_test = false;
    let mut mods: Vec<String> = Vec::new();
    let mut crate_root = lib.clone();
    if !rest.is_empty() {
        let tree = rest[0];
        let tail = &rest[1..];
        if tree == "tests" || tree == "benches" || tree == "examples" {
            is_test = tree == "tests";
            mods.push(tree.to_string());
        }
        for (i, seg) in tail.iter().enumerate() {
            let last = i + 1 == tail.len();
            if last {
                let stem = seg.strip_suffix(".rs").unwrap_or(seg);
                match stem {
                    "lib" | "main" | "mod" => {}
                    _ => mods.push(stem.to_string()),
                }
            } else if *seg == "bin" {
                // src/bin/<name>.rs is its own crate.
                mods.push("bin".to_string());
            } else {
                mods.push(seg.to_string());
            }
        }
        if tail.first() == Some(&"bin") {
            crate_root = std::iter::once(lib.clone())
                .chain(mods.iter().cloned())
                .collect::<Vec<_>>()
                .join("::");
        }
    }
    let module = std::iter::once(lib)
        .chain(mods)
        .collect::<Vec<_>>()
        .join("::");
    (module, crate_root, is_test)
}

/// Builds the call graph over `files` (parallel `scrubbed` views).
pub fn build(files: &[SourceFile], scrubbed: &[Scrubbed]) -> CallGraph {
    let mut nodes = Vec::new();
    let mut calls: Vec<Vec<CallSite>> = Vec::new();
    let mut syms = Vec::new();
    for (idx, (f, s)) in files.iter().zip(scrubbed).enumerate() {
        let tests = test_regions(s, &f.src);
        let features = gated_regions(s, &f.src, |attr| {
            attr.starts_with("#[cfg(") && attr.contains("feature") && !attr.contains("not(")
        });
        let rel = f.rel.display().to_string();
        let (module, crate_root, tree_is_test) = file_module(&rel);
        let mut p = Parser::new(idx, s, &tests, &features);
        p.syms.module = module;
        p.syms.crate_root = crate_root;
        if !tree_is_test {
            p.syms.path_heads = path_heads(&s.text, &tests);
        }
        p.file_in_test = tree_is_test;
        p.parse();
        nodes.extend(p.nodes);
        calls.extend(p.calls);
        syms.push(p.syms);
    }
    let r = crate::resolve::resolve(&nodes, &calls, &syms);
    CallGraph {
        nodes,
        calls,
        edges: r.edges,
        feature_edges: r.feature_edges,
        external: r.external,
        files: syms,
    }
}

/// The first segment of every `a::b` path in `text` outside `tests`.
fn path_heads(text: &str, tests: &[Region]) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut heads = BTreeSet::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        let after_colons = start >= 2 && &text[start - 2..start] == "::";
        if text[i..].starts_with("::") && !after_colons && !in_any(tests, start) {
            heads.insert(text[start..i].to_string());
        }
    }
    heads
}

/// True when the attribute text applies the `hot_path` marker — any
/// spelling (`#[hot_path]`, `#[mmwave_hotpath::hot_path]`), any position
/// in the attribute stack, including `#[cfg_attr(…, hot_path)]`. String
/// contents were blanked by the scrubber, so doc-text mentions never
/// match.
pub fn attr_is_hot_path(attr: &str) -> bool {
    !crate::lints::find_token(attr, "hot_path").is_empty()
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum ScopeKind {
    Module(String),
    /// An impl or trait block: the owner type, and the trait an
    /// `impl Trait for Type` block implements.
    Owner(String, Option<String>),
    Fn(usize),
    Other,
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *after* this scope's `{` was consumed; the matching
    /// `}` is the one seen at this depth.
    depth: usize,
}

struct Parser<'a> {
    file: usize,
    s: &'a Scrubbed,
    text: &'a str,
    bytes: &'a [u8],
    tests: &'a [Region],
    /// `#[cfg(feature = …)]` regions.
    features: &'a [Region],
    i: usize,
    depth: usize,
    /// Whole file lives in a test tree (`tests/`).
    file_in_test: bool,
    /// Paren/bracket nesting at item level (so `;` inside `[u8; N]`
    /// does not end an item).
    nest: i64,
    scopes: Vec<Scope>,
    pending_attrs: Vec<String>,
    pending_scope: Option<ScopeKind>,
    nodes: Vec<FnNode>,
    calls: Vec<Vec<CallSite>>,
    syms: FileSyms,
}

const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "in",
    "as", "mut", "ref", "move", "unsafe", "dyn", "impl", "where", "pub", "use", "mod", "struct",
    "enum", "union", "trait", "const", "static", "type", "async", "await", "yield", "box", "true",
    "false", "extern",
];

impl<'a> Parser<'a> {
    fn new(file: usize, s: &'a Scrubbed, tests: &'a [Region], features: &'a [Region]) -> Self {
        Parser {
            file,
            s,
            features,
            text: &s.text,
            bytes: s.text.as_bytes(),
            tests,
            i: 0,
            depth: 0,
            file_in_test: false,
            nest: 0,
            scopes: Vec::new(),
            pending_attrs: Vec::new(),
            pending_scope: None,
            nodes: Vec::new(),
            calls: Vec::new(),
            syms: FileSyms::default(),
        }
    }

    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|sc| match sc.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    fn current_owner(&self) -> Option<(String, Option<String>)> {
        self.scopes.iter().rev().find_map(|sc| match &sc.kind {
            ScopeKind::Owner(o, t) => Some((o.clone(), t.clone())),
            _ => None,
        })
    }

    fn current_module(&self) -> String {
        let mut m = self.syms.module.clone();
        for sc in &self.scopes {
            if let ScopeKind::Module(name) = &sc.kind {
                m.push_str("::");
                m.push_str(name);
            }
        }
        m
    }

    fn parse(&mut self) {
        while self.i < self.bytes.len() {
            let b = self.bytes[self.i];
            if b.is_ascii_whitespace() {
                self.i += 1;
            } else if self.text[self.i..].starts_with("//") {
                self.skip_line();
            } else if self.text[self.i..].starts_with("#[") || self.text[self.i..].starts_with("#!")
            {
                self.consume_attr();
            } else if b == b'{' {
                self.depth += 1;
                let kind = self.pending_scope.take().unwrap_or(ScopeKind::Other);
                if let ScopeKind::Fn(idx) = kind {
                    self.nodes[idx].body = Some(Region {
                        start: self.i,
                        end: self.i, // patched on close
                    });
                }
                self.scopes.push(Scope {
                    kind,
                    depth: self.depth,
                });
                self.i += 1;
            } else if b == b'}' {
                if let Some(top) = self.scopes.last() {
                    if top.depth == self.depth {
                        let top = self.scopes.pop().unwrap();
                        if let ScopeKind::Fn(idx) = top.kind {
                            if let Some(body) = &mut self.nodes[idx].body {
                                body.end = self.i + 1;
                            }
                        }
                    }
                }
                self.depth = self.depth.saturating_sub(1);
                self.i += 1;
            } else if b == b';' {
                if self.current_fn().is_none() && self.nest == 0 {
                    self.pending_scope = None;
                    self.pending_attrs.clear();
                }
                self.i += 1;
            } else if matches!(b, b'(' | b'[') {
                if self.current_fn().is_none() {
                    self.nest += 1;
                }
                self.i += 1;
            } else if matches!(b, b')' | b']') {
                if self.current_fn().is_none() {
                    self.nest -= 1;
                }
                self.i += 1;
            } else if b == b'\'' {
                // Lifetime tick (char literals were fully blanked).
                self.i += 1;
            } else if b.is_ascii_digit() {
                // Numbers (incl. float/dot-chain starts like `0..n`).
                while self.i < self.bytes.len()
                    && (self.bytes[self.i].is_ascii_alphanumeric()
                        || self.bytes[self.i] == b'_'
                        || self.bytes[self.i] == b'.')
                {
                    self.i += 1;
                }
            } else if b.is_ascii_alphabetic() || b == b'_' {
                let start = self.i;
                let word = self.read_ident();
                if self.current_fn().is_some() {
                    self.body_word(&word, start);
                } else {
                    self.item_word(&word);
                }
            } else {
                self.i += 1;
            }
        }
    }

    fn skip_line(&mut self) {
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
    }

    fn read_ident(&mut self) -> String {
        let start = self.i;
        while self.i < self.bytes.len()
            && (self.bytes[self.i].is_ascii_alphanumeric() || self.bytes[self.i] == b'_')
        {
            self.i += 1;
        }
        self.text[start..self.i].to_string()
    }

    fn consume_attr(&mut self) {
        // `#[…]` or `#![…]`, bracket-matched.
        let start = self.i;
        let open = match self.text[self.i..].find('[') {
            Some(o) => self.i + o,
            None => {
                self.i += 1;
                return;
            }
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < self.bytes.len() {
            match self.bytes[j] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if self.current_fn().is_none() && !self.text[start..].starts_with("#!") {
            self.pending_attrs.push(self.text[start..j].to_string());
        }
        self.i = j;
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            while self.i < self.bytes.len() && self.bytes[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
            if self.text[self.i..].starts_with("//") {
                self.skip_line();
            } else {
                break;
            }
        }
    }

    // --- item level ---------------------------------------------------

    fn item_word(&mut self, word: &str) {
        match word {
            "use" => self.parse_use(),
            "mod" => {
                self.skip_ws_and_comments();
                let name = self.read_ident();
                if !name.is_empty() {
                    self.pending_scope = Some(ScopeKind::Module(name));
                }
                self.pending_attrs.clear();
            }
            // `impl Trait` in a signature is a type, not a block.
            "impl" if !matches!(self.pending_scope, Some(ScopeKind::Fn(_))) => {
                let (owner, tr) = self.parse_impl_header();
                self.pending_scope = Some(ScopeKind::Owner(owner, tr));
                self.pending_attrs.clear();
            }
            "trait" => {
                self.skip_ws_and_comments();
                let name = self.read_ident();
                self.syms.traits.push(name.clone());
                self.pending_scope = Some(ScopeKind::Owner(name, None));
                self.pending_attrs.clear();
            }
            "fn" => {
                self.skip_ws_and_comments();
                let name = self.read_ident();
                if name.is_empty() {
                    // A `fn(…)` pointer type, not an item.
                    return;
                }
                let sig_start = self.i - name.len();
                let takes_args = self.takes_args();
                let (line, _) = self.s.line_col(sig_start);
                let attrs = std::mem::take(&mut self.pending_attrs);
                let hot = attrs.iter().any(|a| attr_is_hot_path(a));
                let in_test = self.file_in_test || in_any(self.tests, sig_start);
                let (owner, trait_impl) = self.current_owner().unzip();
                let node = FnNode {
                    file: self.file,
                    line,
                    name,
                    owner,
                    trait_impl: trait_impl.flatten(),
                    module: self.current_module(),
                    attrs,
                    body: None,
                    hot_path: hot,
                    in_test,
                    takes_args,
                };
                self.nodes.push(node);
                self.calls.push(Vec::new());
                self.pending_scope = Some(ScopeKind::Fn(self.nodes.len() - 1));
            }
            "macro_rules" => self.skip_macro_rules(),
            "struct" => {
                self.parse_struct_fields();
                self.pending_attrs.clear();
            }
            "enum" | "union" | "static" | "const" | "type" | "extern" => {
                self.pending_attrs.clear();
            }
            _ => {}
        }
    }

    /// Records the named fields of the `struct` item at the cursor, and
    /// leaves the cursor where it was.
    fn parse_struct_fields(&mut self) {
        let save = self.i;
        self.skip_ws_and_comments();
        let name = self.read_ident();
        let body_start = self.text[self.i..]
            .find(['{', '(', ';'])
            .map(|o| self.i + o);
        self.i = save;
        let Some(open) = body_start.filter(|&o| self.bytes[o] == b'{') else {
            return;
        };
        let Some(close) = crate::regions::matching_brace(self.bytes, open) else {
            return;
        };
        for field in split_top_level_commas(&self.text[open + 1..close]) {
            let mut f = field.trim();
            while f.starts_with("#[") {
                f = f.find(']').map_or("", |e| f[e + 1..].trim_start());
            }
            let Some((lhs, ty)) = f.split_once(':') else {
                continue;
            };
            let field_name = lhs.rsplit(|c: char| c.is_whitespace() || c == ')').next();
            if let Some(field_name) = field_name.filter(|n| !n.is_empty()) {
                self.syms
                    .fields
                    .insert((name.clone(), field_name.to_string()), last_type_name(ty));
            }
        }
    }

    fn parse_use(&mut self) {
        // Raw text to the terminating `;` (brace-aware for groups).
        let start = self.i;
        let mut depth = 0i64;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                b';' if depth == 0 => break,
                _ => {}
            }
            self.i += 1;
        }
        let tree = self.text[start..self.i].to_string();
        parse_use_tree(&tree, "", &mut self.syms);
    }

    /// The implementing type and, for `impl Trait for Type`, the trait.
    fn parse_impl_header(&mut self) -> (String, Option<String>) {
        // Grab text up to the opening `{` (or `;` for bodyless impls of
        // the form `impl Trait for Type;` — not real Rust, but be safe).
        let start = self.i;
        while self.i < self.bytes.len() && self.bytes[self.i] != b'{' && self.bytes[self.i] != b';'
        {
            self.i += 1;
        }
        let header = &self.text[start..self.i];
        // Drop the leading `<…>` generic-parameter list of the impl
        // itself, so `impl<T: Front> Faults<T>` names `Faults`, not ``.
        let header = strip_leading_generics(header);
        // `impl<T> Trait<U> for Type<T>` → the implementing type is what
        // follows the last top-level ` for `; otherwise the whole header
        // is the type (inherent impl).
        match split_top_level_for(header) {
            Some((tr, ty)) => (last_type_name(ty), Some(last_type_name(tr))),
            None => (last_type_name(header), None),
        }
    }

    fn skip_macro_rules(&mut self) {
        // `macro_rules! name { … }` — token soup; skip the whole body so
        // `fn`-shaped fragments inside don't create phantom nodes.
        while self.i < self.bytes.len() && self.bytes[self.i] != b'{' {
            self.i += 1;
        }
        let mut depth = 0usize;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    // --- body level ---------------------------------------------------

    fn body_word(&mut self, word: &str, start: usize) {
        if word == "fn" {
            // Nested fn definition: skip its name so it doesn't read as a
            // call; its body is attributed to the enclosing item fn.
            self.skip_ws_and_comments();
            let _ = self.read_ident();
            return;
        }
        if NON_CALL_KEYWORDS.contains(&word) {
            return;
        }
        // Collect the `::`-joined path (with turbofish skipping).
        let mut path = vec![word.to_string()];
        loop {
            let save = self.i;
            self.skip_ws_and_comments();
            if self.text[self.i..].starts_with("::") {
                self.i += 2;
                self.skip_ws_and_comments();
                if self.text[self.i..].starts_with('<') {
                    if !self.skip_angles() {
                        self.i = save;
                        break;
                    }
                    continue;
                }
                let seg = self.read_ident();
                if seg.is_empty() {
                    self.i = save;
                    break;
                }
                path.push(seg);
            } else {
                self.i = save;
                break;
            }
        }
        // A call only if the next non-ws char is `(` (a `!` means macro —
        // its arguments get scanned as ordinary body text).
        let save = self.i;
        self.skip_ws_and_comments();
        let rest = &self.text[self.i..];
        let is_call = rest.starts_with('(');
        let not_a_value =
            rest.starts_with('!') || (rest.starts_with(':') && !rest.starts_with("::"));
        self.i = save;
        // Previous non-ws char decides method-call syntax; a `..` range
        // before the name (`0..len(…)`) is not a method receiver.
        let mut k = start;
        let mut prev = None;
        while k > 0 {
            k -= 1;
            if !self.bytes[k].is_ascii_whitespace() {
                prev = Some(k);
                break;
            }
        }
        let after_dot = matches!(prev, Some(p) if self.bytes[p] == b'.' && (p == 0 || self.bytes[p - 1] != b'.'));
        if !is_call {
            // A field access, macro or field/binding name is never a fn
            // value; anything else may be one.
            if !after_dot && !not_a_value {
                self.push_call(CallKind::Ref, path, start);
            }
            return;
        }
        let kind = if after_dot {
            CallKind::Method
        } else if path.len() > 1 {
            CallKind::Path
        } else {
            CallKind::Bare
        };
        if kind == CallKind::Method && path.len() > 1 {
            // `x.seg::seg(` is not valid Rust; treat conservatively as a
            // path call.
            return self.push_call(CallKind::Path, path, start);
        }
        self.push_call(kind, path, start);
    }

    fn push_call(&mut self, kind: CallKind, path: Vec<String>, offset: usize) {
        if let Some(f) = self.current_fn() {
            let gated = in_any(self.features, offset);
            let after = self.text[self.i..].trim_start();
            let no_args = after
                .strip_prefix('(')
                .is_some_and(|a| a.trim_start().starts_with(')'));
            let self_field = (kind == CallKind::Method)
                .then(|| self.self_field(offset))
                .flatten();
            self.calls[f].push(CallSite {
                kind,
                path,
                offset,
                gated,
                no_args,
                self_field,
            });
        }
    }

    /// The `field` of a `self.field.name(` method call whose name starts
    /// at `name_at`.
    fn self_field(&self, name_at: usize) -> Option<String> {
        let before = self.text[..name_at]
            .trim_end()
            .strip_suffix('.')?
            .trim_end();
        let field_start = before
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(0, |p| p + 1);
        let field = &before[field_start..];
        let recv = before[..field_start]
            .trim_end()
            .strip_suffix('.')?
            .trim_end();
        let is_self = recv.strip_suffix("self").is_some_and(|head| {
            !head.ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '.')
        });
        (is_self && !field.is_empty()).then(|| field.to_string())
    }

    /// Whether the parameter list after a fn's name (and generics) holds
    /// a parameter besides `self`. Leaves the cursor where it was.
    fn takes_args(&mut self) -> bool {
        let save = self.i;
        self.skip_ws_and_comments();
        if self.text[self.i..].starts_with('<') && !self.skip_angles() {
            self.i = save;
            return true;
        }
        self.skip_ws_and_comments();
        let open = self.i;
        self.i = save;
        if !self.text[open..].starts_with('(') {
            return true;
        }
        let mut depth = 0usize;
        let mut close = open;
        for (j, &b) in self.bytes.iter().enumerate().skip(open) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let params = &self.text[open + 1..close];
        // The receiver, when there is one, is the first parameter and the
        // only one spelled with a bare `self` token.
        let rest = match crate::lints::find_token(params, "self").first() {
            Some(&at) => params[at..].split_once(',').map_or("", |(_, r)| r),
            None => params,
        };
        !rest.trim().is_empty()
    }

    /// Skips a balanced `<…>` group starting at `self.i` (which points at
    /// `<`). `>>` closes two levels; the `>` of `->` closes none.
    fn skip_angles(&mut self) -> bool {
        let mut depth = 0i64;
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'<' => depth += 1,
                b'>' => {
                    if self.i > 0 && self.bytes[self.i - 1] == b'-' {
                        // `->` inside fn-pointer types.
                    } else {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return true;
                        }
                    }
                }
                b';' | b'{' => return false, // runaway: not a turbofish
                _ => {}
            }
            self.i += 1;
        }
        false
    }
}

/// Skips a leading balanced `<…>` group (the impl's own generic
/// parameters), returning the rest.
fn strip_leading_generics(header: &str) -> &str {
    let t = header.trim_start();
    if !t.starts_with('<') {
        return header;
    }
    let bytes = t.as_bytes();
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' => {
                if i > 0 && bytes[i - 1] == b'-' {
                    // `->` in fn-trait bounds closes nothing.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return &t[i + 1..];
                    }
                }
            }
            _ => {}
        }
    }
    header
}

/// Splits `impl Trait for Type` at the top-level ` for ` into the text
/// before and after it. Angle depth is respected so
/// `Foo<for<'a> Fn(&'a u8)>` does not split.
fn split_top_level_for(header: &str) -> Option<(&str, &str)> {
    let bytes = header.as_bytes();
    let mut depth = 0i64;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => {
                if i > 0 && bytes[i - 1] == b'-' {
                } else {
                    depth -= 1;
                }
            }
            b'f' if depth == 0
                && header[i..].starts_with("for")
                && i > 0
                && bytes[i - 1].is_ascii_whitespace()
                && header[i + 3..].starts_with(|c: char| c.is_whitespace()) =>
            {
                return Some((&header[..i], &header[i + 3..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Last path segment of a type spelling, generics stripped:
/// `mmwave_dsp::complex::Complex64<T>` → `Complex64`.
fn last_type_name(s: &str) -> String {
    let s = s.trim();
    let s = match s.find(['<', '{']) {
        Some(p) => &s[..p],
        None => s,
    };
    let s = s.trim().trim_start_matches('&');
    s.rsplit("::")
        .next()
        .unwrap_or(s)
        .trim()
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Parses one `use` tree (scrubbed text, `use` keyword already consumed,
/// no trailing `;`) into imports/globs. `prefix` is the joined leading
/// path of enclosing groups (no trailing `::`).
fn parse_use_tree(tree: &str, prefix: &str, syms: &mut FileSyms) {
    let tree = tree.trim();
    // Group: `a::b::{c, d as e, f::*}` — recurse on comma-split parts.
    if let Some(brace) = tree.find('{') {
        let head = tree[..brace].trim().trim_end_matches("::").trim();
        let joined = join_path(prefix, &strip_ws(head));
        let inner = match tree[brace + 1..].rfind('}') {
            Some(close) => &tree[brace + 1..brace + 1 + close],
            None => &tree[brace + 1..],
        };
        for part in split_top_level_commas(inner) {
            parse_use_tree(&part, &joined, syms);
        }
        return;
    }
    // `path as alias` — "as" is a keyword, so a word-bounded match is
    // unambiguous (path segments named exactly `as` cannot exist).
    let (path, alias) = match crate::lints::find_token(tree, "as").first() {
        Some(&pos) => (tree[..pos].trim(), Some(tree[pos + 2..].trim().to_string())),
        None => (tree, None),
    };
    let path = strip_ws(path);
    if path.is_empty() {
        return;
    }
    if path == "*" || path.ends_with("::*") {
        let base = join_path(prefix, path.trim_end_matches('*').trim_end_matches("::"));
        if !base.is_empty() {
            syms.globs.push(base);
        }
        return;
    }
    let full = join_path(prefix, &path);
    if full.is_empty() {
        return;
    }
    if full == "self" || full.ends_with("::self") {
        // `use a::b::{self}` imports module `b` under its own name.
        let parent = full.trim_end_matches("self").trim_end_matches("::");
        if parent.is_empty() {
            return;
        }
        let n = parent.rsplit("::").next().unwrap_or(parent).to_string();
        let target = alias.unwrap_or(n);
        syms.imports.insert(target, parent.to_string());
        return;
    }
    let name = match alias {
        Some(a) => a,
        None => full.rsplit("::").next().unwrap_or(&full).to_string(),
    };
    if !name.is_empty() && name != "_" {
        syms.imports.insert(name, full);
    }
}

fn strip_ws(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

fn join_path(prefix: &str, rest: &str) -> String {
    let rest = rest.trim().trim_start_matches("::");
    if prefix.is_empty() {
        rest.to_string()
    } else if rest.is_empty() {
        prefix.to_string()
    } else {
        format!("{prefix}::{rest}")
    }
}

/// Splits on commas at brace depth 0 (for `use a::{b, c::{d, e}}`).
fn split_top_level_commas(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                if !cur.trim().is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------
// Closure, taint classification, and exports
// ---------------------------------------------------------------------

/// Determinism taint sources: the concrete spellings of nondeterminism
/// (same family the per-file `determinism` lint bans inside its crate
/// scope, plus the clippy-owned `SystemTime::now`).
pub const TAINT_SOURCES: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "HashMap",
    "HashSet",
    "from_entropy",
    "OsRng",
];

impl CallGraph {
    /// Hot-path closure: every non-test node reachable from a
    /// `#[hot_path]` root. Returns the membership mask and a BFS parent
    /// map for reconstructing call chains (roots have no parent).
    pub fn hot_closure(&self) -> (Vec<bool>, Vec<Option<usize>>) {
        let roots: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].hot_path && !self.nodes[i].in_test)
            .collect();
        self.reach(&roots)
    }

    /// BFS over the default build's call edges from `roots`, never
    /// entering test nodes. The transitive lints judge this build: the
    /// one the allocation and digest pins run.
    pub fn reach(&self, roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
        self.walk(roots, false)
    }

    fn walk(&self, roots: &[usize], with_features: bool) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut seen = vec![false; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            let gated = if with_features {
                &self.feature_edges[n][..]
            } else {
                &[]
            };
            for &m in self.edges[n].iter().chain(gated) {
                if !seen[m] && !self.nodes[m].in_test {
                    seen[m] = true;
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        (seen, parent)
    }

    /// Root-to-`node` call chain through a BFS parent map, as display
    /// names.
    pub fn chain(&self, node: usize, parent: &[Option<usize>]) -> Vec<String> {
        let mut idxs = vec![node];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            idxs.push(p);
            cur = p;
        }
        idxs.reverse();
        idxs.iter().map(|&i| self.nodes[i].display()).collect()
    }

    /// Nodes whose body contains a taint-source token, with the tokens.
    pub fn taint_sources(
        &self,
        scrubbed: &[Scrubbed],
    ) -> BTreeMap<usize, Vec<(usize, &'static str)>> {
        let mut out: BTreeMap<usize, Vec<(usize, &'static str)>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.in_test {
                continue;
            }
            let Some(body) = &n.body else { continue };
            let text = &scrubbed[n.file].text[body.start..body.end];
            for tok in TAINT_SOURCES {
                for off in crate::lints::find_token(text, tok) {
                    out.entry(i).or_default().push((body.start + off, tok));
                }
            }
        }
        out
    }

    /// Determinism sinks: functions that produce digests, fingerprints,
    /// or journal lines — identified by name (or owner-type name), the
    /// repo's uniform spelling for its bit-identity surfaces.
    pub fn taint_sinks(&self) -> Vec<usize> {
        const SINK_STEMS: &[&str] = &["digest", "fingerprint", "journal"];
        (0..self.nodes.len())
            .filter(|&i| {
                let n = &self.nodes[i];
                if n.in_test {
                    return false;
                }
                let name = n.name.to_ascii_lowercase();
                let owner = n
                    .owner
                    .as_deref()
                    .map(str::to_ascii_lowercase)
                    .unwrap_or_default();
                SINK_STEMS
                    .iter()
                    .any(|s| name.contains(s) || owner.contains(s))
            })
            .collect()
    }

    /// Non-test functions that no entry point reaches, in node order,
    /// and the non-test total. The roots are every `main`, every function
    /// of a `benches/` file (`criterion_main!` generates their `main` and
    /// calls them through a macro the graph cannot see), the methods of
    /// impls of traits declared outside the workspace (operators,
    /// `Display`, `GlobalAlloc`: the compiler calls them, no token does),
    /// every `#[proc_macro*]` entry, and every function whose name
    /// `mentioned` holds — the identifiers of the code outside `crates/`
    /// ([`crate::mentioned_names`]). Feature-gated calls count: code that
    /// only a feature build reaches is still reached.
    pub fn unreached(&self, mentioned: &BTreeSet<String>) -> (Vec<usize>, usize) {
        let ours: BTreeSet<&str> = self
            .files
            .iter()
            .flat_map(|f| f.traits.iter().map(String::as_str))
            .collect();
        let roots: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| {
                let n = &self.nodes[i];
                !n.in_test
                    && ((n.name == "main" && n.owner.is_none())
                        || self.files[n.file].module.split("::").nth(1) == Some("benches")
                        || n.trait_impl.as_deref().is_some_and(|t| !ours.contains(t))
                        || n.attrs.iter().any(|a| a.starts_with("#[proc_macro"))
                        || mentioned.contains(&n.name))
            })
            .collect();
        let (seen, _) = self.walk(&roots, true);
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].in_test)
            .collect();
        let total = live.len();
        (live.into_iter().filter(|&i| !seen[i]).collect(), total)
    }

    /// Summary counts for `--stats` and the JSON export.
    pub fn stats(&self, scrubbed: &[Scrubbed]) -> GraphStats {
        let (closure, _) = self.hot_closure();
        let sources = self.taint_sources(scrubbed);
        GraphStats {
            nodes: self.nodes.len(),
            edges: self.edges.iter().map(Vec::len).sum(),
            external_calls: self.external.iter().map(Vec::len).sum(),
            hot_roots: self
                .nodes
                .iter()
                .filter(|n| n.hot_path && !n.in_test)
                .count(),
            hot_closure: closure.iter().filter(|&&b| b).count(),
            taint_sources: sources.values().map(Vec::len).sum(),
            taint_source_fns: sources.len(),
            taint_sinks: self.taint_sinks().len(),
        }
    }

    /// Machine-readable export (`results/callgraph.json`).
    pub fn to_json(&self, files: &[SourceFile], scrubbed: &[Scrubbed]) -> String {
        use std::fmt::Write as _;
        let (closure, _) = self.hot_closure();
        let sources = self.taint_sources(scrubbed);
        let sinks: BTreeSet<usize> = self.taint_sinks().into_iter().collect();
        let stats = self.stats(scrubbed);
        let mut s = String::from("{\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\":\"{}\",\"file\":\"{}\",\"line\":{},\"hot_path\":{},\"in_hot_closure\":{},\"taint_source\":{},\"taint_sink\":{},\"test\":{}}}",
                esc(&n.display()),
                esc(&files[n.file].rel.display().to_string()),
                n.line,
                n.hot_path,
                closure[i],
                sources.contains_key(&i),
                sinks.contains(&i),
                n.in_test,
            );
            s.push_str(if i + 1 < self.nodes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"edges\": [");
        let mut first = true;
        for (i, es) in self.edges.iter().enumerate() {
            for &e in es {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(s, "[{i},{e}]");
            }
        }
        s.push_str("],\n  \"external\": [\n");
        let with_ext: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| !self.external[i].is_empty())
            .collect();
        for (k, &i) in with_ext.iter().enumerate() {
            let list = self.external[i]
                .iter()
                .map(|c| format!("\"{}\"", esc(c)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(s, "    {{\"node\":{i},\"calls\":[{list}]}}");
            s.push_str(if k + 1 < with_ext.len() { ",\n" } else { "\n" });
        }
        let _ = write!(
            s,
            "  ],\n  \"stats\": {{\"nodes\":{},\"edges\":{},\"external_calls\":{},\"hot_roots\":{},\"hot_closure\":{},\"taint_sources\":{},\"taint_source_fns\":{},\"taint_sinks\":{}}}\n}}",
            stats.nodes,
            stats.edges,
            stats.external_calls,
            stats.hot_roots,
            stats.hot_closure,
            stats.taint_sources,
            stats.taint_source_fns,
            stats.taint_sinks,
        );
        s
    }

    /// Graphviz export (`results/callgraph.dot`): nodes with at least one
    /// edge, hot-path closure / taint roles colored.
    pub fn to_dot(&self, scrubbed: &[Scrubbed]) -> String {
        use std::fmt::Write as _;
        let (closure, _) = self.hot_closure();
        let sources = self.taint_sources(scrubbed);
        let sinks: BTreeSet<usize> = self.taint_sinks().into_iter().collect();
        let mut keep = vec![false; self.nodes.len()];
        for (i, es) in self.edges.iter().enumerate() {
            if !es.is_empty() {
                keep[i] = true;
            }
            for &e in es {
                keep[e] = true;
            }
        }
        let mut s =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            if !keep[i] || n.in_test {
                continue;
            }
            let color = if n.hot_path {
                ",style=filled,fillcolor=\"#e74c3c\",fontcolor=white"
            } else if closure[i] {
                ",style=filled,fillcolor=\"#f5b7b1\""
            } else if sinks.contains(&i) {
                ",style=filled,fillcolor=\"#aed6f1\""
            } else if sources.contains_key(&i) {
                ",style=filled,fillcolor=\"#f9e79f\""
            } else {
                ""
            };
            let _ = writeln!(s, "  n{} [label=\"{}\"{}];", i, esc(&n.display()), color);
        }
        for (i, es) in self.edges.iter().enumerate() {
            if self.nodes[i].in_test {
                continue;
            }
            for &e in es {
                if !self.nodes[e].in_test {
                    let _ = writeln!(s, "  n{i} -> n{e};");
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Summary counters for `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub external_calls: usize,
    pub hot_roots: usize,
    pub hot_closure: usize,
    pub taint_sources: usize,
    pub taint_source_fns: usize,
    pub taint_sinks: usize,
}

impl GraphStats {
    pub fn render(&self) -> String {
        format!(
            "callgraph: {} nodes, {} edges, {} external calls; hot-path: {} roots, {} in closure; taint: {} source tokens in {} fns, {} sinks",
            self.nodes,
            self.edges,
            self.external_calls,
            self.hot_roots,
            self.hot_closure,
            self.taint_sources,
            self.taint_source_fns,
            self.taint_sinks,
        )
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
