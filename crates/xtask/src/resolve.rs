//! Call resolution: raw [`crate::graph::CallSite`] tokens → workspace
//! call-graph edges.
//!
//! The symbol table indexes every non-test `fn` node three ways: free
//! functions by `(module, name)`, methods by `(owner type, name)`, and
//! everything by full display path. Resolution then applies, in order:
//!
//! 1. **Bare calls** `f(…)`: same-module free fn → `use`-imported name →
//!    glob-imported modules → external.
//! 2. **Path calls** `a::b::f(…)`: `crate`/`self`/`super`/`Self` heads
//!    are normalized against the calling file's module; a head matching
//!    a `use` alias is substituted; then full-path lookup →
//!    `(Type, method)` lookup on the last two segments → module-suffix
//!    match on free fns → external.
//! 3. **Method calls** `.f(…)`: receiver types are unknown without type
//!    inference, so the call edges to *every* workspace method named `f`
//!    (the over-approximation that also covers trait-object dispatch);
//!    no candidates → external.
//!
//! Test nodes are never resolution targets. Unresolved calls are
//! recorded per node (sorted, deduped), never silently dropped — the
//! JSON export carries them so precision loss stays visible.

use crate::graph::{CallKind, CallSite, FileSyms, FnNode};
use std::collections::{BTreeMap, BTreeSet};

struct SymbolTable {
    /// `(module, name)` → free-fn node indices.
    free: BTreeMap<(String, String), Vec<usize>>,
    /// `(owner type, name)` → method node indices.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// method name → node indices (for `.name(…)` over-approximation).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Full display path → node indices.
    full: BTreeMap<String, Vec<usize>>,
    /// name → node indices with that final segment (for suffix matching).
    by_last: BTreeMap<String, Vec<usize>>,
    /// node index → first module segment (its crate).
    crate_of: Vec<String>,
    /// node index → takes a parameter besides `self`.
    takes_args: Vec<bool>,
    /// `(struct, field)` → the type names that field has across the
    /// workspace's same-named structs.
    fields: BTreeMap<(String, String), BTreeSet<String>>,
    /// `module::name` → the full path a `use` in that module binds
    /// `name` to, so a crate-root `pub use` re-export resolves.
    aliases: BTreeMap<String, String>,
    /// Every module path that holds a fn, and each of its prefixes.
    modules: BTreeSet<String>,
    /// Crate root → every workspace crate its non-test code names,
    /// directly or through the crates it names: the crates whose types
    /// its values can have.
    deps: BTreeMap<String, BTreeSet<String>>,
}

fn build_table(nodes: &[FnNode], syms: &[FileSyms]) -> SymbolTable {
    let mut t = SymbolTable {
        free: BTreeMap::new(),
        methods: BTreeMap::new(),
        methods_by_name: BTreeMap::new(),
        full: BTreeMap::new(),
        by_last: BTreeMap::new(),
        crate_of: nodes
            .iter()
            .map(|n| first_seg(&n.module).to_string())
            .collect(),
        takes_args: nodes.iter().map(|n| n.takes_args).collect(),
        fields: BTreeMap::new(),
        aliases: BTreeMap::new(),
        deps: BTreeMap::new(),
        modules: nodes
            .iter()
            .flat_map(|n| {
                let segs: Vec<&str> = n.module.split("::").collect();
                (1..=segs.len()).map(move |k| segs[..k].join("::"))
            })
            .collect(),
    };
    for fs in syms {
        for (key, ty) in &fs.fields {
            t.fields.entry(key.clone()).or_default().insert(ty.clone());
        }
        for (name, target) in &fs.imports {
            let full = expand_path(target, fs, &t);
            t.aliases.insert(format!("{}::{name}", fs.module), full);
        }
    }
    let crates: BTreeSet<&str> = t.crate_of.iter().map(String::as_str).collect();
    let mut direct: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for fs in syms {
        let named = fs.path_heads.iter().map(String::as_str);
        direct
            .entry(&fs.crate_root)
            .or_default()
            .extend(named.filter(|h| crates.contains(h)));
    }
    for (&root, named) in &direct {
        let mut seen: BTreeSet<String> = BTreeSet::from([first_seg(root).to_string()]);
        let mut stack: Vec<&str> = named.iter().copied().collect();
        while let Some(c) = stack.pop() {
            if seen.insert(c.to_string()) {
                stack.extend(direct.get(c).into_iter().flatten().copied());
            }
        }
        t.deps.insert(root.to_string(), seen);
    }
    for (i, n) in nodes.iter().enumerate() {
        if n.in_test {
            continue;
        }
        match &n.owner {
            Some(o) => {
                t.methods
                    .entry((o.clone(), n.name.clone()))
                    .or_default()
                    .push(i);
                t.methods_by_name.entry(n.name.clone()).or_default().push(i);
            }
            None => {
                t.free
                    .entry((n.module.clone(), n.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        t.full.entry(n.display()).or_default().push(i);
        t.by_last.entry(n.name.clone()).or_default().push(i);
    }
    t
}

/// Every node's resolved edges, sorted and deduped, each list parallel
/// to `nodes`.
pub struct Resolved {
    /// Edges from call sites every build compiles.
    pub edges: Vec<Vec<usize>>,
    /// Edges only from feature-gated call sites.
    pub feature_edges: Vec<Vec<usize>>,
    /// Unresolved call spellings.
    pub external: Vec<Vec<String>>,
}

/// Resolves every call site of every node.
pub fn resolve(nodes: &[FnNode], calls: &[Vec<CallSite>], syms: &[FileSyms]) -> Resolved {
    let table = build_table(nodes, syms);
    let mut out = Resolved {
        edges: Vec::with_capacity(nodes.len()),
        feature_edges: Vec::with_capacity(nodes.len()),
        external: Vec::with_capacity(nodes.len()),
    };
    for (i, n) in nodes.iter().enumerate() {
        let fs = &syms[n.file];
        let mut es: BTreeSet<usize> = BTreeSet::new();
        let mut gated: BTreeSet<usize> = BTreeSet::new();
        let mut ex: BTreeSet<String> = BTreeSet::new();
        for call in &calls[i] {
            let targets = resolve_call(call, n, fs, &table);
            if targets.is_empty() {
                if call.kind != CallKind::Ref {
                    ex.insert(call.display());
                }
            } else {
                let set = if call.gated { &mut gated } else { &mut es };
                set.extend(targets.into_iter().filter(|&t| t != i));
            }
        }
        out.feature_edges
            .push(gated.difference(&es).copied().collect());
        out.edges.push(es.into_iter().collect());
        out.external.push(ex.into_iter().collect());
    }
    out
}

fn resolve_call(call: &CallSite, node: &FnNode, fs: &FileSyms, t: &SymbolTable) -> Vec<usize> {
    match call.kind {
        CallKind::Method => resolve_method(call, node, fs, t),
        CallKind::Bare => resolve_bare(&call.path[0], node, fs, t),
        CallKind::Path => resolve_path(&call.path, node, fs, t),
        CallKind::Ref if call.path.len() == 1 => resolve_bare(&call.path[0], node, fs, t),
        CallKind::Ref => resolve_path(&call.path, node, fs, t),
    }
}

/// Method calls have no receiver type without inference, so `.f(…)`
/// over-approximates to every workspace method named `f` — but only in
/// crates whose values the caller can hold: its own crate and every
/// crate in its dependency closure. A crate's direct dependencies are
/// the crates its non-test code names at the head of a path, in a `use`,
/// a field type (`tracer: mmwave_telemetry::Tracer`) or a body; the
/// closure adds what those name, since a value can arrive typed from a
/// crate the caller never spells. This keeps trait-object dispatch sound
/// while preventing noise edges into crates the caller does not even
/// depend on.
///
/// A method that takes arguments cannot answer `.f()`, nor one that
/// takes none `.f(x)`, so `.drain(..)` on a `Vec` never edges to a
/// workspace `drain(&mut self)`. A `self.field.f(…)` call whose field
/// has a workspace type with a method `f` edges to that method alone:
/// `self.tracer.begin()` is `Tracer::begin`, and `self.ewma.reset()` is
/// not.
fn resolve_method(call: &CallSite, node: &FnNode, fs: &FileSyms, t: &SymbolTable) -> Vec<usize> {
    let name = &call.path[0];
    let field_types = match (&call.self_field, &node.owner) {
        (Some(field), Some(owner)) => t.fields.get(&(owner.clone(), field.clone())),
        _ => None,
    };
    let typed: Vec<usize> = field_types
        .into_iter()
        .flatten()
        .filter_map(|ty| t.methods.get(&(ty.clone(), name.clone())))
        .flatten()
        .copied()
        .filter(|&c| t.takes_args[c] != call.no_args)
        .collect();
    if !typed.is_empty() {
        return typed;
    }
    let cands = match t.methods_by_name.get(name) {
        Some(v) => v,
        None => return Vec::new(),
    };
    let deps = t.deps.get(&fs.crate_root);
    cands
        .iter()
        .copied()
        .filter(|&c| {
            let krate = t.crate_of[c].as_str();
            krate == first_seg(&node.module) || deps.is_some_and(|d| d.contains(krate))
        })
        .filter(|&c| t.takes_args[c] != call.no_args)
        .collect()
}

fn first_seg(path: &str) -> &str {
    path.split("::").next().unwrap_or(path)
}

fn resolve_bare(name: &str, node: &FnNode, fs: &FileSyms, t: &SymbolTable) -> Vec<usize> {
    // Same module (the unqualified-call common case).
    if let Some(v) = t.free.get(&(node.module.clone(), name.to_string())) {
        return v.clone();
    }
    // Inline modules see their file-root siblings too.
    if node.module != fs.module {
        if let Some(v) = t.free.get(&(fs.module.clone(), name.to_string())) {
            return v.clone();
        }
    }
    // Explicitly imported name, possibly through a re-export.
    if let Some(target) = fs.imports.get(name) {
        let full = expand_path(target, fs, t);
        if let Some(v) = t
            .full
            .get(&full)
            .or_else(|| t.full.get(&canonical(&full, t)))
        {
            return v.clone();
        }
    }
    // Glob-imported modules.
    for g in &fs.globs {
        let base = expand_path(g, fs, t);
        if let Some(v) = t.free.get(&(base, name.to_string())) {
            return v.clone();
        }
    }
    Vec::new()
}

fn resolve_path(path: &[String], node: &FnNode, fs: &FileSyms, t: &SymbolTable) -> Vec<usize> {
    // Normalize the head segment.
    let mut segs: Vec<String> = path.to_vec();
    match segs[0].as_str() {
        "crate" => segs[0] = fs.crate_root.clone(),
        "self" => segs[0] = node.module.clone(),
        "super" => {
            let parent = node
                .module
                .rsplit_once("::")
                .map(|(p, _)| p.to_string())
                .unwrap_or_else(|| node.module.clone());
            segs[0] = parent;
        }
        "Self" => {
            // `Self::method(…)` inside an impl block.
            if let (Some(owner), true) = (&node.owner, segs.len() == 2) {
                if let Some(v) = t.methods.get(&(owner.clone(), segs[1].clone())) {
                    return v.clone();
                }
            }
            return Vec::new();
        }
        head => {
            if let Some(target) = fs.imports.get(head) {
                segs[0] = expand_path(target, fs, t);
            }
        }
    }
    // Re-split: substituted heads may hold multi-segment paths, and a
    // prefix that names no fn may name a re-export.
    let joined = segs.join("::");
    let joined = if t.full.contains_key(&joined) {
        joined
    } else {
        canonical(&joined, t)
    };
    let segs: Vec<&str> = joined.split("::").collect();

    // Exact full-path match (free fns and `Type::method` where the path
    // spells module::Type::method).
    if let Some(v) = t.full.get(&joined) {
        return v.clone();
    }
    // `Type::method(…)` — associated-function call through the type name
    // (possibly behind a module prefix the table doesn't key on).
    if segs.len() >= 2 {
        let (ty, m) = (segs[segs.len() - 2], segs[segs.len() - 1]);
        if let Some(v) = t.methods.get(&(ty.to_string(), m.to_string())) {
            return filter_by_suffix(v, &segs, t);
        }
    }
    // Free fn addressed by a module suffix (`snapshot::refresh(…)` after
    // `use mmwave_channel::snapshot`— already expanded — or relative
    // submodule paths the expansion didn't cover).
    if let Some(cands) = t.by_last.get(*segs.last().unwrap()) {
        let matched: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                // The call path must be a `::`-boundary suffix of the
                // node's display path.
                let disp = path_of(c, t);
                disp.as_deref().map(|d| is_path_suffix(d, &joined)) == Some(true)
            })
            .collect();
        if !matched.is_empty() {
            return matched;
        }
    }
    Vec::new()
}

/// When a `(Type, method)` lookup returns methods on same-named types in
/// different modules, keep only those whose display path matches the
/// call path's module prefix, if any do.
fn filter_by_suffix(cands: &[usize], segs: &[&str], t: &SymbolTable) -> Vec<usize> {
    if segs.len() <= 2 {
        return cands.to_vec();
    }
    let joined = segs.join("::");
    let narrowed: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| path_of(c, t).as_deref().map(|d| is_path_suffix(d, &joined)) == Some(true))
        .collect();
    if narrowed.is_empty() {
        cands.to_vec()
    } else {
        narrowed
    }
}

/// Display path of a node via the full-path index (reverse lookup).
fn path_of(idx: usize, t: &SymbolTable) -> Option<String> {
    // The table is small enough that a scan is fine; this runs only on
    // suffix-match fallbacks.
    t.full
        .iter()
        .find(|(_, v)| v.contains(&idx))
        .map(|(k, _)| k.clone())
}

/// True when `suffix` equals `full` or ends it at a `::` boundary.
fn is_path_suffix(full: &str, suffix: &str) -> bool {
    full == suffix
        || full
            .strip_suffix(suffix)
            .map(|rest| rest.ends_with("::"))
            .unwrap_or(false)
}

/// Rewrites the longest prefix of `path` that names a `use` binding
/// (`mmwave_telemetry::field_str` after the crate root's
/// `pub use json::field_str`) to the path it binds, until none does.
/// The hop bound stops an import cycle.
fn canonical(path: &str, t: &SymbolTable) -> String {
    let mut path = path.to_string();
    for _ in 0..8 {
        let segs: Vec<&str> = path.split("::").collect();
        let Some((k, target)) = (2..=segs.len())
            .rev()
            .find_map(|k| t.aliases.get(&segs[..k].join("::")).map(|a| (k, a)))
        else {
            break;
        };
        let rewritten = std::iter::once(target.as_str())
            .chain(segs[k..].iter().copied())
            .collect::<Vec<_>>()
            .join("::");
        if rewritten == path {
            break;
        }
        path = rewritten;
    }
    path
}

/// Expands `crate`/`self`/`super` heads, and a head naming a child
/// module (`pub use json::field_str` in a crate root), in a stored
/// import path against the importing file.
fn expand_path(path: &str, fs: &FileSyms, t: &SymbolTable) -> String {
    let mut segs: Vec<&str> = path.split("::").collect();
    let head_owned;
    match segs[0] {
        "crate" => segs[0] = &fs.crate_root,
        "self" => segs[0] = &fs.module,
        "super" => {
            head_owned = fs
                .module
                .rsplit_once("::")
                .map(|(p, _)| p.to_string())
                .unwrap_or_else(|| fs.module.clone());
            segs[0] = &head_owned;
        }
        head => {
            let child = format!("{}::{head}", fs.module);
            if t.modules.contains(&child) {
                return std::iter::once(child.as_str())
                    .chain(segs[1..].iter().copied())
                    .collect::<Vec<_>>()
                    .join("::");
            }
        }
    }
    segs.join("::")
}
