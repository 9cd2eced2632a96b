//! Fixture corpus for the lint engine: every lint has a firing case and a
//! clean case, and the allow hatch has reject/stale/suppress cases. The
//! fixtures live in `tests/fixtures/` (skipped by `collect_workspace`, so
//! `cargo xtask lint` never sees them) and are linted here under *virtual*
//! workspace-relative paths so the scoping rules are exercised too.

use std::path::PathBuf;
use xtask::diag::Finding;
use xtask::{lint_file, SourceFile};

fn lint(rel: &str, src: &str) -> Vec<Finding> {
    lint_file(&SourceFile {
        rel: PathBuf::from(rel),
        src: src.to_string(),
    })
}

fn lints_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.lint).collect()
}

#[test]
fn determinism_fires_on_hashmap_and_instant() {
    let src = include_str!("fixtures/determinism_fire.rs");
    let found = lint("crates/channel/src/fixture.rs", src);
    assert_eq!(found.len(), 4, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.lint == "determinism"));
    let instants = found
        .iter()
        .filter(|f| f.snippet.contains("Instant"))
        .count();
    assert_eq!(instants, 1, "exactly the Instant::now call");
    // The #[cfg(test)] module's HashMap uses are exempt: every finding
    // sits before the test module starts.
    let mod_line = src.lines().position(|l| l.contains("mod tests")).unwrap() + 1;
    assert!(
        found.iter().all(|f| f.line < mod_line),
        "findings: {found:#?}"
    );
}

#[test]
fn determinism_ignores_clean_idioms_and_scrubbed_text() {
    let src = include_str!("fixtures/determinism_clean.rs");
    let found = lint("crates/channel/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn determinism_is_scoped_to_digest_crates() {
    // The same violating source outside the digest scope is legal.
    let src = include_str!("fixtures/determinism_fire.rs");
    let found = lint("crates/bench/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
    // campaign.rs is the documented supervisor exemption within sim.
    let found = lint("crates/sim/src/campaign.rs", src);
    assert!(found.iter().all(|f| f.lint != "determinism"));
    // runner.rs is in scope.
    let found = lint("crates/sim/src/runner.rs", src);
    assert_eq!(found.len(), 4);
}

#[test]
fn impairment_layer_is_determinism_and_hotpath_scoped() {
    // The impairment module is digest-affecting: wall clocks, unordered
    // maps, and per-slot allocation must all fire at its path.
    let src = include_str!("fixtures/impairments_fire.rs");
    let found = lint("crates/sim/src/impairments.rs", src);
    let det = found.iter().filter(|f| f.lint == "determinism").count();
    let hot = found.iter().filter(|f| f.lint == "hot-path-alloc").count();
    assert_eq!(det, 3, "findings: {found:#?}");
    assert_eq!(hot, 1, "findings: {found:#?}");
    // The supervisor exemption must not leak to the impairment layer: the
    // same source under campaign.rs raises no determinism findings.
    let found = lint("crates/sim/src/campaign.rs", src);
    assert!(found.iter().all(|f| f.lint != "determinism"));
}

#[test]
fn impairment_idioms_stay_clean() {
    let src = include_str!("fixtures/impairments_clean.rs");
    let found = lint("crates/sim/src/impairments.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn hotpath_fires_inside_marked_fn_only() {
    let src = include_str!("fixtures/hotpath_fire.rs");
    let found = lint("crates/dsp/src/fixture.rs", src);
    assert_eq!(found.len(), 3, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.lint == "hot-path-alloc"));
    // The vec! in the unmarked cold_setup must not be among them.
    let cold_line = src
        .lines()
        .position(|l| l.contains("vec![0.0; 8]"))
        .unwrap()
        + 1;
    assert!(found.iter().all(|f| f.line != cold_line));
}

#[test]
fn hotpath_accepts_reuse_idioms() {
    let src = include_str!("fixtures/hotpath_clean.rs");
    let found = lint("crates/dsp/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn telemetry_fires_on_ungated_call_sites() {
    let src = include_str!("fixtures/telemetry_fire.rs");
    let found = lint("crates/sim/src/fixture.rs", src);
    assert_eq!(found.len(), 3, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.lint == "telemetry-hygiene"));
}

#[test]
fn telemetry_accepts_gated_and_test_call_sites() {
    let src = include_str!("fixtures/telemetry_clean.rs");
    let found = lint("crates/sim/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn telemetry_fires_on_ungated_metrics_registry_sites() {
    let src = include_str!("fixtures/metrics_fire.rs");
    let found = lint("crates/sim/src/fixture.rs", src);
    assert_eq!(found.len(), 4, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.lint == "telemetry-hygiene"));
    // The same code is fine in the campaign capture layer and in bench
    // binaries — the registry is populated there by design.
    assert!(lint("crates/sim/src/campaign.rs", src).is_empty());
    assert!(lint("crates/bench/src/admin.rs", src).is_empty());
}

#[test]
fn telemetry_accepts_gated_metrics_registry_sites() {
    let src = include_str!("fixtures/metrics_clean.rs");
    let found = lint("crates/core/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn telemetry_is_scoped_to_byte_identity_crates() {
    let src = include_str!("fixtures/telemetry_fire.rs");
    // campaign.rs installs tracers unconditionally by design.
    let found = lint("crates/sim/src/campaign.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
    // The telemetry crate itself obviously records unconditionally.
    let found = lint("crates/telemetry/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn lifecycle_fires_on_foreign_transition_literal() {
    let src = include_str!("fixtures/lifecycle_fire.rs");
    let found = lint("crates/core/src/fixture.rs", src);
    assert_eq!(found.len(), 1, "findings: {found:#?}");
    assert_eq!(found[0].lint, "lifecycle-single-writer");
}

#[test]
fn lifecycle_permits_reads_and_the_state_machine_itself() {
    let clean = include_str!("fixtures/lifecycle_clean.rs");
    let found = lint("crates/core/src/fixture.rs", clean);
    assert!(found.is_empty(), "findings: {found:#?}");
    // The single writer is allowed to construct.
    let fire = include_str!("fixtures/lifecycle_fire.rs");
    let found = lint("crates/core/src/linkstate.rs", fire);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn fleet_scheduler_is_determinism_hotpath_and_lifecycle_scoped() {
    // The fleet module is digest-affecting (its digest must be invariant
    // to worker/shard count): wall clocks, unordered maps, per-pass
    // allocation, and direct lifecycle signalling must all fire at its
    // path.
    let src = include_str!("fixtures/fleet_fire.rs");
    let found = lint("crates/sim/src/fleet.rs", src);
    let det = found.iter().filter(|f| f.lint == "determinism").count();
    let hot = found.iter().filter(|f| f.lint == "hot-path-alloc").count();
    let lc = found
        .iter()
        .filter(|f| f.lint == "lifecycle-single-writer")
        .count();
    assert_eq!(det, 3, "findings: {found:#?}");
    assert_eq!(hot, 1, "findings: {found:#?}");
    assert_eq!(lc, 1, "findings: {found:#?}");
    // The LinkSignal finding is the direct-drive call, not the exempt
    // test module.
    let signal = found
        .iter()
        .find(|f| f.lint == "lifecycle-single-writer")
        .unwrap();
    assert!(
        signal.snippet.contains("LinkSignal"),
        "findings: {found:#?}"
    );
    // The supervisor exemption must not leak to the fleet scheduler: the
    // same source under campaign.rs raises no determinism findings.
    let found = lint("crates/sim/src/campaign.rs", src);
    assert!(found.iter().all(|f| f.lint != "determinism"));
}

#[test]
fn fleet_idioms_stay_clean() {
    // StopWatch wall time into a latency histogram, Vec-ordered lanes,
    // and intents queued on an IntentQueue are the sanctioned spellings.
    let src = include_str!("fixtures/fleet_clean.rs");
    let found = lint("crates/sim/src/fleet.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn spec_and_fuzz_modules_are_determinism_scoped() {
    // Spec round-trips promise bit-identical rebuilds and the fuzzer
    // promises same-name-same-specs: wall clocks, unordered maps, and OS
    // entropy must all fire at both module paths.
    let src = include_str!("fixtures/spec_fire.rs");
    for path in ["crates/sim/src/spec.rs", "crates/sim/src/fuzz.rs"] {
        let found = lint(path, src);
        let det = found.iter().filter(|f| f.lint == "determinism").count();
        // HashMap (use + field), Instant::now, from_entropy.
        assert_eq!(det, 4, "at {path}, findings: {found:#?}");
    }
    // The supervisor exemption must not leak: the same source under
    // campaign.rs raises no determinism findings.
    let found = lint("crates/sim/src/campaign.rs", src);
    assert!(found.iter().all(|f| f.lint != "determinism"));
}

#[test]
fn spec_and_fuzz_idioms_stay_clean() {
    // BTreeMap registries, Vec corpora, and named TestRng streams are the
    // sanctioned spellings.
    let src = include_str!("fixtures/spec_clean.rs");
    for path in ["crates/sim/src/spec.rs", "crates/sim/src/fuzz.rs"] {
        let found = lint(path, src);
        assert!(found.is_empty(), "at {path}, findings: {found:#?}");
    }
}

#[test]
fn core_owns_the_link_signal_vocabulary() {
    // The state machine, controller, and StateHandler (crates/core/src/)
    // are the allowed LinkSignal writers; everyone else must queue
    // intents.
    let src = include_str!("fixtures/fleet_fire.rs");
    let found = lint("crates/core/src/fixture.rs", src);
    assert!(
        found.iter().all(|f| f.lint != "lifecycle-single-writer"),
        "findings: {found:#?}"
    );
}

#[test]
fn reasonless_allow_is_rejected_and_does_not_suppress() {
    let src = include_str!("fixtures/allow_reasonless.rs");
    let found = lint("crates/channel/src/fixture.rs", src);
    let mut lints = lints_of(&found);
    lints.sort_unstable();
    assert_eq!(
        lints,
        vec!["determinism", "malformed-allow"],
        "findings: {found:#?}"
    );
}

#[test]
fn unused_allow_is_flagged_stale() {
    let src = include_str!("fixtures/allow_stale.rs");
    let found = lint("crates/channel/src/fixture.rs", src);
    assert_eq!(
        lints_of(&found),
        vec!["stale-allow"],
        "findings: {found:#?}"
    );
}

#[test]
fn reasoned_allow_suppresses_exactly_its_finding() {
    let src = include_str!("fixtures/allow_good.rs");
    let found = lint("crates/channel/src/fixture.rs", src);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn findings_render_rustc_style_and_as_json() {
    let src = include_str!("fixtures/lifecycle_fire.rs");
    let found = lint("crates/core/src/fixture.rs", src);
    let text = found[0].render();
    assert!(text.contains("error[xtask::lifecycle-single-writer]"));
    assert!(text.contains("crates/core/src/fixture.rs:"));
    let json = xtask::diag::report_json(&found);
    assert!(json.contains("\"lint\":\"lifecycle-single-writer\""));
    assert!(json.contains("\"file\":\"crates/core/src/fixture.rs\""));
}

// ---- Transitive (call-graph) lints ------------------------------------

fn lint_many(files: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(rel, src)| SourceFile {
            rel: PathBuf::from(rel),
            src: src.to_string(),
        })
        .collect();
    xtask::lint_files(&sources)
}

#[test]
fn closure_lint_fires_transitively_and_shows_the_call_chain() {
    let src = include_str!("fixtures/closure_fire.rs");
    let found = lint_many(&[("crates/dsp/src/fixture.rs", src)]);
    assert_eq!(found.len(), 1, "findings: {found:#?}");
    assert_eq!(found[0].lint, "hot-path-closure");
    let msg = &found[0].message;
    assert!(
        msg.contains("reachable from a `#[hot_path]` root via"),
        "{msg}"
    );
    assert!(
        msg.contains("mmwave_dsp::fixture::tick → mmwave_dsp::fixture::stage"),
        "chain missing from: {msg}"
    );
    assert!(msg.contains("Vec::new"), "{msg}");
}

#[test]
fn closure_lint_ignores_unreachable_allocators() {
    let src = include_str!("fixtures/closure_clean.rs");
    let found = lint_many(&[("crates/dsp/src/fixture.rs", src)]);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn panic_lint_fires_on_unwrap_and_bare_indexing_in_closure() {
    let src = include_str!("fixtures/panic_fire.rs");
    let found = lint_many(&[("crates/dsp/src/fixture.rs", src)]);
    assert_eq!(found.len(), 2, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.lint == "hot-path-panic"));
    assert!(found.iter().any(|f| f.message.contains(".unwrap()")));
    assert!(found.iter().any(|f| f.message.contains("slice indexing")));
}

#[test]
fn panic_lint_accepts_debug_assert_and_match_idioms() {
    let src = include_str!("fixtures/panic_clean.rs");
    let found = lint_many(&[("crates/dsp/src/fixture.rs", src)]);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn taint_lint_connects_journal_sink_to_wall_clock_source() {
    let src = include_str!("fixtures/taint_fire.rs");
    let found = lint_many(&[("crates/telemetry/src/fixture.rs", src)]);
    assert_eq!(found.len(), 1, "findings: {found:#?}");
    assert_eq!(found[0].lint, "determinism-taint");
    let msg = &found[0].message;
    assert!(msg.contains("journal_append"), "{msg}");
    assert!(msg.contains("Instant::now"), "{msg}");
}

#[test]
fn taint_lint_requires_reachability_not_colocation() {
    let src = include_str!("fixtures/taint_clean.rs");
    let found = lint_many(&[("crates/telemetry/src/fixture.rs", src)]);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn hot_path_marker_is_found_in_any_attribute_position() {
    let src = include_str!("fixtures/hotpath_attr_order.rs");
    let found = lint("crates/dsp/src/fixture.rs", src);
    assert_eq!(found.len(), 3, "findings: {found:#?}");
    assert!(found.iter().all(|f| f.lint == "hot-path-alloc"));
    // One finding per marked function: stacked-first, qualified-middle,
    // and cfg_attr-wrapped markers must all be recognized.
    assert!(found.iter().any(|f| f.message.contains("Vec::new")));
    assert!(found.iter().any(|f| f.message.contains("format!")));
    assert!(found.iter().any(|f| f.message.contains(".to_vec()")));
}

#[test]
fn item_scoped_allows_cover_whole_functions_and_stack() {
    let src = include_str!("fixtures/allow_item_scope.rs");
    let found = lint_many(&[("crates/dsp/src/fixture.rs", src)]);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn callgraph_export_and_stats_describe_the_fixture_graph() {
    let sources = vec![SourceFile {
        rel: PathBuf::from("crates/dsp/src/fixture.rs"),
        src: include_str!("fixtures/closure_fire.rs").to_string(),
    }];
    let (scrubbed, g) = xtask::build_graph(&sources);
    let stats = g.stats(&scrubbed);
    assert_eq!(stats.hot_roots, 1);
    assert!(stats.hot_closure >= 2, "{stats:?}");
    assert!(stats.nodes >= 3, "{stats:?}");
    let json = g.to_json(&sources, &scrubbed);
    assert!(json.contains("\"nodes\""));
    assert!(json.contains("mmwave_dsp::fixture::tick"));
    let dot = g.to_dot(&scrubbed);
    assert!(dot.starts_with("digraph"));
}

#[test]
fn allow_summary_counts_directives_outside_xtask_per_lint() {
    let directive = |lint: &str| format!("// xtask-allow({lint}): reason\nfn f() {{}}\n");
    let sources = vec![
        SourceFile {
            rel: PathBuf::from("crates/dsp/src/a.rs"),
            src: [
                directive("hot-path-panic"),
                directive("hot-path-closure"),
                directive("hot-path-panic"),
                // Doc comments and mid-prose mentions are not directives.
                "/// xtask-allow(hot-path-alloc): prose\nfn g() {}\n".to_string(),
            ]
            .concat(),
        },
        SourceFile {
            rel: PathBuf::from("crates/sim/src/b.rs"),
            src: directive("determinism"),
        },
        SourceFile {
            rel: PathBuf::from("crates/xtask/src/lints/c.rs"),
            src: directive("hot-path-closure"),
        },
    ];
    let (scrubbed, _) = xtask::build_graph(&sources);
    assert_eq!(
        xtask::allow_summary(&sources, &scrubbed),
        "xtask-allow: 4 outside crates/xtask (2 hot-path-panic, 1 determinism, 1 hot-path-closure)"
    );
}

#[test]
fn unreached_lists_fns_no_main_or_mention_reaches() {
    let sources = vec![
        SourceFile {
            rel: PathBuf::from("crates/bench/src/bin/tool.rs"),
            src: "fn main() { reached(); }\nfn reached() {}\nfn orphan() {}\n".to_string(),
        },
        SourceFile {
            rel: PathBuf::from("crates/dsp/src/api.rs"),
            src: "pub fn exported() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n"
                .to_string(),
        },
    ];
    let (_, g) = xtask::build_graph(&sources);
    let names = |mentioned: &std::collections::BTreeSet<String>| {
        let (unreached, total) = g.unreached(mentioned);
        let names: Vec<String> = unreached.iter().map(|&i| g.nodes[i].name.clone()).collect();
        (names, total)
    };
    let mentioned = std::collections::BTreeSet::from(["exported".to_string()]);
    // `orphan` is the one unreached fn; the test-module helper is not counted.
    assert_eq!(names(&mentioned), (vec!["orphan".to_string()], 4));
    // Without the outside mention, `exported` is unreached too.
    assert_eq!(
        names(&Default::default()),
        (vec!["orphan".to_string(), "exported".to_string()], 4)
    );
}

/// Display paths of the fns no `main` reaches in `files`.
fn unreached_in(files: &[(&str, &str)]) -> Vec<String> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(rel, src)| SourceFile {
            rel: PathBuf::from(rel),
            src: src.to_string(),
        })
        .collect();
    let (_, g) = xtask::build_graph(&sources);
    let (unreached, _) = g.unreached(&Default::default());
    unreached.iter().map(|&i| g.nodes[i].display()).collect()
}

const TRACER: &str = "pub struct Tracer;
impl Tracer {
    pub fn disabled() -> Self { Tracer }
    pub fn begin(&self) -> usize { let v: Vec<u8> = Vec::new(); v.len() }
    pub fn end(&self) {}
}
pub struct Span;
impl Span {
    pub fn end(&self) {}
}
";

#[test]
fn calls_in_feature_gated_regions_are_reached_but_not_linted() {
    let fixture = include_str!("fixtures/reach_cfg_gated.rs");
    let files = [
        ("crates/core/src/fixture.rs", fixture),
        ("crates/telemetry/src/tracer.rs", TRACER),
    ];
    let unreached = unreached_in(&files);
    assert!(
        !unreached.contains(&"mmwave_telemetry::tracer::Tracer::begin".to_string()),
        "{unreached:?}"
    );
    // The transitive lints judge the default build, which has no such
    // call: `begin`'s allocation is not in the hot closure.
    let found = lint_many(&files);
    assert!(found.is_empty(), "findings: {found:#?}");
}

#[test]
fn field_receiver_calls_resolve_through_the_field_type() {
    let files = [
        (
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/reach_field_receiver.rs"),
        ),
        ("crates/telemetry/src/tracer.rs", TRACER),
    ];
    let unreached = unreached_in(&files);
    assert!(
        !unreached.contains(&"mmwave_telemetry::tracer::Tracer::end".to_string()),
        "{unreached:?}"
    );
    // The field's type picks the method: a same-named `end` elsewhere
    // stays unreached.
    assert!(
        unreached.contains(&"mmwave_telemetry::tracer::Span::end".to_string()),
        "{unreached:?}"
    );
}

#[test]
fn crate_root_reexports_resolve_to_their_definitions() {
    let unreached = unreached_in(&[
        (
            "crates/sim/src/fixture.rs",
            include_str!("fixtures/reach_reexport.rs"),
        ),
        (
            "crates/telemetry/src/lib.rs",
            "pub mod json;\npub use json::{field_str, field_u64};\n",
        ),
        (
            "crates/telemetry/src/json.rs",
            "pub fn field_str(l: &str, k: &str) -> Option<String> { None }
pub fn field_u64(l: &str, k: &str) -> Option<u64> { None }
pub fn field_f64(l: &str, k: &str) -> Option<f64> { None }
",
        ),
    ]);
    for reached in ["field_str", "field_u64"] {
        let name = format!("mmwave_telemetry::json::{reached}");
        assert!(!unreached.contains(&name), "{name} in {unreached:?}");
    }
    assert!(
        unreached.contains(&"mmwave_telemetry::json::field_f64".to_string()),
        "{unreached:?}"
    );
}

#[test]
fn foreign_trait_impls_and_proc_macro_entries_are_roots() {
    let unreached = unreached_in(&[
        (
            "crates/channel/src/fixture.rs",
            include_str!("fixtures/reach_trait_impl.rs"),
        ),
        (
            "crates/hotpath/src/lib.rs",
            "#[proc_macro_attribute]\npub fn hot_path(_a: TokenStream, i: TokenStream) -> TokenStream { i }\n",
        ),
    ]);
    for reached in [
        "mmwave_channel::fixture::Vec2::add",
        "mmwave_channel::fixture::Vec2::fmt",
        "mmwave_hotpath::hot_path",
    ] {
        assert!(
            !unreached.contains(&reached.to_string()),
            "{reached} in {unreached:?}"
        );
    }
    // An impl of a workspace trait is reached only through a call.
    assert!(
        unreached.contains(&"mmwave_channel::fixture::Vec2::area".to_string()),
        "{unreached:?}"
    );
}

#[test]
fn fns_named_as_values_are_reached() {
    let unreached = unreached_in(&[(
        "crates/bench/src/bin/fixture.rs",
        include_str!("fixtures/reach_fn_value.rs"),
    )]);
    assert!(unreached.is_empty(), "{unreached:?}");
}
