//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//!           [--untraced-slots-per-s <x>] [--spans <path>]
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end set when untraced, the per-layer set when
//! traced. The traced form needs the binary built with `--features
//! traced` and the untraced rate of the same inputs for the overhead
//! figure. Exits 1 when any output check failed, 2 on a usage error.

use mmwave_telemetry::Stage;
use perfbench::report::{median, peak_rss_mb, percentile, result_json, Metric};
use perfbench::spans::LayerTime;
use perfbench::workload::{self, stage_total, Outcome, Workload};
use perfbench::wrap::Recorder;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    untraced_slots_per_s: Option<f64>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).map(String::as_str);
    let num = |k: &str| -> Result<Option<f64>, String> {
        get(k)
            .map(|v| v.parse::<f64>().map_err(|e| format!("--{k} {v:?}: {e}")))
            .transpose()
    };
    let name = get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seed = get("seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("seconds")?.ok_or("--seconds is required")?;
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    if trace && !cfg!(feature = "traced") {
        return Err("--trace 1 needs the binary built with --features traced".into());
    }
    let untraced_slots_per_s = num("untraced-slots-per-s")?;
    if trace && untraced_slots_per_s.is_none() {
        return Err("--trace 1 needs --untraced-slots-per-s".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        untraced_slots_per_s,
        spans: get("spans").map(str::to_string),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder::new(args.trace);
    let out = workload::run(args.workload, args.seed, args.seconds, &mut rec);
    let slots_per_s = out.steady_slots as f64 / (out.steady_ns as f64 * 1e-9);

    eprintln!(
        "perfbench {} seed {}: {} links or fleets, {} run(s) checked, {} failed",
        args.workload.name(),
        args.seed,
        out.setup_ns.len(),
        out.attempted,
        out.failed
    );
    for f in &out.failures {
        eprintln!("  check failed: {f}");
    }
    eprintln!(
        "  host speed: reference kernel median {:.0} ns over {} samples; times below are at the nominal {:.0} ns",
        median(&rec.speed.samples).unwrap_or(f64::NAN),
        rec.speed.samples.len(),
        perfbench::calib::REF_NOMINAL_NS
    );
    let mut correct = out.failed == 0;
    let metrics = if args.trace {
        match per_layer(&args, &out, &rec, slots_per_s) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("  trace closure check failed: {e}");
                correct = false;
                Vec::new()
            }
        }
    } else {
        end_to_end(&out, slots_per_s)
    };
    for m in &metrics {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("  {} was not measured", m.name);
        correct = false;
    }
    if let (Some(path), Some(spans)) = (&args.spans, &rec.spans) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            spans.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("  cannot write spans to {path}: {e}");
            correct = false;
        }
    }
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (n, s) = v.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    s / n as f64
}

fn end_to_end(out: &Outcome, slots_per_s: f64) -> Vec<Metric> {
    let mut ticks = out.tick_ns.clone();
    ticks.sort_unstable();
    let mut passes = out.pass_ns.clone();
    passes.sort_unstable();
    let us = |v: Option<u64>| v.map_or(f64::NAN, |ns| ns as f64 * 1e-3);
    let m = |name, unit, value| Metric { name, unit, value };
    eprintln!(
        "  samples: {} ticks, {} passes, {} steady slots",
        ticks.len(),
        passes.len(),
        out.steady_slots
    );
    vec![
        m("slots_per_s", "slots/s", slots_per_s),
        m("tick_p50_us", "us", us(percentile(&ticks, 0.50))),
        m("tick_p99_us", "us", us(percentile(&ticks, 0.99))),
        m("pass_p50_us", "us", us(percentile(&passes, 0.50))),
        m("pass_p90_us", "us", us(percentile(&passes, 0.90))),
        // The set-up of every link or fleet, estimated robustly: the
        // median per-unit set-up times the number of units.
        m(
            "setup_s",
            "s",
            median(&out.setup_ns).map_or(f64::NAN, |ns| ns * 1e-9 * out.setup_ns.len() as f64),
        ),
        m("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
        m(
            "reliability",
            "fraction",
            mean(out.runs.iter().map(|f| f.reliability)),
        ),
        m(
            "throughput_mbps",
            "Mbps",
            mean(out.runs.iter().map(|f| f.throughput_bps * 1e-6)),
        ),
        m(
            "ok_rate",
            "fraction",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ]
}

fn per_layer(
    args: &Args,
    out: &Outcome,
    rec: &Recorder,
    slots_per_s: f64,
) -> Result<Vec<Metric>, String> {
    let spans = rec.spans.as_ref().ok_or("no span log")?;
    let wall_ns = spans.wall_ns();
    let layers = spans.layers()?;
    let root_ns = spans.root_ns();
    let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
    let untraced_ns = wall_ns - root_ns;
    if self_sum + untraced_ns != wall_ns {
        return Err(format!(
            "self times {self_sum} ns + untraced {untraced_ns} ns != wall {wall_ns} ns"
        ));
    }
    let untraced_frac = untraced_ns as f64 / wall_ns as f64;
    eprintln!("  layer self time (closure: self sum + untraced = wall {wall_ns} ns)");
    for (name, l) in &layers {
        eprintln!(
            "    {name:<12} {:>8} spans  busy {:>10.6} s  self {:>10.6} s  ({:5.1}% of wall)",
            l.count,
            l.busy_ns as f64 * 1e-9,
            l.self_ns as f64 * 1e-9,
            100.0 * l.self_ns as f64 / wall_ns as f64
        );
    }
    eprintln!(
        "    {:<12} {:>8}        {:>16}  self {:>10.6} s  ({:5.1}% of wall)",
        "(untraced)",
        "",
        "",
        untraced_ns as f64 * 1e-9,
        100.0 * untraced_frac
    );
    if untraced_frac > 0.10 {
        eprintln!(
            "  finding: {:.1}% of wall time lies outside every span",
            100.0 * untraced_frac
        );
    }
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let sum = |names: &[&str], f: fn(&LayerTime) -> u64| -> u64 {
        names.iter().map(|n| f(&layer(n))).sum()
    };
    let secs = |ns: u64| ns as f64 * 1e-9;
    let (tick, probe, pass) = (layer("tick"), layer("probe"), layer("pass"));
    let dataplane_ns = sum(&["warmup", "steady"], |l| l.self_ns);
    let (superres_n, superres_s) = stage_total(out, Stage::SuperresFit);
    let (_, weights_s) = stage_total(out, Stage::WeightSynthesis);
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let untraced = args.untraced_slots_per_s.unwrap_or(f64::NAN);
    let c = &out.counters;
    let m = |name, unit, value| Metric { name, unit, value };
    Ok(vec![
        m("tick.count", "count", tick.count as f64),
        m("tick.busy_s", "s", secs(tick.busy_ns)),
        m("tick.self_s", "s", secs(tick.self_ns)),
        m("superres.count", "count", superres_n as f64),
        m("superres.busy_s", "s", superres_s),
        m("weights.busy_s", "s", weights_s),
        m("probe.count", "count", probe.count as f64),
        m("probe.busy_s", "s", secs(probe.busy_ns)),
        m(
            "probe.mean_us",
            "us",
            per(probe.busy_ns, probe.count) * 1e-3,
        ),
        m("dataplane.busy_s", "s", secs(dataplane_ns)),
        m(
            "dataplane.ns_per_slot",
            "ns",
            per(dataplane_ns, out.link_slots),
        ),
        m(
            "channel.snapshot_rebuilds",
            "count",
            c.snapshot_rebuilds as f64,
        ),
        m("channel.snapshot_reuses", "count", c.snapshot_reuses as f64),
        m("channel.snr_evals", "count", c.snr_evals as f64),
        m("fleet.pass.count", "count", pass.count as f64),
        m("fleet.pass.busy_s", "s", secs(pass.busy_ns)),
        m(
            "fleet.ns_per_ue_slot",
            "ns",
            per(pass.busy_ns, out.fleet_slots),
        ),
        m(
            "frontend_stack.busy_s",
            "s",
            secs(out.mixed_fleet_ns) - secs(out.clean_fleet_ns),
        ),
        m("cell.images_built", "count", out.images_built as f64),
        m("cell.traces_served", "count", out.traces_served as f64),
        m(
            "setup.build_s",
            "s",
            secs(sum(&["build", "cache_build", "shard_new"], |l| l.busy_ns)),
        ),
        m(
            "setup.warmup_s",
            "s",
            secs(sum(&["warmup", "warm_passes"], |l| l.busy_ns)),
        ),
        m("replay.cells", "count", layer("replay").count as f64),
        m("replay.busy_s", "s", secs(layer("replay").busy_ns)),
        m("calibrate.busy_s", "s", secs(layer("calibrate").busy_ns)),
        m(
            "trace.overhead_frac",
            "fraction",
            (untraced - slots_per_s) / untraced,
        ),
        m("trace.untraced_frac", "fraction", untraced_frac),
    ])
}
