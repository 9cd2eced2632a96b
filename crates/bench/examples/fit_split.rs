//! Super-resolution fit cost on the `mmreliable-mobility` benchmark's own
//! fit inputs.
//!
//! Plays the first `links` links of the `mmreliable-mobility` workload
//! (link `i` is `mixed_mobility_blockage(1000·seed + i)` under the paper's
//! mmReliable controller) with every probe recorded by a front end that
//! wraps the simulator. A probe is a fit input when the controller's
//! `superres-fit` span count rises before the next probe; its relative
//! delays follow the controller's rule (a scan's viable delays after an
//! establishment, the round fit's refined delays after a maintenance
//! round), and every round fit is checked against the powers the
//! controller reported for it, bit for bit. The captured fits are then
//! timed in capture order through one warm scratch, as the controller runs
//! them: the whole fit (`estimate_per_beam_into`) and its coarse peak
//! alone (`training::estimate_delay_ns_with`). Prints µs per fit as the
//! median (and range) of `rounds` passes over every captured fit.
//!
//! ```text
//! cargo run --release -p mmwave-bench --features telemetry --example fit_split -- [rounds] [seed] [links]
//! ```
//!
//! It needs the `telemetry` feature, which compiles the fit spans it
//! counts; the timed code is the same in either build.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmreliable::superres::{
    estimate_per_beam_into, PerBeamEstimate, SuperResConfig, SuperResScratch,
};
use mmreliable::training::estimate_delay_ns_with;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_dsp::fft::FftScratch;
use mmwave_phy::chanest::ProbeObservation;
use mmwave_sim::run_front_end;
use mmwave_sim::scenario::mixed_mobility_blockage;
use mmwave_telemetry::{NullSink, Stage, Tracer};
use std::time::Instant;

/// One probe as the wrapped front end saw it.
struct Probe {
    obs: ProbeObservation,
    /// A training-scan (SSB) probe.
    ssb: bool,
    /// Fit spans closed before this probe was sent.
    fits_before: u64,
}

/// Fits closed so far on `tracer`.
fn fit_count(tracer: &Tracer) -> u64 {
    tracer.histograms()[Stage::SuperresFit.index()].count()
}

/// The simulator seen through a recorder of every probe.
struct Recorder<'a> {
    inner: &'a mut dyn LinkFrontEnd,
    tracer: &'a Tracer,
    log: &'a mut Vec<Probe>,
}

impl LinkFrontEnd for Recorder<'_> {
    fn geometry(&self) -> &ArrayGeometry {
        self.inner.geometry()
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        let fits_before = fit_count(self.tracer);
        self.inner.probe_kind_into(weights, kind, out);
        self.log.push(Probe {
            obs: out.clone(),
            ssb: kind == ProbeKind::Ssb,
            fits_before,
        });
    }

    fn wait(&mut self, dur_s: f64) {
        self.inner.wait(dur_s);
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn cancel_requested(&self) -> bool {
        self.inner.cancel_requested()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }
}

/// The mmReliable strategy with every tick's probes recorded and its fit
/// inputs rebuilt after the tick.
struct Capture {
    inner: MmReliableStrategy,
    tracer: Tracer,
    /// Relative delays the controller's next round fit is given.
    rel: Vec<f64>,
    /// Captured fits: probe and relative delays, in the controller's order.
    fits: Vec<(ProbeObservation, Vec<f64>)>,
    log: Vec<Probe>,
    scratch: SuperResScratch,
    est: PerBeamEstimate,
    /// Round fits checked against the controller's reported powers.
    checked: usize,
}

impl Capture {
    fn new() -> Self {
        let tracer = Tracer::new(Box::new(NullSink), 1);
        let mut inner =
            MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
        inner.set_tracer(tracer.clone());
        Self {
            inner,
            tracer,
            rel: Vec::new(),
            fits: Vec::new(),
            log: Vec::new(),
            scratch: SuperResScratch::default(),
            est: PerBeamEstimate::default(),
            checked: 0,
        }
    }

    /// Fits `obs` on `rel` and records the pair.
    fn fit(&mut self, obs: &ProbeObservation, rel: Vec<f64>) {
        let cfg = SuperResConfig::default();
        estimate_per_beam_into(&mut self.scratch, obs, &rel, &cfg, &mut self.est);
        self.fits.push((obs.clone(), rel));
    }
}

impl BeamStrategy for Capture {
    fn name(&self) -> &'static str {
        "mmReliable (fit capture)"
    }

    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, _t_s: f64) {
        let mut log = std::mem::take(&mut self.log);
        log.clear();
        let report = {
            let mut rec = Recorder {
                inner: fe,
                tracer: &self.tracer,
                log: &mut log,
            };
            self.inner.controller.maintenance_round(&mut rec)
        };
        self.inner.refresh_weights();
        let fits_end = fit_count(&self.tracer);
        let (mut scanned, mut round_fit) = (false, None);
        for (i, probe) in log.iter().enumerate() {
            scanned |= probe.ssb;
            let fits_after = log.get(i + 1).map_or(fits_end, |p| p.fits_before);
            match fits_after - probe.fits_before {
                0 => continue,
                1 => {}
                n => panic!("{n} fits on one probe"),
            }
            if scanned {
                // An establishment: the scan's viable delays, relative to
                // the strongest.
                let training = self.inner.controller.last_training().expect("scanned");
                let reference = training.viable[0].delay_ns;
                self.rel = training
                    .viable
                    .iter()
                    .map(|v| v.delay_ns - reference)
                    .collect();
                self.fit(&probe.obs, self.rel.clone());
            } else if round_fit.is_none() {
                // The round fit, whose refined delays the round adopts.
                self.fit(&probe.obs, self.rel.clone());
                self.rel.clone_from(&self.est.rel_delays_ns);
                round_fit = Some(self.est.powers_db());
            } else {
                self.fit(&probe.obs, self.rel.clone());
            }
        }
        if let Some(powers) = round_fit {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&powers),
                bits(&report.per_beam_db),
                "rebuilt round fit differs from the controller's"
            );
            self.checked += 1;
        }
        self.log = log;
    }

    fn weights(&self) -> BeamWeights {
        self.inner.weights()
    }

    fn weights_into(&self, out: &mut BeamWeights) {
        self.inner.weights_into(out);
    }

    fn drain_transitions(&mut self) -> Vec<mmreliable::linkstate::Transition> {
        self.inner.drain_transitions()
    }
}

/// Median, min and max of `v`.
fn spread(mut v: Vec<f64>) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

/// µs per item of `rounds` timed passes of `pass` over `items` items.
fn time_passes(rounds: usize, items: usize, mut pass: impl FnMut()) -> (f64, f64, f64) {
    pass(); // warm-up
    spread(
        (0..rounds)
            .map(|_| {
                let t0 = Instant::now();
                pass();
                t0.elapsed().as_secs_f64() * 1e6 / items as f64
            })
            .collect(),
    )
}

fn main() {
    if !cfg!(feature = "telemetry") {
        eprintln!("fit_split counts the controller's fit spans: run it with --features telemetry");
        std::process::exit(2);
    }
    let mut args = std::env::args().skip(1);
    let rounds: usize = args.next().map_or(15, |a| a.parse().expect("rounds"));
    let seed: u64 = args.next().map_or(1, |a| a.parse().expect("seed"));
    let links: u64 = args.next().map_or(12, |a| a.parse().expect("links"));
    let mut fits = Vec::new();
    let mut checked = 0;
    for i in 0..links {
        let link_seed = seed * 1000 + i;
        let sc = mixed_mobility_blockage(link_seed);
        let mut sim = sc.simulator(link_seed);
        let mut capture = Capture::new();
        run_front_end(
            &mut sim,
            &mut capture,
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        assert_eq!(
            capture.fits.len() as u64,
            fit_count(&capture.tracer),
            "link {link_seed}: a fit went uncaptured"
        );
        checked += capture.checked;
        fits.append(&mut capture.fits);
    }
    let mut beams = [0usize; 5];
    for (_, rel) in &fits {
        beams[rel.len().min(4)] += 1;
    }
    println!(
        "links {links}, fits {}, round fits checked {checked}, K=1/2/3/4+ {:?}",
        fits.len(),
        &beams[1..]
    );
    let cfg = SuperResConfig::default();
    let mut scratch = SuperResScratch::default();
    let mut est = PerBeamEstimate::default();
    let whole = time_passes(rounds, fits.len(), || {
        for (obs, rel) in &fits {
            estimate_per_beam_into(&mut scratch, obs, rel, &cfg, &mut est);
        }
    });
    let (mut cir, mut fft) = (Vec::new(), FftScratch::default());
    let mut sink = 0.0;
    let peak = time_passes(rounds, fits.len(), || {
        for (obs, _) in &fits {
            sink += estimate_delay_ns_with(obs, &mut cir, &mut fft);
        }
    });
    std::hint::black_box(sink);
    println!("phase,rounds,us_per_fit_median,us_per_fit_min,us_per_fit_max");
    for (name, (median, min, max)) in [("fit", whole), ("coarse_peak", peak)] {
        println!("{name},{rounds},{median:.1},{min:.1},{max:.1}");
    }
}
