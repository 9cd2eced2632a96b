//! Evaluation metrics: reliability, throughput, and their product.
//!
//! The paper's definitions (§3.1, §6.2):
//!
//! - **Reliability** = fraction of time the link is available for
//!   communication (Eq. 1). Time spent below the outage SNR *and* time
//!   consumed by beam-training/probing both count as unavailable.
//! - **Throughput** — MCS-mapped link rate, averaged over the whole run
//!   (probing time contributes zero).
//! - **Throughput-reliability product** — the paper's combined headline
//!   metric (mmReliable improves it 2.3× over the best reactive baseline).

use crate::faults::FaultEvent;
use crate::impairments::ImpairmentEvent;
use mmreliable::linkstate::{LinkStateKind, Transition};
use mmwave_phy::mcs::McsTable;
use mmwave_telemetry::RunLatency;

/// One typed entry in a run's event log: a lifecycle transition of the
/// strategy's link state machine, a fault the injection layer hit the
/// front end with, or a hardware-impairment annotation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RunEvent {
    /// A link lifecycle transition.
    Transition(Transition),
    /// An injected front-end fault.
    Fault(FaultEvent),
    /// A hardware-impairment annotation (stage enabled, PA saturation,
    /// ADC clipping).
    Impairment(ImpairmentEvent),
}

impl RunEvent {
    /// Event timestamp, seconds.
    pub fn t_s(&self) -> f64 {
        match self {
            RunEvent::Transition(tr) => tr.t_s,
            RunEvent::Fault(f) => f.t_s,
            RunEvent::Impairment(im) => im.t_s,
        }
    }
}

/// Hot-path execution counters for one run.
///
/// Populated only when the `perf-counters` feature is enabled; all-zero
/// otherwise. Counting is pure observability — enabling the feature never
/// changes simulation results. The interesting ratio is
/// `snapshot_reuses : snapshot_rebuilds`: every reuse is a full channel
/// re-evaluation (scene trace + per-path steering) that the pre-snapshot
/// dataflow paid and the workspace dataflow does not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Data slots simulated.
    pub data_slots: u64,
    /// Maintenance ticks delivered to the strategy.
    pub ticks: u64,
    /// Channel snapshot rebuilds (one per distinct simulated instant).
    pub snapshot_rebuilds: u64,
    /// Snapshot reads served from cache without re-evaluating the channel.
    pub snapshot_reuses: u64,
    /// Wideband true-SNR evaluations.
    pub snr_evals: u64,
}

/// One recorded interval of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Interval start, seconds.
    pub t_s: f64,
    /// Interval duration, seconds.
    pub dur_s: f64,
    /// Link SNR during the interval, dB (NaN while probing).
    pub snr_db: f64,
    /// True when the interval was consumed by reference-signal probing.
    pub probing: bool,
}

/// The full record of one simulated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Strategy display name.
    pub strategy: String,
    /// Scenario name.
    pub scenario: String,
    /// Per-interval record, in time order.
    pub samples: Vec<Sample>,
    /// Link bandwidth used for throughput mapping, Hz.
    pub bandwidth_hz: f64,
    /// Outage threshold, dB.
    pub outage_snr_db: f64,
    /// Total probes issued.
    pub probes: usize,
    /// Total probing airtime, seconds.
    pub probe_airtime_s: f64,
    /// Metrics ignore samples before this instant (warm-up window in which
    /// every scheme performs its initial beam training, per the paper's
    /// protocol).
    pub measure_from_s: f64,
    /// Typed event log: every lifecycle transition the strategy reported
    /// and every fault the injection layer produced, in time order.
    pub events: Vec<RunEvent>,
    /// Hot-path execution counters (all-zero unless the `perf-counters`
    /// feature is enabled).
    pub counters: RunCounters,
    /// Per-stage latency percentiles (p50/p95/p99/max of tick compute,
    /// probe handling, superres fit, weight synthesis, data slots).
    /// All-zero unless the `telemetry` feature is enabled and a tracer was
    /// installed. Wall-clock derived, so deliberately **excluded** from
    /// [`RunResult::digest`] and [`RunResult::validate`] — two
    /// bit-identical runs may time differently.
    pub latency: RunLatency,
}

impl RunResult {
    /// Samples inside the measurement window.
    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(move |s| s.t_s >= self.measure_from_s)
    }

    /// Total measured duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.measured().map(|s| s.dur_s).sum()
    }

    /// Reliability per paper Eq. 1: available time / total time.
    pub fn reliability(&self) -> f64 {
        let total = self.duration_s();
        if total <= 0.0 {
            return 0.0;
        }
        let up: f64 = self
            .measured()
            .filter(|s| !s.probing && s.snr_db >= self.outage_snr_db)
            .map(|s| s.dur_s)
            .sum();
        up / total
    }

    /// Mean throughput over the run, bits/s (probing intervals carry 0).
    pub fn mean_throughput_bps(&self, mcs: &McsTable) -> f64 {
        let total = self.duration_s();
        if total <= 0.0 {
            return 0.0;
        }
        let bits: f64 = self
            .measured()
            .filter(|s| !s.probing)
            .map(|s| mcs.throughput_bps(s.snr_db, self.bandwidth_hz, 0.0) * s.dur_s)
            .sum();
        bits / total
    }

    /// The paper's combined metric: reliability × mean throughput (bits/s).
    pub fn throughput_reliability_product(&self, mcs: &McsTable) -> f64 {
        self.reliability() * self.mean_throughput_bps(mcs)
    }

    /// Fraction of airtime spent probing.
    pub fn probing_overhead(&self) -> f64 {
        let total = self.duration_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.probe_airtime_s / total
    }

    /// Mean SNR over measured data intervals, dB.
    pub fn mean_snr_db(&self) -> f64 {
        let data: Vec<&Sample> = self.measured().filter(|s| !s.probing).collect();
        if data.is_empty() {
            return f64::NAN;
        }
        let dur: f64 = data.iter().map(|s| s.dur_s).sum();
        data.iter().map(|s| s.snr_db * s.dur_s).sum::<f64>() / dur
    }

    /// SNR time series `(t, snr_db)` over measured data intervals.
    pub fn snr_series(&self) -> Vec<(f64, f64)> {
        self.measured()
            .filter(|s| !s.probing)
            .map(|s| (s.t_s, s.snr_db))
            .collect()
    }

    /// Throughput time series `(t, bps)` over measured data intervals.
    pub fn throughput_series(&self, mcs: &McsTable) -> Vec<(f64, f64)> {
        self.measured()
            .filter(|s| !s.probing)
            .map(|s| (s.t_s, mcs.throughput_bps(s.snr_db, self.bandwidth_hz, 0.0)))
            .collect()
    }

    /// Lifecycle transitions recorded during the run, in time order.
    pub fn transitions(&self) -> impl Iterator<Item = &Transition> {
        self.events.iter().filter_map(|e| match e {
            RunEvent::Transition(tr) => Some(tr),
            _ => None,
        })
    }

    /// Injected faults recorded during the run, in time order.
    pub fn faults(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter_map(|e| match e {
            RunEvent::Fault(f) => Some(f),
            _ => None,
        })
    }

    /// Hardware-impairment annotations recorded during the run, in time
    /// order.
    pub fn impairments(&self) -> impl Iterator<Item = &ImpairmentEvent> {
        self.events.iter().filter_map(|e| match e {
            RunEvent::Impairment(im) => Some(im),
            _ => None,
        })
    }

    /// Number of re-training attempts the strategy launched after the
    /// measurement window opened (entries into the `Recovering` state) —
    /// the quantity the bounded-retry guarantees cap.
    pub fn retrain_attempts(&self) -> usize {
        self.transitions()
            .filter(|tr| tr.t_s >= self.measure_from_s && tr.to.kind() == LinkStateKind::Recovering)
            .count()
    }

    /// Structural sanity check of a completed run record, used by the
    /// campaign supervisor to classify a run that *finished* but produced
    /// garbage (a `Validation` failure — not retryable, since it would
    /// reproduce deterministically).
    pub fn validate(&self) -> Result<(), String> {
        if self.samples.is_empty() {
            return Err("run produced no samples".into());
        }
        if !(self.bandwidth_hz.is_finite() && self.bandwidth_hz > 0.0) {
            return Err(format!("non-positive bandwidth {}", self.bandwidth_hz));
        }
        if !self.probe_airtime_s.is_finite() || self.probe_airtime_s < 0.0 {
            return Err(format!("bad probe airtime {}", self.probe_airtime_s));
        }
        let mut t_prev = f64::NEG_INFINITY;
        for (i, s) in self.samples.iter().enumerate() {
            if !s.t_s.is_finite() || !s.dur_s.is_finite() || s.dur_s <= 0.0 {
                return Err(format!(
                    "sample {i} has bad interval (t={} dur={})",
                    s.t_s, s.dur_s
                ));
            }
            if s.t_s < t_prev {
                return Err(format!("sample {i} out of time order (t={})", s.t_s));
            }
            if !s.probing && !s.snr_db.is_finite() {
                return Err(format!("data sample {i} has non-finite SNR"));
            }
            t_prev = s.t_s;
        }
        // The log merges independently-ordered streams (lifecycle
        // transitions from the simulator, fault events from the injector,
        // impairment annotations from the impairment layer), so time order
        // is required per class, not globally.
        let (mut tr_prev, mut f_prev, mut im_prev) =
            (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (i, e) in self.events.iter().enumerate() {
            if !e.t_s().is_finite() {
                return Err(format!("event {i} has non-finite time"));
            }
            let prev = match e {
                RunEvent::Transition(_) => &mut tr_prev,
                RunEvent::Fault(_) => &mut f_prev,
                RunEvent::Impairment(_) => &mut im_prev,
            };
            if e.t_s() < *prev {
                return Err(format!("event {i} out of time order (t={})", e.t_s()));
            }
            *prev = e.t_s();
        }
        Ok(())
    }

    /// A 64-bit FNV-1a digest over every behaviour-bearing field of the
    /// record — sample bit patterns, event log, probe accounting. Two runs
    /// digest equal iff they are bit-identical, which is how the campaign
    /// journal detects divergence on resume and how a journal replay
    /// (`mmwave-admin diff --replay`) proves a reproduced run matches the
    /// recorded one.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, b: &[u8]) {
                for &x in b {
                    self.0 = (self.0 ^ x as u64).wrapping_mul(PRIME);
                }
            }
            fn f64(&mut self, v: f64) {
                self.bytes(&v.to_bits().to_le_bytes());
            }
            fn u64(&mut self, v: u64) {
                self.bytes(&v.to_le_bytes());
            }
        }
        let mut h = Fnv(OFFSET);
        h.bytes(self.strategy.as_bytes());
        h.bytes(self.scenario.as_bytes());
        h.u64(self.samples.len() as u64);
        for s in &self.samples {
            h.f64(s.t_s);
            h.f64(s.dur_s);
            h.f64(s.snr_db);
            h.u64(s.probing as u64);
        }
        h.f64(self.bandwidth_hz);
        h.f64(self.outage_snr_db);
        h.u64(self.probes as u64);
        h.f64(self.probe_airtime_s);
        h.f64(self.measure_from_s);
        h.u64(self.events.len() as u64);
        for e in &self.events {
            h.f64(e.t_s());
            h.bytes(format!("{e:?}").as_bytes());
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(samples: Vec<Sample>) -> RunResult {
        RunResult {
            strategy: "test".into(),
            scenario: "unit".into(),
            samples,
            bandwidth_hz: 400e6,
            outage_snr_db: 6.0,
            probes: 0,
            probe_airtime_s: 0.0,
            measure_from_s: 0.0,
            events: Vec::new(),
            counters: RunCounters::default(),
            latency: RunLatency::default(),
        }
    }

    fn s(t: f64, dur: f64, snr: f64, probing: bool) -> Sample {
        Sample {
            t_s: t,
            dur_s: dur,
            snr_db: snr,
            probing,
        }
    }

    #[test]
    fn reliability_counts_outage_and_probing() {
        let r = mk(vec![
            s(0.0, 0.25, 20.0, false),     // up
            s(0.25, 0.25, 3.0, false),     // outage
            s(0.5, 0.25, 20.0, false),     // up
            s(0.75, 0.25, f64::NAN, true), // probing
        ]);
        assert!((r.reliability() - 0.5).abs() < 1e-12);
        assert!((r.duration_s() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_run_reliability_one() {
        let r = mk(vec![s(0.0, 1.0, 25.0, false)]);
        assert_eq!(r.reliability(), 1.0);
    }

    #[test]
    fn throughput_zero_in_outage_and_probing() {
        let mcs = McsTable::nr_table();
        let r = mk(vec![
            s(0.0, 0.5, 3.0, false),     // outage → 0 rate
            s(0.5, 0.5, f64::NAN, true), // probing → excluded
        ]);
        assert_eq!(r.mean_throughput_bps(&mcs), 0.0);
    }

    #[test]
    fn throughput_averages_over_total_time() {
        let mcs = McsTable::nr_table();
        // Half the time at 20 dB, half probing: mean = rate(20 dB)/2.
        let r = mk(vec![s(0.0, 0.5, 20.0, false), s(0.5, 0.5, f64::NAN, true)]);
        let full = mcs.throughput_bps(20.0, 400e6, 0.0);
        assert!((r.mean_throughput_bps(&mcs) - full / 2.0).abs() < 1e-6);
    }

    #[test]
    fn product_combines_both() {
        let mcs = McsTable::nr_table();
        let r = mk(vec![s(0.0, 0.5, 20.0, false), s(0.5, 0.5, 3.0, false)]);
        let expect = 0.5 * r.mean_throughput_bps(&mcs);
        assert!((r.throughput_reliability_product(&mcs) - expect).abs() < 1e-6);
    }

    #[test]
    fn mean_snr_weighted_by_duration() {
        let r = mk(vec![s(0.0, 0.75, 20.0, false), s(0.75, 0.25, 8.0, false)]);
        assert!((r.mean_snr_db() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let r = mk(Vec::new());
        assert_eq!(r.reliability(), 0.0);
        assert!(r.mean_snr_db().is_nan());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let r = mk(vec![s(0.0, 0.1, 12.0, false)]);
        assert_eq!(r.digest(), r.digest(), "digest is deterministic");
        let mut r2 = r.clone();
        r2.samples[0].snr_db += 1e-12;
        assert_ne!(r.digest(), r2.digest(), "one ULP flips the digest");
        let mut r3 = r.clone();
        r3.strategy = "other".into();
        assert_ne!(r.digest(), r3.digest());
    }

    #[test]
    fn validate_catches_structural_garbage() {
        assert!(mk(vec![s(0.0, 0.1, 12.0, false)]).validate().is_ok());
        assert!(mk(Vec::new()).validate().is_err(), "no samples");
        let bad_dur = mk(vec![s(0.0, 0.0, 12.0, false)]);
        assert!(bad_dur.validate().is_err(), "zero duration");
        let out_of_order = mk(vec![s(0.5, 0.1, 12.0, false), s(0.0, 0.1, 12.0, false)]);
        assert!(out_of_order.validate().is_err(), "time order");
        let nan_data = mk(vec![s(0.0, 0.1, f64::NAN, false)]);
        assert!(nan_data.validate().is_err(), "NaN on a data slot");
        // NaN while probing is the recorded convention, not garbage.
        let nan_probe = mk(vec![s(0.0, 0.1, f64::NAN, true)]);
        assert!(nan_probe.validate().is_ok());
    }
}
