//! Hardware impairments over any [`SimFrontEnd`].
//!
//! [`ImpairedFrontEnd`] wraps a front end and distorts it the way a real
//! mmWave radio does (arXiv:1803.05665): oscillator phase noise, PA
//! AM/AM + AM/PM compression, static per-element gain/phase mismatch, mutual
//! coupling between elements, ADC quantization + clipping, and LO carrier
//! feedthrough. Where [`crate::faults::FaultInjector`] models discrete
//! *failures* (lost probes, dead elements, dark windows), this layer
//! models the *continuous* analog imperfections every front end has even
//! when nothing is broken — which is exactly what the paper's clean
//! simulator abstracts away.
//!
//! The stage pipeline splits by domain:
//!
//! - **Transmit weights** (probing *and* data slots, via
//!   [`SimFrontEnd::apply_radiated_faults`]): PA compression → per-element
//!   mismatch → mutual coupling. Multi-beam weights are deliberately
//!   non-constant-modulus, so the same PA back-off that leaves a single
//!   beam linear drives a two-beam taper's amplitude peaks into
//!   compression — the effect the impairment ablation quantifies.
//! - **Probe observations** (receive chain): LO phase noise (common
//!   rotation + ICI noise floor) → LO leakage at the DC subcarrier → ADC
//!   quantization and clipping.
//!
//! The wrapper obeys the same two invariants as the fault layer:
//!
//! - **All-off transparency** — with [`ImpairmentConfig::none`] the wrapper
//!   is bit-identical to the bare front end: no impairment RNG is ever
//!   consulted and every probe and weight vector passes through untouched.
//! - **Separate randomness** — every stochastic stage draws from its own
//!   salted [`Rng64`] stream derived from [`ImpairmentConfig::seed`], so
//!   toggling one stage neither perturbs the channel realization nor
//!   shifts another stage's draws.
//!
//! Per-slot stages are `#[hot_path]` and allocation-free: the mismatch
//! multipliers and coupling matrix are precomputed at construction, the
//! coupling kernel runs on a fixed stack scratch, probes transform their
//! weights into a buffer sized at construction and corrupt the caller's
//! observation in place, and the data-plane weight transform is memoised
//! on its bitwise input (weights change only at ticks).

use crate::metrics::RunEvent;
use crate::scenario::ScenarioError;
use crate::simulator::{LinkSimulator, SimFrontEnd};
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmwave_array::coupling::{MutualCoupling, MAX_COUPLED_ELEMENTS};
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::adc::{quantize_clip, rail_rms};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::nonlinearity::RappPa;
use mmwave_dsp::phase_noise::{rotate_with_ici, WienerPhase};
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::amp_from_db;
use mmwave_hotpath::hot_path;
use mmwave_phy::chanest::ProbeObservation;

/// Nominal OFDM symbol duration the intra-symbol phase-jitter (ICI)
/// penalty integrates over: 1/Δf at the paper's 120 kHz subcarrier
/// spacing (cyclic prefix ignored).
pub const T_SYM_S: f64 = 1.0 / 120e3;

/// Salt folded into [`ImpairmentConfig::seed`] for the observation-domain
/// RNG stream (phase-noise steps + ICI draws).
const SEED_SALT_OBS: u64 = 0x1AFE_1AFE_1AFE_1AFE;
/// Salt for the static mismatch draws.
const SEED_SALT_MISMATCH: u64 = 0x1AFE_1AFE_4D15_4A7C;
/// Salt for the LO feedthrough phasor.
const SEED_SALT_LO: u64 = 0x1AFE_1AFE_0010_1EAC;

/// Oscillator phase-noise stage: a leaky-Wiener LO phase walk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseNoiseCfg {
    /// Lorentzian linewidth, Hz (e.g. `100e3` for an integrated mmWave PLL).
    pub linewidth_hz: f64,
    /// PLL pull-in time constant, seconds (`f64::INFINITY` = free-running).
    pub pll_tau_s: f64,
}

/// PA compression stage: per-element Rapp AM/AM + AM/PM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaCfg {
    /// Back-off of the saturation point above the uniform per-element
    /// drive (`1/√N`), dB. Smaller = harder compression.
    pub backoff_db: f64,
    /// Rapp knee sharpness `p` (2–3 typical for mmWave SSPAs).
    pub smoothness: f64,
    /// Maximum AM/PM rotation at deep saturation, degrees.
    pub am_pm_deg: f64,
}

/// Static per-element gain/phase mismatch stage (uncalibrated feed
/// network): each element gets a fixed multiplier drawn once at
/// construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MismatchCfg {
    /// Per-element gain error standard deviation, dB.
    pub gain_sigma_db: f64,
    /// Per-element phase error standard deviation, degrees.
    pub phase_sigma_deg: f64,
}

/// Mutual-coupling stage: `w ← C·w` with a distance-decay coupling matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouplingCfg {
    /// Nearest-neighbour coupling magnitude, dB (negative; e.g. `-25`).
    pub coupling_db: f64,
}

/// ADC stage: mid-rise quantization + clipping on probe measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdcCfg {
    /// Converter resolution, bits per I/Q rail.
    pub bits: u32,
    /// AGC headroom of full-scale above the block RMS, dB.
    pub headroom_db: f64,
}

/// LO leakage stage: carrier feedthrough concentrated at the subcarrier
/// nearest DC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoLeakageCfg {
    /// Feedthrough power relative to the carrier, dBc (negative).
    pub dbc: f64,
}

/// What the impairment layer does to the radio. The default configuration
/// impairs nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ImpairmentConfig {
    /// Seed for the dedicated impairment RNG streams (independent of the
    /// channel RNG and the fault RNG).
    pub seed: u64,
    /// Oscillator phase noise. `None` disables.
    pub phase_noise: Option<PhaseNoiseCfg>,
    /// PA compression. `None` disables.
    pub pa: Option<PaCfg>,
    /// Static per-element gain/phase mismatch. `None` disables.
    pub mismatch: Option<MismatchCfg>,
    /// Mutual coupling. `None` disables.
    pub coupling: Option<CouplingCfg>,
    /// ADC quantization + clipping. `None` disables.
    pub adc: Option<AdcCfg>,
    /// LO leakage / carrier feedthrough. `None` disables.
    pub lo_leakage: Option<LoLeakageCfg>,
}

impl ImpairmentConfig {
    /// The inert configuration: impairs nothing, draws no randomness.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the configuration can never alter behaviour.
    pub fn is_inert(&self) -> bool {
        self.phase_noise.is_none()
            && self.pa.is_none()
            && self.mismatch.is_none()
            && self.coupling.is_none()
            && self.adc.is_none()
            && self.lo_leakage.is_none()
    }

    /// A gently impaired front end: a good integrated radio.
    pub fn mild(seed: u64) -> Self {
        Self {
            seed,
            // Effective (PLL-disciplined) linewidth. σ²_sym = 2π·Δν·T_sym,
            // so 100 Hz at 120 kHz SCS gives an ICI SNR ceiling of
            // ~23 dB — a couple of dB shaved off a healthy ~25 dB link.
            phase_noise: Some(PhaseNoiseCfg {
                linewidth_hz: 100.0,
                pll_tau_s: 1e-3,
            }),
            pa: Some(PaCfg {
                backoff_db: 8.0,
                smoothness: 3.0,
                am_pm_deg: 3.0,
            }),
            mismatch: Some(MismatchCfg {
                gain_sigma_db: 0.3,
                phase_sigma_deg: 2.0,
            }),
            coupling: Some(CouplingCfg { coupling_db: -30.0 }),
            adc: Some(AdcCfg {
                bits: 8,
                headroom_db: 12.0,
            }),
            lo_leakage: Some(LoLeakageCfg { dbc: -40.0 }),
        }
    }

    /// A typical low-cost mmWave front end.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            // ICI ceiling ~13 dB: persistently degraded rounds, not outage.
            phase_noise: Some(PhaseNoiseCfg {
                linewidth_hz: 1e3,
                pll_tau_s: 1e-3,
            }),
            pa: Some(PaCfg {
                backoff_db: 4.5,
                smoothness: 3.0,
                am_pm_deg: 5.0,
            }),
            mismatch: Some(MismatchCfg {
                gain_sigma_db: 0.75,
                phase_sigma_deg: 5.0,
            }),
            coupling: Some(CouplingCfg { coupling_db: -25.0 }),
            adc: Some(AdcCfg {
                bits: 6,
                headroom_db: 9.0,
            }),
            lo_leakage: Some(LoLeakageCfg { dbc: -30.0 }),
        }
    }

    /// An aggressively impaired front end: everything near its spec limit.
    pub fn severe(seed: u64) -> Self {
        Self {
            seed,
            // ICI ceiling ~7.7 dB — hovering just above the 6 dB outage
            // threshold, the regime that stresses the lifecycle machine.
            phase_noise: Some(PhaseNoiseCfg {
                linewidth_hz: 3e3,
                pll_tau_s: 1e-3,
            }),
            pa: Some(PaCfg {
                backoff_db: 1.5,
                smoothness: 2.0,
                am_pm_deg: 8.0,
            }),
            mismatch: Some(MismatchCfg {
                gain_sigma_db: 1.5,
                phase_sigma_deg: 10.0,
            }),
            coupling: Some(CouplingCfg { coupling_db: -18.0 }),
            adc: Some(AdcCfg {
                bits: 4,
                headroom_db: 6.0,
            }),
            lo_leakage: Some(LoLeakageCfg { dbc: -22.0 }),
        }
    }

    /// Looks up a severity preset by name (`none`, `mild`, `moderate`,
    /// `severe`) — the vocabulary of the impairment ablation and the CI
    /// smoke sweep.
    pub fn preset(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "mild" => Some(Self::mild(seed)),
            "moderate" => Some(Self::moderate(seed)),
            "severe" => Some(Self::severe(seed)),
            _ => None,
        }
    }

    /// Validates stage parameters.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(pn) = &self.phase_noise {
            if !pn.linewidth_hz.is_finite() || pn.linewidth_hz <= 0.0 {
                return Err(format!("phase-noise linewidth {} not > 0", pn.linewidth_hz));
            }
            if pn.pll_tau_s <= 0.0 || pn.pll_tau_s.is_nan() {
                return Err(format!("PLL tau {} not > 0", pn.pll_tau_s));
            }
        }
        if let Some(pa) = &self.pa {
            if !pa.backoff_db.is_finite() {
                return Err(format!("PA backoff {} not finite", pa.backoff_db));
            }
            if !pa.smoothness.is_finite() || pa.smoothness <= 0.0 {
                return Err(format!("PA smoothness {} not > 0", pa.smoothness));
            }
            if !pa.am_pm_deg.is_finite() || pa.am_pm_deg < 0.0 {
                return Err(format!("PA AM/PM {} negative", pa.am_pm_deg));
            }
        }
        if let Some(mm) = &self.mismatch {
            if !mm.gain_sigma_db.is_finite() || mm.gain_sigma_db < 0.0 {
                return Err(format!("mismatch gain sigma {} negative", mm.gain_sigma_db));
            }
            if !mm.phase_sigma_deg.is_finite() || mm.phase_sigma_deg < 0.0 {
                return Err(format!(
                    "mismatch phase sigma {} negative",
                    mm.phase_sigma_deg
                ));
            }
        }
        if let Some(c) = &self.coupling {
            if !c.coupling_db.is_finite() || c.coupling_db >= 0.0 {
                return Err(format!("coupling {} dB must be negative", c.coupling_db));
            }
        }
        if let Some(adc) = &self.adc {
            if adc.bits == 0 || adc.bits > 16 {
                return Err(format!("ADC bits {} outside 1..=16", adc.bits));
            }
            if !adc.headroom_db.is_finite() || adc.headroom_db < 0.0 {
                return Err(format!("ADC headroom {} negative", adc.headroom_db));
            }
        }
        if let Some(lo) = &self.lo_leakage {
            if !lo.dbc.is_finite() || lo.dbc >= 0.0 {
                return Err(format!("LO leakage {} dBc must be negative", lo.dbc));
            }
        }
        Ok(())
    }

    /// Canonical one-line textual form — the `impairment` column of the
    /// campaign journal, parseable back with
    /// [`ImpairmentConfig::parse_spec`]. Inert configurations (regardless
    /// of seed, which is never consulted) canonicalize to `"none"`.
    ///
    /// Format: `;`-separated `key=value` fields in fixed order, e.g.
    /// `seed=7;pn=200000@0.001;pa=4.5@3@5;mm=0.75@5;cpl=-25;adc=6@9;lo=-30`.
    pub fn spec_string(&self) -> String {
        if self.is_inert() {
            return "none".into();
        }
        let mut parts = vec![format!("seed={}", self.seed)];
        if let Some(pn) = &self.phase_noise {
            parts.push(format!("pn={}@{}", pn.linewidth_hz, pn.pll_tau_s));
        }
        if let Some(pa) = &self.pa {
            parts.push(format!(
                "pa={}@{}@{}",
                pa.backoff_db, pa.smoothness, pa.am_pm_deg
            ));
        }
        if let Some(mm) = &self.mismatch {
            parts.push(format!("mm={}@{}", mm.gain_sigma_db, mm.phase_sigma_deg));
        }
        if let Some(c) = &self.coupling {
            parts.push(format!("cpl={}", c.coupling_db));
        }
        if let Some(adc) = &self.adc {
            parts.push(format!("adc={}@{}", adc.bits, adc.headroom_db));
        }
        if let Some(lo) = &self.lo_leakage {
            parts.push(format!("lo={}", lo.dbc));
        }
        parts.join(";")
    }

    /// Parses an [`ImpairmentConfig::spec_string`] back into a validated
    /// configuration. Accepts `"none"` (or an empty string) for the inert
    /// configuration.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        fn f64_field(s: &str, what: &str) -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|e| format!("bad {what} {s:?}: {e}"))
        }
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(Self::none());
        }
        let mut out = Self::none();
        for part in spec.split(';') {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad impairment field {part:?} (want key=value)"))?;
            match key {
                "seed" => {
                    out.seed = val
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed {val:?}: {e}"))?;
                }
                "pn" => {
                    let (lw, tau) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad pn {val:?} (want linewidth@tau)"))?;
                    out.phase_noise = Some(PhaseNoiseCfg {
                        linewidth_hz: f64_field(lw, "linewidth")?,
                        pll_tau_s: f64_field(tau, "pll tau")?,
                    });
                }
                "pa" => {
                    let mut it = val.split('@');
                    let (b, s, a) = (it.next(), it.next(), it.next());
                    match (b, s, a, it.next()) {
                        (Some(b), Some(s), Some(a), None) => {
                            out.pa = Some(PaCfg {
                                backoff_db: f64_field(b, "pa backoff")?,
                                smoothness: f64_field(s, "pa smoothness")?,
                                am_pm_deg: f64_field(a, "pa am/pm")?,
                            });
                        }
                        _ => return Err(format!("bad pa {val:?} (want backoff@smooth@ampm)")),
                    }
                }
                "mm" => {
                    let (g, p) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad mm {val:?} (want gain@phase)"))?;
                    out.mismatch = Some(MismatchCfg {
                        gain_sigma_db: f64_field(g, "mismatch gain")?,
                        phase_sigma_deg: f64_field(p, "mismatch phase")?,
                    });
                }
                "cpl" => {
                    out.coupling = Some(CouplingCfg {
                        coupling_db: f64_field(val, "coupling")?,
                    });
                }
                "adc" => {
                    let (b, h) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad adc {val:?} (want bits@headroom)"))?;
                    out.adc = Some(AdcCfg {
                        bits: b
                            .parse::<u32>()
                            .map_err(|e| format!("bad adc bits {b:?}: {e}"))?,
                        headroom_db: f64_field(h, "adc headroom")?,
                    });
                }
                "lo" => {
                    out.lo_leakage = Some(LoLeakageCfg {
                        dbc: f64_field(val, "lo leakage")?,
                    });
                }
                _ => return Err(format!("unknown impairment field {key:?}")),
            }
        }
        out.validate()?;
        Ok(out)
    }
}

/// One impairment annotation, typed and timestamped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpairmentEvent {
    /// When it was observed, seconds (front-end clock).
    pub t_s: f64,
    /// What was observed.
    pub kind: ImpairmentKind,
}

/// The impairment stages, for annotation purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImpairmentStage {
    /// Oscillator phase noise.
    PhaseNoise,
    /// PA compression.
    Pa,
    /// Per-element gain/phase mismatch.
    Mismatch,
    /// Mutual coupling.
    Coupling,
    /// ADC quantization.
    Adc,
    /// LO leakage.
    LoLeakage,
}

impl std::fmt::Display for ImpairmentStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ImpairmentStage::PhaseNoise => "phase-noise",
            ImpairmentStage::Pa => "pa",
            ImpairmentStage::Mismatch => "mismatch",
            ImpairmentStage::Coupling => "coupling",
            ImpairmentStage::Adc => "adc",
            ImpairmentStage::LoLeakage => "lo-leakage",
        };
        write!(f, "{s}")
    }
}

/// The kinds of impairment annotation the layer produces. Stage-enabled
/// markers fire once at the first probe; threshold crossings (saturation,
/// clipping) fire once on their rising edge so a saturated run does not
/// flood the event log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ImpairmentKind {
    /// A stage is active for this run (logged once, at the first probe).
    StageEnabled {
        /// Which stage.
        stage: ImpairmentStage,
    },
    /// The PA entered meaningful compression (> 1 dB on some element).
    PaSaturated {
        /// Worst per-element compression observed at the crossing, dB.
        peak_compression_db: f64,
    },
    /// The ADC clipped a meaningful fraction of rails (> 5 %).
    AdcClipped {
        /// Clipped-rail fraction at the crossing, in `[0, 1]`.
        clip_fraction: f64,
    },
}

impl std::fmt::Display for ImpairmentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImpairmentKind::StageEnabled { stage } => write!(f, "impairment-enabled({stage})"),
            ImpairmentKind::PaSaturated {
                peak_compression_db,
            } => write!(f, "pa-saturated({peak_compression_db:.1}dB)"),
            ImpairmentKind::AdcClipped { clip_fraction } => {
                write!(f, "adc-clipped({:.0}%)", clip_fraction * 100.0)
            }
        }
    }
}

/// A [`LinkFrontEnd`] decorator that applies the analog impairments of an
/// [`ImpairmentConfig`] between the beam-management layer and the radio.
/// Stacks under [`crate::faults::FaultInjector`] (impairments sit nearest
/// the hardware; discrete faults corrupt the already-impaired radio).
pub struct ImpairedFrontEnd<F> {
    inner: F,
    config: ImpairmentConfig,
    /// Observation-domain stream: phase-noise steps + ICI draws.
    rng: Rng64,
    phase: Option<WienerPhase>,
    last_probe_t_s: f64,
    chain: TransmitChain,
    /// Last data-plane weight transform, keyed by its bitwise input (see
    /// [`WeightMemo`]); `None` under a gain drift, where it never hits.
    memo: Option<WeightMemo>,
    /// Probe weights through the transmit chain, sized at construction.
    radiated: BeamWeights,
    lo_phasor: Complex64,
    events: Vec<ImpairmentEvent>,
    stages_logged: bool,
    pa_event_logged: bool,
    adc_event_logged: bool,
}

/// The transmit-weight stages, precomputed at construction: PA
/// compression → per-element mismatch → mutual coupling.
struct TransmitChain {
    pa: Option<RappPa>,
    /// Static per-element multipliers (empty when mismatch is disabled).
    mismatch: Vec<Complex64>,
    coupling: Option<MutualCoupling>,
}

impl TransmitChain {
    /// True when any transmit-weight stage is enabled.
    fn is_on(&self) -> bool {
        self.pa.is_some() || !self.mismatch.is_empty() || self.coupling.is_some()
    }

    /// Runs the chain on `v` in place and returns the worst per-element PA
    /// compression observed, dB. Allocation-free: the coupling stage works
    /// in lanes it built at construction.
    #[hot_path]
    fn apply(&mut self, v: &mut [Complex64]) -> f64 {
        let mut worst_db = 0.0;
        if let Some(pa) = &self.pa {
            worst_db = pa.apply(v);
        }
        if !self.mismatch.is_empty() {
            for (x, m) in v.iter_mut().zip(&self.mismatch) {
                *x *= *m;
            }
        }
        if let Some(cpl) = &mut self.coupling {
            cpl.apply_in_place(v);
        }
        worst_db
    }
}

impl<F: LinkFrontEnd> ImpairedFrontEnd<F> {
    /// Wraps `inner` under `config`, failing fast on invalid parameters —
    /// a mis-specified campaign cell surfaces as a `Validation` failure
    /// before any sweep time is spent. The typed [`ScenarioError`] lets
    /// the scenario fuzzer tell this reject apart from a real run failure.
    /// Only the coupling stage caps the array size (its diagonal tables are
    /// bounded by [`MAX_COUPLED_ELEMENTS`]); every other configuration,
    /// the inert one included, accepts any array.
    pub fn new(inner: F, config: ImpairmentConfig) -> Result<Self, ScenarioError> {
        config.validate().map_err(ScenarioError::impairment)?;
        let geom = inner.geometry();
        let n = geom.num_elements();
        if config.coupling.is_some() && n > MAX_COUPLED_ELEMENTS {
            return Err(ScenarioError::impairment(format!(
                "mutual coupling supports at most {MAX_COUPLED_ELEMENTS} elements, got {n}"
            )));
        }
        let phase = config
            .phase_noise
            .map(|pn| WienerPhase::new(pn.linewidth_hz, pn.pll_tau_s));
        let pa = config.pa.map(|pa| {
            RappPa::with_backoff(
                1.0 / (n as f64).sqrt(),
                pa.backoff_db,
                pa.smoothness,
                pa.am_pm_deg,
            )
        });
        // Each static stage draws from its own salted stream so toggling
        // one stage never shifts another stage's realization.
        let mismatch = match &config.mismatch {
            Some(mm) => {
                let mut rng = Rng64::seed(config.seed ^ SEED_SALT_MISMATCH);
                (0..n)
                    .map(|_| {
                        let gain_db = mm.gain_sigma_db * rng.normal();
                        let phase = mm.phase_sigma_deg.to_radians() * rng.normal();
                        Complex64::from_polar(amp_from_db(gain_db), phase)
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let coupling = config
            .coupling
            .map(|c| MutualCoupling::from_geometry(geom, c.coupling_db, 1.0));
        let lo_phasor = if config.lo_leakage.is_some() {
            Rng64::seed(config.seed ^ SEED_SALT_LO).random_phasor()
        } else {
            Complex64::ONE
        };
        Ok(Self {
            inner,
            rng: Rng64::seed(config.seed ^ SEED_SALT_OBS),
            config,
            phase,
            last_probe_t_s: 0.0,
            chain: TransmitChain {
                pa,
                mismatch,
                coupling,
            },
            memo: Some(WeightMemo::with_capacity(n)),
            radiated: BeamWeights::muted(n),
            lo_phasor,
            events: Vec::new(),
            stages_logged: false,
            pa_event_logged: false,
            adc_event_logged: false,
        })
    }

    /// The wrapped front end.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The wrapped front end, mutably.
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> &ImpairmentConfig {
        &self.config
    }

    /// Annotations recorded since the last drain (the run loop drains
    /// them; unit tests inspect them directly).
    pub fn events(&self) -> &[ImpairmentEvent] {
        &self.events
    }

    /// Drops the data-plane weight memo. The stack calls this when a gain
    /// drift sits above this layer: the drift changes the weights every
    /// slot, so the memo would compare and copy them on every slot without
    /// ever hitting.
    pub(crate) fn drop_weight_memo(&mut self) {
        self.memo = None;
    }

    /// The impaired weights actually radiated for `w` — clone-and-transform
    /// convenience for tests; the per-slot path uses
    /// [`SimFrontEnd::radiated_weights_into`] instead.
    pub fn impaired_weights(&mut self, w: &BeamWeights) -> BeamWeights {
        let mut out = w.clone();
        self.chain.apply(out.as_mut_slice());
        out
    }

    fn log_enabled_stages(&mut self, t_s: f64) {
        if self.stages_logged {
            return;
        }
        self.stages_logged = true;
        let c = &self.config;
        let stages = [
            (c.phase_noise.is_some(), ImpairmentStage::PhaseNoise),
            (c.pa.is_some(), ImpairmentStage::Pa),
            (c.mismatch.is_some(), ImpairmentStage::Mismatch),
            (c.coupling.is_some(), ImpairmentStage::Coupling),
            (c.adc.is_some(), ImpairmentStage::Adc),
            (c.lo_leakage.is_some(), ImpairmentStage::LoLeakage),
        ];
        for (enabled, stage) in stages {
            if enabled {
                self.events.push(ImpairmentEvent {
                    t_s,
                    kind: ImpairmentKind::StageEnabled { stage },
                });
            }
        }
    }

    fn note_pa_compression(&mut self, t_s: f64, worst_db: f64) {
        if worst_db > 1.0 && !self.pa_event_logged {
            self.pa_event_logged = true;
            self.events.push(ImpairmentEvent {
                t_s,
                kind: ImpairmentKind::PaSaturated {
                    peak_compression_db: worst_db,
                },
            });
        }
    }

    /// The receive-chain pipeline on one probe observation: phase noise
    /// (common rotation + ICI) → LO leakage at the DC subcarrier → ADC
    /// quantization and clipping.
    fn corrupt_observation(&mut self, obs: &mut ProbeObservation, t_s: f64) {
        if let Some(pn) = self.phase.as_mut() {
            let dt = (t_s - self.last_probe_t_s).max(0.0);
            let phi = pn.advance(dt, &mut self.rng);
            let sigma2 = pn.symbol_jitter_var(T_SYM_S);
            if !obs.csi.is_empty() {
                // The ICI term is interference, not signal: it corrupts
                // the CSI samples *and* raises the observation's effective
                // noise floor, which is what gives phase noise its SNR
                // ceiling `1/(e^{σ²} − 1)`.
                let mean_pow =
                    obs.csi.iter().map(|h| h.norm_sqr()).sum::<f64>() / obs.csi.len() as f64;
                obs.noise_power_mw += mean_pow * (1.0 - (-sigma2).exp());
            }
            rotate_with_ici(&mut obs.csi, phi, sigma2, &mut self.rng);
        }
        self.last_probe_t_s = t_s;
        if let Some(lo) = &self.config.lo_leakage {
            if !obs.csi.is_empty() {
                let n = obs.csi.len();
                let rms = (obs.csi.iter().map(|h| h.norm_sqr()).sum::<f64>() / n as f64).sqrt();
                // All the feedthrough energy lands on the subcarrier
                // nearest DC (the carrier tone), so its amplitude relative
                // to the per-subcarrier RMS gains a √N concentration.
                let mut k = 0;
                let mut best = f64::INFINITY;
                for (i, f) in obs.freqs_hz.iter().enumerate() {
                    if f.abs() < best {
                        best = f.abs();
                        k = i;
                    }
                }
                let amp = amp_from_db(lo.dbc) * rms * (n as f64).sqrt();
                obs.csi[k] += self.lo_phasor.scale(amp);
            }
        }
        if let Some(adc) = &self.config.adc {
            if !obs.csi.is_empty() {
                let full_scale = rail_rms(&obs.csi) * amp_from_db(adc.headroom_db);
                let clips = quantize_clip(&mut obs.csi, full_scale, adc.bits);
                let frac = clips as f64 / (2 * obs.csi.len()) as f64;
                if frac > 0.05 && !self.adc_event_logged {
                    self.adc_event_logged = true;
                    self.events.push(ImpairmentEvent {
                        t_s,
                        kind: ImpairmentKind::AdcClipped {
                            clip_fraction: frac,
                        },
                    });
                }
            }
        }
    }
}

/// Memo of the data-plane transmit-chain transform: PA → mismatch →
/// coupling is a static, memoryless function of the weights, and the
/// weights a link radiates change only at maintenance ticks, so between
/// ticks every slot repeats the last input. A hit copies the cached
/// output (bit-identical to recomputing it); a miss recomputes and
/// replaces the entry. Under a drifting [`crate::faults::FaultInjector`]
/// above this layer the input changes every slot, so the stack builds
/// that layer without a memo.
#[derive(Debug)]
struct WeightMemo {
    input: Vec<Complex64>,
    output: Vec<Complex64>,
}

impl WeightMemo {
    fn with_capacity(n: usize) -> Self {
        Self {
            input: Vec::with_capacity(n),
            output: Vec::with_capacity(n),
        }
    }

    /// Replaces `v` with `transform(v)`, served from the memo when `v`
    /// is bitwise equal to the last input.
    #[hot_path]
    fn apply(&mut self, v: &mut [Complex64], transform: impl FnOnce(&mut [Complex64])) {
        // `input` starts empty and an array has at least one element, so
        // the length test also rules out a hit before the first fill.
        let hit =
            self.input.len() == v.len()
                && self.input.iter().zip(v.iter()).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
        if hit {
            v.copy_from_slice(&self.output);
            return;
        }
        self.input.clear();
        self.input.extend_from_slice(v);
        transform(v);
        self.output.clear();
        self.output.extend_from_slice(v);
    }
}

impl<F: LinkFrontEnd> LinkFrontEnd for ImpairedFrontEnd<F> {
    fn geometry(&self) -> &ArrayGeometry {
        self.inner.geometry()
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        // All-off transparency: forward untouched, consult no RNG.
        if self.config.is_inert() {
            return self.inner.probe_kind_into(weights, kind, out);
        }
        let t_s = self.inner.now_s();
        self.log_enabled_stages(t_s);
        if self.chain.is_on() {
            self.radiated.copy_from(weights);
            let worst_db = self.chain.apply(self.radiated.as_mut_slice());
            self.note_pa_compression(t_s, worst_db);
            self.inner.probe_kind_into(&self.radiated, kind, out);
        } else {
            self.inner.probe_kind_into(weights, kind, out);
        }
        self.corrupt_observation(out, t_s);
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

impl<F: SimFrontEnd> SimFrontEnd for ImpairedFrontEnd<F> {
    fn sim(&self) -> &LinkSimulator {
        self.inner.sim()
    }

    fn sim_mut(&mut self) -> &mut LinkSimulator {
        self.inner.sim_mut()
    }

    #[hot_path]
    fn apply_radiated_faults(&mut self, w: &mut BeamWeights) {
        // The data plane radiates through the same compressed, mismatched,
        // coupled hardware the probes see; compose with the inner stack.
        if self.chain.is_on() {
            // The data plane has no use for the worst-compression figure
            // (only probes report it), so the memo keeps just the weights.
            match &mut self.memo {
                Some(memo) => memo.apply(w.as_mut_slice(), |v| {
                    self.chain.apply(v);
                }),
                None => {
                    self.chain.apply(w.as_mut_slice());
                }
            }
        }
        self.inner.apply_radiated_faults(w);
    }

    fn drain_events_into(&mut self, out: &mut Vec<RunEvent>) {
        out.extend(self.events.drain(..).map(RunEvent::Impairment));
        self.inner.drain_events_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmreliable::frontend::SnapshotFrontEnd;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    fn frozen_fe(seed: u64) -> SnapshotFrontEnd {
        let scene = Scene::conference_room(FC_28GHZ);
        let paths = scene.paths_to(v2(0.9, 7.0), 180.0);
        SnapshotFrontEnd::new(
            GeometricChannel::new(paths, FC_28GHZ),
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(seed),
        )
    }

    fn boresight(fe: &impl LinkFrontEnd) -> BeamWeights {
        mmwave_array::steering::single_beam(fe.geometry(), 0.0)
    }

    #[test]
    fn inert_config_is_bit_identical() {
        let mut plain = frozen_fe(7);
        let w = boresight(&plain);
        let direct: Vec<ProbeObservation> = (0..16).map(|_| plain.probe(&w)).collect();
        let mut wrapped = ImpairedFrontEnd::new(frozen_fe(7), ImpairmentConfig::none()).unwrap();
        for d in &direct {
            let o = wrapped.probe(&w);
            assert_eq!(o.csi, d.csi, "all-off wrapper must be transparent");
        }
        assert!(wrapped.events().is_empty());
        assert!(ImpairmentConfig::none().is_inert());
    }

    #[test]
    fn pa_compresses_probes_and_logs_saturation() {
        let mut cfg = ImpairmentConfig::none();
        cfg.pa = Some(PaCfg {
            backoff_db: -6.0, // saturation well below the uniform drive
            smoothness: 3.0,
            am_pm_deg: 5.0,
        });
        let mut fe = ImpairedFrontEnd::new(frozen_fe(1), cfg).unwrap();
        let mut clean = frozen_fe(1);
        let w = boresight(&fe);
        let hot = fe.probe(&w);
        let cold = clean.probe(&w);
        assert!(
            hot.snr_db() < cold.snr_db() - 2.0,
            "deep compression must cost SNR: {} vs {}",
            hot.snr_db(),
            cold.snr_db()
        );
        assert!(fe
            .events()
            .iter()
            .any(|e| matches!(e.kind, ImpairmentKind::PaSaturated { .. })));
        // Rising-edge only: a second saturated probe logs nothing new.
        let n = fe.events().len();
        fe.probe(&w);
        assert_eq!(fe.events().len(), n);
    }

    #[test]
    fn mismatch_is_static_and_seeded() {
        let mut cfg = ImpairmentConfig::none();
        cfg.seed = 4;
        cfg.mismatch = Some(MismatchCfg {
            gain_sigma_db: 1.0,
            phase_sigma_deg: 5.0,
        });
        let mut fe = ImpairedFrontEnd::new(frozen_fe(2), cfg.clone()).unwrap();
        let w = boresight(&fe);
        let a = fe.impaired_weights(&w);
        let b = fe.impaired_weights(&w);
        assert_eq!(a.as_slice(), b.as_slice(), "mismatch is static");
        assert_ne!(a.as_slice(), w.as_slice(), "mismatch perturbs weights");
        // Same seed reproduces the same draw; another seed differs.
        let mut fe2 = ImpairedFrontEnd::new(frozen_fe(2), cfg.clone()).unwrap();
        assert_eq!(fe2.impaired_weights(&w).as_slice(), a.as_slice());
        let mut other = cfg;
        other.seed = 5;
        let mut fe3 = ImpairedFrontEnd::new(frozen_fe(2), other).unwrap();
        assert_ne!(fe3.impaired_weights(&w).as_slice(), a.as_slice());
    }

    #[test]
    fn coupling_perturbs_weights_gently() {
        let mut cfg = ImpairmentConfig::none();
        cfg.coupling = Some(CouplingCfg { coupling_db: -20.0 });
        let mut fe = ImpairedFrontEnd::new(frozen_fe(3), cfg).unwrap();
        let w = boresight(&fe);
        let cw = fe.impaired_weights(&w);
        let delta: f64 = w
            .as_slice()
            .iter()
            .zip(cw.as_slice())
            .map(|(a, b)| (*a - *b).abs())
            .sum();
        assert!(delta > 1e-6, "coupling must do something");
        let norm: f64 = w.as_slice().iter().map(|x| x.abs()).sum();
        assert!(delta < 0.5 * norm, "but stay a perturbation");
    }

    #[test]
    fn adc_clipping_logs_once_and_costs_fidelity() {
        let mut cfg = ImpairmentConfig::none();
        cfg.adc = Some(AdcCfg {
            bits: 3,
            headroom_db: 0.0, // full scale at RMS: guaranteed clipping
        });
        let mut fe = ImpairedFrontEnd::new(frozen_fe(6), cfg).unwrap();
        let w = boresight(&fe);
        fe.probe(&w);
        let clip_events = fe
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ImpairmentKind::AdcClipped { .. }))
            .count();
        assert_eq!(clip_events, 1);
        fe.probe(&w);
        let clip_events_after = fe
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ImpairmentKind::AdcClipped { .. }))
            .count();
        assert_eq!(clip_events_after, 1, "rising-edge only");
    }

    #[test]
    fn phase_noise_caps_probe_snr() {
        let mut cfg = ImpairmentConfig::none();
        cfg.phase_noise = Some(PhaseNoiseCfg {
            linewidth_hz: 5e6, // savage linewidth → low ICI ceiling
            pll_tau_s: 1e-3,
        });
        let mut fe = ImpairedFrontEnd::new(frozen_fe(8), cfg).unwrap();
        let mut clean = frozen_fe(8);
        let w = boresight(&fe);
        let noisy = fe.probe(&w);
        let ideal = clean.probe(&w);
        // σ²_sym = 2π·5e6/120e3 ≈ 262 rad² → ICI fully dominates: the
        // ceiling is ~0 dB signal-to-ICI regardless of link budget.
        assert!(
            noisy.snr_db() < ideal.snr_db() - 10.0,
            "ICI ceiling must bite: {} vs {}",
            noisy.snr_db(),
            ideal.snr_db()
        );
    }

    #[test]
    fn lo_leakage_spikes_the_dc_subcarrier() {
        let mut cfg = ImpairmentConfig::none();
        cfg.lo_leakage = Some(LoLeakageCfg { dbc: -10.0 });
        let mut fe = ImpairedFrontEnd::new(frozen_fe(9), cfg).unwrap();
        let mut clean = frozen_fe(9);
        let w = boresight(&fe);
        let leaky = fe.probe(&w);
        let ideal = clean.probe(&w);
        // Find the DC subcarrier: only it moved.
        let mut k_dc = 0;
        let mut best = f64::INFINITY;
        for (i, f) in ideal.freqs_hz.iter().enumerate() {
            if f.abs() < best {
                best = f.abs();
                k_dc = i;
            }
        }
        for (i, (a, b)) in leaky.csi.iter().zip(&ideal.csi).enumerate() {
            if i == k_dc {
                assert!(
                    (*a - *b).abs() > 1e-9,
                    "DC subcarrier must carry feedthrough"
                );
            } else {
                assert_eq!(a, b, "off-DC subcarriers untouched");
            }
        }
    }

    #[test]
    fn spec_string_round_trips() {
        for cfg in [
            ImpairmentConfig::mild(3),
            ImpairmentConfig::moderate(7),
            ImpairmentConfig::severe(11),
        ] {
            let spec = cfg.spec_string();
            let back = ImpairmentConfig::parse_spec(&spec).unwrap();
            assert_eq!(back, cfg, "parse(spec) must reproduce the config");
            assert_eq!(back.spec_string(), spec, "spec form is canonical");
        }
        assert_eq!(ImpairmentConfig::none().spec_string(), "none");
        assert!(ImpairmentConfig::parse_spec("none").unwrap().is_inert());
        assert!(ImpairmentConfig::parse_spec("").unwrap().is_inert());
        assert!(ImpairmentConfig::parse_spec("pa=1@2").is_err());
        assert!(ImpairmentConfig::parse_spec("cpl=3").is_err());
        assert!(ImpairmentConfig::parse_spec("adc=0@6").is_err());
        assert!(ImpairmentConfig::parse_spec("what=1").is_err());
        assert!(ImpairmentConfig::parse_spec("bogus").is_err());
    }

    #[test]
    fn presets_are_valid_and_ordered() {
        for name in ["none", "mild", "moderate", "severe"] {
            let cfg = ImpairmentConfig::preset(name, 1).unwrap();
            cfg.validate().unwrap();
        }
        assert!(ImpairmentConfig::preset("brutal", 1).is_none());
        // Severity ordering on the axes that matter.
        let (m, s) = (ImpairmentConfig::mild(1), ImpairmentConfig::severe(1));
        assert!(m.pa.unwrap().backoff_db > s.pa.unwrap().backoff_db);
        assert!(m.adc.unwrap().bits > s.adc.unwrap().bits);
        assert!(m.phase_noise.unwrap().linewidth_hz < s.phase_noise.unwrap().linewidth_hz);
    }

    #[test]
    fn invalid_config_fails_construction() {
        let mut cfg = ImpairmentConfig::none();
        cfg.adc = Some(AdcCfg {
            bits: 0,
            headroom_db: 6.0,
        });
        assert!(ImpairedFrontEnd::new(frozen_fe(10), cfg).is_err());
        let mut cfg = ImpairmentConfig::none();
        cfg.coupling = Some(CouplingCfg { coupling_db: 3.0 });
        assert!(cfg.validate().is_err());
        let mut cfg = ImpairmentConfig::none();
        cfg.phase_noise = Some(PhaseNoiseCfg {
            linewidth_hz: -1.0,
            pll_tau_s: 1e-3,
        });
        assert!(cfg.validate().is_err());
        assert!(ImpairmentConfig::none().validate().is_ok());
    }

    #[test]
    fn only_coupling_caps_the_array_size() {
        // 272 elements: past the coupling kernel's stack scratch.
        let big = || {
            let mut fe = frozen_fe(1);
            fe.geom = ArrayGeometry::upa(16, 17);
            fe
        };
        assert!(big().geometry().num_elements() > MAX_COUPLED_ELEMENTS);
        assert!(ImpairedFrontEnd::new(big(), ImpairmentConfig::none()).is_ok());
        let uncoupled = ImpairmentConfig {
            coupling: None,
            ..ImpairmentConfig::mild(1)
        };
        assert!(ImpairedFrontEnd::new(big(), uncoupled).is_ok());
        let mut coupled = ImpairmentConfig::none();
        coupled.coupling = Some(CouplingCfg { coupling_db: -25.0 });
        assert!(ImpairedFrontEnd::new(big(), coupled).is_err());
    }

    #[test]
    fn toggling_one_stage_keeps_another_stage_realization() {
        // The mismatch realization must not depend on whether phase noise
        // is enabled (per-stage salted RNG streams).
        let mut only_mm = ImpairmentConfig::none();
        only_mm.seed = 21;
        only_mm.mismatch = Some(MismatchCfg {
            gain_sigma_db: 1.0,
            phase_sigma_deg: 5.0,
        });
        let mut mm_and_pn = only_mm.clone();
        mm_and_pn.phase_noise = Some(PhaseNoiseCfg {
            linewidth_hz: 100e3,
            pll_tau_s: 1e-3,
        });
        let mut fe_a = ImpairedFrontEnd::new(frozen_fe(1), only_mm).unwrap();
        let mut fe_b = ImpairedFrontEnd::new(frozen_fe(1), mm_and_pn).unwrap();
        let w = boresight(&fe_a);
        assert_eq!(
            fe_a.impaired_weights(&w).as_slice(),
            fe_b.impaired_weights(&w).as_slice()
        );
    }

    #[test]
    fn only_a_drifting_stack_drops_the_weight_memo() {
        use crate::faults::FaultSchedule;
        use crate::simulator::front_end_stack;
        let sim = || crate::scenario::static_walker().simulator(5);
        let drifting = FaultSchedule {
            gain_drift_db: 1.0,
            gain_drift_period_s: 2.0,
            ..FaultSchedule::none()
        };
        let stack = front_end_stack(sim(), drifting, ImpairmentConfig::mild(4)).unwrap();
        assert!(stack.inner().memo.is_none());
        let failing = FaultSchedule {
            failed_elements: vec![3],
            ..FaultSchedule::none()
        };
        let stack = front_end_stack(sim(), failing, ImpairmentConfig::mild(4)).unwrap();
        assert!(stack.inner().memo.is_some());
    }
}
