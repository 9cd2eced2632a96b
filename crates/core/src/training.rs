//! Beam training: exhaustive SSB scan → viable path directions.
//!
//! mmReliable is agnostic to the training algorithm (§3, "this could be
//! done using exhaustive beam-scanning or any other improved algorithm");
//! we implement the exhaustive scan the paper's testbed uses, plus the
//! peak-finding that turns the angular power profile into the 2–3 viable
//! paths typical mmWave environments offer (§3.3).

use crate::frontend::LinkFrontEnd;
use mmwave_array::codebook::Codebook;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::{ifft_into, FftScratch};
use mmwave_dsp::units::db_from_pow;

/// One viable path found by training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViablePath {
    /// Steering angle of the codebook beam that peaked, degrees.
    pub angle_deg: f64,
    /// Received power through that beam, mW (noise-debiased).
    pub power_mw: f64,
    /// Estimated path delay from the probe's CIR, nanoseconds (band-limited
    /// resolution; relative values are what the super-resolver consumes).
    pub delay_ns: f64,
}

/// The outcome of a beam-training scan.
#[derive(Clone, Debug)]
pub struct TrainingResult {
    /// (angle, power mW) per scanned codebook beam.
    pub profile: Vec<(f64, f64)>,
    /// Viable paths (local maxima), strongest first, at most `max_paths`.
    pub viable: Vec<ViablePath>,
    /// Probes consumed by the scan.
    pub probes_used: usize,
}

impl TrainingResult {
    /// Power profile in dBm-like dB units (relative to 1 mW).
    pub fn profile_db(&self) -> Vec<(f64, f64)> {
        self.profile
            .iter()
            .map(|&(a, p)| (a, db_from_pow(p.max(1e-18))))
            .collect()
    }

    /// The strongest viable path, if any.
    pub fn strongest(&self) -> Option<&ViablePath> {
        self.viable.first()
    }
}

/// Runs an exhaustive scan over `codebook`, then extracts up to `max_paths`
/// local maxima within `viable_window_db` of the strongest.
///
/// `min_separation_deg` suppresses duplicate detections of one physical
/// path across adjacent codebook beams (set it near the array's beamwidth).
// xtask-allow(hot-path-closure): the exhaustive scan runs once per (re)acquisition event; its profile buffers are sized by the codebook, not reused per slot (ROADMAP item 1)
pub fn beam_training(
    fe: &mut dyn LinkFrontEnd,
    codebook: &Codebook,
    max_paths: usize,
    viable_window_db: f64,
    min_separation_deg: f64,
) -> TrainingResult {
    let before = fe.probes_used();
    let mut profile = Vec::with_capacity(codebook.len());
    let mut delays = Vec::with_capacity(codebook.len());
    let mut noise_floor_mw = 0.0f64;
    for (angle, weights) in codebook.iter() {
        // A full scan is the longest uninterruptible stretch of controller
        // work (64 SSB probes); honor cooperative cancellation per probe so
        // a supervised run never overstays its deadline by a whole scan.
        if fe.cancel_requested() {
            crate::cancel::bail();
        }
        let obs = fe.probe_kind(weights, crate::frontend::ProbeKind::Ssb);
        noise_floor_mw = obs.noise_power_mw;
        profile.push((angle, obs.mean_power_mw()));
        delays.push(estimate_delay_ns(&obs));
    }
    // Absolute viability floor: a real path must clear the per-subcarrier
    // noise level; residual debiasing jitter on pure noise sits far below it.
    let viable = find_viable(
        &profile,
        &delays,
        max_paths,
        viable_window_db,
        min_separation_deg,
        noise_floor_mw,
    );
    TrainingResult {
        profile,
        viable,
        probes_used: fe.probes_used() - before,
    }
}

/// Coarse path-delay estimate from one probe: magnitude peak of the
/// band-limited CIR with parabolic sub-tap interpolation. Magnitude-based,
/// hence immune to the CFO common phase.
// xtask-allow(hot-path-closure): one-shot convenience that builds its own transform buffers; maintenance fits call estimate_delay_ns_with through SuperResScratch
pub fn estimate_delay_ns(obs: &mmwave_phy::chanest::ProbeObservation) -> f64 {
    estimate_delay_ns_with(obs, &mut Vec::new(), &mut FftScratch::default())
}

/// [`estimate_delay_ns`] through caller-owned CIR and transform buffers:
/// bit-identical, and allocation-free once the buffers are warm.
// xtask-allow(hot-path-panic): the parabolic neighbors are taken only when 0 < peak < len − 1, and peak is an index of the CIR
pub fn estimate_delay_ns_with(
    obs: &mmwave_phy::chanest::ProbeObservation,
    cir: &mut Vec<Complex64>,
    fft: &mut FftScratch,
) -> f64 {
    ifft_into(&obs.csi, cir, fft);
    if cir.is_empty() || obs.comb_spacing_hz() <= 0.0 {
        return 0.0;
    }
    let peak = cir
        .iter()
        .map(|v| v.abs())
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    // Parabolic interpolation around the peak (guarding the edges).
    let n = cir.len();
    let frac = if peak > 0 && peak + 1 < n {
        let (a, b, c) = (cir[peak - 1].abs(), cir[peak].abs(), cir[peak + 1].abs());
        let denom = a - 2.0 * b + c;
        if denom.abs() > 1e-18 {
            (0.5 * (a - c) / denom).clamp(-0.5, 0.5)
        } else {
            0.0
        }
    } else {
        0.0
    };
    let tap_s = 1.0 / (obs.comb_spacing_hz() * cir.len() as f64);
    (peak as f64 + frac) * tap_s * 1e9
}

/// Local-maxima extraction with a minimum angular separation.
// xtask-allow(hot-path-closure): candidate/selected lists are per-scan outputs of acquisition, not per-slot state
// xtask-allow(hot-path-panic): all indices are bounded by profile.len() (delays has the same length by construction in beam_training)
fn find_viable(
    profile: &[(f64, f64)],
    delays: &[f64],
    max_paths: usize,
    viable_window_db: f64,
    min_separation_deg: f64,
    noise_floor_mw: f64,
) -> Vec<ViablePath> {
    if profile.is_empty() || max_paths == 0 {
        return Vec::new();
    }
    let peak_power = profile.iter().map(|&(_, p)| p).fold(0.0f64, f64::max);
    if peak_power <= noise_floor_mw {
        return Vec::new();
    }
    let floor =
        (peak_power * mmwave_dsp::units::pow_from_db(-viable_window_db)).max(noise_floor_mw);
    // Candidate local maxima (strictly above both neighbors, or edge max).
    let mut candidates: Vec<usize> = (0..profile.len())
        .filter(|&i| {
            let p = profile[i].1;
            if p < floor {
                return false;
            }
            let left_ok = i == 0 || profile[i - 1].1 <= p;
            let right_ok = i + 1 == profile.len() || profile[i + 1].1 <= p;
            left_ok && right_ok
        })
        .collect();
    candidates.sort_by(|&a, &b| profile[b].1.total_cmp(&profile[a].1));
    // Greedy selection with angular separation.
    let mut picked: Vec<usize> = Vec::new();
    for c in candidates {
        if picked.len() >= max_paths {
            break;
        }
        if picked
            .iter()
            .all(|&p| (profile[p].0 - profile[c].0).abs() >= min_separation_deg)
        {
            picked.push(c);
        }
    }
    picked
        .into_iter()
        .map(|i| ViablePath {
            angle_deg: profile[i].0,
            power_mw: profile[i].1,
            delay_ns: delays[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::SnapshotFrontEnd;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    fn room_frontend(seed: u64) -> SnapshotFrontEnd {
        let scene = Scene::conference_room(FC_28GHZ);
        let paths = scene.paths_to(v2(0.0, 7.0), 180.0);
        SnapshotFrontEnd::new(
            GeometricChannel::new(paths, FC_28GHZ),
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(seed),
        )
    }

    #[test]
    fn training_finds_los_as_strongest() {
        let mut fe = room_frontend(1);
        let cb = Codebook::paper_scan(fe.geometry());
        let r = beam_training(&mut fe, &cb, 3, 15.0, 8.0);
        assert_eq!(r.probes_used, 64);
        let best = r.strongest().expect("a path");
        // LOS is at 0° (UE straight ahead); codebook granularity ≈ 1.9°.
        assert!(
            best.angle_deg.abs() < 3.0,
            "strongest at {}",
            best.angle_deg
        );
    }

    #[test]
    fn training_finds_reflections_too() {
        let mut fe = room_frontend(2);
        let cb = Codebook::paper_scan(fe.geometry());
        let r = beam_training(&mut fe, &cb, 3, 15.0, 8.0);
        assert!(
            r.viable.len() >= 2,
            "expected LOS + at least one reflector, got {:?}",
            r.viable
        );
        // The glass-wall bounces for a UE at (0,7) with gNB at (0,0.2)
        // depart near ±46°.
        let has_side = r
            .viable
            .iter()
            .any(|v| (v.angle_deg.abs() - 46.0).abs() < 6.0);
        assert!(has_side, "viable: {:?}", r.viable);
    }

    #[test]
    fn viable_paths_sorted_and_separated() {
        let mut fe = room_frontend(3);
        let cb = Codebook::paper_scan(fe.geometry());
        let r = beam_training(&mut fe, &cb, 3, 18.0, 8.0);
        for w in r.viable.windows(2) {
            assert!(w[0].power_mw >= w[1].power_mw, "sorted by power");
            assert!((w[0].angle_deg - w[1].angle_deg).abs() >= 8.0, "separated");
        }
    }

    #[test]
    fn delays_increase_for_reflections() {
        let mut fe = room_frontend(4);
        let cb = Codebook::paper_scan(fe.geometry());
        let r = beam_training(&mut fe, &cb, 3, 15.0, 8.0);
        let los = r.strongest().unwrap();
        for v in r.viable.iter().skip(1) {
            assert!(
                v.delay_ns > los.delay_ns - 0.5,
                "reflection delay {} vs LOS {}",
                v.delay_ns,
                los.delay_ns
            );
        }
    }

    #[test]
    fn window_filters_weak_paths() {
        let mut fe = room_frontend(5);
        let cb = Codebook::paper_scan(fe.geometry());
        // 1 dB window: only the LOS survives.
        let r = beam_training(&mut fe, &cb, 3, 1.0, 8.0);
        assert_eq!(r.viable.len(), 1);
    }

    #[test]
    fn empty_profile_is_handled() {
        let v = find_viable(&[], &[], 3, 15.0, 8.0, 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn noise_only_scan_yields_no_paths() {
        let fe_ch = GeometricChannel::new(Vec::new(), FC_28GHZ);
        let mut fe = SnapshotFrontEnd::new(
            fe_ch,
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(99),
        );
        let cb = Codebook::paper_scan(fe.geometry());
        let r = beam_training(&mut fe, &cb, 3, 15.0, 8.0);
        assert!(r.viable.is_empty(), "noise produced {:?}", r.viable);
    }

    #[test]
    fn profile_db_conversion() {
        let r = TrainingResult {
            profile: vec![(0.0, 1.0), (1.0, 0.1)],
            viable: Vec::new(),
            probes_used: 2,
        };
        let db = r.profile_db();
        assert!((db[0].1 - 0.0).abs() < 1e-9);
        assert!((db[1].1 + 10.0).abs() < 1e-9);
    }
}
