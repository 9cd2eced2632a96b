//! Beam training: exhaustive SSB scan → viable path directions.
//!
//! mmReliable is agnostic to the training algorithm (§3, "this could be
//! done using exhaustive beam-scanning or any other improved algorithm");
//! we implement the exhaustive scan the paper's testbed uses, plus the
//! peak-finding that turns the angular power profile into the 2–3 viable
//! paths typical mmWave environments offer (§3.3).
//!
//! **Which delays are computed.** Every beam of the uniform codebook
//! ([`mmwave_array::codebook`]) is steered in place and probed, in order,
//! but the peak-finding reads a beam's coarse CIR delay only when it picks
//! that beam, so the scan transforms only the probes it could still pick.
//! It holds one observation back: once probe `i+1` is in, beam `i` is
//! transformed only if it passes the peak-finding's own candidate test
//! (`profile[i−1] <= pᵢ` and `profile[i+1] <= pᵢ`, each true at an edge,
//! and `!(pᵢ < floor)`) against the bound `running_peak · pow_from_db(−w)`
//! in place of the final `floor = max(peak · pow_from_db(−w), noise)`. The
//! last beam is decided after the loop, with no right neighbour.
//!
//! The set is exact. The running peak never exceeds the final peak, and
//! scaling both by the same positive factor keeps that order in floating
//! point, so the bound never exceeds the floor and every picked beam has
//! been transformed. Both tests are one predicate, so ties and odd powers
//! fall the same way. Skipped beams carry a NaN delay that nothing reads.
//! The transforms run on the caller's [`SuperResScratch`], whose warm
//! buffers give the same bits as fresh ones, so the result is the eager
//! scan's bit for bit; a room scan transforms a handful of its 64 probes.

use crate::frontend::{LinkFrontEnd, ProbeKind};
use crate::superres::SuperResScratch;
use mmwave_array::codebook::uniform_angle_deg;
use mmwave_array::steering::single_beam_into;
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::{ifft_into, FftScratch};
use mmwave_dsp::units::pow_from_db;
use mmwave_phy::chanest::ProbeObservation;

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
    /// The strongest viable path, if any.
    pub fn strongest(&self) -> Option<&ViablePath> {
        self.viable.first()
    }
}

/// Runs an exhaustive scan over the `n_beams`-beam uniform codebook, then
/// extracts up to `max_paths` local maxima within `viable_window_db` of the
/// strongest.
///
/// `min_separation_deg` suppresses duplicate detections of one physical
/// path across adjacent codebook beams (set it near the array's beamwidth).
/// Probe weights, probes and coarse delays run out of `scratch`; once it is
/// warm, the scan allocates only its profile, its delays and the
/// peak-finding's lists.
// xtask-allow(hot-path-closure): the exhaustive scan runs once per (re)acquisition event and owns its profile, delays and viable paths by contract; its probes and transforms run out of the caller's scratch
pub fn beam_training(
    fe: &mut dyn LinkFrontEnd,
    n_beams: usize,
    max_paths: usize,
    viable_window_db: f64,
    min_separation_deg: f64,
    scratch: &mut SuperResScratch,
) -> TrainingResult {
    let before = fe.probes_used();
    let mut profile = Vec::with_capacity(n_beams);
    let mut delays = Vec::with_capacity(n_beams);
    let noise_floor_mw = scan(
        fe,
        n_beams,
        viable_window_db,
        scratch,
        &mut profile,
        &mut delays,
    );
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

/// Steers every beam of the `n_beams`-beam uniform codebook into the
/// scratch's probe weights and probes it, in order, pushing its
/// `(angle, power)` onto `profile` and its coarse delay onto `delays` (NaN
/// for a beam [`find_viable`] cannot pick, see the module docs). Returns
/// the last probe's noise power.
fn scan(
    fe: &mut dyn LinkFrontEnd,
    n_beams: usize,
    viable_window_db: f64,
    scratch: &mut SuperResScratch,
    profile: &mut Vec<(f64, f64)>,
    delays: &mut Vec<f64>,
) -> f64 {
    let window = pow_from_db(-viable_window_db);
    let geom = *fe.geometry();
    let (cir, fft) = (&mut scratch.cir, &mut scratch.fft);
    let weights = scratch
        .scan_beam
        .get_or_insert_with(|| BeamWeights::muted(1));
    let [held, next] = &mut scratch.scan;
    let mut delay_if_candidate = |profile: &[(f64, f64)], peak: f64, obs: &ProbeObservation| {
        if is_candidate(profile, delays.len(), peak * window) {
            delays.push(estimate_delay_ns_with(obs, cir, fft));
        } else {
            delays.push(f64::NAN);
        }
    };
    let mut running_peak = 0.0f64;
    let mut noise_floor_mw = 0.0f64;
    for i in 0..n_beams {
        // A full scan is the longest uninterruptible stretch of controller
        // work (64 SSB probes); honor cooperative cancellation per probe so
        // a supervised run never overstays its deadline by a whole scan.
        if fe.cancel_requested() {
            crate::cancel::bail();
        }
        let angle = uniform_angle_deg(n_beams, i);
        single_beam_into(&geom, angle, weights);
        fe.probe_kind_into(weights, ProbeKind::Ssb, next);
        noise_floor_mw = next.noise_power_mw;
        let p = next.mean_power_mw();
        profile.push((angle, p));
        running_peak = running_peak.max(p);
        // The held beam now has both neighbours.
        if profile.len() > 1 {
            delay_if_candidate(profile, running_peak, held);
        }
        std::mem::swap(held, next);
    }
    if !profile.is_empty() {
        delay_if_candidate(profile, running_peak, held);
    }
    noise_floor_mw
}

/// Coarse path-delay estimate from one probe: magnitude peak of the
/// band-limited CIR with parabolic sub-tap interpolation. Magnitude-based,
/// hence immune to the CFO common phase. Runs through caller-owned CIR and
/// transform buffers: allocation-free once they are warm, and the same bits
/// whether they are warm or fresh.
// xtask-allow(hot-path-panic): the parabolic neighbors are taken only when 0 < peak < len − 1, and peak is an index of the CIR
pub fn estimate_delay_ns_with(
    obs: &ProbeObservation,
    cir: &mut Vec<Complex64>,
    fft: &mut FftScratch,
) -> f64 {
    ifft_into(&obs.csi, cir, fft);
    if cir.is_empty() || obs.comb_spacing_hz() <= 0.0 {
        return 0.0;
    }
    let peak = peak_tap(cir);
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

/// Index of the tap of largest magnitude `|c|` (`hypot`), the last one on
/// a tie: the tap `max_by(total_cmp)` over every tap's `abs()` picks.
/// `|c|²` rounds within a few ulps of the exact square and `hypot` within
/// one ulp of the exact magnitude, so a tap whose `|c|²` falls short of
/// the largest by more than the relative [`PEAK_MARGIN`] has a strictly
/// smaller `hypot` than the peak; only the taps inside the margin pay for
/// one. A non-finite `|c|²`, or a largest one outside
/// [`PEAK_SQ_RANGE`] (where underflow or overflow would void the
/// rounding bound), takes the plain scan.
fn peak_tap(cir: &[Complex64]) -> usize {
    let last_max = |taps: &mut dyn Iterator<Item = (usize, &Complex64)>| {
        taps.map(|(i, v)| (i, v.abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(i, _)| i)
    };
    let (mut max_sq, mut finite) = (0.0f64, true);
    for v in cir {
        let q = v.norm_sqr();
        finite &= q <= f64::MAX;
        max_sq = max_sq.max(q);
    }
    if !finite || !PEAK_SQ_RANGE.contains(&max_sq) {
        return last_max(&mut cir.iter().enumerate());
    }
    let floor = max_sq * (1.0 - PEAK_MARGIN);
    last_max(
        &mut cir
            .iter()
            .enumerate()
            .filter(|(_, v)| v.norm_sqr() >= floor),
    )
}

/// Relative `|c|²` margin inside which [`peak_tap`] compares magnitudes:
/// far above the few ulps either rounding can move a tap.
const PEAK_MARGIN: f64 = 1e-12;

/// Largest `|c|²` for which [`peak_tap`]'s margin holds: normal numbers,
/// with room below for the smaller taps' squares to round as normals too.
const PEAK_SQ_RANGE: std::ops::RangeInclusive<f64> = 1e-280..=1e280;

/// The peak-finding's candidate test on beam `i`: at or above `floor`, and
/// no lower than either neighbour present in `profile`. During the scan the
/// profile stops at beam `i + 1` and `floor` is a lower bound of the final
/// one, so a beam that fails here is never picked.
fn is_candidate(profile: &[(f64, f64)], i: usize, floor: f64) -> bool {
    debug_assert!(i < profile.len());
    let p = profile[i].1;
    if p < floor {
        return false;
    }
    (i == 0 || profile[i - 1].1 <= p) && (i + 1 == profile.len() || profile[i + 1].1 <= p)
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
    let floor = (peak_power * pow_from_db(-viable_window_db)).max(noise_floor_mw);
    // Candidate local maxima (no lower than either neighbour, edges included).
    let mut candidates: Vec<usize> = (0..profile.len())
        .filter(|&i| is_candidate(profile, i, floor))
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
mod eager {
    //! The scan before its delays were computed lazily and its beams
    //! steered in place, kept as the bit-exact test oracle: every beam is
    //! built owned and every probe is transformed, each through fresh
    //! buffers.

    use super::{estimate_delay_ns_with, find_viable, TrainingResult};
    use crate::frontend::{LinkFrontEnd, ProbeKind};
    use mmwave_array::codebook::uniform_angle_deg;
    use mmwave_array::steering::single_beam;
    use mmwave_dsp::fft::FftScratch;

    /// Probes every beam and transforms every probe: the profile, the
    /// delay of every beam, and the last probe's noise power.
    pub fn scan(fe: &mut dyn LinkFrontEnd, n_beams: usize) -> (Vec<(f64, f64)>, Vec<f64>, f64) {
        let mut profile = Vec::with_capacity(n_beams);
        let mut delays = Vec::with_capacity(n_beams);
        let mut noise_floor_mw = 0.0f64;
        for i in 0..n_beams {
            if fe.cancel_requested() {
                crate::cancel::bail();
            }
            let angle = uniform_angle_deg(n_beams, i);
            let weights = single_beam(fe.geometry(), angle);
            let obs = fe.probe_kind(&weights, ProbeKind::Ssb);
            noise_floor_mw = obs.noise_power_mw;
            profile.push((angle, obs.mean_power_mw()));
            delays.push(estimate_delay_ns_with(
                &obs,
                &mut Vec::new(),
                &mut FftScratch::default(),
            ));
        }
        (profile, delays, noise_floor_mw)
    }

    /// [`super::beam_training`] over [`scan`].
    pub fn beam_training(
        fe: &mut dyn LinkFrontEnd,
        n_beams: usize,
        max_paths: usize,
        viable_window_db: f64,
        min_separation_deg: f64,
    ) -> TrainingResult {
        let before = fe.probes_used();
        let (profile, delays, noise_floor_mw) = scan(fe, n_beams);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::SnapshotFrontEnd;
    use mmwave_array::codebook::PAPER_SCAN_BEAMS;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::{v2, Vec2};
    use mmwave_channel::path::{Path, PathKind};
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    #[test]
    fn peak_tap_matches_the_plain_magnitude_scan() {
        // The tap of every `abs()` scanned with `max_by(total_cmp)`, as the
        // coarse peak was found before it screened on `|c|²`: seeded CIRs
        // at every scale, with exact ties of the peak, swapped and
        // conjugated copies of it, a copy one ulp off it that ties its
        // `hypot` but not its `|c|²`, and non-finite or underflowing
        // entries planted.
        let plain = |cir: &[Complex64]| {
            cir.iter()
                .map(|v| v.abs())
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(i, _)| i)
        };
        let mut rng = Rng64::seed(0x9ea);
        let (mut checked, mut discordant) = (0, 0);
        for scale in [1e-170, 1e-141, 1e-120, 1.0, 3e7, 1e139, 1e141, 1e170] {
            for case in 0..12 {
                let n = [1usize, 2, 5, 264][case % 4];
                let mut cir: Vec<Complex64> =
                    (0..n).map(|_| rng.complex_normal().scale(scale)).collect();
                let top = plain(&cir);
                let peak = cir[top];
                match case / 4 {
                    0 => cir[rng.index(n)] = peak,
                    1 => {
                        cir[rng.index(n)] = c64(peak.im, -peak.re);
                        cir[rng.index(n)] = peak.conj();
                    }
                    _ if n > 1 => {
                        // A copy one ulp off the peak with the same `hypot`
                        // but another `|c|²`, the smaller `|c|²` last: the
                        // tie goes to it, though its square is not the
                        // largest.
                        let ulp = |x: f64, d: i64| f64::from_bits((x.to_bits() as i64 + d) as u64);
                        let twin = (0..64)
                            .map(|t| match t % 4 {
                                0 => c64(ulp(peak.re, 1), peak.im),
                                1 => c64(ulp(peak.re, -1), peak.im),
                                2 => c64(peak.re, ulp(peak.im, 1)),
                                _ => c64(peak.re, ulp(peak.im, -1)),
                            })
                            .find(|t| t.abs() == peak.abs() && t.norm_sqr() != peak.norm_sqr());
                        if let Some(t) = twin {
                            let (lo, hi) = if t.norm_sqr() < peak.norm_sqr() {
                                (peak, t)
                            } else {
                                (t, peak)
                            };
                            cir[0] = lo;
                            cir[n - 1] = hi;
                            discordant += 1;
                        }
                    }
                    _ => {}
                }
                if case == 5 {
                    cir[rng.index(n)] = c64(f64::NAN, 1.0);
                }
                if case == 9 {
                    cir[rng.index(n)] = c64(0.5, f64::INFINITY);
                }
                if case == 10 {
                    cir[rng.index(n)] = c64(4.9e-324, -0.0);
                }
                assert_eq!(peak_tap(&cir), plain(&cir), "scale {scale:e}, case {case}");
                checked += 1;
            }
        }
        for cir in [vec![], vec![Complex64::ZERO; 7], vec![c64(-0.0, 0.0); 3]] {
            assert_eq!(peak_tap(&cir), plain(&cir), "{cir:?}");
        }
        assert_eq!(checked, 96);
        assert!(discordant >= 4, "only {discordant} discordant ties planted");
    }

    fn room_frontend(seed: u64) -> SnapshotFrontEnd {
        room_frontend_at(v2(0.0, 7.0), seed)
    }

    fn room_frontend_at(ue: Vec2, seed: u64) -> SnapshotFrontEnd {
        let scene = Scene::conference_room(FC_28GHZ);
        let paths = scene.paths_to(ue, 180.0);
        frontend(paths, seed)
    }

    fn frontend(paths: Vec<Path>, seed: u64) -> SnapshotFrontEnd {
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
        let r = beam_training(
            &mut fe,
            PAPER_SCAN_BEAMS,
            3,
            15.0,
            8.0,
            &mut SuperResScratch::default(),
        );
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
        let r = beam_training(
            &mut fe,
            PAPER_SCAN_BEAMS,
            3,
            15.0,
            8.0,
            &mut SuperResScratch::default(),
        );
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
        let r = beam_training(
            &mut fe,
            PAPER_SCAN_BEAMS,
            3,
            18.0,
            8.0,
            &mut SuperResScratch::default(),
        );
        for w in r.viable.windows(2) {
            assert!(w[0].power_mw >= w[1].power_mw, "sorted by power");
            assert!((w[0].angle_deg - w[1].angle_deg).abs() >= 8.0, "separated");
        }
    }

    #[test]
    fn delays_increase_for_reflections() {
        let mut fe = room_frontend(4);
        let r = beam_training(
            &mut fe,
            PAPER_SCAN_BEAMS,
            3,
            15.0,
            8.0,
            &mut SuperResScratch::default(),
        );
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
        // 1 dB window: only the LOS survives.
        let r = beam_training(
            &mut fe,
            PAPER_SCAN_BEAMS,
            3,
            1.0,
            8.0,
            &mut SuperResScratch::default(),
        );
        assert_eq!(r.viable.len(), 1);
    }

    #[test]
    fn empty_profile_is_handled() {
        let v = find_viable(&[], &[], 3, 15.0, 8.0, 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn noise_only_scan_yields_no_paths() {
        let mut fe = frontend(Vec::new(), 99);
        let r = beam_training(
            &mut fe,
            PAPER_SCAN_BEAMS,
            3,
            15.0,
            8.0,
            &mut SuperResScratch::default(),
        );
        assert!(r.viable.is_empty(), "noise produced {:?}", r.viable);
    }

    /// A front end that returns scripted probe powers, beam by beam. Beam
    /// `b`'s CSI is `√(p_b + noise)·jᵏᵇ` on subcarrier `k`: quarter turns
    /// are exact, so equal powers tie bit for bit while the CIR peak (tap
    /// 66·b mod 264 of the 264-point comb) tells neighbouring beams apart.
    struct Scripted {
        geom: ArrayGeometry,
        powers_mw: Vec<f64>,
        probes: usize,
    }

    const SCRIPTED_NOISE_MW: f64 = 0.01;

    impl Scripted {
        fn new(powers_mw: &[f64]) -> Self {
            Self {
                geom: ArrayGeometry::paper_8x8(),
                powers_mw: powers_mw.to_vec(),
                probes: 0,
            }
        }
    }

    impl LinkFrontEnd for Scripted {
        fn geometry(&self) -> &ArrayGeometry {
            &self.geom
        }

        fn probe_kind_into(
            &mut self,
            _weights: &mmwave_array::weights::BeamWeights,
            _kind: crate::frontend::ProbeKind,
            out: &mut ProbeObservation,
        ) {
            let b = self.probes % self.powers_mw.len();
            self.probes += 1;
            let a = (self.powers_mw[b] + SCRIPTED_NOISE_MW).sqrt();
            let turns = [c64(a, 0.0), c64(0.0, a), c64(-a, 0.0), c64(0.0, -a)];
            *out = ProbeObservation {
                csi: (0..264).map(|k| turns[(k * b) % 4]).collect(),
                freqs_hz: (0..264).map(|k| k as f64 * 12.0 * 120e3).collect(),
                noise_power_mw: SCRIPTED_NOISE_MW,
            };
        }

        fn now_s(&self) -> f64 {
            0.0
        }

        fn probes_used(&self) -> usize {
            self.probes
        }
    }

    fn assert_bitwise(lazy: &TrainingResult, eager: &TrainingResult, what: &str) {
        let bits = |r: &TrainingResult| {
            let profile: Vec<(u64, u64)> = r
                .profile
                .iter()
                .map(|&(a, p)| (a.to_bits(), p.to_bits()))
                .collect();
            let viable: Vec<(u64, u64, u64)> = r
                .viable
                .iter()
                .map(|v| {
                    (
                        v.angle_deg.to_bits(),
                        v.power_mw.to_bits(),
                        v.delay_ns.to_bits(),
                    )
                })
                .collect();
            (profile, viable, r.probes_used)
        };
        assert_eq!(bits(lazy), bits(eager), "{what}");
    }

    /// Every (max_paths, window) pair of the oracle checks.
    const SETTINGS: [(usize, f64); 9] = [
        (1, 1.0),
        (1, 11.0),
        (1, 40.0),
        (3, 1.0),
        (3, 11.0),
        (3, 40.0),
        (64, 1.0),
        (64, 11.0),
        (64, 40.0),
    ];

    #[test]
    fn lazy_scan_matches_the_eager_scan_bit_for_bit() {
        let scene = Scene::conference_room(FC_28GHZ);
        let mut rooms: Vec<(String, Vec<Path>)> = [v2(0.0, 7.0), v2(0.9, 7.0), v2(-2.0, 4.0)]
            .into_iter()
            .map(|ue| (format!("UE at {ue:?}"), scene.paths_to(ue, 180.0)))
            .collect();
        // A blocked LOS leaves a glass-wall reflection strongest.
        let mut blocked = scene.paths_to(v2(0.0, 7.0), 180.0);
        for p in blocked.iter_mut().filter(|p| p.kind == PathKind::Los) {
            p.blockage_db = 30.0;
        }
        rooms.push(("blocked LOS".to_string(), blocked));
        rooms.push(("noise only".to_string(), Vec::new()));
        // One scratch for every lazy scan: warm from the second on.
        let mut scratch = SuperResScratch::default();
        let mut found = 0;
        for (seed, (what, paths)) in rooms.iter().enumerate() {
            for &(max_paths, window) in &SETTINGS {
                let seed = 40 + seed as u64;
                let lazy = beam_training(
                    &mut frontend(paths.clone(), seed),
                    PAPER_SCAN_BEAMS,
                    max_paths,
                    window,
                    8.0,
                    &mut scratch,
                );
                let eager = eager::beam_training(
                    &mut frontend(paths.clone(), seed),
                    PAPER_SCAN_BEAMS,
                    max_paths,
                    window,
                    8.0,
                );
                assert_bitwise(
                    &lazy,
                    &eager,
                    &format!("{what}, {max_paths} paths, {window} dB"),
                );
                found += lazy.viable.len();
                if paths.is_empty() {
                    assert!(lazy.viable.is_empty(), "noise produced {:?}", lazy.viable);
                }
            }
        }
        assert!(found > 40, "only {found} viable paths across the rooms");
    }

    #[test]
    fn lazy_scan_matches_the_eager_scan_on_scripted_profiles() {
        let cases: [(&str, &[f64]); 6] = [
            (
                "peaks on the first and last beam",
                &[9.0, 4.0, 1.0, 1.0, 2.0, 1.0, 4.0, 9.5],
            ),
            (
                "equal-power plateau",
                &[1.0, 1.0, 6.0, 6.0, 6.0, 6.0, 1.0, 2.0, 1.0, 1.0],
            ),
            ("edge plateaus", &[3.0, 3.0, 1.0, 1.0, 3.0, 3.0]),
            // Beam 1 leads the running peak when it is decided, so it is
            // transformed; the late beam lifts the floor above it.
            (
                "late strong beam",
                &[1.0, 5.0, 1.0, 0.5, 0.7, 0.9, 1.2, 1.5, 400.0, 1.0],
            ),
            ("one beam", &[2.0]),
            ("below the noise", &[0.0, 0.001, 0.0, 0.0]),
        ];
        let mut scratch = SuperResScratch::default();
        for (what, powers) in cases {
            for &(max_paths, window) in &SETTINGS {
                let what = format!("{what}, {max_paths} paths, {window} dB");
                let lazy = beam_training(
                    &mut Scripted::new(powers),
                    powers.len(),
                    max_paths,
                    window,
                    8.0,
                    &mut scratch,
                );
                let eager = eager::beam_training(
                    &mut Scripted::new(powers),
                    powers.len(),
                    max_paths,
                    window,
                    8.0,
                );
                assert_bitwise(&lazy, &eager, &what);
            }
        }
        // The late strong beam hides the earlier local maximum at 11 dB but
        // not at 40 dB.
        let late = [1.0, 5.0, 1.0, 0.5, 0.7, 0.9, 1.2, 1.5, 400.0, 1.0];
        let mut picked = |window| {
            beam_training(
                &mut Scripted::new(&late),
                late.len(),
                64,
                window,
                8.0,
                &mut scratch,
            )
            .viable
            .len()
        };
        assert_eq!((picked(11.0), picked(40.0)), (1, 2));
    }

    #[test]
    fn scan_transforms_only_beams_it_could_pick() {
        let mut scratch = SuperResScratch::default();
        for (ue, seed) in [(v2(0.0, 7.0), 7), (v2(0.9, 7.0), 8), (v2(-2.0, 4.0), 9)] {
            let (mut profile, mut delays) = (Vec::new(), Vec::new());
            let noise = scan(
                &mut room_frontend_at(ue, seed),
                PAPER_SCAN_BEAMS,
                15.0,
                &mut scratch,
                &mut profile,
                &mut delays,
            );
            let (eager_profile, eager_delays, eager_noise) =
                eager::scan(&mut room_frontend_at(ue, seed), PAPER_SCAN_BEAMS);
            assert_eq!(profile, eager_profile);
            assert_eq!(noise.to_bits(), eager_noise.to_bits());
            let transformed: Vec<usize> =
                (0..delays.len()).filter(|&i| !delays[i].is_nan()).collect();
            for &i in &transformed {
                assert_eq!(delays[i].to_bits(), eager_delays[i].to_bits(), "beam {i}");
            }
            // Every candidate at the final floor was transformed, and few
            // others were.
            let peak = profile.iter().map(|&(_, p)| p).fold(0.0f64, f64::max);
            let floor = (peak * pow_from_db(-15.0)).max(noise);
            for i in (0..profile.len()).filter(|&i| is_candidate(&profile, i, floor)) {
                assert!(transformed.contains(&i), "candidate {i} skipped");
            }
            assert!(
                !transformed.is_empty() && transformed.len() <= 12,
                "{} of {} probes transformed",
                transformed.len(),
                profile.len()
            );
        }
    }
}
