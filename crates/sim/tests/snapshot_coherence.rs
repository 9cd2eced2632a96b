//! Snapshot coherence: the workspace [`ChannelSnapshot`] path must be
//! *bitwise* interchangeable with querying the [`DynamicChannel`] directly.
//!
//! [`LinkSimulator::true_snr_db`] reads the channel through the per-slot
//! snapshot (steering rows, band-power pair weights, and ray-trace caches
//! included). These properties recompute the same SNR from scratch — a
//! fresh `channel_at` query plus [`GeometricChannel::band_power`] — and
//! demand exact bit equality for ULA and UPA front ends across arbitrary
//! times, beam angles, and query orders. Any drift here would silently
//! break the fixed-seed reproducibility contract (DESIGN.md §8).
//!
//! Both routes share the phasor-recurrence steering rows and the
//! closed-form band-power kernel, so a last test bounds the slot-path SNR
//! against an oracle that synthesises the 33-point comb with one `cis` per
//! element and per frequency and averages its power.

use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::steering::single_beam;
use mmwave_array::weights::BeamWeights;
use mmwave_channel::blockage::BlockageProcess;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::dynamics::DynamicChannel;
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_channel::mobility::{Pose, Trajectory};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::{db_from_pow, mw_from_dbm, pow_from_db, FC_28GHZ, SPEED_OF_LIGHT};
use mmwave_phy::chanest::ChannelSounder;
use mmwave_sim::simulator::LinkSimulator;
use proptest::prelude::*;
use std::f64::consts::PI;

use mmreliable::frontend::LinkFrontEnd;

/// A walking-speed translate-and-rotate trajectory through the conference
/// room, so every drawn timestamp sees a different pose (and therefore a
/// fresh ray trace, steering rows, and pair weights in the snapshot).
fn walker_sim(geom: ArrayGeometry) -> LinkSimulator {
    link_sim(
        geom,
        Trajectory::TranslateRotate {
            start: Pose {
                pos: v2(-1.2, 6.5),
                facing_deg: 170.0,
            },
            velocity: v2(1.0, -0.4),
            rate_deg_s: 25.0,
        },
        UeReceiver::Omni,
    )
}

fn link_sim(geom: ArrayGeometry, trajectory: Trajectory, rx: UeReceiver) -> LinkSimulator {
    let dynamic = DynamicChannel::new(
        Scene::conference_room(FC_28GHZ),
        trajectory,
        BlockageProcess::none(),
    );
    LinkSimulator::new(
        dynamic,
        ChannelSounder::paper_indoor(),
        geom,
        rx,
        Rng64::seed(17),
    )
}

/// The SNR metric's 33-point comb across the occupied band.
fn snr_comb(sim: &LinkSimulator) -> Vec<f64> {
    let half = sim.sounder.grid.occupied_bw_hz() / 2.0;
    (0..33)
        .map(|i| -half + 2.0 * half * i as f64 / 32.0)
        .collect()
}

/// Recomputes [`LinkSimulator::true_snr_db`] from first principles at an
/// explicit time: a fresh `channel_at` query and
/// [`GeometricChannel::band_power`], bypassing the snapshot and the
/// workspace. Mirrors the metric's formula exactly.
fn direct_snr_db(sim: &LinkSimulator, t_s: f64, weights: &BeamWeights) -> f64 {
    let ch = sim.dynamic.channel_at(t_s);
    if ch.paths.is_empty() {
        return -60.0;
    }
    let mean_pow = ch.band_power(&sim.geom, weights, &sim.rx, &snr_comb(sim));
    snr_from_power(sim, &ch, mean_pow)
}

/// The mean comb power of a synthesised CSI comb.
fn mean_power(csi: &[Complex64]) -> f64 {
    csi.iter().map(|v| v.norm_sqr()).sum::<f64>() / csi.len() as f64
}

/// The metric's scaling from a band-averaged power to SNR (dB), as in
/// [`LinkSimulator::true_snr_db`].
fn snr_from_power(sim: &LinkSimulator, ch: &GeometricChannel, mean_pow: f64) -> f64 {
    let tx_mw = mw_from_dbm(sim.sounder.budget.tx_power_dbm);
    let per_sc = tx_mw / sim.sounder.grid.n_subcarriers as f64;
    let dist_m = ch
        .paths
        .iter()
        .map(|p| p.tof_ns)
        .fold(f64::INFINITY, f64::min)
        * 1e-9
        * SPEED_OF_LIGHT;
    let atmo = pow_from_db(-sim.sounder.budget.atmospheric_absorption_db(dist_m));
    let noise = sim.sounder.noise_power_mw();
    db_from_pow((mean_pow * per_sc * atmo / noise).max(1e-6)).max(-60.0)
}

fn geometries() -> [ArrayGeometry; 2] {
    [ArrayGeometry::ula(16), ArrayGeometry::paper_8x8()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One query: snapshot-mediated SNR equals the direct recomputation,
    /// bit for bit, on both array geometries.
    #[test]
    fn snapshot_snr_matches_direct_query(
        t in 0.0..2.0f64,
        angle in -55.0..55.0f64,
    ) {
        for geom in geometries() {
            let w = single_beam(&geom, angle);
            let mut sim = walker_sim(geom);
            sim.wait(t);
            let got = sim.true_snr_db(&w);
            let want = direct_snr_db(&sim, t, &w);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "snapshot {} vs direct {} at t={} angle={}",
                got, want, t, angle
            );
        }
    }

    /// Repeated and interleaved queries: reusing a still-valid snapshot,
    /// then invalidating it by advancing time, never changes a bit. This
    /// exercises the rebuild/reuse branch pair plus the steering-row and
    /// phase-table caches across consecutive instants.
    #[test]
    fn snapshot_reuse_and_rebuild_stay_coherent(
        t0 in 0.0..1.0f64,
        dt in 1e-6..0.5f64,
        a0 in -55.0..55.0f64,
        a1 in -55.0..55.0f64,
    ) {
        for geom in geometries() {
            let w0 = single_beam(&geom, a0);
            let w1 = single_beam(&geom, a1);
            let mut sim = walker_sim(geom);
            sim.wait(t0);
            // Two reads at the same instant: the second reuses the snapshot.
            let first = sim.true_snr_db(&w0);
            let again = sim.true_snr_db(&w0);
            prop_assert_eq!(first.to_bits(), again.to_bits());
            prop_assert_eq!(first.to_bits(), direct_snr_db(&sim, t0, &w0).to_bits());
            // Different weights against the same frozen channel.
            let cross = sim.true_snr_db(&w1);
            prop_assert_eq!(cross.to_bits(), direct_snr_db(&sim, t0, &w1).to_bits());
            // Advance time: the snapshot must rebuild, not serve stale state.
            sim.wait(dt);
            let later = sim.true_snr_db(&w1);
            prop_assert_eq!(later.to_bits(), direct_snr_db(&sim, t0 + dt, &w1).to_bits());
        }
    }
}

/// `a(φ)ᵀw` with one `cis` per element: `e^{-j2π·x_n·sin φ}` (zero
/// elevation, as every channel query uses).
fn oracle_array_factor(geom: &ArrayGeometry, w: &[Complex64], angle_deg: f64) -> Complex64 {
    let su = angle_deg.to_radians().sin();
    (0..geom.num_elements())
        .map(|i| Complex64::cis(-2.0 * PI * geom.azimuth_position_wl(i) * su) * w[i])
        .sum()
}

/// CSI with one `cis` per element and per frequency, no recurrence and no
/// column fold: `y(f) = Σ_l γ_l·g_rx(θ_l)·a(φ_l)ᵀw·e^{-j2πfτ_l}`.
fn oracle_csi(
    ch: &GeometricChannel,
    geom: &ArrayGeometry,
    w: &BeamWeights,
    rx: &UeReceiver,
    freqs: &[f64],
) -> Vec<Complex64> {
    freqs
        .iter()
        .map(|&f| {
            ch.paths
                .iter()
                .map(|p| {
                    let g_rx = match rx {
                        UeReceiver::Omni => Complex64::ONE,
                        UeReceiver::Array { geom, weights } => {
                            oracle_array_factor(geom, weights.as_slice(), p.aoa_deg)
                        }
                    };
                    let af = oracle_array_factor(geom, w.as_slice(), p.aod_deg);
                    p.effective_gain() * g_rx * af * Complex64::cis(-2.0 * PI * f * p.tof_ns * 1e-9)
                })
                .sum()
        })
        .collect()
}

#[test]
fn slot_snr_matches_per_element_cis_oracle() {
    // A translating UE (delays and AoDs move every slot) and a UE rotating
    // in place behind a directional array (its steering moves instead), on
    // the ULA and the 8×8 UPA: the slot path's recurrences, column fold
    // and closed-form band power stay within 10⁻¹⁰ dB of the per-element,
    // per-frequency comb oracle.
    let ue = ArrayGeometry::ula(4);
    let links = [
        (
            Trajectory::paper_translation(v2(-2.0, 7.0)),
            UeReceiver::Omni,
        ),
        (
            Trajectory::paper_rotation(v2(0.4, 6.0)),
            UeReceiver::Array {
                geom: ue,
                weights: single_beam(&ue, 0.0),
            },
        ),
    ];
    let mut rng = Rng64::seed(0x0AC1E);
    let mut worst = 0.0f64;
    for (trajectory, rx) in links {
        for geom in geometries() {
            let mut sim = link_sim(geom, trajectory.clone(), rx.clone());
            for _ in 0..100 {
                sim.wait(rng.uniform_in(1e-3, 2e-2));
                let w = single_beam(&geom, rng.uniform_in(-55.0, 55.0));
                let got = sim.true_snr_db(&w);
                let t = sim.now_s();
                let ch = sim.dynamic.channel_at(t);
                let want = if ch.paths.is_empty() {
                    -60.0
                } else {
                    let csi = oracle_csi(&ch, &geom, &w, &rx, &snr_comb(&sim));
                    snr_from_power(&sim, &ch, mean_power(&csi))
                };
                worst = worst.max((got - want).abs());
            }
        }
    }
    assert!(worst <= 1e-10, "max |ΔSNR| {worst:e} dB");
}
