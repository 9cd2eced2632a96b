//! Property-based tests for the channel substrate.

use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::steering::single_beam;
use mmwave_channel::blockage::BlockageEvent;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::{v2, Segment};
use mmwave_channel::path::{Path, PathKind};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::units::FC_28GHZ;
use proptest::prelude::*;

fn pos() -> impl Strategy<Value = (f64, f64)> {
    ((-3.0..3.0f64), (2.0..9.0f64))
}

proptest! {
    #[test]
    fn mirror_involution((px, py) in pos(), (ax, ay) in pos(), (bx, by) in pos()) {
        prop_assume!(v2(ax, ay).dist(v2(bx, by)) > 0.1);
        let s = Segment::new(v2(ax, ay), v2(bx, by));
        let p = v2(px, py);
        let back = s.mirror(s.mirror(p));
        prop_assert!(back.dist(p) < 1e-9);
    }

    #[test]
    fn mirror_preserves_distance_to_wall((px, py) in pos(), (ax, ay) in pos(), (bx, by) in pos()) {
        prop_assume!(v2(ax, ay).dist(v2(bx, by)) > 0.1);
        let s = Segment::new(v2(ax, ay), v2(bx, by));
        let p = v2(px, py);
        let m = s.mirror(p);
        // Distance to the wall's line: |(q − a) × (b − a)| / |b − a|.
        let ab = s.b - s.a;
        let to_line = |q: mmwave_channel::geom2d::Vec2| ((q - s.a).cross(ab) / ab.len()).abs();
        prop_assert!((to_line(p) - to_line(m)).abs() < 1e-6);
    }

    #[test]
    fn optimal_power_is_cauchy_schwarz_bound(
        aod1 in -50.0..50.0f64,
        aod2 in -50.0..50.0f64,
        delta in 0.05..1.0f64,
        sigma in 0.0..std::f64::consts::TAU,
        steer in -50.0..50.0f64,
    ) {
        let ch = GeometricChannel::new(
            vec![
                Path::new(aod1, 0.0, Complex64::ONE, 20.0, PathKind::Los),
                Path::new(aod2, 0.0, Complex64::from_polar(delta, sigma), 25.0,
                          PathKind::Reflected { wall: 0 }),
            ],
            FC_28GHZ,
        );
        let g = ArrayGeometry::ula(8);
        let rx = UeReceiver::Omni;
        // No weight vector can beat the MRT bound.
        let w = single_beam(&g, steer);
        let p = ch.received_power(&g, &w, &rx);
        let bound = ch.optimal_power(&g, &rx);
        prop_assert!(p <= bound * (1.0 + 1e-9), "p {p} > bound {bound}");
    }

    #[test]
    fn blockage_event_attenuation_nonnegative_and_bounded(
        start in 0.0..1.0f64, ramp in 1e-4..0.2f64, depth in 0.0..40.0f64,
        hold in 0.0..0.5f64, t in -0.5..3.0f64
    ) {
        let e = BlockageEvent { path_idx: 0, start_s: start, ramp_s: ramp, depth_db: depth, hold_s: hold };
        let a = e.attenuation_db(t);
        prop_assert!(a >= 0.0 && a <= depth + 1e-9);
        // Fully outside the event window → exactly zero.
        prop_assert!(e.attenuation_db(start - 0.01) == 0.0);
        prop_assert!(e.attenuation_db(e.end_s() + 0.01) == 0.0);
    }

    #[test]
    fn scene_paths_los_always_strongest_without_blockage((ux, uy) in pos()) {
        prop_assume!(uy > 3.0);
        let s = Scene::conference_room(FC_28GHZ);
        let paths = s.paths_to(v2(ux, uy), 180.0);
        prop_assume!(!paths.is_empty());
        let los = paths.iter().find(|p| p.is_los()).unwrap();
        for p in paths.iter().filter(|p| !p.is_los()) {
            prop_assert!(p.effective_gain().abs() <= los.effective_gain().abs() + 1e-12);
        }
    }

    #[test]
    fn path_tofs_consistent_with_geometry((ux, uy) in pos()) {
        prop_assume!(uy > 3.0);
        let s = Scene::conference_room(FC_28GHZ);
        let paths = s.paths_to(v2(ux, uy), 180.0);
        let los = paths.iter().find(|p| p.is_los()).unwrap();
        let d = s.gnb.dist(v2(ux, uy));
        prop_assert!((los.tof_ns - d / 0.299_792_458).abs() < 1e-6);
        // Every reflection is longer than LOS.
        for p in paths.iter().filter(|p| !p.is_los()) {
            prop_assert!(p.tof_ns > los.tof_ns);
        }
    }

    #[test]
    fn csi_magnitude_invariant_to_common_phase(
        delta in 0.1..1.0f64, sigma in 0.0..std::f64::consts::TAU, extra_phase in 0.0..std::f64::consts::TAU
    ) {
        // CFO/SFO add a common phase to all paths; |CSI| must not change —
        // this is why the paper estimates from magnitudes only (§3.3).
        let mk = |common: f64| {
            GeometricChannel::new(
                vec![
                    Path::new(0.0, 0.0, Complex64::cis(common), 20.0, PathKind::Los),
                    Path::new(30.0, 0.0, Complex64::from_polar(delta, sigma + common), 25.0,
                              PathKind::Reflected { wall: 0 }),
                ],
                FC_28GHZ,
            )
        };
        let g = ArrayGeometry::ula(8);
        let w = single_beam(&g, 0.0);
        let freqs: Vec<f64> = (0..16).map(|i| i as f64 * 10e6).collect();
        let a = mk(0.0).csi(&g, &w, &UeReceiver::Omni, &freqs);
        let b = mk(extra_phase).csi(&g, &w, &UeReceiver::Omni, &freqs);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x.abs() - y.abs()).abs() < 1e-9);
        }
    }
}
