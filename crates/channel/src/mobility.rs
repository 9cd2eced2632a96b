//! UE mobility: position and orientation over time, with exact ground truth.
//!
//! The paper's gantry moves the UE with 1 cm / 0.1° precision (§5.1, §6);
//! a simulator's trajectories are exact by construction, so every tracking
//! experiment can compare estimates against truth directly. Speeds mirror
//! the paper: 24°/s rotation (VR-headset rate) and 1.5 m/s translation
//! indoors; cart speeds outdoors.

use crate::geom2d::{v2, Vec2};

/// UE pose at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pose {
    /// Position, meters.
    pub pos: Vec2,
    /// World bearing the UE array faces, degrees (same convention as
    /// [`crate::geom2d::Vec2::bearing_deg`]).
    pub facing_deg: f64,
}

/// A deterministic UE trajectory.
#[derive(Clone, Debug, PartialEq)]
pub enum Trajectory {
    /// Stationary UE.
    Static {
        /// Fixed pose.
        pose: Pose,
    },
    /// Pure rotation in place (VR-headset style).
    Rotation {
        /// Start pose.
        start: Pose,
        /// Rotation rate, degrees/second (positive = toward +x).
        rate_deg_s: f64,
    },
    /// Straight-line translation at constant speed, facing held constant.
    Translation {
        /// Start pose.
        start: Pose,
        /// Velocity vector, m/s.
        velocity: Vec2,
    },
    /// Translation combined with rotation.
    TranslateRotate {
        /// Start pose.
        start: Pose,
        /// Velocity vector, m/s.
        velocity: Vec2,
        /// Rotation rate, degrees/second.
        rate_deg_s: f64,
    },
    /// Piecewise-linear waypoint path — the paper's "natural motion"
    /// end-to-end runs (§6). Position and facing interpolate linearly
    /// between timestamped poses; the pose clamps at both ends.
    Waypoints {
        /// `(time_s, pose)` knots, strictly increasing in time.
        knots: Vec<(f64, Pose)>,
    },
}

impl Trajectory {
    /// The paper's indoor translation experiment: 1.5 m/s lateral motion
    /// (parallel to the gNB array face) starting at `start_pos`, facing the
    /// gNB.
    pub fn paper_translation(start_pos: Vec2) -> Self {
        Trajectory::Translation {
            start: Pose {
                pos: start_pos,
                facing_deg: 180.0,
            },
            velocity: v2(1.5, 0.0),
        }
    }

    /// The paper's rotation experiment: 24°/s in place (typical VR headset).
    pub fn paper_rotation(pos: Vec2) -> Self {
        Trajectory::Rotation {
            start: Pose {
                pos,
                facing_deg: 180.0,
            },
            rate_deg_s: 24.0,
        }
    }

    /// Pose at time `t_s`.
    pub fn pose_at(&self, t_s: f64) -> Pose {
        match *self {
            Trajectory::Static { pose } => pose,
            Trajectory::Rotation { start, rate_deg_s } => Pose {
                pos: start.pos,
                facing_deg: start.facing_deg + rate_deg_s * t_s,
            },
            Trajectory::Translation { start, velocity } => Pose {
                pos: start.pos + velocity * t_s,
                facing_deg: start.facing_deg,
            },
            Trajectory::TranslateRotate {
                start,
                velocity,
                rate_deg_s,
            } => Pose {
                pos: start.pos + velocity * t_s,
                facing_deg: start.facing_deg + rate_deg_s * t_s,
            },
            Trajectory::Waypoints { ref knots } => waypoint_pose(knots, t_s),
        }
    }
}

/// Linear interpolation over timestamped pose knots, clamped at the ends.
// xtask-allow(hot-path-panic): knots is non-empty (asserted at entry) and the two clamp returns leave hi in 1..len, so every knot index is in bounds
fn waypoint_pose(knots: &[(f64, Pose)], t_s: f64) -> Pose {
    assert!(
        !knots.is_empty(),
        "waypoint trajectory needs at least one knot"
    );
    if t_s <= knots[0].0 {
        return knots[0].1;
    }
    if t_s >= knots[knots.len() - 1].0 {
        return knots[knots.len() - 1].1;
    }
    let hi = knots.partition_point(|(t, _)| *t <= t_s);
    let (t0, p0) = knots[hi - 1];
    let (t1, p1) = knots[hi];
    let f = (t_s - t0) / (t1 - t0);
    Pose {
        pos: p0.pos + (p1.pos - p0.pos) * f,
        facing_deg: p0.facing_deg + (p1.facing_deg - p0.facing_deg) * f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_pose_constant() {
        let t = Trajectory::Static {
            pose: Pose {
                pos: v2(1.0, 7.0),
                facing_deg: 180.0,
            },
        };
        assert_eq!(t.pose_at(0.0), t.pose_at(5.0));
    }

    #[test]
    fn rotation_accumulates() {
        let t = Trajectory::paper_rotation(v2(0.0, 7.0));
        let p = t.pose_at(0.5);
        assert_eq!(p.pos, v2(0.0, 7.0));
        assert!((p.facing_deg - 192.0).abs() < 1e-12); // 180 + 24·0.5
    }

    #[test]
    fn translation_advances_position() {
        let t = Trajectory::paper_translation(v2(-0.35, 7.0));
        let p = t.pose_at(1.0);
        assert!((p.pos.x - 1.15).abs() < 1e-12);
        assert_eq!(p.pos.y, 7.0);
        assert_eq!(p.facing_deg, 180.0);
    }

    #[test]
    fn combined_motion() {
        let t = Trajectory::TranslateRotate {
            start: Pose {
                pos: Vec2::ZERO,
                facing_deg: 0.0,
            },
            velocity: v2(1.0, 2.0),
            rate_deg_s: -10.0,
        };
        let p = t.pose_at(2.0);
        assert_eq!(p.pos, v2(2.0, 4.0));
        assert!((p.facing_deg + 20.0).abs() < 1e-12);
    }

    #[test]
    fn waypoints_interpolate_and_clamp() {
        let t = Trajectory::Waypoints {
            knots: vec![
                (
                    0.0,
                    Pose {
                        pos: v2(0.0, 7.0),
                        facing_deg: 180.0,
                    },
                ),
                (
                    1.0,
                    Pose {
                        pos: v2(1.0, 7.0),
                        facing_deg: 190.0,
                    },
                ),
                (
                    2.0,
                    Pose {
                        pos: v2(1.0, 8.0),
                        facing_deg: 170.0,
                    },
                ),
            ],
        };
        // Clamp before the first knot.
        assert_eq!(t.pose_at(-1.0), t.pose_at(0.0));
        // Midpoint of the first segment.
        let mid = t.pose_at(0.5);
        assert!((mid.pos.x - 0.5).abs() < 1e-12);
        assert!((mid.facing_deg - 185.0).abs() < 1e-12);
        // Midpoint of the second segment (direction change).
        let mid2 = t.pose_at(1.5);
        assert!((mid2.pos.y - 7.5).abs() < 1e-12);
        assert!((mid2.facing_deg - 180.0).abs() < 1e-12);
        // Clamp after the last knot.
        assert_eq!(t.pose_at(99.0), t.pose_at(2.0));
    }

    #[test]
    fn translation_changes_aod_seen_from_gnb() {
        // A 1.5 m/s lateral move at 7 m changes the LOS bearing by
        // ≈ atan(1.5/7) ≈ 12° in one second — the order of misalignment the
        // paper's tracking has to absorb.
        let t = Trajectory::paper_translation(v2(0.0, 7.0));
        let p0 = t.pose_at(0.0).pos;
        let p1 = t.pose_at(1.0).pos;
        let aod0 = p0.bearing_deg();
        let aod1 = p1.bearing_deg();
        assert!(aod0.abs() < 1e-9);
        assert!((aod1 - 12.09).abs() < 0.1, "Δaod {}", aod1 - aod0);
    }
}
