//! Time-varying channel: scene × trajectory × blockage.
//!
//! [`DynamicChannel`] is the single source of truth the simulator steps:
//! given a time instant it produces the frozen [`GeometricChannel`] snapshot
//! that the PHY then observes through reference signals. Ground truth
//! (true path angles, pose) is exposed for evaluation only — the
//! beam-management algorithms never see it.

use crate::blockage::BlockageProcess;
use crate::cell::SharedSceneCache;
use crate::channel::GeometricChannel;
use crate::environment::Scene;
use crate::mobility::{Pose, Trajectory};
use crate::path::Path;
use mmwave_hotpath::hot_path;
use std::sync::Arc;

/// A fully-specified dynamic link environment.
#[derive(Clone, Debug)]
pub struct DynamicChannel {
    /// Static scene (gNB, walls, carrier).
    pub scene: Scene,
    /// UE trajectory.
    pub trajectory: Trajectory,
    /// Blockage process (indices refer to the path order returned by
    /// [`Scene::paths_to`], which is stable over time: LOS first, then one
    /// entry per wall in scene order).
    pub blockage: BlockageProcess,
    /// Rotation rate of the gNB array itself, degrees/second (the paper's
    /// gantry rotation experiments, Fig. 17a: every path's AoD shifts by
    /// −ω·t in the rotating array's frame). 0 for a fixed gNB.
    pub gnb_rotation_deg_s: f64,
    /// Environment clock offset: motion and blockage schedules are
    /// evaluated at `max(0, t − start_delay_s)`. Lets an experiment give
    /// every scheme a warm-up window (initial beam training) before the
    /// authored events begin — the paper trains *before* each 1-s
    /// measurement (§6).
    pub start_delay_s: f64,
    /// Shared UE-independent ray-trace geometry (the fleet's cell cache).
    /// `None` — the single-link default — recomputes the gNB images per
    /// trace; the cached and uncached trace paths are bit-identical.
    shared: Option<Arc<SharedSceneCache>>,
}

impl DynamicChannel {
    /// Creates a dynamic channel with a fixed gNB.
    pub fn new(scene: Scene, trajectory: Trajectory, blockage: BlockageProcess) -> Self {
        Self {
            scene,
            trajectory,
            blockage,
            gnb_rotation_deg_s: 0.0,
            start_delay_s: 0.0,
            shared: None,
        }
    }

    /// Installs a shared cell-environment cache (built for this channel's
    /// scene). Every subsequent trace is served through the cached gNB
    /// image set — bit-identical to the uncached trace, but the
    /// UE-independent mirror work is done once per cell instead of once
    /// per (UE, pose).
    pub fn set_shared_cache(&mut self, cache: Arc<SharedSceneCache>) {
        assert_eq!(
            cache.len(),
            self.scene.walls.len(),
            "shared cache built for a different scene"
        );
        self.shared = Some(cache);
    }

    /// Pristine scene trace at `pose`, routed through the shared cell
    /// cache when one is installed. The kernel behind both the per-slot
    /// snapshot rebuild and the reference trace.
    #[hot_path]
    pub fn trace_pose_into(&self, pose: &Pose, out: &mut Vec<Path>) {
        self.scene
            .paths_to_cached_into(self.shared.as_deref(), pose.pos, pose.facing_deg, out);
    }

    /// Delays all authored dynamics (motion, blockage, rotation) by
    /// `delay_s` — the warm-up window.
    pub fn with_start_delay(mut self, delay_s: f64) -> Self {
        self.start_delay_s = delay_s;
        self
    }

    /// Environment-clock time for a simulation time.
    fn env_time(&self, t_s: f64) -> f64 {
        (t_s - self.start_delay_s).max(0.0)
    }

    /// Adds gNB (gantry) rotation.
    pub fn with_gnb_rotation(mut self, rate_deg_s: f64) -> Self {
        self.gnb_rotation_deg_s = rate_deg_s;
        self
    }

    /// UE pose at time `t_s` (ground truth).
    pub fn pose_at(&self, t_s: f64) -> Pose {
        self.trajectory.pose_at(self.env_time(t_s))
    }

    /// Raw path list at time `t_s`, with blockage applied.
    ///
    /// Note on stability: [`Scene::paths_to`] can drop a reflection when the
    /// UE moves past the wall's geometric support. To keep blockage indices
    /// meaningful, paths are matched by provenance (`PathKind`), not list
    /// position: the blockage process indexes the path list of the
    /// *initial* pose.
    pub fn paths_at(&self, t_s: f64) -> Vec<Path> {
        let mut out = Vec::new();
        self.paths_at_into(t_s, &self.reference_paths(), &mut out);
        out
    }

    /// Write-into variant of [`DynamicChannel::paths_at`]: clears `out` and
    /// fills it, reusing the allocation. `reference` must be the (time-
    /// invariant) list from [`DynamicChannel::reference_paths`]; passing it
    /// in lets per-slot callers cache it instead of re-tracing the t = 0
    /// scene on every query.
    #[hot_path]
    pub fn paths_at_into(&self, t_s: f64, reference: &[Path], out: &mut Vec<Path>) {
        let pose = self.pose_at(t_s);
        self.trace_pose_into(&pose, out);
        self.apply_time_effects(t_s, reference, out);
    }

    /// Applies the time-varying effects — blockage attenuation and gNB
    /// gantry rotation — to a *pristine* scene trace for time `t_s` (the
    /// output of [`Scene::paths_to_into`] at the pose of `t_s`). Split out
    /// so per-slot callers that know the pose hasn't moved (static
    /// trajectories) can cache the trace and re-apply only these effects.
    pub fn apply_time_effects(&self, t_s: f64, reference: &[Path], paths: &mut [Path]) {
        let te = self.env_time(t_s);
        for p in paths.iter_mut() {
            if let Some(ref_idx) = reference.iter().position(|r| r.kind == p.kind) {
                p.blockage_db = self.blockage.attenuation_db(ref_idx, te);
            }
            // gNB gantry rotation shifts every AoD in the array frame.
            p.aod_deg -= self.gnb_rotation_deg_s * te;
        }
    }

    /// The path list at t = 0, used as the index space for blockage events
    /// and as "which beams exist" ground truth.
    pub fn reference_paths(&self) -> Vec<Path> {
        let mut out = Vec::new();
        self.reference_paths_into(&mut out);
        out
    }

    /// Write-into variant of [`DynamicChannel::reference_paths`]. The result
    /// is time-invariant, so hot-path callers compute it once and cache it.
    pub fn reference_paths_into(&self, out: &mut Vec<Path>) {
        let pose = self.pose_at(0.0);
        self.trace_pose_into(&pose, out);
    }

    /// Frozen channel snapshot at time `t_s`.
    pub fn channel_at(&self, t_s: f64) -> GeometricChannel {
        GeometricChannel::new(self.paths_at(t_s), self.scene.fc_hz)
    }

    /// Ground-truth AoD (degrees) at `t_s` of the path whose provenance
    /// matches reference-path index `ref_idx`, if it still exists.
    pub fn true_aod_deg(&self, ref_idx: usize, t_s: f64) -> Option<f64> {
        let reference = self.reference_paths();
        let kind = reference.get(ref_idx)?.kind;
        self.paths_at(t_s)
            .iter()
            .find(|p| p.kind == kind)
            .map(|p| p.aod_deg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockage::BlockageEvent;
    use crate::geom2d::v2;
    use crate::mobility::Pose;
    use mmwave_dsp::units::FC_28GHZ;

    fn base() -> DynamicChannel {
        DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static {
                pose: Pose {
                    pos: v2(0.0, 7.0),
                    facing_deg: 180.0,
                },
            },
            BlockageProcess::none(),
        )
    }

    #[test]
    fn static_channel_is_time_invariant() {
        let dc = base();
        let a = dc.channel_at(0.0);
        let b = dc.channel_at(0.7);
        assert_eq!(a.paths.len(), b.paths.len());
        for (x, y) in a.paths.iter().zip(&b.paths) {
            assert_eq!(x.aod_deg, y.aod_deg);
            assert_eq!(x.gain, y.gain);
        }
    }

    #[test]
    fn translation_moves_aod_over_time() {
        let mut dc = base();
        dc.trajectory = Trajectory::paper_translation(v2(0.0, 7.0));
        let aod0 = dc.true_aod_deg(0, 0.0).unwrap();
        let aod1 = dc.true_aod_deg(0, 1.0).unwrap();
        assert!(aod0.abs() < 1e-9);
        assert!(aod1 > 10.0, "LOS AoD after 1 s: {aod1}");
    }

    #[test]
    fn per_path_deviations_differ_under_translation() {
        // Fig. 10: each beam of a multi-beam misaligns by a *different*
        // angle under the same UE motion.
        let mut dc = base();
        dc.trajectory = Trajectory::paper_translation(v2(0.0, 7.0));
        let d_los = dc.true_aod_deg(0, 1.0).unwrap() - dc.true_aod_deg(0, 0.0).unwrap();
        // Reference index 1 = left glass wall reflection.
        let d_nlos = dc.true_aod_deg(1, 1.0).unwrap() - dc.true_aod_deg(1, 0.0).unwrap();
        assert!(
            (d_los - d_nlos).abs() > 1.0,
            "LOS Δ {d_los} vs NLOS Δ {d_nlos} should differ"
        );
    }

    #[test]
    fn blockage_applies_by_reference_index() {
        let mut dc = base();
        dc.blockage = BlockageProcess::from_events(vec![BlockageEvent {
            path_idx: 0, // LOS
            start_s: 0.0,
            ramp_s: 0.001,
            depth_db: 25.0,
            hold_s: 1.0,
        }]);
        let ch = dc.channel_at(0.5);
        assert_eq!(ch.paths[0].blockage_db, 25.0);
        assert!(ch.paths[1..].iter().all(|p| p.blockage_db == 0.0));
    }

    #[test]
    fn rotation_changes_aoa_not_aod() {
        let mut dc = base();
        dc.trajectory = Trajectory::paper_rotation(v2(0.0, 7.0));
        let p0 = dc.paths_at(0.0);
        let p1 = dc.paths_at(0.5);
        assert!((p0[0].aod_deg - p1[0].aod_deg).abs() < 1e-9);
        assert!((p0[0].aoa_deg - p1[0].aoa_deg).abs() > 10.0);
    }
}
