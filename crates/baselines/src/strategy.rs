//! The common beam-management interface every evaluated scheme implements,
//! plus the adapter that wraps [`MmReliableController`] in it.
//!
//! The simulator calls [`BeamStrategy::on_tick`] at every CSI-RS instant
//! (giving the scheme its chance to probe and adapt) and reads
//! [`BeamStrategy::weights`] for data transmission in between. Probing cost
//! is charged by the front end itself, so schemes that probe more pay more
//! airtime — the throughput-reliability numbers come out of one unified
//! accounting.

use mmreliable::controller::MmReliableController;
use mmreliable::frontend::LinkFrontEnd;
use mmreliable::linkstate::Transition;
use mmwave_array::weights::BeamWeights;
use mmwave_channel::channel::GeometricChannel;
use mmwave_hotpath::hot_path;

/// A beam-management scheme under evaluation.
pub trait BeamStrategy {
    /// Display name (figure labels).
    fn name(&self) -> &'static str;

    /// Called once per maintenance tick. The strategy may issue probes
    /// through `fe` (each consumes airtime) and update its beam state.
    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, t_s: f64);

    /// Weights currently used for data transmission.
    fn weights(&self) -> BeamWeights;

    /// Write-into variant of [`BeamStrategy::weights`]: overwrites `out`
    /// with the current data weights, reusing its allocation. The run
    /// loop's per-slot entry point — implementations should avoid heap
    /// allocation here (the default falls back to the allocating getter).
    fn weights_into(&self, out: &mut BeamWeights) {
        out.copy_from(&self.weights());
    }

    /// Genie hook: called each slot with the true channel. Only the oracle
    /// baseline uses it; real schemes must ignore it.
    fn observe_truth(&mut self, _ch: &GeometricChannel) {}

    /// Takes the link lifecycle transitions recorded since the last drain.
    /// Strategies without an explicit state machine return nothing; the
    /// run loop forwards drained transitions into the per-run event log.
    // xtask-allow(hot-path-closure): default for stateless strategies; an empty Vec::new allocates nothing
    fn drain_transitions(&mut self) -> Vec<Transition> {
        Vec::new()
    }

    /// Installs a telemetry tracer. The run loop hands every strategy the
    /// simulator's tracer at run start; instrumented strategies (the
    /// mmReliable adapter) forward it into their controller, everything
    /// else ignores it (the default).
    fn set_tracer(&mut self, _tracer: mmwave_telemetry::Tracer) {}
}

/// [`BeamStrategy`] adapter for the mmReliable controller.
///
/// The controller's beam state only changes inside a maintenance round, so
/// the adapter writes `current_weights_into()` (multi-beam synthesis +
/// hardware quantization) into its cache once per tick and serves every
/// data slot from it — the synthesis would otherwise run thousands of
/// times per second for an answer that changes a hundred times per second.
pub struct MmReliableStrategy {
    /// The wrapped controller.
    pub controller: MmReliableController,
    /// Data weights written at the end of the last tick.
    cached: BeamWeights,
    /// Telemetry handle: times the per-tick weight synthesis.
    #[cfg(feature = "telemetry")]
    tracer: mmwave_telemetry::Tracer,
}

impl MmReliableStrategy {
    /// Wraps a controller.
    pub fn new(controller: MmReliableController) -> Self {
        let cached = controller.current_weights();
        Self {
            controller,
            cached,
            #[cfg(feature = "telemetry")]
            tracer: mmwave_telemetry::Tracer::disabled(),
        }
    }

    /// Rewrites the cached data weights in place. Called automatically
    /// after each tick; call manually only after driving the controller
    /// directly (outside the [`BeamStrategy`] interface).
    pub fn refresh_weights(&mut self) {
        self.controller.current_weights_into(&mut self.cached);
    }
}

impl BeamStrategy for MmReliableStrategy {
    fn name(&self) -> &'static str {
        "mmReliable"
    }

    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, _t_s: f64) {
        self.controller.maintenance_round(fe);
        // The weight synthesis (multi-beam + hardware quantization) is the
        // other compute-heavy stage of a tick; time it separately from the
        // maintenance round.
        #[cfg(feature = "telemetry")]
        let clock = self.tracer.begin();
        self.refresh_weights();
        #[cfg(feature = "telemetry")]
        self.tracer
            .end(clock, mmwave_telemetry::Stage::WeightSynthesis, fe.now_s());
    }

    // xtask-allow(hot-path-closure): the trait's owned-weights accessor clones by contract; the per-slot loop calls weights_into, which copies into a reused buffer
    fn weights(&self) -> BeamWeights {
        self.cached.clone()
    }

    #[hot_path]
    fn weights_into(&self, out: &mut BeamWeights) {
        out.copy_from(&self.cached);
    }

    // xtask-allow(hot-path-closure): the run loop's per-tick drain allocates only when transitions were logged, as the regrowth of a taken log did; the controller's log keeps its capacity
    fn drain_transitions(&mut self) -> Vec<Transition> {
        let mut out = Vec::new();
        self.controller.drain_transitions_into(&mut out);
        out
    }

    fn set_tracer(&mut self, tracer: mmwave_telemetry::Tracer) {
        self.controller.set_tracer(tracer.clone());
        #[cfg(feature = "telemetry")]
        {
            self.tracer = tracer;
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmreliable::config::MmReliableConfig;
    use mmreliable::frontend::SnapshotFrontEnd;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_channel::channel::UeReceiver;
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    #[test]
    fn adapter_establishes_on_first_tick() {
        let scene = Scene::conference_room(FC_28GHZ);
        let paths = scene.paths_to(v2(0.9, 7.0), 180.0);
        let mut fe = SnapshotFrontEnd::new(
            GeometricChannel::new(paths, FC_28GHZ),
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(1),
        );
        let mut s =
            MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
        assert_eq!(s.name(), "mmReliable");
        s.on_tick(&mut fe, 0.0);
        assert!(s.controller.multibeam().is_some());
        let w = s.weights();
        assert!((w.norm() - 1.0).abs() < 1e-9);
    }
}
