//! The abstract link front end the controller drives.
//!
//! The controller never touches the channel directly — it requests probes
//! (reference-signal transmissions under a chosen beam) and receives noisy
//! [`ProbeObservation`]s, exactly as the real system only sees CSI-RS/SSB
//! channel estimates (§5.2). A front end implements one probe,
//! [`LinkFrontEnd::probe_kind_into`], which fills caller-owned scratch; the
//! returning and CSI-RS forms are provided on top of it. The simulator
//! implements this trait; tests use [`SnapshotFrontEnd`], a frozen-channel
//! implementation.
//!
//! Probes are classed by the NR reference signal that carries them: an SSB
//! probe occupies 4 slots (0.5 ms), a CSI-RS probe 1 slot (0.125 ms) — the
//! accounting behind the paper's Fig. 18d. Time-advancing front ends (the
//! simulator) charge this airtime per call; the frozen test front end only
//! counts.

use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_channel::channel::{ChannelScratch, GeometricChannel, UeReceiver};
use mmwave_dsp::rng::Rng64;
use mmwave_phy::chanest::{ChannelSounder, ProbeObservation};

/// Which reference signal a probe rides on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Synchronization Signal Block — training probes, 4 slots each.
    Ssb,
    /// CSI-RS — maintenance probes, 1 slot each.
    CsiRs,
}

impl ProbeKind {
    /// Airtime of one probe at 120 kHz SCS (0.125 ms slots).
    pub fn airtime_s(self) -> f64 {
        match self {
            ProbeKind::Ssb => 4.0 * 0.125e-3,
            ProbeKind::CsiRs => 0.125e-3,
        }
    }
}

/// What the beam-management layer can do to the radio.
pub trait LinkFrontEnd {
    /// gNB array geometry.
    fn geometry(&self) -> &ArrayGeometry;

    /// Transmits one reference signal of the given kind under `weights` and
    /// writes the UE's channel estimate into `out`, reusing its buffers —
    /// the one probe every front end implements, so steady-state probing
    /// runs allocation-free. Each call consumes the kind's probe airtime —
    /// implementations account for it (and may advance simulated time).
    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    );

    /// Like [`Self::probe_kind_into`], but returns a fresh observation.
    fn probe_kind(&mut self, weights: &BeamWeights, kind: ProbeKind) -> ProbeObservation {
        let mut obs = ProbeObservation::empty();
        self.probe_kind_into(weights, kind, &mut obs);
        obs
    }

    /// Convenience: a CSI-RS-class probe.
    fn probe(&mut self, weights: &BeamWeights) -> ProbeObservation {
        self.probe_kind(weights, ProbeKind::CsiRs)
    }

    /// Convenience: a CSI-RS-class probe into caller-owned scratch.
    fn probe_into(&mut self, weights: &BeamWeights, out: &mut ProbeObservation) {
        self.probe_kind_into(weights, ProbeKind::CsiRs, out);
    }

    /// Blocks the link for `dur_s` of protocol dead time (e.g. waiting for
    /// the next SSB opportunity, RACH-based beam-failure recovery). Time
    /// advances; no data flows. Default: no-op for frozen front ends.
    fn wait(&mut self, _dur_s: f64) {}

    /// The front end's clock, seconds. Simulators report simulated time;
    /// frozen front ends report accumulated probe airtime — any monotonic
    /// clock works for the controller's retry/backoff scheduling.
    fn now_s(&self) -> f64;

    /// True when the supervisor driving this front end has requested
    /// cooperative cancellation (wall-clock deadline exceeded, tick budget
    /// exhausted). Long-running controller work — the maintenance loop, a
    /// 64-probe training scan — polls this at natural boundaries and
    /// unwinds via [`crate::cancel::bail`], so a hung or pathological run
    /// cannot stall a whole campaign. Front ends without a supervisor
    /// never cancel (the default).
    fn cancel_requested(&self) -> bool {
        false
    }

    /// Total probes issued so far (for overhead accounting).
    fn probes_used(&self) -> usize;
}

/// A [`LinkFrontEnd`] over one frozen channel snapshot — used by unit tests
/// and micro-benchmarks where time does not advance.
pub struct SnapshotFrontEnd {
    /// Frozen channel.
    pub channel: GeometricChannel,
    /// Sounding front end.
    pub sounder: ChannelSounder,
    /// gNB geometry.
    pub geom: ArrayGeometry,
    /// Receive side.
    pub rx: UeReceiver,
    /// Noise source.
    pub rng: Rng64,
    scratch: ChannelScratch,
    probes: usize,
    airtime_s: f64,
}

impl SnapshotFrontEnd {
    /// Wraps a frozen channel.
    pub fn new(
        channel: GeometricChannel,
        sounder: ChannelSounder,
        geom: ArrayGeometry,
        rx: UeReceiver,
        rng: Rng64,
    ) -> Self {
        Self {
            channel,
            sounder,
            geom,
            rx,
            rng,
            scratch: ChannelScratch::default(),
            probes: 0,
            airtime_s: 0.0,
        }
    }

    /// Total probe airtime consumed, seconds.
    pub fn probe_airtime_s(&self) -> f64 {
        self.airtime_s
    }
}

impl LinkFrontEnd for SnapshotFrontEnd {
    fn geometry(&self) -> &ArrayGeometry {
        &self.geom
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        self.probes += 1;
        self.airtime_s += kind.airtime_s();
        self.sounder.probe_into(
            &self.channel,
            &self.geom,
            weights,
            &self.rx,
            &mut self.rng,
            &mut self.scratch,
            out,
        );
    }

    fn wait(&mut self, dur_s: f64) {
        self.airtime_s += dur_s.max(0.0);
    }

    fn now_s(&self) -> f64 {
        self.airtime_s
    }

    fn probes_used(&self) -> usize {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_array::steering::single_beam;
    use mmwave_channel::path::{Path, PathKind};
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::units::FC_28GHZ;

    #[test]
    fn snapshot_frontend_counts_probes_and_airtime() {
        let ch = GeometricChannel::new(
            vec![Path::new(0.0, 0.0, c64(1e-4, 0.0), 20.0, PathKind::Los)],
            FC_28GHZ,
        );
        let geom = ArrayGeometry::ula(8);
        let mut fe = SnapshotFrontEnd::new(
            ch,
            ChannelSounder::paper_indoor(),
            geom,
            UeReceiver::Omni,
            Rng64::seed(1),
        );
        assert_eq!(fe.probes_used(), 0);
        let w = single_beam(fe.geometry(), 0.0);
        let obs = fe.probe(&w);
        assert_eq!(fe.probes_used(), 1);
        assert!(obs.snr_db() > 0.0);
        fe.probe_kind(&w, ProbeKind::Ssb);
        assert_eq!(fe.probes_used(), 2);
        // 1 CSI-RS (0.125 ms) + 1 SSB (0.5 ms).
        assert!((fe.probe_airtime_s() - 0.625e-3).abs() < 1e-12);
    }

    #[test]
    fn probe_kind_airtimes_match_paper() {
        assert_eq!(ProbeKind::Ssb.airtime_s(), 0.5e-3);
        assert_eq!(ProbeKind::CsiRs.airtime_s(), 0.125e-3);
    }
}
