//! # mmwave-baselines
//!
//! The comparison systems the paper evaluates against (§6.2), all driven
//! through the same [`strategy::BeamStrategy`] interface as mmReliable so
//! the simulator treats every scheme identically:
//!
//! - [`single_reactive`] — single best beam; on outage, a reactive fast
//!   beam-training (Hassanieh et al. '18 style) re-establishes the link.
//!   The paper's main "Reactive baseline".
//! - [`beamspy`] — BeamSpy-like (Sur et al., NSDI '16): keeps the spatial
//!   profile from training and, on blockage, switches to the best
//!   *alternate* direction without a new scan.
//! - [`widebeam`] — a broadened beam that trades array gain for
//!   misalignment tolerance (the "widebeam" baseline of Fig. 18b).
//! - [`nr_periodic`] — vanilla 5G NR beam management: periodic SSB
//!   re-scans at the standard 20 ms cadence (Fig. 18d's overhead subject).
//! - [`oracle`] — genie maximum-ratio transmission from per-element channel
//!   truth (the upper bound of Fig. 15d).
//! - [`strategy`] — the common trait + the mmReliable adapter.

#![warn(missing_docs)]
pub mod beamspy;
pub mod nr_periodic;
pub mod oracle;
pub mod single_reactive;
pub mod strategy;
pub mod widebeam;

pub use beamspy::BeamSpy;
pub use nr_periodic::NrPeriodic;
pub use oracle::OracleMrt;
pub use single_reactive::SingleBeamReactive;
pub use strategy::{BeamStrategy, MmReliableStrategy};
pub use widebeam::WideBeamStrategy;

use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmwave_array::codebook::{uniform_angle_deg, PAPER_SCAN_BEAMS};
use mmwave_array::steering::single_beam_into;
use mmwave_array::weights::BeamWeights;
use mmwave_phy::chanest::ProbeObservation;
use mmwave_phy::refsignal::ProbeBudget;

/// Steers a strategy's trained weights with `steer`, reusing their buffer
/// once trained (`steer` overwrites every element, so the placeholder's
/// length does not matter).
pub(crate) fn steer_weights(
    weights: &mut Option<BeamWeights>,
    steer: impl FnOnce(&mut BeamWeights),
) {
    steer(weights.get_or_insert_with(|| BeamWeights::muted(1)))
}

/// Fast beam training (Hassanieh et al. '18 style): probes
/// [`ProbeBudget::nr_fast_scan_probes`] beams spread evenly over the paper's
/// 64-beam codebook, steering each into `beam` and probing into `obs`.
/// When the strongest response carries power, steers `weights` at it and
/// returns its angle.
pub(crate) fn fast_scan(
    fe: &mut dyn LinkFrontEnd,
    beam: &mut BeamWeights,
    obs: &mut ProbeObservation,
    weights: &mut Option<BeamWeights>,
) -> Option<f64> {
    let geom = *fe.geometry();
    let n_beams = PAPER_SCAN_BEAMS;
    let n_probes = ProbeBudget::nr_fast_scan_probes(geom.num_elements()).clamp(1, n_beams);
    let mut best: Option<(f64, f64)> = None; // (power, angle)
    for k in 0..n_probes {
        let i = if n_probes == 1 {
            0
        } else {
            k * (n_beams - 1) / (n_probes - 1)
        };
        let angle = uniform_angle_deg(n_beams, i);
        single_beam_into(&geom, angle, beam);
        fe.probe_kind_into(beam, ProbeKind::Ssb, obs);
        let p = obs.mean_power_mw();
        if best.is_none_or(|(bp, _)| p > bp) {
            best = Some((p, angle));
        }
    }
    let (_, angle) = best.filter(|&(p, _)| p > 0.0)?;
    steer_weights(weights, |w| single_beam_into(&geom, angle, w));
    Some(angle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmreliable::frontend::SnapshotFrontEnd;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    #[test]
    fn untrained_weights_fit_the_scanned_array() {
        // A pathless, noiseless channel: every scan probe sees zero power,
        // so every strategy stays untrained, and its muted weights must
        // still fit the eight-element array the data plane radiates them
        // on.
        let strategies: [Box<dyn BeamStrategy>; 4] = [
            Box::new(SingleBeamReactive::new(Default::default())),
            Box::new(NrPeriodic::new(Default::default())),
            Box::new(BeamSpy::new(Default::default())),
            Box::new(WideBeamStrategy::new(Default::default())),
        ];
        for mut s in strategies {
            let mut sounder = ChannelSounder::paper_indoor();
            sounder.noise_boost = 0.0;
            let mut fe = SnapshotFrontEnd::new(
                GeometricChannel::new(Vec::new(), FC_28GHZ),
                sounder,
                ArrayGeometry::ula(8),
                UeReceiver::Omni,
                Rng64::seed(1),
            );
            s.on_tick(&mut fe, 0.0);
            let owned = s.weights();
            let mut into = BeamWeights::muted(64);
            s.weights_into(&mut into);
            for w in [&owned, &into] {
                assert_eq!(w.len(), 8, "{}", s.name());
                assert_eq!(w.norm(), 0.0, "{}", s.name());
            }
        }
    }
}
