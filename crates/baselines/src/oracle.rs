//! Genie channel-dependent beamforming baseline.
//!
//! The oracle knows the per-element channel at every instant (as if every
//! antenna had its own RF chain and infinite sounding bandwidth). In a
//! narrowband channel the optimum is MRT, `w = h*/‖h‖` (paper Eq. 4); over
//! a wide band with multipath delay spread, the best *fixed* analog weights
//! are the principal eigenvector of the band covariance — which this
//! baseline computes. It upper-bounds every realizable fixed-weight scheme
//! and is the "oracle" of Fig. 15d. A quantized variant shows how much the
//! 6-bit hardware costs.

use crate::strategy::BeamStrategy;
use mmreliable::frontend::LinkFrontEnd;
use mmwave_array::quantize::Quantizer;
use mmwave_array::weights::BeamWeights;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_hotpath::hot_path;

/// Oracle MRT beamformer.
pub struct OracleMrt {
    /// Optional hardware quantizer applied to the genie weights.
    pub quantizer: Quantizer,
    geom: mmwave_array::geometry::ArrayGeometry,
    rx: UeReceiver,
    weights: Option<BeamWeights>,
}

impl OracleMrt {
    /// Ideal (unquantized) oracle.
    pub fn ideal(geom: mmwave_array::geometry::ArrayGeometry, rx: UeReceiver) -> Self {
        Self {
            quantizer: Quantizer::ideal(),
            geom,
            rx,
            weights: None,
        }
    }
}

impl BeamStrategy for OracleMrt {
    fn name(&self) -> &'static str {
        "oracle MRT"
    }

    fn on_tick(&mut self, _fe: &mut dyn LinkFrontEnd, _t_s: f64) {
        // The genie needs no probes.
    }

    // xtask-allow(hot-path-closure): the trait's owned-weights accessor clones by contract; the per-slot loop calls weights_into, which copies into a reused buffer
    fn weights(&self) -> BeamWeights {
        match &self.weights {
            Some(w) => w.clone(),
            None => BeamWeights::muted(self.geom.num_elements()),
        }
    }

    #[hot_path]
    fn weights_into(&self, out: &mut BeamWeights) {
        match &self.weights {
            Some(w) => out.copy_from(w),
            None => out.set_muted(self.geom.num_elements()),
        }
    }

    // xtask-allow(hot-path-closure): the genie recomputes its comb and ideal weights only on channel updates, not per slot
    fn observe_truth(&mut self, ch: &GeometricChannel) {
        if ch.paths.is_empty() {
            self.weights = None;
            return;
        }
        // Band-covariance oracle over a coarse comb across 400 MHz.
        let freqs: Vec<f64> = (0..17).map(|i| -190e6 + 23.75e6 * i as f64).collect();
        let mut w = ch.wideband_oracle_weights(&self.geom, &self.rx, &freqs);
        self.quantizer.quantize_in_place(&mut w);
        self.weights = Some(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_channel::path::{Path, PathKind};
    use mmwave_dsp::complex::{c64, Complex64};
    use mmwave_dsp::units::FC_28GHZ;

    fn two_path() -> GeometricChannel {
        GeometricChannel::new(
            vec![
                Path::new(0.0, 0.0, c64(1.0, 0.0), 23.0, PathKind::Los),
                Path::new(
                    30.0,
                    0.0,
                    Complex64::from_polar(0.6, 1.0),
                    28.0,
                    PathKind::Reflected { wall: 0 },
                ),
            ],
            FC_28GHZ,
        )
    }

    #[test]
    fn oracle_attains_mrt_bound_narrowband() {
        // Equal path delays → the channel is frequency-flat and the
        // eigen-oracle reduces to MRT exactly.
        let geom = ArrayGeometry::ula(16);
        let mut ch = two_path();
        ch.paths[1].tof_ns = ch.paths[0].tof_ns;
        let mut o = OracleMrt::ideal(geom, UeReceiver::Omni);
        o.observe_truth(&ch);
        let p = ch.received_power(&geom, &o.weights(), &UeReceiver::Omni);
        let bound = ch.optimal_power(&geom, &UeReceiver::Omni);
        assert!((p - bound).abs() < 1e-6 * bound, "{p} vs {bound}");
    }

    #[test]
    fn wideband_oracle_beats_center_mrt_on_band_average() {
        // With 5 ns delay spread, the fixed-weight optimum is the band
        // covariance's eigenvector, not band-center MRT.
        let geom = ArrayGeometry::ula(16);
        let ch = two_path();
        let freqs: Vec<f64> = (0..33).map(|i| -190e6 + 11.875e6 * i as f64).collect();
        let avg = |w: &BeamWeights| -> f64 {
            let csi = ch.csi(&geom, w, &UeReceiver::Omni, &freqs);
            csi.iter().map(|v| v.norm_sqr()).sum::<f64>() / csi.len() as f64
        };
        let eig = ch.wideband_oracle_weights(&geom, &UeReceiver::Omni, &freqs);
        let mrt = ch.optimal_weights(&geom, &UeReceiver::Omni);
        assert!(
            avg(&eig) >= avg(&mrt) * (1.0 - 1e-9),
            "{} vs {}",
            avg(&eig),
            avg(&mrt)
        );
        // And beats the single beam on the strongest path.
        let single = mmwave_array::steering::single_beam(&geom, 0.0);
        assert!(avg(&eig) >= avg(&single) * (1.0 - 1e-9));
    }

    #[test]
    fn empty_channel_mutes() {
        let geom = ArrayGeometry::ula(8);
        let mut o = OracleMrt::ideal(geom, UeReceiver::Omni);
        o.observe_truth(&GeometricChannel::new(Vec::new(), FC_28GHZ));
        assert_eq!(o.weights().norm(), 0.0);
    }
}
