//! Hardware weight quantization.
//!
//! Real phased arrays cannot apply arbitrary complex weights. The paper's
//! array offers 6-bit phase shifters and 27 dB of stepped gain control per
//! element (§5.1); commercial 802.11ad hardware gets by with 2-bit phase and
//! on/off amplitude. Every weight vector the controller produces passes
//! through a [`Quantizer`] before it reaches the (simulated) air, exactly as
//! on the testbed — Fig. 13d of the paper compares ideal vs quantized
//! multi-beam patterns, which `bench/figures fig13d` regenerates.

use crate::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::units::{amp_from_db, db_from_amp};
use std::f64::consts::PI;

/// Amplitude control model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AmplitudeControl {
    /// Ideal continuous amplitude (no quantization).
    Continuous,
    /// Stepped attenuator: amplitudes are expressed in dB relative to the
    /// strongest element, rounded to `step_db`, and elements more than
    /// `range_db` below the maximum are muted.
    SteppedDb {
        /// Attenuator step size in dB.
        step_db: f64,
        /// Total attenuation range in dB below the per-vector maximum.
        range_db: f64,
    },
    /// 1-bit amplitude: element fully on (if within `threshold_db` of the
    /// maximum) or off.
    OnOff {
        /// Elements weaker than this many dB below the max are switched off.
        threshold_db: f64,
    },
}

/// Phase + amplitude quantizer for beamforming weights.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantizer {
    /// Phase shifter resolution in bits (`2^bits` levels over 2π);
    /// `None` = ideal continuous phase.
    pub phase_bits: Option<u8>,
    /// Amplitude control model.
    pub amplitude: AmplitudeControl,
}

impl Quantizer {
    /// Ideal pass-through quantizer.
    pub fn ideal() -> Self {
        Self {
            phase_bits: None,
            amplitude: AmplitudeControl::Continuous,
        }
    }

    /// The paper's in-house array: 6-bit phase, 27 dB gain range
    /// (we model the attenuator step as 0.5 dB, typical of such parts).
    pub fn paper_array() -> Self {
        Self {
            phase_bits: Some(6),
            amplitude: AmplitudeControl::SteppedDb {
                step_db: 0.5,
                range_db: 27.0,
            },
        }
    }

    /// Commercial 802.11ad-class hardware: 2-bit phase, on/off amplitude
    /// (§5.1 cites this as the minimum needed for coherent multi-beams).
    pub fn commercial_80211ad() -> Self {
        Self {
            phase_bits: Some(2),
            amplitude: AmplitudeControl::OnOff { threshold_db: 20.0 },
        }
    }

    /// Quantizes a weight vector; the owned form of
    /// [`Quantizer::quantize_in_place`].
    pub fn quantize(&self, w: &BeamWeights) -> BeamWeights {
        let mut out = w.clone();
        self.quantize_in_place(&mut out);
        out
    }

    /// Quantizes a weight vector in place. The result is renormalized to
    /// the input's norm so quantization never changes radiated power, only
    /// its shape.
    pub fn quantize_in_place(&self, w: &mut BeamWeights) {
        let input_norm = w.norm();
        if input_norm == 0.0 {
            return;
        }
        let max_amp = w.as_slice().iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        let out = w.as_mut_slice();
        for v in out.iter_mut() {
            let amp = self.quantize_amplitude(v.abs(), max_amp);
            *v = if amp == 0.0 {
                Complex64::ZERO
            } else {
                Complex64::from_polar(amp, self.quantize_phase(v.arg()))
            };
        }
        // Restore the original TRP.
        let out_norm = mmwave_dsp::complex::norm(out);
        if out_norm > 0.0 {
            let k = input_norm / out_norm;
            for v in out.iter_mut() {
                *v = v.scale(k);
            }
        }
    }

    /// Quantizes a single phase (radians) to the phase-shifter grid.
    pub fn quantize_phase(&self, phase: f64) -> f64 {
        match self.phase_bits {
            None => phase,
            Some(bits) => {
                let levels = (1u64 << bits) as f64;
                let step = 2.0 * PI / levels;
                (phase / step).round() * step
            }
        }
    }

    fn quantize_amplitude(&self, amp: f64, max_amp: f64) -> f64 {
        if amp == 0.0 || max_amp == 0.0 {
            return 0.0;
        }
        match self.amplitude {
            AmplitudeControl::Continuous => amp,
            AmplitudeControl::SteppedDb { step_db, range_db } => {
                let rel_db = db_from_amp(amp / max_amp);
                if rel_db < -range_db {
                    return 0.0;
                }
                let q_db = (rel_db / step_db).round() * step_db;
                max_amp * amp_from_db(q_db)
            }
            AmplitudeControl::OnOff { threshold_db } => {
                let rel_db = db_from_amp(amp / max_amp);
                if rel_db < -threshold_db {
                    0.0
                } else {
                    max_amp
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ArrayGeometry;
    use crate::steering::single_beam;
    use mmwave_dsp::complex::c64;

    #[test]
    fn ideal_is_identity() {
        let w = single_beam(&ArrayGeometry::ula(8), 17.0);
        let q = Quantizer::ideal().quantize(&w);
        for (a, b) in q.as_slice().iter().zip(w.as_slice()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn quantization_preserves_trp() {
        let w = single_beam(&ArrayGeometry::ula(16), -33.0);
        for q in [Quantizer::paper_array(), Quantizer::commercial_80211ad()] {
            let out = q.quantize(&w);
            assert!((out.norm() - w.norm()).abs() < 1e-12, "{q:?}");
        }
    }

    #[test]
    fn phase_snaps_to_grid() {
        let q = Quantizer::paper_array();
        let step = 2.0 * PI / 64.0;
        let phase = q.quantize_phase(0.3);
        assert!((phase / step - (phase / step).round()).abs() < 1e-9);
        assert!((phase - 0.3).abs() <= step / 2.0 + 1e-12);
    }

    #[test]
    fn six_bit_phase_error_bounded() {
        let q = Quantizer::paper_array();
        for k in 0..100 {
            let phase = k as f64 * 0.0637 - PI;
            let err = (q.quantize_phase(phase) - phase).abs();
            assert!(err <= PI / 64.0 + 1e-12);
        }
    }

    #[test]
    fn stepped_amplitude_mutes_below_range() {
        let q = Quantizer::paper_array();
        // one strong element, one 40 dB down (past the 27 dB range)
        let w = BeamWeights::from_vec(vec![c64(1.0, 0.0), c64(0.01, 0.0)]);
        let out = q.quantize(&w);
        assert_eq!(out.as_slice()[1], Complex64::ZERO);
        assert!(out.as_slice()[0].abs() > 0.0);
    }

    #[test]
    fn on_off_flattens_amplitudes() {
        let q = Quantizer::commercial_80211ad();
        let w = BeamWeights::from_vec(vec![c64(1.0, 0.0), c64(0.5, 0.0), c64(0.001, 0.0)]);
        let out = q.quantize(&w);
        // first two elements equal magnitude, third muted
        assert!((out.as_slice()[0].abs() - out.as_slice()[1].abs()).abs() < 1e-12);
        assert_eq!(out.as_slice()[2], Complex64::ZERO);
    }

    #[test]
    fn paper_array_beam_degradation_is_small() {
        // 6-bit phase quantization should cost well under 0.5 dB of gain.
        let g = ArrayGeometry::ula(8);
        let w = single_beam(&g, 24.0);
        let q = Quantizer::paper_array().quantize(&w);
        let a = crate::steering::steering_vector(&g, 24.0);
        let ideal = w.apply(&a).abs();
        let quant = q.apply(&a).abs();
        let loss_db = 20.0 * (ideal / quant).log10();
        assert!(loss_db < 0.5, "quantization loss {loss_db} dB");
    }

    #[test]
    fn two_bit_phase_still_forms_a_beam() {
        // Even 2-bit phase keeps most of the array gain (the paper argues
        // coherent multi-beams are feasible on commercial hardware).
        let g = ArrayGeometry::ula(8);
        let w = single_beam(&g, 10.0);
        let q = Quantizer::commercial_80211ad().quantize(&w);
        let a = crate::steering::steering_vector(&g, 10.0);
        let ideal = w.apply(&a).abs();
        let quant = q.apply(&a).abs();
        assert!(
            quant > 0.7 * ideal,
            "2-bit beam too weak: {quant} vs {ideal}"
        );
    }

    #[test]
    fn muted_vector_passes_through() {
        let w = BeamWeights::muted(4);
        let out = Quantizer::paper_array().quantize(&w);
        assert_eq!(out.norm(), 0.0);
    }
}
