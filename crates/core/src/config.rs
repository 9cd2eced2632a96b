//! System configuration for the mmReliable controller.

use crate::linkstate::LifecycleConfig;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::quantize::Quantizer;

/// Tunables of the mmReliable beam-management stack. Defaults mirror the
/// paper's testbed and evaluation settings.
#[derive(Clone, Debug)]
pub struct MmReliableConfig {
    /// gNB array geometry (paper: 8×8, azimuth-only beamforming).
    pub geom: ArrayGeometry,
    /// Hardware weight quantizer (paper: 6-bit phase, 27 dB gain range).
    pub quantizer: Quantizer,
    /// Maximum constituent beams K in the multi-beam (paper: 3 is enough
    /// to reach 92% of oracle, §6.1).
    pub max_beams: usize,
    /// Paths weaker than this many dB below the strongest are not viable
    /// for a multi-beam component.
    pub viable_window_db: f64,
    /// SNR below this is an outage (paper: 6 dB decode threshold).
    pub outage_snr_db: f64,
    /// A per-beam power drop faster than this many dB per maintenance round
    /// is classified as blockage (not mobility).
    pub blockage_rate_db: f64,
    /// A blocked beam whose power recovers to within this many dB of its
    /// baseline is re-admitted.
    pub recovery_margin_db: f64,
    /// Re-probe blocked beams every this many maintenance rounds.
    pub recovery_check_rounds: usize,
    /// EWMA forgetting factor for per-beam power smoothing (§6.1).
    pub power_ewma_alpha: f64,
    /// Trigger a full re-training when the multi-beam has degraded this many
    /// dB below its established baseline with no beam individually blocked.
    pub retrain_loss_db: f64,
    /// Per-beam angular correction is capped at this many degrees per round
    /// (tracking works in "small increments", §4.2).
    pub max_step_deg: f64,
    /// Ablation: disable proactive mobility tracking (§6.1 Fig. 17c's
    /// "no tracking" curve). Blockage handling stays on.
    pub enable_tracking: bool,
    /// Ablation: disable constructive-combining optimization — beams get an
    /// equal-power, zero-phase split instead of estimated (δ, σ)
    /// (Fig. 17c's "tracking without CC" curve).
    pub enable_constructive: bool,
    /// Lifecycle state-machine knobs: degradation/outage thresholds, retry
    /// budgets, and re-training backoff.
    pub lifecycle: LifecycleConfig,
}

impl MmReliableConfig {
    /// The paper's configuration on the 8×8 testbed array.
    pub fn paper_default() -> Self {
        Self {
            geom: ArrayGeometry::paper_8x8(),
            quantizer: Quantizer::paper_array(),
            max_beams: 3,
            // Below the strongest path by more than this → not viable.
            // Must sit *below* the 8-element array's first sidelobe level
            // (−12.8 dB), or training mistakes the strongest beam's own
            // sidelobes for reflected paths in sparse scenes.
            viable_window_db: 11.0,
            outage_snr_db: 6.0,
            blockage_rate_db: 8.0,
            recovery_margin_db: 6.0,
            recovery_check_rounds: 3,
            power_ewma_alpha: 0.5,
            retrain_loss_db: 18.0,
            max_step_deg: 4.0,
            enable_tracking: true,
            enable_constructive: true,
            lifecycle: LifecycleConfig::default(),
        }
    }

    /// Ablation: tracking disabled (Fig. 17c "no tracking": the established
    /// beam is left entirely alone, so re-training is frozen too).
    pub fn without_tracking(mut self) -> Self {
        self.enable_tracking = false;
        self.retrain_loss_db = f64::INFINITY;
        self
    }

    /// Ablation: constructive combining disabled (Fig. 17c "tracking only").
    pub fn without_constructive(mut self) -> Self {
        self.enable_constructive = false;
        self
    }

    /// Validates invariants; call after hand-editing fields.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_beams == 0 {
            return Err("max_beams must be positive".into());
        }
        if !(0.0 < self.power_ewma_alpha && self.power_ewma_alpha <= 1.0) {
            return Err("power_ewma_alpha must be in (0,1]".into());
        }
        self.lifecycle.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = MmReliableConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.geom.num_elements(), 64);
        assert_eq!(c.max_beams, 3);
        assert_eq!(c.outage_snr_db, 6.0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = MmReliableConfig::paper_default();
        c.power_ewma_alpha = 0.0;
        assert!(c.validate().is_err());
    }
}
