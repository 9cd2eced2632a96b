//! Link budgets for 28 GHz and 60 GHz.
//!
//! The channel crate produces *absolute* complex path amplitudes
//! (λ/(4πd) × reflection losses), so SNR follows from transmit power, the
//! array factor (already inside the effective scalar channel), receiver
//! noise figure, and bandwidth. 60 GHz additionally suffers oxygen
//! absorption (~15 dB/km at the 60 GHz O₂ resonance), which drives the
//! paper's Appendix B finding that 28 GHz outperforms 60 GHz by ~4.7× in
//! throughput at equal bandwidth.

use mmwave_dsp::units::{FC_28GHZ, FC_60GHZ};

/// Transmit/receive budget of one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkBudget {
    /// Carrier frequency, Hz.
    pub fc_hz: f64,
    /// Conducted transmit power, dBm (TRP; the array gain comes from the
    /// beamforming weights themselves).
    pub tx_power_dbm: f64,
    /// Signal bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
}

impl LinkBudget {
    /// The paper's 28 GHz testbed: 400 MHz bandwidth. TRP chosen so a 7 m
    /// indoor single-beam link lands near the ~27 dB SNR the paper measures
    /// (Fig. 15a).
    pub fn paper_28ghz() -> Self {
        Self {
            fc_hz: FC_28GHZ,
            tx_power_dbm: 5.0,
            bandwidth_hz: 400e6,
            noise_figure_db: 5.0,
        }
    }

    /// The outdoor USRP-based setup: 100 MHz bandwidth (§5.2).
    pub fn paper_outdoor_100mhz() -> Self {
        Self {
            fc_hz: FC_28GHZ,
            tx_power_dbm: 10.0,
            bandwidth_hz: 100e6,
            noise_figure_db: 5.0,
        }
    }

    /// 60 GHz comparison system with the same bandwidth as
    /// [`LinkBudget::paper_28ghz`] (Appendix B).
    pub fn sixty_ghz_400mhz() -> Self {
        Self {
            fc_hz: FC_60GHZ,
            tx_power_dbm: 5.0,
            bandwidth_hz: 400e6,
            noise_figure_db: 5.0,
        }
    }

    /// Oxygen absorption over `dist_m` meters, dB. Significant only near
    /// the 60 GHz O₂ resonance (≈ 15 dB/km); negligible at 28 GHz
    /// (≈ 0.06 dB/km).
    pub fn atmospheric_absorption_db(&self, dist_m: f64) -> f64 {
        let db_per_km = if self.fc_hz > 55e9 && self.fc_hz < 65e9 {
            15.0
        } else {
            0.06
        };
        db_per_km * dist_m / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::units::{amp_from_db, db_from_pow, fspl_db, thermal_noise_dbm};

    #[test]
    fn noise_floor_reference() {
        let b = LinkBudget::paper_28ghz();
        // −174 + 10·log10(400e6) + 5 ≈ −83 dBm
        let noise = thermal_noise_dbm(b.bandwidth_hz, b.noise_figure_db);
        assert!((noise + 83.0).abs() < 0.2, "noise {noise}");
    }

    #[test]
    fn indoor_7m_snr_near_paper_value() {
        // Single-beam 8×8 (64-element) array on a 7 m LOS link should land
        // in the paper's ~27 dB region (Fig. 15a).
        let b = LinkBudget::paper_28ghz();
        let chan_amp = amp_from_db(-fspl_db(7.0, b.fc_hz)); // λ/(4πd)
        let array_gain = 64.0; // |AF|² of a 64-element conjugate beam
        let snr = b.tx_power_dbm + db_from_pow(chan_amp * chan_amp * array_gain)
            - b.atmospheric_absorption_db(7.0)
            - thermal_noise_dbm(b.bandwidth_hz, b.noise_figure_db);
        assert!((snr - 27.0).abs() < 4.0, "snr {snr} dB");
    }

    #[test]
    fn sixty_ghz_suffers_absorption() {
        let b60 = LinkBudget::sixty_ghz_400mhz();
        let b28 = LinkBudget::paper_28ghz();
        assert!(b60.atmospheric_absorption_db(1000.0) > 10.0);
        assert!(b28.atmospheric_absorption_db(1000.0) < 0.1);
        // Same channel gain → 60 GHz link is worse over distance.
        assert!(b60.atmospheric_absorption_db(500.0) - b28.atmospheric_absorption_db(500.0) > 5.0);
    }
}
