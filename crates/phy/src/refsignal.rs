//! Reference-signal scheduling and probing-overhead accounting.
//!
//! Two NR reference signals matter to beam management (§5.2, Fig. 2):
//!
//! - **SSB** (Synchronization Signal Block): the beam-training probe. A
//!   full sweep probes one beam per SSB; an SSB occupies 4 slots (0.5 ms)
//!   in our accounting (matching §6.2) and bursts repeat every 20 ms by
//!   default.
//! - **CSI-RS**: the maintenance probe. One CSI-RS occupies one slot
//!   (0.125 ms at 120 kHz SCS) and can be scheduled every 0.5–80 ms.
//!
//! [`ProbeBudget`] reproduces the paper's Fig. 18d overhead comparison:
//! a vanilla-NR re-scan needs probes proportional to (at best, with
//! logarithmic search) `log₂ N` SSBs, while mmReliable's maintenance needs
//! `2(K−1)+1` CSI-RS probes regardless of array size.

use crate::numerology::Numerology;

/// SSB (beam-training) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsbConfig {
    /// Burst periodicity, seconds (NR default 20 ms).
    pub period_s: f64,
    /// Slots consumed per SSB probe (paper accounting: 4 slots = 0.5 ms).
    pub slots_per_ssb: usize,
}

impl Default for SsbConfig {
    fn default() -> Self {
        Self {
            period_s: 20e-3,
            slots_per_ssb: 4,
        }
    }
}

/// CSI-RS (beam-maintenance) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CsiRsConfig {
    /// Probe periodicity, seconds (0.5 ms – 80 ms allowed by NR).
    pub period_s: f64,
    /// Slots consumed per probe (one CSI-RS = 1 slot, §6.2).
    pub slots_per_probe: usize,
}

impl Default for CsiRsConfig {
    fn default() -> Self {
        Self {
            period_s: 20e-3,
            slots_per_probe: 1,
        }
    }
}

impl CsiRsConfig {
    /// Validates the periodicity against NR's allowed range.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.5e-3..=80e-3).contains(&self.period_s) {
            return Err(format!(
                "CSI-RS period {} ms outside NR's 0.5–80 ms",
                self.period_s * 1e3
            ));
        }
        Ok(())
    }
}

/// Probing-overhead accounting for one beam-management scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeBudget {
    /// Numerology (slot duration).
    pub numerology: Numerology,
}

impl ProbeBudget {
    /// Creates a budget at the paper's numerology.
    pub fn paper() -> Self {
        Self {
            numerology: Numerology::paper_mu3(),
        }
    }

    /// Slot duration, seconds.
    fn slot_s(&self) -> f64 {
        self.numerology.slot_duration_s()
    }

    /// Airtime of a full exhaustive SSB sweep over `n_beams` directions.
    pub fn exhaustive_scan_s(&self, n_beams: usize, ssb: &SsbConfig) -> f64 {
        n_beams as f64 * ssb.slots_per_ssb as f64 * self.slot_s()
    }

    /// Airtime of the best-known fast training (probes ∝ `2·log₂ N`,
    /// Hassanieh et al.) for an `n_antennas` base station — the
    /// "vanilla 5G NR" bar of Fig. 18d.
    pub fn nr_fast_scan_s(&self, n_antennas: usize, ssb: &SsbConfig) -> f64 {
        assert!(n_antennas >= 2, "need at least 2 antennas");
        Self::nr_fast_scan_probes(n_antennas) as f64 * ssb.slots_per_ssb as f64 * self.slot_s()
    }

    /// Number of SSB probes of the fast training for an `n_antennas` base
    /// station: `2·⌈log₂ N⌉`.
    pub fn nr_fast_scan_probes(n_antennas: usize) -> usize {
        (2.0 * (n_antennas as f64).log2().ceil()) as usize
    }

    /// Number of CSI-RS probes one mmReliable maintenance round needs for a
    /// `k`-beam multi-beam: `2(K−1)` for (δ, σ) re-estimation plus one for
    /// motion-direction disambiguation (§4.2, §6.2).
    pub fn mmreliable_probes(k_beams: usize) -> usize {
        assert!(k_beams >= 1);
        if k_beams == 1 {
            1
        } else {
            2 * (k_beams - 1) + 1
        }
    }

    /// Airtime of one mmReliable maintenance round for `k` beams —
    /// independent of array size (the mmReliable bars of Fig. 18d).
    pub fn mmreliable_maintenance_s(&self, k_beams: usize, csi_rs: &CsiRsConfig) -> f64 {
        Self::mmreliable_probes(k_beams) as f64 * csi_rs.slots_per_probe as f64 * self.slot_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig18d_nr_numbers() {
        // "The 5G NR probing overhead for eight antennas base station is
        //  3 ms, which increases to 6 ms for 64 antennas."
        let b = ProbeBudget::paper();
        let ssb = SsbConfig::default();
        assert_eq!(ProbeBudget::nr_fast_scan_probes(8), 6);
        assert_eq!(ProbeBudget::nr_fast_scan_probes(64), 12);
        assert!((b.nr_fast_scan_s(8, &ssb) - 3e-3).abs() < 1e-9);
        assert!((b.nr_fast_scan_s(64, &ssb) - 6e-3).abs() < 1e-9);
    }

    #[test]
    fn paper_fig18d_mmreliable_numbers() {
        // "the overhead of mmReliable remains as low as 0.4 ms for 2-beam &
        //  0.6 ms for 3-beam cases independent of the number of antennas"
        // (3 probes ×0.125 ms = 0.375 ms; 5 ×0.125 = 0.625 ms — the paper
        //  rounds to 0.4/0.6).
        let b = ProbeBudget::paper();
        let csi = CsiRsConfig::default();
        assert_eq!(ProbeBudget::mmreliable_probes(2), 3);
        assert_eq!(ProbeBudget::mmreliable_probes(3), 5);
        assert!((b.mmreliable_maintenance_s(2, &csi) - 0.375e-3).abs() < 1e-9);
        assert!((b.mmreliable_maintenance_s(3, &csi) - 0.625e-3).abs() < 1e-9);
    }

    #[test]
    fn mmreliable_overhead_flat_in_antennas() {
        // The whole point of Fig. 18d: NR grows with N, mmReliable doesn't.
        let b = ProbeBudget::paper();
        let ssb = SsbConfig::default();
        let csi = CsiRsConfig::default();
        assert!(b.nr_fast_scan_s(64, &ssb) > b.nr_fast_scan_s(8, &ssb));
        let m8 = b.mmreliable_maintenance_s(2, &csi);
        let m64 = b.mmreliable_maintenance_s(2, &csi);
        assert_eq!(m8, m64);
        assert!(m64 < b.nr_fast_scan_s(8, &ssb));
    }

    #[test]
    fn exhaustive_scan_cost() {
        // §2.2: "a beam-training phase could take up to 5 ms to probe 64
        //  beam directions" — 64 SSBs at 4 slots each would be 32 ms; the
        //  5 ms figure assumes time-multiplexed SSBs within bursts. Check
        //  the per-beam slot math instead: 10 beams = 5 ms at 4 slots.
        let b = ProbeBudget::paper();
        let ssb = SsbConfig::default();
        assert!((b.exhaustive_scan_s(10, &ssb) - 5e-3).abs() < 1e-9);
    }

    #[test]
    fn csi_rs_overhead_is_tiny() {
        // §5.2: one CSI-RS every 20 ms ⇒ < 0.7% airtime even counting the
        // full slot (the paper's 0.04% counts only the symbol).
        let b = ProbeBudget::paper();
        let csi = CsiRsConfig::default();
        let frac = csi.slots_per_probe as f64 * b.numerology.slot_duration_s() / csi.period_s;
        assert!(frac < 0.007, "CSI-RS overhead {frac}");
    }

    #[test]
    fn csi_rs_period_validation() {
        assert!(CsiRsConfig {
            period_s: 20e-3,
            slots_per_probe: 1
        }
        .validate()
        .is_ok());
        assert!(CsiRsConfig {
            period_s: 0.1e-3,
            slots_per_probe: 1
        }
        .validate()
        .is_err());
        assert!(CsiRsConfig {
            period_s: 100e-3,
            slots_per_probe: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn single_beam_maintenance_needs_one_probe() {
        assert_eq!(ProbeBudget::mmreliable_probes(1), 1);
    }
}
