//! Modulation-and-coding (MCS) selection and throughput mapping.
//!
//! An NR link adapts its spectral efficiency to SNR. We use a CQI-style
//! table (modulation × code rate → spectral efficiency) with switching
//! thresholds placed a fixed implementation gap below Shannon capacity.
//! Below the lowest entry the link is in **outage** — the paper uses a
//! 6 dB SNR decode threshold (§6.1, Fig. 16) and we adopt the same.

use crate::modulation::Modulation;
use mmwave_dsp::units::pow_from_db;

/// One MCS table entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McsEntry {
    /// Modulation order.
    pub modulation: Modulation,
    /// Code rate (×1024, NR convention).
    pub code_rate_x1024: u32,
    /// Minimum SNR (dB) at which this entry is decodable.
    pub min_snr_db: f64,
}

impl McsEntry {
    /// Spectral efficiency, bits/s/Hz.
    pub fn spectral_efficiency(&self) -> f64 {
        self.modulation.bits_per_symbol() as f64 * self.code_rate_x1024 as f64 / 1024.0
    }
}

/// An MCS table ordered by increasing spectral efficiency.
#[derive(Clone, Debug)]
pub struct McsTable {
    entries: Vec<McsEntry>,
}

impl McsTable {
    /// A 15-level CQI-like table. The lowest decodable entry sits at the
    /// paper's 6 dB outage threshold; thresholds above follow Shannon with
    /// a ~3 dB implementation gap.
    pub fn nr_table() -> Self {
        use Modulation::*;
        let raw: [(Modulation, u32); 12] = [
            (Qpsk, 308),
            (Qpsk, 449),
            (Qpsk, 602),
            (Qam16, 378),
            (Qam16, 490),
            (Qam16, 616),
            (Qam64, 466),
            (Qam64, 567),
            (Qam64, 666),
            (Qam64, 772),
            (Qam256, 711),
            (Qam256, 797),
        ];
        // Shannon-shaped thresholds, shifted so the lowest MCS becomes
        // decodable exactly at the paper's 6 dB outage SNR. The resulting
        // implementation gap (≈6–9 dB) is realistic for FR2 hardware.
        let shannon_db = |se: f64| 10.0 * (2f64.powf(se) - 1.0).log10();
        let min_raw = shannon_db(raw[0].0.bits_per_symbol() as f64 * raw[0].1 as f64 / 1024.0);
        let shift = 6.0 - min_raw;
        let entries: Vec<McsEntry> = raw
            .iter()
            .map(|&(m, r)| {
                let se = m.bits_per_symbol() as f64 * r as f64 / 1024.0;
                McsEntry {
                    modulation: m,
                    code_rate_x1024: r,
                    min_snr_db: shannon_db(se) + shift,
                }
            })
            .collect();
        Self { entries }
    }

    /// Entries, lowest SE first.
    pub fn entries(&self) -> &[McsEntry] {
        &self.entries
    }

    /// Selects the highest decodable entry for `snr_db`; `None` = outage.
    pub fn select(&self, snr_db: f64) -> Option<&McsEntry> {
        self.entries.iter().rev().find(|e| snr_db >= e.min_snr_db)
    }

    /// Spectral efficiency achieved at `snr_db` (0 in outage), bits/s/Hz.
    pub fn spectral_efficiency(&self, snr_db: f64) -> f64 {
        self.select(snr_db)
            .map(|e| e.spectral_efficiency())
            .unwrap_or(0.0)
    }

    /// Link throughput in bits/s at `snr_db` over `bandwidth_hz`, after
    /// subtracting a fractional protocol `overhead` (0–1).
    pub fn throughput_bps(&self, snr_db: f64, bandwidth_hz: f64, overhead: f64) -> f64 {
        assert!((0.0..=1.0).contains(&overhead), "overhead is a fraction");
        self.spectral_efficiency(snr_db) * bandwidth_hz * (1.0 - overhead)
    }
}

/// Shannon-bound sanity helper: capacity in bits/s/Hz at `snr_db`.
pub fn shannon_se_db(snr_db: f64) -> f64 {
    (1.0 + pow_from_db(snr_db)).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone() {
        let t = McsTable::nr_table();
        let es = t.entries();
        for w in es.windows(2) {
            assert!(w[1].spectral_efficiency() > w[0].spectral_efficiency());
            assert!(w[1].min_snr_db > w[0].min_snr_db);
        }
    }

    #[test]
    fn outage_below_six_db() {
        let t = McsTable::nr_table();
        assert!(t.select(5.0).is_none());
        assert_eq!(t.spectral_efficiency(3.0), 0.0);
        assert!(t.select(6.0).is_some());
    }

    #[test]
    fn se_below_shannon() {
        let t = McsTable::nr_table();
        for snr_db in [6.0, 10.0, 15.0, 20.0, 27.0, 35.0] {
            let se = t.spectral_efficiency(snr_db);
            assert!(
                se < shannon_se_db(snr_db),
                "SE {se} ≥ Shannon at {snr_db} dB"
            );
            assert!(se > 0.0);
        }
    }

    #[test]
    fn higher_snr_never_lowers_se() {
        let t = McsTable::nr_table();
        let mut prev = 0.0;
        let mut snr = 0.0;
        while snr < 40.0 {
            let se = t.spectral_efficiency(snr);
            assert!(se >= prev);
            prev = se;
            snr += 0.25;
        }
    }

    #[test]
    fn paper_scale_throughput() {
        // Paper §6.1 Fig. 17c: ~600 Mbps on the 400 MHz link at healthy SNR
        // → SE ≈ 1.5 bits/s/Hz region at ~12–14 dB SNR.
        let t = McsTable::nr_table();
        let tput = t.throughput_bps(13.0, 400e6, 0.01);
        assert!(
            (0.5e9..1.5e9).contains(&tput),
            "throughput at 13 dB: {} Mbps",
            tput / 1e6
        );
    }

    #[test]
    fn top_mcs_reached_at_high_snr() {
        let t = McsTable::nr_table();
        let top = t.select(40.0).unwrap();
        assert_eq!(top.modulation, Modulation::Qam256);
        assert!(top.spectral_efficiency() > 6.0);
    }

    #[test]
    fn overhead_scales_throughput() {
        let t = McsTable::nr_table();
        let full = t.throughput_bps(20.0, 100e6, 0.0);
        let half = t.throughput_bps(20.0, 100e6, 0.5);
        assert!((half * 2.0 - full).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn overhead_must_be_fraction() {
        McsTable::nr_table().throughput_bps(20.0, 1e6, 1.5);
    }
}
