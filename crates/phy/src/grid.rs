//! OFDM resource grid: subcarrier layout and sounding decimation.
//!
//! FR2 carriers at 400 MHz use 264 resource blocks = 3168 subcarriers at
//! 120 kHz (≈380 MHz occupied). Reference signals occupy only a subset of
//! subcarriers (CSI-RS density ≤ 1 per RB), so the sounder works on a
//! decimated comb of the grid — [`ResourceGrid::sounding_freqs`].

use crate::numerology::Numerology;
use mmwave_hotpath::hot_path;

/// An OFDM carrier's frequency-domain layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceGrid {
    /// Numerology.
    pub numerology: Numerology,
    /// Number of occupied subcarriers.
    pub n_subcarriers: usize,
}

impl ResourceGrid {
    /// The paper's 400 MHz FR2 carrier: 264 RB × 12 = 3168 subcarriers.
    pub fn paper_400mhz() -> Self {
        Self {
            numerology: Numerology::paper_mu3(),
            n_subcarriers: 264 * 12,
        }
    }

    /// The outdoor 100 MHz carrier: 66 RB × 12 = 792 subcarriers.
    pub fn paper_100mhz() -> Self {
        Self {
            numerology: Numerology::paper_mu3(),
            n_subcarriers: 66 * 12,
        }
    }

    /// Occupied bandwidth, Hz.
    pub fn occupied_bw_hz(&self) -> f64 {
        self.n_subcarriers as f64 * self.numerology.scs_hz()
    }

    /// Baseband frequency offset of subcarrier `k` (0-based), Hz; the grid
    /// is centered on the carrier.
    pub fn subcarrier_freq_hz(&self, k: usize) -> f64 {
        assert!(k < self.n_subcarriers, "subcarrier index out of range");
        (k as f64 - (self.n_subcarriers as f64 - 1.0) / 2.0) * self.numerology.scs_hz()
    }

    /// Frequencies of every `decimation`-th subcarrier — the comb a
    /// reference signal actually sounds. Panics if `decimation == 0`.
    pub fn sounding_freqs(&self, decimation: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.sounding_freqs_into(decimation, &mut out);
        out
    }

    /// Write-into variant of [`ResourceGrid::sounding_freqs`]: clears `out`
    /// and fills it, reusing the allocation. The grid is immutable in a run,
    /// so hot-path callers compute the comb once and keep it.
    #[hot_path]
    pub fn sounding_freqs_into(&self, decimation: usize, out: &mut Vec<f64>) {
        assert!(decimation > 0, "decimation must be ≥ 1");
        out.clear();
        out.extend(
            (0..self.n_subcarriers)
                .step_by(decimation)
                .map(|k| self.subcarrier_freq_hz(k)),
        );
    }

    /// FFT size that would carry this grid (next power of two).
    pub fn fft_size(&self) -> usize {
        self.n_subcarriers.next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = ResourceGrid::paper_400mhz();
        assert_eq!(g.n_subcarriers, 3168);
        // ≈ 380 MHz occupied.
        assert!((g.occupied_bw_hz() - 380.16e6).abs() < 1e3);
        assert_eq!(g.fft_size(), 4096);
    }

    #[test]
    fn grid_is_centered() {
        let g = ResourceGrid::paper_100mhz();
        let lo = g.subcarrier_freq_hz(0);
        let hi = g.subcarrier_freq_hz(g.n_subcarriers - 1);
        assert!((lo + hi).abs() < 1e-6, "grid must be symmetric: {lo} {hi}");
        assert!((hi - lo - (g.n_subcarriers - 1) as f64 * 120e3).abs() < 1e-6);
    }

    #[test]
    fn sounding_comb() {
        let g = ResourceGrid::paper_400mhz();
        let comb = g.sounding_freqs(12);
        assert_eq!(comb.len(), 264);
        assert!((comb[1] - comb[0] - 12.0 * 120e3).abs() < 1e-6);
        assert_eq!(g.sounding_freqs(1).len(), 3168);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subcarrier_bounds() {
        ResourceGrid::paper_100mhz().subcarrier_freq_hz(792);
    }
}
