//! 5G NR numerology and frame timing.
//!
//! NR scales its OFDM parameters by `μ`: subcarrier spacing `15·2^μ` kHz,
//! slot duration `1/2^μ` ms, 14 symbols per slot. The paper's testbed runs
//! FR2 numerology 3: 120 kHz SCS, 0.125 ms slots, 8.93 µs symbols (§5.2).

/// An NR numerology (μ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Numerology {
    /// The μ exponent (0–4 in NR; FR2 uses 2–3).
    pub mu: u8,
}

impl Numerology {
    /// Creates a numerology. Panics for μ > 4 (not defined by NR).
    pub fn new(mu: u8) -> Self {
        assert!(mu <= 4, "NR defines μ = 0..4");
        Self { mu }
    }

    /// The paper's numerology: μ = 3 (120 kHz SCS).
    pub fn paper_mu3() -> Self {
        Self::new(3)
    }

    /// Subcarrier spacing, Hz.
    pub fn scs_hz(&self) -> f64 {
        15_000.0 * (1u32 << self.mu) as f64
    }

    /// Slot duration, seconds (14 OFDM symbols).
    pub fn slot_duration_s(&self) -> f64 {
        1e-3 / (1u32 << self.mu) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu3_matches_paper() {
        let n = Numerology::paper_mu3();
        assert_eq!(n.scs_hz(), 120_000.0);
        assert!((n.slot_duration_s() - 0.125e-3).abs() < 1e-12);
    }

    #[test]
    fn mu0_is_lte_like() {
        let n = Numerology::new(0);
        assert_eq!(n.scs_hz(), 15_000.0);
        assert!((n.slot_duration_s() - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "0..4")]
    fn rejects_big_mu() {
        Numerology::new(7);
    }
}
