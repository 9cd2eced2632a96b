//! Property-based tests for the PHY layer.

use mmwave_dsp::rng::Rng64;
use mmwave_phy::grid::ResourceGrid;
use mmwave_phy::mcs::{shannon_se_db, McsTable};
use mmwave_phy::modulation::Modulation;
use mmwave_phy::numerology::Numerology;
use mmwave_phy::ofdm::{apply_fir_channel, OfdmModem};
use mmwave_phy::refsignal::ProbeBudget;
use proptest::prelude::*;

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
        Just(Modulation::Qam256),
    ]
}

proptest! {
    #[test]
    fn qam_round_trip_random_bits(m in any_modulation(), seed in 0u64..1000) {
        let mut rng = Rng64::seed(seed);
        let n_bits = m.bits_per_symbol() * 32;
        let bits: Vec<u8> = (0..n_bits).map(|_| rng.chance(0.5) as u8).collect();
        let syms = m.map_stream(&bits);
        prop_assert_eq!(m.demap_stream(&syms), bits);
    }

    #[test]
    fn qam_symbols_bounded_energy(m in any_modulation(), seed in 0u64..100) {
        let mut rng = Rng64::seed(seed);
        let bits: Vec<u8> = (0..m.bits_per_symbol() * 16).map(|_| rng.chance(0.5) as u8).collect();
        for s in m.map_stream(&bits) {
            // Peak-to-average symbol energy of square QAM is
            // 3(√M−1)/(√M+1) < 3 (corner points of 256-QAM reach ≈2.65).
            prop_assert!(s.norm_sqr() < 3.0);
        }
    }

    #[test]
    fn mcs_se_monotone_and_subshannon(snr1 in -10.0..40.0f64, snr2 in -10.0..40.0f64) {
        let t = McsTable::nr_table();
        let (lo, hi) = if snr1 < snr2 { (snr1, snr2) } else { (snr2, snr1) };
        prop_assert!(t.spectral_efficiency(lo) <= t.spectral_efficiency(hi));
        let se = t.spectral_efficiency(hi);
        if se > 0.0 {
            prop_assert!(se <= shannon_se_db(hi));
        }
    }

    #[test]
    fn grid_frequencies_centered_and_ordered(n_rb in 2usize..300) {
        let g = ResourceGrid { numerology: Numerology::paper_mu3(), n_subcarriers: n_rb * 12 };
        let f: Vec<f64> = (0..g.n_subcarriers).map(|k| g.subcarrier_freq_hz(k)).collect();
        prop_assert!((f[0] + f[f.len() - 1]).abs() < 1e-3);
        for w in f.windows(2) {
            prop_assert!((w[1] - w[0] - 120e3).abs() < 1e-6);
        }
    }

    #[test]
    fn ofdm_loopback_error_free_within_cp(seed in 0u64..50, delay in 0usize..20) {
        let grid = ResourceGrid { numerology: Numerology::paper_mu3(), n_subcarriers: 120 };
        let modem = OfdmModem::new(grid);
        prop_assume!(delay < modem.cp_len());
        let mut rng = Rng64::seed(seed);
        let m = Modulation::Qpsk;
        let bits: Vec<u8> = (0..grid.n_subcarriers * 2).map(|_| rng.chance(0.5) as u8).collect();
        let syms = m.map_stream(&bits);
        let frame = modem.modulate(&syms, 1);
        let mut taps = vec![mmwave_dsp::complex::Complex64::ZERO; delay + 1];
        taps[delay] = mmwave_dsp::complex::Complex64::ONE;
        let rx = apply_fir_channel(&frame.samples, &taps, 0.0, &mut rng);
        let rx_points = modem.demodulate(&rx, 1);
        let nfft = modem.grid.fft_size();
        let h: Vec<mmwave_dsp::complex::Complex64> = (0..grid.n_subcarriers)
            .map(|k| {
                let offset = k as i64 - (grid.n_subcarriers as i64) / 2;
                let bin = offset.rem_euclid(nfft as i64) as usize;
                mmwave_dsp::complex::Complex64::cis(
                    -2.0 * std::f64::consts::PI * (bin * delay) as f64 / nfft as f64,
                )
            })
            .collect();
        let eq = modem.equalize(&rx_points, &h);
        prop_assert_eq!(m.demap_stream(&eq), bits);
    }

    #[test]
    fn mmreliable_probe_count_linear_in_beams(k in 1usize..8) {
        let probes = ProbeBudget::mmreliable_probes(k);
        if k == 1 {
            prop_assert_eq!(probes, 1);
        } else {
            prop_assert_eq!(probes, 2 * (k - 1) + 1);
        }
        // And always far below an exhaustive 64-beam SSB scan.
        let b = ProbeBudget::paper();
        let csi = mmwave_phy::refsignal::CsiRsConfig::default();
        let ssb = mmwave_phy::refsignal::SsbConfig::default();
        prop_assert!(b.mmreliable_maintenance_s(k, &csi) < b.exhaustive_scan_s(64, &ssb));
    }
}
