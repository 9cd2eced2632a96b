//! dB/linear conversions and RF constants.
//!
//! Conventions used throughout the workspace:
//!
//! - *Power* quantities convert with `10·log10` ([`db_from_pow`] /
//!   [`pow_from_db`]).
//! - *Amplitude* quantities convert with `20·log10` ([`db_from_amp`] /
//!   [`amp_from_db`]).
//! - Angles at module boundaries are **degrees** (matching the paper's
//!   figures); internal trigonometry converts to radians explicitly.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Standard noise reference temperature, K.
pub const T0_KELVIN: f64 = 290.0;

/// Carrier frequency of the paper's testbed, Hz (28 GHz, 5G NR FR2).
pub const FC_28GHZ: f64 = 28.0e9;

/// Carrier frequency of the 60 GHz comparison band (IEEE 802.11ad).
pub const FC_60GHZ: f64 = 60.0e9;

/// Converts a linear power ratio to dB.
#[inline]
pub fn db_from_pow(p: f64) -> f64 {
    10.0 * p.log10()
}

/// Converts dB to a linear power ratio.
#[inline]
pub fn pow_from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear amplitude ratio to dB.
#[inline]
pub fn db_from_amp(a: f64) -> f64 {
    20.0 * a.log10()
}

/// Converts dB to a linear amplitude ratio.
#[inline]
pub fn amp_from_db(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Converts dBm to milliwatts.
#[inline]
pub fn mw_from_dbm(dbm: f64) -> f64 {
    pow_from_db(dbm)
}

/// Wavelength (m) at carrier frequency `fc_hz`.
#[inline]
pub fn wavelength(fc_hz: f64) -> f64 {
    SPEED_OF_LIGHT / fc_hz
}

/// Degrees → radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg.to_radians()
}

/// Radians → degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad.to_degrees()
}

/// Wraps an angle in degrees to `(-180, 180]`.
pub fn wrap_deg(mut deg: f64) -> f64 {
    while deg > 180.0 {
        deg -= 360.0;
    }
    while deg <= -180.0 {
        deg += 360.0;
    }
    deg
}

/// Wraps an angle in radians to `(-π, π]`.
pub fn wrap_rad(rad: f64) -> f64 {
    deg_to_rad(wrap_deg(rad_to_deg(rad)))
}

/// Free-space path loss in dB at distance `d_m` (meters) and carrier
/// `fc_hz` (Hz): `20·log10(4πd/λ)`.
pub fn fspl_db(d_m: f64, fc_hz: f64) -> f64 {
    let lambda = wavelength(fc_hz);
    db_from_amp(4.0 * std::f64::consts::PI * d_m / lambda)
}

/// Thermal noise power in dBm over bandwidth `bw_hz` with noise figure
/// `nf_db`: `10·log10(kT·BW·1000) + NF`.
pub fn thermal_noise_dbm(bw_hz: f64, nf_db: f64) -> f64 {
    db_from_pow(BOLTZMANN * T0_KELVIN * bw_hz * 1_000.0) + nf_db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn db_power_round_trip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 27.0] {
            assert!(close(db_from_pow(pow_from_db(db)), db, 1e-12));
        }
    }

    #[test]
    fn db_amplitude_round_trip() {
        for db in [-20.0, -6.0, 0.0, 6.0] {
            assert!(close(db_from_amp(amp_from_db(db)), db, 1e-12));
        }
    }

    #[test]
    fn three_db_is_half_power() {
        assert!(close(pow_from_db(-3.0103), 0.5, 1e-4));
    }

    #[test]
    fn six_db_is_half_amplitude() {
        assert!(close(amp_from_db(-6.0206), 0.5, 1e-4));
    }

    #[test]
    fn wavelength_at_28ghz() {
        // λ at 28 GHz ≈ 10.7 mm
        assert!(close(wavelength(FC_28GHZ), 0.010707, 1e-5));
    }

    #[test]
    fn fspl_matches_textbook() {
        // FSPL(100 m, 28 GHz) ≈ 101.4 dB
        assert!(close(fspl_db(100.0, FC_28GHZ), 101.4, 0.1));
        // FSPL grows 6 dB per distance doubling
        let d1 = fspl_db(10.0, FC_28GHZ);
        let d2 = fspl_db(20.0, FC_28GHZ);
        assert!(close(d2 - d1, 6.0206, 1e-3));
    }

    #[test]
    fn sixty_ghz_fspl_exceeds_28ghz() {
        // 60/28 GHz → 20·log10(60/28) ≈ 6.6 dB extra path loss
        let diff = fspl_db(10.0, FC_60GHZ) - fspl_db(10.0, FC_28GHZ);
        assert!(close(diff, 6.62, 0.05));
    }

    #[test]
    fn thermal_noise_reference_values() {
        // kTB for 1 Hz = -174 dBm
        assert!(close(thermal_noise_dbm(1.0, 0.0), -173.98, 0.05));
        // 400 MHz with 0 dB NF ≈ -88 dBm
        assert!(close(thermal_noise_dbm(400e6, 0.0), -87.96, 0.05));
    }

    #[test]
    fn wrap_degrees() {
        assert!(close(wrap_deg(190.0), -170.0, 1e-12));
        assert!(close(wrap_deg(-190.0), 170.0, 1e-12));
        assert!(close(wrap_deg(360.0), 0.0, 1e-12));
        assert!(close(wrap_deg(180.0), 180.0, 1e-12));
    }
}
