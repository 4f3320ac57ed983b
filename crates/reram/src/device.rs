//! The ReRAM device model: a population's parameters and the functions
//! that program and read one device.
//!
//! Section 2.2 of the paper: analog PUM stores multiple bits per device as a
//! conductance in `[g_off, g_on]`; digital PUM uses the same devices in SLC
//! mode where only the fully-on / fully-off states matter. Programming uses
//! a write–verify loop (`write_verify`) whose residual error we model,
//! following the MILO-calibrated CrossSim setup of Section 6, as a
//! multiplicative lognormal factor on the target conductance. Reads add
//! Gaussian noise ([`read_conductance`]); devices can become stuck at a
//! fixed state (§7.5). Device state itself lives in
//! [`ReramArray`](crate::array::ReramArray)'s flat slabs.

use crate::noise::NoiseRng;
use crate::{Error, Result};
use serde::{Deserialize, Serialize};

/// Physical and statistical parameters of a ReRAM device population.
///
/// # Example
///
/// ```
/// use darth_reram::device::DeviceParams;
///
/// let slc = DeviceParams::slc();
/// assert_eq!(slc.levels(), 2);
/// let mlc = DeviceParams::mlc(4).expect("4 bits per cell is supported");
/// assert_eq!(mlc.levels(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Bits stored per cell (1 for SLC digital PUM, up to 8 for analog).
    bits_per_cell: u8,
    /// Fully-on conductance in siemens (low-resistance state).
    pub g_on: f64,
    /// Fully-off conductance in siemens (high-resistance state).
    pub g_off: f64,
    /// Sigma of the lognormal multiplicative programming error.
    pub program_sigma: f64,
    /// Sigma of the additive Gaussian read noise, as a fraction of `g_on`.
    pub read_sigma: f64,
    /// Probability that a freshly fabricated cell is stuck.
    pub stuck_at_rate: f64,
    /// Write–verify tolerance as a fraction of one level spacing.
    pub verify_tolerance: f64,
    /// Maximum write–verify iterations before giving up.
    pub max_program_attempts: u32,
}

impl DeviceParams {
    /// Single-level-cell parameters used by digital PUM and by the AES
    /// MixColumns matrix (§4.3 stores the AES matrix with 1-bit cells).
    pub fn slc() -> Self {
        DeviceParams {
            bits_per_cell: 1,
            g_on: 100e-6,
            g_off: 1e-6,
            program_sigma: 0.02,
            read_sigma: 0.01,
            stuck_at_rate: 0.0,
            verify_tolerance: 0.25,
            max_program_attempts: 16,
        }
    }

    /// Multi-level-cell parameters with `bits` bits per cell.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDeviceParams`] when `bits` is zero or above 8
    /// (the paper cites 6–12 effective bits as the practical ceiling; the
    /// evaluation never exceeds 8).
    pub fn mlc(bits: u8) -> Result<Self> {
        if bits == 0 || bits > 8 {
            return Err(Error::InvalidDeviceParams(
                "bits per cell must be between 1 and 8",
            ));
        }
        Ok(DeviceParams {
            bits_per_cell: bits,
            ..DeviceParams::slc()
        })
    }

    /// Ideal (noise-free) variant, handy for functional verification.
    pub fn ideal(bits: u8) -> Result<Self> {
        let mut p = DeviceParams::mlc(bits)?;
        p.program_sigma = 0.0;
        p.read_sigma = 0.0;
        p.stuck_at_rate = 0.0;
        Ok(p)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDeviceParams`] if the conductance window is
    /// empty or any sigma is negative.
    pub fn validate(&self) -> Result<()> {
        if self.g_off >= self.g_on {
            return Err(Error::InvalidDeviceParams("g_off must be below g_on"));
        }
        if self.g_off < 0.0 {
            return Err(Error::InvalidDeviceParams("g_off must be non-negative"));
        }
        if self.program_sigma < 0.0 || self.read_sigma < 0.0 {
            return Err(Error::InvalidDeviceParams("sigmas must be non-negative"));
        }
        if self.bits_per_cell == 0 || self.bits_per_cell > 8 {
            return Err(Error::InvalidDeviceParams(
                "bits per cell must be between 1 and 8",
            ));
        }
        Ok(())
    }

    /// Bits stored per cell.
    pub fn bits_per_cell(&self) -> u8 {
        self.bits_per_cell
    }

    /// Number of distinct programmable levels (`2^bits_per_cell`).
    pub fn levels(&self) -> u16 {
        1u16 << self.bits_per_cell
    }

    /// Checks that `level` is programmable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LevelOutOfRange`] past the top level.
    pub fn check_level(&self, level: u16) -> Result<()> {
        if level >= self.levels() {
            return Err(Error::LevelOutOfRange {
                level,
                levels: self.levels(),
            });
        }
        Ok(())
    }

    /// The ideal conductance for a level.
    ///
    /// Level 0 maps to `g_off`, the top level to `g_on`, with levels spaced
    /// uniformly in conductance (the convention used by ISAAC-style
    /// accelerators and CrossSim).
    pub fn level_conductance(&self, level: u16) -> f64 {
        let top = (self.levels() - 1) as f64;
        if top == 0.0 {
            return self.g_on;
        }
        self.g_off + (self.g_on - self.g_off) * (level as f64 / top)
    }

    /// Spacing between adjacent levels in siemens.
    pub fn level_spacing(&self) -> f64 {
        (self.g_on - self.g_off) / ((self.levels() - 1) as f64).max(1.0)
    }

    /// Returns a copy with all noise sources disabled.
    pub fn without_noise(&self) -> Self {
        DeviceParams {
            program_sigma: 0.0,
            read_sigma: 0.0,
            stuck_at_rate: 0.0,
            ..self.clone()
        }
    }
}

/// A stuck-at fault (§7.5): the device no longer responds to programming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StuckAt {
    /// Stuck in the high-resistance (off) state.
    Off,
    /// Stuck in the low-resistance (on) state.
    On,
}

impl StuckAt {
    /// The level a device stuck in this state reads as.
    pub fn level(self, params: &DeviceParams) -> u16 {
        match self {
            StuckAt::Off => 0,
            StuckAt::On => params.levels() - 1,
        }
    }

    /// The conductance a device stuck in this state holds.
    pub fn conductance(self, params: &DeviceParams) -> f64 {
        match self {
            StuckAt::Off => params.g_off,
            StuckAt::On => params.g_on,
        }
    }
}

/// The conductance a device holds after a write at zero programming
/// noise: its level's ideal conductance, or the stuck endpoint. This is
/// exactly what `write_verify` realises when `program_sigma` is zero,
/// so a noise-free population needs no stored conductances.
pub(crate) fn noise_free_conductance(
    level: u16,
    stuck: Option<StuckAt>,
    params: &DeviceParams,
) -> f64 {
    match stuck {
        Some(stuck) => stuck.conductance(params),
        None => params
            .level_conductance(level)
            .clamp(params.g_off, params.g_on),
    }
}

/// Programs one device to `level` with a write–verify loop, returning the
/// realised conductance and whether the write **saturated**.
///
/// Each attempt perturbs the target conductance by a lognormal factor
/// (`program_sigma`); the loop accepts the write once the realised
/// conductance is within `verify_tolerance` of one level spacing, which
/// mirrors a verify read against the two adjacent references.
///
/// A write saturates when the lognormal draw landed outside the device
/// window `[g_off, g_on]` (or was not even finite — a huge
/// `program_sigma` can overflow `exp`) and still missed the verify
/// tolerance after clamping. The device then keeps the clamped
/// window-endpoint conductance instead of retrying forever, so a
/// pathological sigma degrades accuracy rather than propagating `inf` or
/// `NaN` into bitline sums.
///
/// Stuck devices ignore programming (that *is* the fault model); the
/// array that holds them never calls this for a stuck device.
///
/// # Errors
///
/// * [`Error::LevelOutOfRange`] if `level` exceeds the population's levels.
/// * [`Error::WriteVerifyFailed`] if the loop does not converge on an
///   in-window draw. With default parameters this is vanishingly rare;
///   it exists so callers can surface pathological parameter choices
///   instead of looping forever.
pub(crate) fn write_verify(
    level: u16,
    params: &DeviceParams,
    rng: &mut NoiseRng,
) -> Result<(f64, bool)> {
    params.check_level(level)?;
    let target = params.level_conductance(level);
    let tolerance = params.verify_tolerance * params.level_spacing();
    let mut attempts = 0;
    loop {
        attempts += 1;
        let raw = target * rng.lognormal(0.0, params.program_sigma);
        let saturated = !raw.is_finite() || raw < params.g_off || raw > params.g_on;
        let realised = if raw.is_nan() {
            // 0 × inf (level 0 with g_off == 0): fall back to the target.
            target.clamp(params.g_off, params.g_on)
        } else {
            raw.clamp(params.g_off, params.g_on)
        };
        if (realised - target).abs() <= tolerance || params.program_sigma == 0.0 {
            return Ok((realised, false));
        }
        if saturated {
            return Ok((realised, true));
        }
        if attempts >= params.max_program_attempts {
            return Err(Error::WriteVerifyFailed { level, attempts });
        }
    }
}

/// Reads a device of conductance `conductance` with additive Gaussian read
/// noise (one draw whenever `read_sigma` is live).
// Inlined across crates: a crossbar read calls this once per device.
#[inline]
pub fn read_conductance(conductance: f64, params: &DeviceParams, rng: &mut NoiseRng) -> f64 {
    let noisy = conductance + rng.gaussian(0.0, params.read_sigma * params.g_on);
    noisy.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ReramArray;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from(1234)
    }

    #[test]
    fn extreme_levels_program_to_the_window_endpoints_when_ideal() {
        // The lowest and highest conductance levels are the window edges
        // exactly under zero-variance parameters — the anchor the noise
        // model perturbs around.
        for bits in [1u8, 2, 4] {
            let p = DeviceParams::ideal(bits).expect("valid");
            let mut r = rng();
            let (g, _) = write_verify(0, &p, &mut r).expect("programs");
            assert_eq!(g.to_bits(), p.g_off.to_bits());
            let (g, _) = write_verify(p.levels() - 1, &p, &mut r).expect("programs");
            assert_eq!(g.to_bits(), p.g_on.to_bits());
            assert!(matches!(
                write_verify(p.levels(), &p, &mut r),
                Err(Error::LevelOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn noisy_programming_is_deterministic_under_a_fixed_seed() {
        let p = DeviceParams::mlc(2).expect("valid");
        let run = |seed: u64| -> Vec<u64> {
            let mut r = NoiseRng::seed_from(seed);
            (0..p.levels())
                .map(|level| {
                    write_verify(level, &p, &mut r)
                        .expect("programs")
                        .0
                        .to_bits()
                })
                .collect()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn pathological_sigma_saturates_to_the_window_instead_of_erroring() {
        // A huge lognormal sigma rails every draw far outside the device
        // window (often to literal +inf). The write must clamp to a window
        // endpoint, report saturation, and never leave a non-finite
        // conductance behind.
        let mut p = DeviceParams::mlc(4).expect("valid");
        p.program_sigma = 1e6;
        let mut r = rng();
        let mut any_saturated = false;
        for level in 0..p.levels() {
            let (g, saturated) = write_verify(level, &p, &mut r).expect("clamped write");
            any_saturated |= saturated;
            assert!(g.is_finite());
            assert!(g >= p.g_off && g <= p.g_on);
        }
        assert!(any_saturated, "sigma 1e6 must rail at least one write");
    }

    #[test]
    fn in_window_writes_never_report_saturation() {
        let p = DeviceParams::mlc(4).expect("valid");
        let mut r = rng();
        for level in 0..p.levels() {
            assert!(!write_verify(level, &p, &mut r).expect("programs").1);
        }
    }

    #[test]
    fn slc_has_two_levels() {
        let p = DeviceParams::slc();
        assert_eq!(p.levels(), 2);
        assert_eq!(p.bits_per_cell(), 1);
        p.validate().expect("slc params are valid");
    }

    #[test]
    fn mlc_rejects_bad_bit_counts() {
        assert!(DeviceParams::mlc(0).is_err());
        assert!(DeviceParams::mlc(9).is_err());
        assert!(DeviceParams::mlc(8).is_ok());
    }

    #[test]
    fn validate_rejects_inverted_window() {
        let mut p = DeviceParams::slc();
        p.g_off = p.g_on * 2.0;
        assert!(matches!(p.validate(), Err(Error::InvalidDeviceParams(_))));
    }

    #[test]
    fn level_conductance_endpoints() {
        let p = DeviceParams::mlc(2).expect("valid");
        assert!((p.level_conductance(0) - p.g_off).abs() < 1e-15);
        assert!((p.level_conductance(3) - p.g_on).abs() < 1e-15);
        let mid = p.level_conductance(1);
        assert!(mid > p.g_off && mid < p.g_on);
    }

    #[test]
    fn program_and_read_back_level() {
        let p = DeviceParams::mlc(4).expect("valid");
        let mut rng = rng();
        let mut array = ReramArray::new(1, 1, p.clone()).expect("valid");
        for level in 0..p.levels() {
            assert_eq!(array.program_level(0, 0, level, &mut rng), Ok(level));
            assert_eq!(array.levels(), &[level]);
            let g = array.col_conductances(0).next().expect("one row");
            // within one full level spacing of the target
            assert!((g - p.level_conductance(level)).abs() <= p.level_spacing());
        }
    }

    #[test]
    fn program_rejects_out_of_range_level() {
        let p = DeviceParams::slc();
        let err = write_verify(2, &p, &mut rng()).unwrap_err();
        assert!(matches!(err, Error::LevelOutOfRange { level: 2, .. }));
    }

    #[test]
    fn ideal_params_program_exactly() {
        let p = DeviceParams::ideal(3).expect("valid");
        let (g, _) = write_verify(5, &p, &mut rng()).expect("programs");
        assert!((g - p.level_conductance(5)).abs() < 1e-18);
        assert_eq!(g.to_bits(), noise_free_conductance(5, None, &p).to_bits());
    }

    #[test]
    fn stuck_cells_ignore_programming() {
        // Every device stuck: programming reports the stuck level, leaves
        // the stuck endpoint conductance and draws no programming noise.
        let mut p = DeviceParams::mlc(2).expect("valid");
        p.stuck_at_rate = 1.0;
        let mut array = ReramArray::new(4, 1, p.clone()).expect("valid");
        assert_eq!(array.inject_stuck_at_faults(&mut rng()), 4);
        let before = array.col_conductances(0).collect::<Vec<_>>();
        let mut r = rng();
        for row in 0..4 {
            let stuck = array.program_level(row, 0, 1, &mut r).expect("no-op");
            assert!(stuck == 0 || stuck == p.levels() - 1);
        }
        assert_eq!(r, rng());
        assert_eq!(array.col_conductances(0).collect::<Vec<_>>(), before);
    }

    #[test]
    fn read_noise_is_zero_mean() {
        let p = DeviceParams::slc();
        let mut r = rng();
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| read_conductance(p.g_on, &p, &mut r))
            .sum::<f64>()
            / n as f64;
        assert!((mean - p.g_on).abs() < 0.05 * p.g_on);
    }

    #[test]
    fn without_noise_strips_all_sigmas() {
        let p = DeviceParams::mlc(4).expect("valid").without_noise();
        assert_eq!(p.program_sigma, 0.0);
        assert_eq!(p.read_sigma, 0.0);
        assert_eq!(p.stuck_at_rate, 0.0);
    }
}
