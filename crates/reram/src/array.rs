//! A wordline × bitline array of ReRAM devices, stored as flat slabs.
//!
//! Both PUM domains in DARTH-PUM use 64×64 arrays (Table 2), but the type is
//! generic over dimensions so tests can exercise small arrays and future
//! configurations can scale. Rows are wordlines (inputs for analog MVM),
//! columns are bitlines (the accumulation direction). This is one device
//! plane of an analog crossbar; the digital arrays keep plain bits of
//! their own.
//!
//! Device state is one record per use, not one per device:
//!
//! * the *intended* level of every device, row-major (`Vec<u16>`);
//! * the *realised* conductance of every device, column-major so a bitline
//!   read walks contiguous memory — kept only when programming is noisy
//!   (`program_sigma > 0`). A noise-free device's conductance is a function
//!   of its level and stuck state (`device::noise_free_conductance`);
//! * a sparse, index-sorted list of stuck devices;
//! * the saturated-write counter.

use crate::device::{self, DeviceParams, StuckAt};
use crate::noise::NoiseRng;
use crate::{Error, Result};
use serde::{Deserialize, Serialize};

/// The array dimension used throughout the paper (Table 2).
pub const DEFAULT_DIM: usize = 64;

/// A rectangular array of ReRAM devices with shared device parameters.
///
/// # Example
///
/// ```
/// use darth_reram::{array::ReramArray, device::DeviceParams, noise::NoiseRng};
///
/// # fn main() -> Result<(), darth_reram::Error> {
/// let params = DeviceParams::ideal(2)?;
/// let mut array = ReramArray::new(4, 4, params.clone())?;
/// array.program_level(1, 2, 3, &mut NoiseRng::seed_from(3))?;
/// assert_eq!(array.levels()[1 * 4 + 2], 3);
/// assert_eq!(array.col_conductances(2).nth(1), Some(params.g_on));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReramArray {
    rows: usize,
    cols: usize,
    params: DeviceParams,
    /// The level each device was last successfully asked to hold,
    /// row-major. A stuck device keeps its request here but reads at its
    /// stuck level.
    levels: Vec<u16>,
    /// Realised conductance per device, column-major. Empty unless
    /// programming is noisy.
    conductances: Vec<f64>,
    /// Stuck devices by row-major index, sorted.
    stuck: Vec<(usize, StuckAt)>,
    /// Writes that railed outside the device window (see
    /// `device::write_verify`).
    saturated_writes: u64,
}

impl ReramArray {
    /// Creates an erased array: every device at level 0 and `g_off`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimensions`] for zero-sized arrays, or an
    /// invalid-parameter error if `params` is inconsistent.
    pub fn new(rows: usize, cols: usize, params: DeviceParams) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(Error::InvalidDimensions { rows, cols });
        }
        params.validate()?;
        let conductances = if params.program_sigma > 0.0 {
            vec![params.g_off; rows * cols]
        } else {
            Vec::new()
        };
        Ok(ReramArray {
            rows,
            cols,
            levels: vec![0; rows * cols],
            conductances,
            params,
            stuck: Vec::new(),
            saturated_writes: 0,
        })
    }

    /// Creates the paper's default 64×64 array.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures from [`ReramArray::new`].
    pub fn default_dim(params: DeviceParams) -> Result<Self> {
        ReramArray::new(DEFAULT_DIM, DEFAULT_DIM, params)
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shared device parameters.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    fn idx(&self, row: usize, col: usize) -> Result<usize> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(row * self.cols + col)
    }

    fn stuck_at(&self, index: usize) -> Option<StuckAt> {
        self.stuck
            .binary_search_by_key(&index, |&(i, _)| i)
            .ok()
            .map(|pos| self.stuck[pos].1)
    }

    /// Every device's intended level, row-major.
    pub fn levels(&self) -> &[u16] {
        &self.levels
    }

    /// Every device's realised level, row-major: the intended level, or
    /// the stuck level of a stuck device.
    pub fn realised_levels(&self) -> Vec<u16> {
        let mut levels = self.levels.clone();
        for &(i, stuck) in &self.stuck {
            levels[i] = stuck.level(&self.params);
        }
        levels
    }

    /// Programs a multi-level value with write–verify, returning the
    /// device's level after the write: `level`, or the stuck level of a
    /// stuck device (which ignores the write and draws no noise).
    ///
    /// Saturated writes (draws railed outside the device window, see
    /// `device::write_verify`) keep the clamped endpoint conductance and
    /// bump [`ReramArray::saturated_writes`].
    ///
    /// # Errors
    ///
    /// Propagates bounds and programming errors; a failed write leaves the
    /// device as it was.
    pub fn program_level(
        &mut self,
        row: usize,
        col: usize,
        level: u16,
        rng: &mut NoiseRng,
    ) -> Result<u16> {
        let i = self.idx(row, col)?;
        self.params.check_level(level)?;
        if let Some(stuck) = self.stuck_at(i) {
            self.levels[i] = level;
            return Ok(stuck.level(&self.params));
        }
        // A noise-free write draws nothing and realises exactly the
        // level's conductance, which no slab stores.
        if self.params.program_sigma != 0.0 {
            let (conductance, saturated) = device::write_verify(level, &self.params, rng)?;
            if !self.conductances.is_empty() {
                self.conductances[col * self.rows + row] = conductance;
            }
            self.saturated_writes += u64::from(saturated);
        }
        self.levels[i] = level;
        Ok(level)
    }

    /// How many writes so far railed outside the device window and were
    /// clamped to an endpoint instead of converging in the verify loop.
    pub fn saturated_writes(&self) -> u64 {
        self.saturated_writes
    }

    /// Realised conductances of one column, top row first, before read
    /// noise: the quantity an analog bitline integrates during MVM.
    ///
    /// # Panics
    ///
    /// Panics if `col` exceeds the array.
    pub fn col_conductances(&self, col: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(col < self.cols, "column {col} of {}", self.cols);
        let stored = (!self.conductances.is_empty())
            .then(|| &self.conductances[col * self.rows..(col + 1) * self.rows]);
        (0..self.rows).map(move |row| match stored {
            Some(column) => column[row],
            None => {
                let i = row * self.cols + col;
                device::noise_free_conductance(self.levels[i], self.stuck_at(i), &self.params)
            }
        })
    }

    /// Injects stuck-at faults with the population's `stuck_at_rate`,
    /// visiting devices row-major.
    ///
    /// Returns the number of devices that became stuck. Each faulty device
    /// is stuck `Off` or `On` with equal probability.
    pub fn inject_stuck_at_faults(&mut self, rng: &mut NoiseRng) -> usize {
        let rate = self.params.stuck_at_rate;
        if rate <= 0.0 {
            return 0;
        }
        let mut injected = 0;
        for i in 0..self.levels.len() {
            if rng.chance(rate) {
                let stuck = if rng.chance(0.5) {
                    StuckAt::On
                } else {
                    StuckAt::Off
                };
                match self.stuck.binary_search_by_key(&i, |&(j, _)| j) {
                    Ok(pos) => self.stuck[pos].1 = stuck,
                    Err(pos) => self.stuck.insert(pos, (i, stuck)),
                }
                if !self.conductances.is_empty() {
                    let (row, col) = (i / self.cols, i % self.cols);
                    self.conductances[col * self.rows + row] = stuck.conductance(&self.params);
                }
                injected += 1;
            }
        }
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from(42)
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(matches!(
            ReramArray::new(0, 4, DeviceParams::slc()),
            Err(Error::InvalidDimensions { .. })
        ));
        assert!(matches!(
            ReramArray::new(4, 0, DeviceParams::slc()),
            Err(Error::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn default_dim_is_64() {
        let a = ReramArray::default_dim(DeviceParams::slc()).expect("valid");
        assert_eq!(a.rows(), 64);
        assert_eq!(a.cols(), 64);
    }

    #[test]
    fn out_of_bounds_cell_access() {
        let mut a = ReramArray::new(2, 2, DeviceParams::slc()).expect("valid");
        for (row, col) in [(2, 0), (0, 2)] {
            assert!(matches!(
                a.program_level(row, col, 1, &mut rng()),
                Err(Error::OutOfBounds { .. })
            ));
        }
        assert_eq!(a.levels(), &[0; 4]);
    }

    #[test]
    fn program_level_and_col_conductances() {
        let p = DeviceParams::ideal(2).expect("valid");
        let mut a = ReramArray::new(2, 2, p.clone()).expect("valid");
        let mut r = rng();
        a.program_level(0, 0, 3, &mut r).expect("programs");
        a.program_level(1, 0, 0, &mut r).expect("programs");
        let g: Vec<f64> = a.col_conductances(0).collect();
        assert!((g[0] - p.g_on).abs() < 1e-15);
        assert!((g[1] - p.g_off).abs() < 1e-15);
        assert_eq!(a.levels(), &[3, 0, 0, 0]);
    }

    #[test]
    fn conductances_are_stored_only_under_programming_noise() {
        // A noise-free population computes conductances from levels; a
        // noisy one keeps the realised values column-major.
        let ideal = ReramArray::new(3, 2, DeviceParams::ideal(2).expect("valid")).expect("valid");
        assert!(ideal.conductances.is_empty());
        let mut noisy = ReramArray::new(3, 2, DeviceParams::mlc(2).expect("valid")).expect("valid");
        assert_eq!(noisy.conductances.len(), 6);
        noisy.program_level(2, 1, 3, &mut rng()).expect("programs");
        let g = noisy.col_conductances(1).nth(2).expect("three rows");
        assert_eq!(g.to_bits(), noisy.conductances[5].to_bits());
        assert_ne!(g, noisy.params().g_off);
    }

    #[test]
    fn saturated_writes_are_counted_and_stay_in_window() {
        let mut p = DeviceParams::mlc(2).expect("valid");
        p.program_sigma = 1e6;
        let g_on = p.g_on;
        let g_off = p.g_off;
        let mut a = ReramArray::new(4, 4, p).expect("valid");
        let mut r = rng();
        for row in 0..4 {
            for col in 0..4 {
                a.program_level(row, col, 2, &mut r).expect("clamped write");
            }
        }
        for col in 0..4 {
            for g in a.col_conductances(col) {
                assert!(g.is_finite() && g >= g_off && g <= g_on);
            }
        }
        assert!(a.saturated_writes() > 0, "sigma 1e6 must rail some writes");
        // The clean-sigma path leaves the counter untouched.
        let mut clean = ReramArray::new(4, 4, DeviceParams::mlc(2).expect("valid")).expect("valid");
        clean.program_level(0, 0, 1, &mut rng()).expect("programs");
        assert_eq!(clean.saturated_writes(), 0);
    }

    #[test]
    fn stuck_at_injection_counts_match_state() {
        let mut p = DeviceParams::ideal(1).expect("valid");
        p.stuck_at_rate = 0.5;
        let mut a = ReramArray::new(16, 16, p).expect("valid");
        let injected = a.inject_stuck_at_faults(&mut rng());
        assert_eq!(injected, a.stuck.len());
        assert!(injected > 32, "rate 0.5 over 256 cells, got {injected}");
        // A stuck device reads at its stuck level and endpoint conductance.
        let realised = a.realised_levels();
        for &(i, stuck) in &a.stuck {
            assert_eq!(realised[i], stuck.level(a.params()));
            let (row, col) = (i / 16, i % 16);
            let g = a.col_conductances(col).nth(row).expect("in range");
            assert_eq!(g, stuck.conductance(a.params()));
        }
        // A second pass re-sticks some devices without duplicating them.
        let again = a.inject_stuck_at_faults(&mut rng());
        assert!(again > 0);
        assert!(a.stuck.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
