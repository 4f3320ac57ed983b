//! The analog crossbar: conductance-programmed MVM with non-idealities.
//!
//! Figure 1 of the paper: matrix values are programmed as conductances; an
//! input voltage vector applied to the wordlines produces, per bitline, a
//! current equal to the dot product of the inputs with that column's
//! conductances. This module models the crossbar with:
//!
//! * **Differential pairs** (Figure 3): two physical devices per logical
//!   weight, one per polarity plane, whose bitline currents subtract.
//! * **Programming noise** from the ReRAM substrate's write–verify model.
//! * **Read noise** per device per MVM.
//! * **IR drop** (parasitic resistance): current flowing down a bitline
//!   sees distributed wire resistance, attenuating large accumulated
//!   currents quadratically — the effect the §4.3 remapping suppresses.
//!
//! The matrix lives only in the planes: each keeps its devices' intended
//! levels, from which [`Crossbar::weights`] rebuilds the logical weights.
//!
//! A bitline has two models. A *level-exact* crossbar (no programming or
//! read noise, no IR drop, full conductance range; see
//! `Crossbar::level_exact`) sums integer device levels: the crossbar
//! keeps a net-level matrix, and one input slice adds its active rows
//! into `i32` column sums (`Crossbar::level_sums`). Every other
//! crossbar integrates f64 device conductances column by column
//! ([`Crossbar::mvm_currents`]). On a level-exact crossbar both models
//! give the same ADC code; the argument is on `level_sums`.

use crate::{Error, Result};
use darth_reram::{device, DeviceParams, NoiseRng, ReramArray};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Crossbar geometry, device configuration and parasitic coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Wordlines (matrix rows).
    pub rows: usize,
    /// Logical bitlines (matrix columns).
    pub cols: usize,
    /// Bits per cell for weight storage (1 = SLC).
    pub bits_per_cell: u8,
    /// Device population parameters (noise sigmas live here).
    pub device: DeviceParams,
    /// IR-drop coefficient: fractional current loss per unit of
    /// accumulated line current (normalised to `g_on`), applied
    /// quadratically. Zero disables the parasitic model.
    pub ir_drop_alpha: f64,
    /// Conductance range scale factor in `(0, 1]`; the §4.3 scheme halves
    /// the range (0.5) to shrink noise magnitude.
    pub range_scale: f64,
}

impl CrossbarConfig {
    /// A noise-free configuration for functional verification.
    pub fn ideal(rows: usize, cols: usize) -> Self {
        CrossbarConfig {
            rows,
            cols,
            bits_per_cell: 4,
            device: DeviceParams::ideal(4).expect("4 bits per cell is valid"),
            ir_drop_alpha: 0.0,
            range_scale: 1.0,
        }
    }

    /// The paper's evaluation configuration: 64×64, MILO-style noise,
    /// differential pairs, IR drop enabled.
    pub fn evaluation(bits_per_cell: u8) -> Result<Self> {
        let mut device = DeviceParams::mlc(bits_per_cell).map_err(Error::Reram)?;
        device.program_sigma = 0.02;
        device.read_sigma = 0.005;
        Ok(CrossbarConfig {
            rows: 64,
            cols: 64,
            bits_per_cell,
            device,
            ir_drop_alpha: 0.0008,
            range_scale: 1.0,
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for unusable values.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(Error::InvalidConfig("crossbar dimensions must be nonzero"));
        }
        if self.bits_per_cell == 0 || self.bits_per_cell > 8 {
            return Err(Error::InvalidConfig("bits per cell must be in 1..=8"));
        }
        if !(self.range_scale > 0.0 && self.range_scale <= 1.0) {
            return Err(Error::InvalidConfig("range_scale must be in (0, 1]"));
        }
        if self.ir_drop_alpha < 0.0 {
            return Err(Error::InvalidConfig("ir_drop_alpha must be non-negative"));
        }
        Ok(())
    }

    /// Largest representable weight magnitude: the top device level, held
    /// by one plane of the pair.
    pub fn max_magnitude(&self) -> i64 {
        (1i64 << self.bits_per_cell) - 1
    }
}

/// A conductance-programmed crossbar.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    config: CrossbarConfig,
    /// Positive-polarity devices.
    positive: ReramArray,
    /// Negative-polarity devices.
    negative: ReramArray,
    /// Net device level per cell, row-major: the positive-plane level
    /// minus the negative-plane level. Holds *realised* levels, so stuck
    /// cells count at their stuck level. Clones share it until one of
    /// them writes: a served request's machine copy never does. Empty on
    /// a crossbar that is not [level-exact](Crossbar::level_exact).
    net_levels: Arc<[i16]>,
    programmed: bool,
}

impl Crossbar {
    /// Creates an erased crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid configuration.
    pub fn new(config: CrossbarConfig) -> Result<Self> {
        config.validate()?;
        let mut device = config.device.clone();
        // Bits per cell of the device population must match the config.
        if device.bits_per_cell() != config.bits_per_cell {
            device = if device.program_sigma == 0.0 && device.read_sigma == 0.0 {
                DeviceParams::ideal(config.bits_per_cell).map_err(Error::Reram)?
            } else {
                let mut d = DeviceParams::mlc(config.bits_per_cell).map_err(Error::Reram)?;
                d.program_sigma = device.program_sigma;
                d.read_sigma = device.read_sigma;
                d.stuck_at_rate = device.stuck_at_rate;
                d
            };
        }
        let positive = ReramArray::new(config.rows, config.cols, device.clone())?;
        let negative = ReramArray::new(config.rows, config.cols, device)?;
        let mut xbar = Crossbar {
            net_levels: Arc::from([]),
            config,
            positive,
            negative,
            programmed: false,
        };
        if xbar.level_exact() {
            xbar.net_levels = std::iter::repeat_n(0, xbar.cells()).collect();
        }
        Ok(xbar)
    }

    /// Devices per plane.
    fn cells(&self) -> usize {
        self.config.rows * self.config.cols
    }

    /// The crossbar's configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Whether a matrix has been programmed.
    pub fn is_programmed(&self) -> bool {
        self.programmed
    }

    /// The logical weights as last programmed (empty before programming),
    /// rebuilt from the two planes' intended levels.
    pub fn weights(&self) -> Vec<Vec<i64>> {
        if !self.programmed {
            return Vec::new();
        }
        (0..self.config.rows).map(|r| self.weight_row(r)).collect()
    }

    /// One row of the logical weights: the positive plane's intended
    /// levels minus the negative plane's (zeros before programming).
    ///
    /// # Panics
    ///
    /// Panics if `row` exceeds the crossbar.
    pub fn weight_row(&self, row: usize) -> Vec<i64> {
        let cols = self.config.cols;
        let span = row * cols..(row + 1) * cols;
        let positive = &self.positive.levels()[span.clone()];
        let negative = &self.negative.levels()[span];
        positive
            .iter()
            .zip(negative)
            .map(|(&p, &n)| i64::from(p) - i64::from(n))
            .collect()
    }

    /// The bitline current of one weight unit at *full* conductance range —
    /// the fixed reference an ADC's LSB is designed against. Deliberately
    /// excludes [`CrossbarConfig::range_scale`]: when the §4.3 scheme halves
    /// the range, measured values shrink relative to this unit (codes read
    /// at that scale).
    pub fn unit_current(&self) -> f64 {
        let p = self.positive.params();
        (p.g_on - p.g_off) / ((p.levels() - 1) as f64).max(1.0)
    }

    /// Checks a run of weights against the representable magnitude.
    fn check_range<'a>(&self, weights: impl IntoIterator<Item = &'a i64>) -> Result<()> {
        let max = self.config.max_magnitude();
        for &w in weights {
            // `unsigned_abs`, not `abs`: `abs(i64::MIN)` overflows
            // (debug panic / release wrap) instead of rejecting.
            if w.unsigned_abs() > max as u64 {
                return Err(Error::WeightOutOfRange {
                    weight: w,
                    max_magnitude: max,
                });
            }
        }
        Ok(())
    }

    /// Programs a signed weight matrix, row-major: `w >= 0` programs the
    /// positive device to level `w` and the negative device to 0, and vice
    /// versa.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] for wrong matrix dimensions.
    /// * [`Error::WeightOutOfRange`] for unrepresentable weights.
    pub fn program(&mut self, matrix: &[Vec<i64>], rng: &mut NoiseRng) -> Result<()> {
        if matrix.len() != self.config.rows || matrix.iter().any(|r| r.len() != self.config.cols) {
            return Err(Error::ShapeMismatch {
                expected_rows: self.config.rows,
                expected_cols: self.config.cols,
                got_rows: matrix.len(),
                got_cols: matrix.first().map_or(0, |r| r.len()),
            });
        }
        self.check_range(matrix.iter().flatten())?;
        let exact = self.level_exact();
        let mut net_levels = Vec::with_capacity(if exact { self.cells() } else { 0 });
        for (r, row) in matrix.iter().enumerate() {
            for (c, &w) in row.iter().enumerate() {
                let level = self.program_cell(r, c, w, rng)?;
                if exact {
                    net_levels.push(level);
                }
            }
        }
        if exact {
            self.net_levels = net_levels.into();
        }
        self.programmed = true;
        Ok(())
    }

    /// The checked `(positive, negative)` device levels for one signed
    /// weight.
    ///
    /// The conversion is `try_from`, not `as`: a weight whose level leaves
    /// `u16` returns [`Error::WeightOutOfRange`] instead of wrapping into a
    /// huge device level. The public entry points' magnitude checks make
    /// such weights unreachable today; this keeps them errors rather than
    /// silent corruption if those checks drift.
    fn weight_levels(&self, w: i64) -> Result<(u16, u16)> {
        let magnitude = u16::try_from(w.unsigned_abs()).map_err(|_| Error::WeightOutOfRange {
            weight: w,
            max_magnitude: self.config.max_magnitude(),
        })?;
        Ok(if w >= 0 {
            (magnitude, 0)
        } else {
            (0, magnitude)
        })
    }

    /// Programs one logical weight into the pair, positive device first,
    /// returning the cell's realised net level for a level-exact caller to
    /// store in `net_levels`.
    ///
    /// After the callers' range checks, a write can fail only in the
    /// write–verify loop, which needs programming noise — so an error never
    /// leaves a stale net level on a level-exact crossbar.
    fn program_cell(&mut self, row: usize, col: usize, w: i64, rng: &mut NoiseRng) -> Result<i16> {
        let (positive_level, negative_level) = self.weight_levels(w)?;
        let positive = self.positive.program_level(row, col, positive_level, rng)?;
        let negative = self.negative.program_level(row, col, negative_level, rng)?;
        Ok(net_level(positive, negative))
    }

    /// Updates a single row of the programmed matrix (the `updateRow`
    /// library call).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotProgrammed`] before any [`Crossbar::program`],
    /// and shape/range errors as in [`Crossbar::program`].
    pub fn update_row(&mut self, row: usize, values: &[i64], rng: &mut NoiseRng) -> Result<()> {
        if !self.programmed {
            return Err(Error::NotProgrammed);
        }
        if row >= self.config.rows || values.len() != self.config.cols {
            return Err(Error::ShapeMismatch {
                expected_rows: self.config.rows,
                expected_cols: self.config.cols,
                got_rows: row + 1,
                got_cols: values.len(),
            });
        }
        self.check_range(values)?;
        // Reprogram only the affected row's devices.
        let mut row_levels = Vec::with_capacity(values.len());
        for (c, &w) in values.iter().enumerate() {
            row_levels.push(self.program_cell(row, c, w, rng)?);
        }
        if self.level_exact() {
            let start = row * self.config.cols;
            Arc::make_mut(&mut self.net_levels)[start..start + values.len()]
                .copy_from_slice(&row_levels);
        }
        Ok(())
    }

    /// Whether the integer level sum is the exact bitline model: every
    /// device sits at its programmed level (zero programming and read
    /// noise) and the bitline neither loses nor scales current (no IR
    /// drop, full conductance range). These are properties of the
    /// configuration, fixed at construction and never of the data.
    pub(crate) fn level_exact(&self) -> bool {
        let device = self.positive.params();
        device.program_sigma == 0.0
            && device.read_sigma == 0.0
            && self.config.ir_drop_alpha == 0.0
            && self.config.range_scale == 1.0
    }

    /// The bitline model of a [level-exact](Crossbar::level_exact)
    /// crossbar: for one Boolean wordline vector, `sums[c]` becomes the sum
    /// of the active rows' net levels in column `c`, in weight units, for
    /// the first `sums.len()` columns.
    ///
    /// This equals [`Crossbar::mvm_currents`] divided by
    /// [`Crossbar::unit_current`] up to rounding: at zero noise a level-`L`
    /// device contributes `(g(L) - g_off) * 1.0`, which is `L * unit` to
    /// within a few ulp, and the f64 line sums then give `S + δ` units
    /// with `|δ|` below about `rows² · 255 · 2^-50` (under 1e-8 at 130
    /// rows) — far inside the 0.5 rounding margin of a 1-LSB ADC for any
    /// realistic row count. So the code of `S`, which is `S` clamped to
    /// the ADC rails, is exactly the code the f64 model digitizes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input.
    ///
    /// # Panics
    ///
    /// Panics if `sums` holds more entries than the crossbar has columns.
    pub(crate) fn level_sums(&self, input: &[bool], sums: &mut [i32]) -> Result<()> {
        if input.len() != self.config.rows {
            return Err(Error::InputLengthMismatch {
                expected: self.config.rows,
                got: input.len(),
            });
        }
        assert!(sums.len() <= self.config.cols, "one sum per read column");
        debug_assert!(self.level_exact(), "only level-exact crossbars keep levels");
        sums.fill(0);
        let rows = self.net_levels.chunks_exact(self.config.cols);
        for (levels, _) in rows.zip(input).filter(|(_, &active)| active) {
            for (sum, &level) in sums.iter_mut().zip(levels) {
                *sum += i32::from(level);
            }
        }
        Ok(())
    }

    /// One analog MVM cycle through the f64 device model: applies a
    /// Boolean wordline vector (the 1-bit DAC output of input bit-slicing)
    /// and returns the net bitline currents in amperes, with read noise per
    /// device and IR drop per line. The ACE digitizes these for every
    /// crossbar that is not level-exact (see `Crossbar::level_exact`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input.
    pub fn mvm_currents(&self, input: &[bool], rng: &mut NoiseRng) -> Result<Vec<f64>> {
        self.read_currents(input, self.config.cols, rng)
    }

    /// [`Crossbar::mvm_currents`] of the first `width` columns. The read
    /// noise of the columns past `width` is drawn but never evaluated —
    /// `2 · rows` draws per column, skipped — so `rng` ends where a
    /// full-width read leaves it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds the crossbar's columns.
    pub(crate) fn read_currents(
        &self,
        input: &[bool],
        width: usize,
        rng: &mut NoiseRng,
    ) -> Result<Vec<f64>> {
        if input.len() != self.config.rows {
            return Err(Error::InputLengthMismatch {
                expected: self.config.rows,
                got: input.len(),
            });
        }
        assert!(
            width <= self.config.cols,
            "read width {width} of {}",
            self.config.cols
        );
        let currents = (0..width)
            .map(|c| {
                let positive = self.line_current(&self.positive, c, input, rng);
                positive - self.line_current(&self.negative, c, input, rng)
            })
            .collect();
        // Both planes share one device population, so one skip covers the
        // unread columns' positive and negative lines alike.
        let unread = 2 * self.config.rows * (self.config.cols - width);
        device::skip_reads(unread, self.positive.params(), rng);
        Ok(currents)
    }

    /// Attenuates one accumulated line current by the distributed-wire
    /// IR-drop model (quadratic loss in line units).
    fn apply_ir_drop(&self, line: f64) -> f64 {
        if self.config.ir_drop_alpha > 0.0 {
            let unit = self.unit_current();
            if unit > 0.0 {
                let line_units = line / unit;
                let loss = self.config.ir_drop_alpha * line_units * line_units * unit;
                return (line - loss).max(0.0);
            }
        }
        line
    }

    /// Accumulates one physical bitline straight from the plane, applying
    /// read noise per active device and the IR-drop attenuation on the
    /// accumulated line current.
    ///
    /// The stream holds one read-noise draw per device on the line, active
    /// or not, top row first. Only an active row's draw can reach the
    /// output — an inactive row's current is gated off by its zero input —
    /// so an inactive row's draw is skipped: the stream advances past it
    /// without evaluating it (`device::skip_reads`).
    fn line_current(
        &self,
        plane: &ReramArray,
        col: usize,
        input: &[bool],
        rng: &mut NoiseRng,
    ) -> f64 {
        let params = plane.params();
        let mut line = 0.0;
        let mut inactive = 0;
        for (g, &active) in plane.col_conductances(col).zip(input) {
            if !active {
                inactive += 1;
                continue;
            }
            device::skip_reads(inactive, params, rng);
            inactive = 0;
            let g = device::read_conductance(g, params, rng);
            // Subtract g_off so a level-0 device contributes no signal;
            // physical designs null this with a reference column.
            line += (g - params.g_off).max(0.0) * self.config.range_scale;
        }
        device::skip_reads(inactive, params, rng);
        // IR drop: distributed wire resistance attenuates in proportion to
        // the accumulated current itself (quadratic loss in line units).
        self.apply_ir_drop(line)
    }

    /// The exact (noise-free, parasitic-free) MVM result in weight units,
    /// for verification: `result[c] = Σ_r input[r] · weight[r][c]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputLengthMismatch`] for a wrong-sized input.
    pub fn mvm_exact(&self, input: &[bool]) -> Result<Vec<i64>> {
        if input.len() != self.config.rows {
            return Err(Error::InputLengthMismatch {
                expected: self.config.rows,
                got: input.len(),
            });
        }
        let mut out = vec![0i64; self.config.cols];
        for (r, _) in input.iter().enumerate().filter(|(_, &active)| active) {
            for (sum, w) in out.iter_mut().zip(self.weight_row(r)) {
                *sum += w;
            }
        }
        Ok(out)
    }

    /// Injects stuck-at faults into both device planes, the whole positive
    /// plane first, returning the number of faulted devices.
    pub fn inject_stuck_at_faults(&mut self, rng: &mut NoiseRng) -> usize {
        let positive = self.positive.inject_stuck_at_faults(rng);
        let negative = self.negative.inject_stuck_at_faults(rng);
        if self.level_exact() {
            let negative = self.negative.realised_levels();
            self.net_levels = (self.positive.realised_levels().into_iter())
                .zip(negative)
                .map(|(p, n)| net_level(p, n))
                .collect();
        }
        positive + negative
    }

    /// Total writes across both device planes that railed outside the
    /// conductance window and were clamped to an endpoint (the Monte-Carlo
    /// saturation counter; see `darth_reram::device::write_verify`).
    pub fn saturated_writes(&self) -> u64 {
        self.positive.saturated_writes() + self.negative.saturated_writes()
    }
}

/// One cell's net level: the positive-plane level minus the negative-plane
/// level. Levels stay below 2^8, so both fit an `i16`.
fn net_level(positive: u16, negative: u16) -> i16 {
    positive as i16 - negative as i16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> NoiseRng {
        NoiseRng::seed_from(2024)
    }

    fn ideal_xbar(rows: usize, cols: usize, bits: u8) -> Crossbar {
        let config = CrossbarConfig {
            bits_per_cell: bits,
            device: DeviceParams::ideal(bits).expect("valid"),
            ..CrossbarConfig::ideal(rows, cols)
        };
        Crossbar::new(CrossbarConfig {
            rows,
            cols,
            ..config
        })
        .expect("valid config")
    }

    #[test]
    fn config_validation() {
        assert!(CrossbarConfig {
            rows: 0,
            ..CrossbarConfig::ideal(2, 2)
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            bits_per_cell: 0,
            ..CrossbarConfig::ideal(2, 2)
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig {
            range_scale: 0.0,
            ..CrossbarConfig::ideal(2, 2)
        }
        .validate()
        .is_err());
        assert!(CrossbarConfig::ideal(2, 2).validate().is_ok());
    }

    #[test]
    fn paper_figure1_example_exact() {
        // Figure 1: [[2,9],[7,5]]^T style 2x2 with input [2,7] — here we
        // check the per-bit building block: binary inputs, exact weights.
        let mut xbar = ideal_xbar(2, 2, 4);
        xbar.program(&[vec![5, 9], vec![8, 7]], &mut rng())
            .expect("programs");
        let exact = xbar.mvm_exact(&[true, true]).expect("shape ok");
        assert_eq!(exact, vec![13, 16]);
        let one_row = xbar.mvm_exact(&[false, true]).expect("shape ok");
        assert_eq!(one_row, vec![8, 7]);
    }

    #[test]
    fn ideal_currents_match_exact_in_weight_units() {
        let mut xbar = ideal_xbar(4, 3, 4);
        let m = vec![
            vec![1, -2, 3],
            vec![4, 5, -6],
            vec![0, 7, 1],
            vec![-1, -1, -1],
        ];
        xbar.program(&m, &mut rng()).expect("programs");
        for input in [
            vec![true, true, true, true],
            vec![true, false, true, false],
            vec![false, false, false, false],
        ] {
            let exact = xbar.mvm_exact(&input).expect("shape ok");
            let currents = xbar.mvm_currents(&input, &mut rng()).expect("shape ok");
            for (c, &e) in exact.iter().enumerate() {
                let units = currents[c] / xbar.unit_current();
                assert!((units - e as f64).abs() < 1e-9, "col {c}: {units} vs {e}");
            }
        }
    }

    #[test]
    fn weight_out_of_range_is_rejected() {
        let mut xbar = ideal_xbar(2, 2, 2); // max magnitude 3
        let err = xbar
            .program(&[vec![4, 0], vec![0, 0]], &mut rng())
            .unwrap_err();
        assert!(matches!(
            err,
            Error::WeightOutOfRange {
                max_magnitude: 3,
                ..
            }
        ));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut xbar = ideal_xbar(2, 2, 4);
        assert!(matches!(
            xbar.program(&[vec![1, 2]], &mut rng()),
            Err(Error::ShapeMismatch { .. })
        ));
        assert!(matches!(
            xbar.mvm_currents(&[true], &mut rng()),
            Err(Error::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn extreme_weights_error_through_the_public_api() {
        // i64::MIN has no i64 absolute value; the magnitude pre-checks
        // must reject it as out-of-range, not overflow-panic (debug) or
        // wrap past the check (release).
        let mut xbar = ideal_xbar(1, 1, 4);
        assert!(matches!(
            xbar.program(&[vec![i64::MIN]], &mut rng()),
            Err(Error::WeightOutOfRange { .. })
        ));
        xbar.program(&[vec![1]], &mut rng()).expect("programs");
        assert!(matches!(
            xbar.update_row(0, &[i64::MIN], &mut rng()),
            Err(Error::WeightOutOfRange { .. })
        ));
        assert_eq!(xbar.weights(), &[vec![1]], "failed update left state");
    }

    #[test]
    fn weight_levels_boundary_values() {
        // ±max map to (max, 0) / (0, max); levels past u16 (unreachable
        // through the range-checked public API) error instead of wrapping.
        let xbar = ideal_xbar(2, 2, 4);
        assert_eq!(xbar.weight_levels(15).unwrap(), (15, 0));
        assert_eq!(xbar.weight_levels(-15).unwrap(), (0, 15));
        assert_eq!(xbar.weight_levels(0).unwrap(), (0, 0));
        assert!(matches!(
            xbar.weight_levels(i64::from(u16::MAX) + 1),
            Err(Error::WeightOutOfRange { .. })
        ));
        assert!(matches!(
            xbar.weight_levels(i64::MIN),
            Err(Error::WeightOutOfRange { .. })
        ));
    }

    #[test]
    fn update_row_changes_only_that_row() {
        let mut xbar = ideal_xbar(3, 2, 4);
        xbar.program(&[vec![1, 1], vec![2, 2], vec![3, 3]], &mut rng())
            .expect("programs");
        xbar.update_row(1, &[9, -9], &mut rng()).expect("updates");
        let exact = xbar.mvm_exact(&[true, true, true]).expect("shape ok");
        assert_eq!(exact, vec![1 + 9 + 3, 1 - 9 + 3]);
        assert_eq!(xbar.weights(), vec![vec![1, 1], vec![9, -9], vec![3, 3]]);
    }

    #[test]
    fn update_row_before_program_is_an_error() {
        // There is no matrix to update a row of: the crossbar stays
        // unprogrammed and erased instead of inventing a zero matrix.
        let mut xbar = ideal_xbar(2, 2, 4);
        assert_eq!(
            xbar.update_row(0, &[1, 2], &mut rng()),
            Err(Error::NotProgrammed)
        );
        assert!(!xbar.is_programmed());
        assert!(xbar.weights().is_empty());
        assert_eq!(xbar.mvm_exact(&[true, true]).expect("shape ok"), vec![0, 0]);
    }

    #[test]
    fn weights_are_the_programmed_matrix_despite_stuck_devices() {
        // The planes' intended levels are the only copy of the matrix; a
        // stuck device changes what the bitline reads, not the weights.
        let mut cfg = CrossbarConfig::ideal(8, 3);
        cfg.device.stuck_at_rate = 0.5;
        let mut xbar = Crossbar::new(cfg).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..8)
            .map(|r| (0..3).map(|c| (r * 3 + c) as i64 % 31 - 15).collect())
            .collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        assert!(xbar.inject_stuck_at_faults(&mut rng()) > 0);
        assert_eq!(xbar.weights(), matrix);
        let all = vec![true; 8];
        let sums: Vec<i64> = (0..3)
            .map(|c| matrix.iter().map(|row| row[c]).sum())
            .collect();
        assert_eq!(xbar.mvm_exact(&all).expect("shape ok"), sums);
        let mut stuck_sums = vec![0; 3];
        xbar.level_sums(&all, &mut stuck_sums).expect("shape ok");
        assert_ne!(
            stuck_sums.iter().map(|&s| i64::from(s)).collect::<Vec<_>>(),
            sums
        );
    }

    #[test]
    fn ir_drop_attenuates_large_currents() {
        let mut noisy = CrossbarConfig::ideal(32, 1);
        noisy.bits_per_cell = 1;
        noisy.device = DeviceParams::ideal(1).expect("valid");
        noisy.ir_drop_alpha = 0.002;
        let mut xbar = Crossbar::new(noisy).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..32).map(|_| vec![1]).collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        let all_on = vec![true; 32];
        let currents = xbar.mvm_currents(&all_on, &mut rng()).expect("shape ok");
        let units = currents[0] / xbar.unit_current();
        // ideal would be 32; IR drop pulls it below
        assert!(units < 32.0, "units {units}");
        assert!(units > 28.0, "drop too severe: {units}");
        // a small current is barely affected
        let one_on: Vec<bool> = (0..32).map(|i| i == 0).collect();
        let small = xbar.mvm_currents(&one_on, &mut rng()).expect("shape ok");
        assert!((small[0] / xbar.unit_current() - 1.0).abs() < 0.01);
    }

    #[test]
    fn differential_balances_ir_drop() {
        // The §4.3 story: an all-positive SLC matrix suffers more IR drop
        // than the same matrix remapped to ±1, because the remap splits the
        // current between the two lines of the pair.
        let alpha = 0.002;
        let mk = |weights: Vec<Vec<i64>>| {
            let mut cfg = CrossbarConfig::ideal(32, 1);
            cfg.bits_per_cell = 1;
            cfg.device = DeviceParams::ideal(1).expect("valid");
            cfg.ir_drop_alpha = alpha;
            let mut xb = Crossbar::new(cfg).expect("valid");
            xb.program(&weights, &mut rng()).expect("programs");
            xb
        };
        // half the rows hold 1, half hold 0; all inputs active
        let plain: Vec<Vec<i64>> = (0..32).map(|r| vec![i64::from(r % 2 == 0)]).collect();
        let remapped: Vec<Vec<i64>> = (0..32)
            .map(|r| vec![if r % 2 == 0 { 1 } else { -1 }])
            .collect();
        let xb_plain = mk(plain);
        let xb_remap = mk(remapped);
        let input = vec![true; 32];
        let exact_plain = 16.0;
        let exact_remap = 0.0;
        let got_plain =
            xb_plain.mvm_currents(&input, &mut rng()).expect("ok")[0] / xb_plain.unit_current();
        let got_remap =
            xb_remap.mvm_currents(&input, &mut rng()).expect("ok")[0] / xb_remap.unit_current();
        let err_plain = (got_plain - exact_plain).abs();
        let err_remap = (got_remap - exact_remap).abs();
        assert!(
            err_remap < err_plain,
            "remap error {err_remap} !< plain error {err_plain}"
        );
    }

    #[test]
    fn noisy_mvm_stays_near_exact() {
        let cfg = CrossbarConfig::evaluation(2).expect("valid");
        let mut xbar = Crossbar::new(CrossbarConfig {
            rows: 16,
            cols: 4,
            ..cfg
        })
        .expect("valid");
        let matrix: Vec<Vec<i64>> = (0..16)
            .map(|r| (0..4).map(|c| ((r + c) % 7) as i64 - 3).collect())
            .collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        let input: Vec<bool> = (0..16).map(|i| i % 3 != 0).collect();
        let exact = xbar.mvm_exact(&input).expect("ok");
        let currents = xbar.mvm_currents(&input, &mut rng()).expect("ok");
        for (c, &e) in exact.iter().enumerate() {
            let units = currents[c] / xbar.unit_current();
            assert!((units - e as f64).abs() < 1.5, "col {c}: {units} vs {e}");
        }
    }

    #[test]
    fn pathological_sigma_keeps_bitline_currents_finite() {
        // A lognormal programming sigma large enough to overflow `exp`
        // yields +inf draws; the write–verify loop must clamp them to the
        // device window (counting the saturations) so MVM line currents
        // stay finite instead of poisoning every downstream sum.
        let mut cfg = CrossbarConfig::evaluation(4).expect("valid");
        cfg.rows = 8;
        cfg.cols = 4;
        cfg.device.program_sigma = 1e6;
        let mut xbar = Crossbar::new(cfg).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..8)
            .map(|r| (0..4).map(|c| ((r * 4 + c) % 15) as i64 - 7).collect())
            .collect();
        xbar.program(&matrix, &mut rng()).expect("clamped writes");
        assert!(xbar.saturated_writes() > 0, "sigma 1e6 must rail writes");
        let input = vec![true; 8];
        let currents = xbar.mvm_currents(&input, &mut rng()).expect("shape ok");
        for (c, i) in currents.iter().enumerate() {
            assert!(i.is_finite(), "col {c} current {i} is not finite");
        }
    }

    #[test]
    fn crossbars_off_their_levels_are_not_level_exact() {
        let base = ideal_xbar(4, 4, 4);
        assert!(base.level_exact());
        let with = |edit: fn(&mut CrossbarConfig)| {
            let mut config = base.config().clone();
            edit(&mut config);
            Crossbar::new(config).expect("valid").level_exact()
        };
        assert!(!with(|c| c.ir_drop_alpha = 0.002));
        assert!(!with(|c| c.range_scale = 0.5));
        assert!(!with(|c| c.device.program_sigma = 0.02));
        assert!(!with(|c| c.device.read_sigma = 0.005));
        assert!(with(|c| c.device.stuck_at_rate = 0.1));

        // Only a level-exact crossbar pays for the net-level matrix.
        let mut config = base.config().clone();
        config.device.program_sigma = 0.02;
        let mut noisy = Crossbar::new(config).expect("valid");
        noisy
            .program(&vec![vec![3; 4]; 4], &mut rng())
            .expect("programs");
        noisy
            .update_row(0, &[1, 2, 3, 4], &mut rng())
            .expect("updates");
        noisy.inject_stuck_at_faults(&mut rng());
        assert!(noisy.net_levels.is_empty());
        assert_eq!(base.net_levels.len(), 16);
    }

    #[test]
    fn stuck_at_faults_perturb_results() {
        let mut cfg = CrossbarConfig::ideal(16, 2);
        cfg.bits_per_cell = 1;
        let mut device = DeviceParams::ideal(1).expect("valid");
        device.stuck_at_rate = 0.3;
        cfg.device = device;
        let mut xbar = Crossbar::new(cfg).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..16).map(|_| vec![1, 0]).collect();
        xbar.program(&matrix, &mut rng()).expect("programs");
        let faults = xbar.inject_stuck_at_faults(&mut rng());
        assert!(faults > 0);
    }
}
