//! A digital PUM array: column-parallel Boolean execution in SLC ReRAM.
//!
//! The array keeps each device's on/off state as a plain bit. It shares the
//! ReRAM substrate's error type but none of the analog device state:
//! levels, conductances and noise belong to the crossbar's planes.
//!
//! Digital primitives operate on *columns* (bitlines): the OSCAR NOR of
//! Figure 4 drives two input bitlines and one output bitline, and every
//! floated wordline (row) computes independently. A [`DigitalArray`]
//! therefore exposes gate execution between columns, applied to all rows in
//! parallel, plus the row-granularity reads/writes the peripheral I/O
//! circuitry performs when data enters or leaves the array.

use crate::logic::{BoolOp, LogicFamily};
use crate::{Error, Result};
use darth_reram::Error as ReramError;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One array of a RACER pipeline, holding a single bit position of every
/// value striped across the pipeline.
///
/// Digital PUM needs only each SLC device's on/off state (§2.2.2 treats
/// its writes as error-free), so the array stores plain bits,
/// column-major: a gate reads and writes whole bitlines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigitalArray {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
    /// Primitive operations executed so far (for energy accounting).
    primitives_executed: u64,
}

impl DigitalArray {
    /// Creates an erased `rows`×`cols` digital array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Reram`] with
    /// [`darth_reram::Error::InvalidDimensions`] for a zero dimension.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(ReramError::InvalidDimensions { rows, cols }.into());
        }
        Ok(DigitalArray {
            rows,
            cols,
            bits: vec![false; rows * cols],
            primitives_executed: 0,
        })
    }

    /// Number of rows (vector elements).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (vector registers + scratch).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total primitives executed by this array since creation.
    pub fn primitives_executed(&self) -> u64 {
        self.primitives_executed
    }

    fn out_of_bounds(&self, row: usize, col: usize) -> Error {
        ReramError::OutOfBounds {
            row,
            col,
            rows: self.rows,
            cols: self.cols,
        }
        .into()
    }

    /// The bit positions of one column.
    fn col_range(&self, col: usize) -> Result<Range<usize>> {
        if col >= self.cols {
            return Err(self.out_of_bounds(0, col));
        }
        Ok(col * self.rows..(col + 1) * self.rows)
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "digital access ({row}, {col}) must stay within the {}x{} array",
            self.rows,
            self.cols
        );
        col * self.rows + row
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the array.
    pub fn bit(&self, row: usize, col: usize) -> bool {
        self.bits[self.index(row, col)]
    }

    /// Writes one bit (peripheral write, not a Boolean primitive).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the array.
    pub fn set_bit(&mut self, row: usize, col: usize, value: bool) {
        let i = self.index(row, col);
        self.bits[i] = value;
    }

    /// Reads a whole column (one vector register's bit position).
    ///
    /// # Errors
    ///
    /// Returns an error if `col` is out of range.
    pub fn col(&self, col: usize) -> Result<Vec<bool>> {
        Ok(self.bits[self.col_range(col)?].to_vec())
    }

    /// Overwrites a whole column.
    ///
    /// # Errors
    ///
    /// Returns an error if `values` has the wrong length or `col` is out
    /// of range.
    pub fn set_col(&mut self, col: usize, values: &[bool]) -> Result<()> {
        if values.len() != self.rows {
            return Err(self.out_of_bounds(values.len(), col));
        }
        let range = self.col_range(col)?;
        self.bits[range].copy_from_slice(values);
        Ok(())
    }

    /// Reads a whole row: one element's bit at this position in every
    /// column.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of range.
    pub fn row(&self, row: usize) -> Result<Vec<bool>> {
        if row >= self.rows {
            return Err(self.out_of_bounds(row, 0));
        }
        Ok((0..self.cols).map(|c| self.bit(row, c)).collect())
    }

    /// Executes a *native* primitive `out := op(a, b)` across all rows.
    ///
    /// For OSCAR this models the preset-then-pulse sequence: the output
    /// column is first set to '1', then each output device conditionally
    /// switches to '0' based on the input cell states and the bitline
    /// voltages (Figure 4). The input states are sensed by the pulse, not
    /// re-read after the preset, so an output column that aliases an input
    /// still computes from the original input values: each row's output
    /// depends only on that row's inputs.
    fn exec_native(&mut self, op: BoolOp, a: usize, b: usize, out: usize) {
        let (a, b, out) = (self.index(0, a), self.index(0, b), self.index(0, out));
        for row in 0..self.rows {
            self.bits[out + row] = op.eval(self.bits[a + row], self.bits[b + row]);
        }
        self.primitives_executed += 1;
    }

    /// Executes `out := op(a, b)` across all rows, decomposing non-native
    /// gates into the family's primitives using `scratch` columns.
    ///
    /// Returns the number of native primitives executed, which the caller
    /// converts to cycles and energy via
    /// [`LogicFamily::cycles_per_primitive`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfScratch`] when the decomposition needs more
    /// scratch columns than provided. The required count is
    /// [`LogicFamily::scratch_for`].
    pub fn exec_gate(
        &mut self,
        family: LogicFamily,
        op: BoolOp,
        a: usize,
        b: usize,
        out: usize,
        scratch: &[usize],
    ) -> Result<u64> {
        if family.is_native(op) {
            self.exec_native(op, a, b, out);
            return Ok(1);
        }
        debug_assert_eq!(family, LogicFamily::Oscar);
        if scratch.len() < family.scratch_for(op) {
            return Err(Error::OutOfScratch);
        }
        match op {
            BoolOp::And => {
                // AND(a,b) = NOR(!a, !b)
                let (s0, s1) = (scratch[0], scratch[1]);
                self.exec_native(BoolOp::Nor, a, a, s0); // !a
                self.exec_native(BoolOp::Nor, b, b, s1); // !b
                self.exec_native(BoolOp::Nor, s0, s1, out);
                Ok(3)
            }
            BoolOp::Nand => {
                // NAND(a,b) = OR(!a, !b)
                let (s0, s1) = (scratch[0], scratch[1]);
                self.exec_native(BoolOp::Nor, a, a, s0);
                self.exec_native(BoolOp::Nor, b, b, s1);
                self.exec_native(BoolOp::Or, s0, s1, out);
                Ok(3)
            }
            BoolOp::Xor => {
                // XOR(a,b) = NOR(NOR(a,b), AND(a,b))
                let (s0, s1, s2) = (scratch[0], scratch[1], scratch[2]);
                self.exec_native(BoolOp::Nor, a, b, s0); // !(a|b)
                self.exec_native(BoolOp::Nor, a, a, s1); // !a
                self.exec_native(BoolOp::Nor, b, b, s2); // !b
                self.exec_native(BoolOp::Nor, s1, s2, s1); // a&b
                self.exec_native(BoolOp::Nor, s0, s1, out);
                Ok(5)
            }
            BoolOp::Xnor => {
                // XNOR(a,b) = OR(NOR(a,b), AND(a,b))
                let (s0, s1, s2) = (scratch[0], scratch[1], scratch[2]);
                self.exec_native(BoolOp::Nor, a, b, s0);
                self.exec_native(BoolOp::Nor, a, a, s1);
                self.exec_native(BoolOp::Nor, b, b, s2);
                self.exec_native(BoolOp::Nor, s1, s2, s1);
                self.exec_native(BoolOp::Or, s0, s1, out);
                Ok(5)
            }
            BoolOp::Nor | BoolOp::Or => unreachable!("native ops handled above"),
        }
    }

    /// Copies column `from` into column `to` via a Boolean identity
    /// (`OR(from, from)` for OSCAR, one primitive either way).
    pub fn copy_col(&mut self, from: usize, to: usize) -> u64 {
        self.exec_native(BoolOp::Or, from, from, to);
        1
    }

    /// Clears a column to zero. The peripheral drivers can reset a bitline
    /// directly; modelled as one primitive-equivalent event.
    pub fn clear_col(&mut self, col: usize) -> u64 {
        let start = self.index(0, col);
        self.bits[start..start + self.rows].fill(false);
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> DigitalArray {
        DigitalArray::new(4, 8).expect("valid dims")
    }

    fn set_inputs(a: &mut DigitalArray, col_a: usize, col_b: usize) {
        // rows encode the four input combinations (00, 01, 10, 11)
        let avals = [false, false, true, true];
        let bvals = [false, true, false, true];
        a.set_col(col_a, &avals).expect("fits");
        a.set_col(col_b, &bvals).expect("fits");
    }

    #[test]
    fn native_nor_truth_table() {
        let mut arr = array();
        set_inputs(&mut arr, 0, 1);
        arr.exec_gate(LogicFamily::Oscar, BoolOp::Nor, 0, 1, 2, &[])
            .expect("native");
        assert_eq!(
            arr.col(2).expect("in range"),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn all_gates_all_families_match_truth_tables() {
        for family in [LogicFamily::Oscar, LogicFamily::Ideal] {
            for op in BoolOp::ALL {
                let mut arr = array();
                set_inputs(&mut arr, 0, 1);
                let scratch = [4, 5, 6];
                let prims = arr
                    .exec_gate(family, op, 0, 1, 2, &scratch)
                    .expect("executes");
                assert_eq!(prims, family.primitives_for(op), "{family} {op}");
                let expected: Vec<bool> =
                    [(false, false), (false, true), (true, false), (true, true)]
                        .iter()
                        .map(|&(a, b)| op.eval(a, b))
                        .collect();
                assert_eq!(arr.col(2).expect("in range"), expected, "{family} {op}");
            }
        }
    }

    #[test]
    fn xor_does_not_clobber_inputs() {
        let mut arr = array();
        set_inputs(&mut arr, 0, 1);
        arr.exec_gate(LogicFamily::Oscar, BoolOp::Xor, 0, 1, 2, &[4, 5, 6])
            .expect("executes");
        assert_eq!(
            arr.col(0).expect("in range"),
            vec![false, false, true, true]
        );
        assert_eq!(
            arr.col(1).expect("in range"),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn out_of_scratch_is_an_error() {
        let mut arr = array();
        set_inputs(&mut arr, 0, 1);
        let err = arr
            .exec_gate(LogicFamily::Oscar, BoolOp::Xor, 0, 1, 2, &[4])
            .unwrap_err();
        assert_eq!(err, Error::OutOfScratch);
    }

    #[test]
    fn primitive_counter_accumulates() {
        let mut arr = array();
        set_inputs(&mut arr, 0, 1);
        arr.exec_gate(LogicFamily::Oscar, BoolOp::Nor, 0, 1, 2, &[])
            .expect("executes");
        arr.exec_gate(LogicFamily::Oscar, BoolOp::Xor, 0, 1, 3, &[4, 5, 6])
            .expect("executes");
        assert_eq!(arr.primitives_executed(), 6); // 1 + 5
    }

    #[test]
    fn copy_col_duplicates() {
        let mut arr = array();
        arr.set_col(0, &[true, false, true, false]).expect("fits");
        arr.copy_col(0, 3);
        assert_eq!(arr.col(3).expect("in range"), arr.col(0).expect("in range"));
    }

    #[test]
    fn clear_col_zeroes() {
        let mut arr = array();
        arr.set_col(2, &[true, true, true, true]).expect("fits");
        arr.clear_col(2);
        assert_eq!(
            arr.col(2).expect("in range"),
            vec![false, false, false, false]
        );
    }

    #[test]
    fn in_place_output_aliasing_input_is_defined() {
        // The pulse senses input device states before the output switches,
        // so `NOR(a, b) -> a` computes from the original `a` values.
        let mut arr = array();
        set_inputs(&mut arr, 0, 1);
        arr.exec_gate(LogicFamily::Oscar, BoolOp::Nor, 0, 1, 0, &[])
            .expect("executes");
        assert_eq!(
            arr.col(0).expect("in range"),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn row_and_col_round_trip() {
        let mut arr = DigitalArray::new(3, 3).expect("valid dims");
        arr.set_col(0, &[true, true, false]).expect("fits");
        assert_eq!(arr.col(0).expect("in range"), vec![true, true, false]);
        arr.set_bit(1, 2, true);
        assert_eq!(arr.row(1).expect("in range"), vec![true, false, true]);
        // a column write must not disturb other columns
        assert_eq!(arr.col(1).expect("in range"), vec![false; 3]);
    }

    #[test]
    fn set_col_rejects_wrong_length_and_bad_indices() {
        let mut arr = DigitalArray::new(2, 3).expect("valid dims");
        assert!(matches!(
            arr.set_col(0, &[true]),
            Err(Error::Reram(ReramError::OutOfBounds { row: 1, col: 0, .. }))
        ));
        assert!(arr.set_col(3, &[true, false]).is_err());
        assert!(arr.col(3).is_err());
        assert!(arr.row(2).is_err());
        assert!(matches!(
            DigitalArray::new(0, 3),
            Err(Error::Reram(ReramError::InvalidDimensions { .. }))
        ));
    }

    #[test]
    fn row_reads_cross_columns() {
        let mut arr = array();
        arr.set_bit(1, 0, true);
        arr.set_bit(1, 3, true);
        let row = arr.row(1).expect("in range");
        assert_eq!(
            row,
            vec![true, false, false, true, false, false, false, false]
        );
    }
}
