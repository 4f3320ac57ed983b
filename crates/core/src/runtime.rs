//! The application-agnostic runtime library (Table 1).
//!
//! `allocVACore` / `setMatrix` / `execMVM` / `updateRow` / `updateCol` /
//! `disableAnalogMode` / `disableDigitalMode`, with the paper's
//! programmer-facing simplifications: bit precision is a 0–2 scale mapped
//! to {1, half, max} bits per cell, matrices larger than one array tile
//! transparently across vACores (row tiles summed, column tiles
//! concatenated), and vACore handling stays invisible.
//!
//! The application-specific half of Table 1 (`AES_*`, `CNN_*`, `LLM_*`)
//! lives in `darth-apps`, built on these calls.

use crate::hct::{HctConfig, HybridComputeTile, MvmReport};
use crate::{Error, Result};
use darth_isa::iiu::ReductionRegs;
use darth_isa::VaCoreId;
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};

/// Maximum device bits per cell in the modelled technology.
const MAX_BITS_PER_CELL: u8 = 4;

/// Runtime configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Functional tile configuration.
    pub hct: HctConfig,
    /// Number of functional tiles to instantiate.
    pub tiles: usize,
    /// Input operand width assumed for `execMVM` (Table 1 hides this
    /// behind `elementSize`; 8-bit signed covers the evaluated kernels).
    pub input_bits: u8,
    /// Whether MVM inputs are two's complement.
    pub input_signed: bool,
}

impl RuntimeConfig {
    /// A small functional configuration for tests, examples and doctests.
    pub fn small_test() -> Self {
        RuntimeConfig {
            hct: HctConfig::small_test(),
            tiles: 1,
            input_bits: 8,
            input_signed: true,
        }
    }

    /// Maps Table 1's 0–2 precision scale to device bits per cell.
    pub fn precision_to_bits_per_cell(precision: u8) -> u8 {
        match precision {
            0 => 1,
            1 => MAX_BITS_PER_CELL / 2,
            _ => MAX_BITS_PER_CELL,
        }
    }
}

/// A stored matrix, possibly tiled over several vACores.
#[derive(Debug, Clone)]
struct MatrixAllocation {
    rows: usize,
    cols: usize,
    row_tile: usize,
    col_tile: usize,
    /// `cores[r][c]` = (tile index, vACore id) for row tile `r`, col tile
    /// `c`.
    cores: Vec<Vec<(usize, VaCoreId)>>,
    terms: usize,
}

/// Handle to a stored matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatrixHandle(usize);

/// Cumulative runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Cycles spent programming matrices.
    pub program_cycles: Cycles,
    /// Cycles spent executing MVMs.
    pub mvm_cycles: Cycles,
    /// MVMs executed.
    pub mvm_count: u64,
    /// Energy of all MVMs.
    pub mvm_energy: PicoJoules,
}

/// The DARTH-PUM runtime.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    tiles: Vec<HybridComputeTile>,
    matrices: Vec<MatrixAllocation>,
    next_tile: usize,
    analog_enabled: bool,
    digital_enabled: bool,
    stats: RuntimeStats,
}

impl Runtime {
    /// Builds a runtime over freshly constructed tiles.
    ///
    /// # Errors
    ///
    /// Propagates tile construction errors.
    pub fn new(config: RuntimeConfig) -> Result<Self> {
        if config.tiles == 0 {
            return Err(Error::InvalidConfig("at least one tile is required".into()));
        }
        let tiles = (0..config.tiles)
            .map(|i| {
                let mut c = config.hct.clone();
                c.seed = c.seed.wrapping_add(i as u64);
                HybridComputeTile::new(c)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Runtime {
            config,
            tiles,
            matrices: Vec::new(),
            next_tile: 0,
            analog_enabled: true,
            digital_enabled: true,
            stats: RuntimeStats::default(),
        })
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Table 1 `setMatrix`: stores a matrix with the required number of
    /// vACores, tiling across tiles round-robin.
    ///
    /// `element_size` is the matrix element width in bits; `precision` is
    /// the 0–2 scale.
    ///
    /// # Errors
    ///
    /// Returns shape errors for empty/ragged matrices, resource errors
    /// when vACores run out, or [`Error::DomainDisabled`] with the ACE
    /// off.
    pub fn set_matrix(
        &mut self,
        matrix: &[Vec<i64>],
        element_size: u8,
        precision: u8,
    ) -> Result<MatrixHandle> {
        if !self.analog_enabled {
            return Err(Error::DomainDisabled("analog"));
        }
        let rows = matrix.len();
        let cols = matrix.first().map_or(0, Vec::len);
        if rows == 0 || cols == 0 {
            return Err(Error::Shape("matrix must be non-empty".into()));
        }
        if matrix.iter().any(|r| r.len() != cols) {
            return Err(Error::Shape("ragged matrix".into()));
        }
        let bits_per_cell =
            RuntimeConfig::precision_to_bits_per_cell(precision).min(element_size.max(1));
        let dim = self.config.hct.params.array_dim;
        let row_tiles = rows.div_ceil(dim);
        let col_tiles = cols.div_ceil(dim);
        let mut cores = Vec::with_capacity(row_tiles);
        let mut terms = 0;
        for rt in 0..row_tiles {
            let mut row_cores = Vec::with_capacity(col_tiles);
            for ct in 0..col_tiles {
                let tile_idx = self.next_tile % self.tiles.len();
                self.next_tile += 1;
                let tile = &mut self.tiles[tile_idx];
                let id = tile.alloc_vacore(
                    element_size,
                    bits_per_cell,
                    self.config.input_bits,
                    self.config.input_signed,
                )?;
                let r0 = rt * dim;
                let c0 = ct * dim;
                let sub: Vec<Vec<i64>> = matrix[r0..(r0 + dim).min(rows)]
                    .iter()
                    .map(|row| row[c0..(c0 + dim).min(cols)].to_vec())
                    .collect();
                let cycles = tile.set_matrix(id, &sub)?;
                self.stats.program_cycles += cycles;
                terms = tile.vacores().get(id)?.term_count();
                row_cores.push((tile_idx, id));
            }
            cores.push(row_cores);
        }
        self.matrices.push(MatrixAllocation {
            rows,
            cols,
            row_tile: row_tiles,
            col_tile: col_tiles,
            cores,
            terms,
        });
        Ok(MatrixHandle(self.matrices.len() - 1))
    }

    fn allocation(&self, handle: MatrixHandle) -> Result<&MatrixAllocation> {
        self.matrices
            .get(handle.0)
            .ok_or(Error::UnknownMatrix(handle.0))
    }

    /// Table 1 `execMVM`: multiplies the stored matrix with `input`.
    ///
    /// Row tiles are summed and column tiles concatenated, reproducing the
    /// §5.1 decomposition of oversized layers.
    ///
    /// # Errors
    ///
    /// Returns shape errors for wrong-length inputs and substrate errors.
    pub fn exec_mvm(&mut self, handle: MatrixHandle, input: &[i64]) -> Result<Vec<i64>> {
        let alloc = self.allocation(handle)?.clone();
        if input.len() != alloc.rows {
            return Err(Error::Shape(format!(
                "input length {} does not match matrix rows {}",
                input.len(),
                alloc.rows
            )));
        }
        let dim = self.config.hct.params.array_dim;
        let regs = ReductionRegs::dense(alloc.terms);
        let mut result = vec![0i64; alloc.cols];
        for rt in 0..alloc.row_tile {
            let r0 = rt * dim;
            let sub_input = &input[r0..(r0 + dim).min(alloc.rows)];
            for ct in 0..alloc.col_tile {
                let (tile_idx, id) = alloc.cores[rt][ct];
                let report: MvmReport = if self.analog_enabled {
                    self.tiles[tile_idx].exec_mvm(id, sub_input, 0, &regs, None)?
                } else {
                    // disableAnalogMode: the matrix was copied to digital
                    // arrays; the MVM runs as DCE multiply-adds with the
                    // exact same result.
                    self.digital_mvm(tile_idx, id, sub_input)?
                };
                self.stats.mvm_cycles += report.cycles;
                self.stats.mvm_energy += report.energy;
                let c0 = ct * dim;
                let width = (c0 + dim).min(alloc.cols) - c0;
                if self.digital_enabled {
                    for (c, &v) in report.result[..width].iter().enumerate() {
                        result[c0 + c] += v;
                    }
                } else {
                    // disableDigitalMode: post-processing (tile merging)
                    // falls back to the host, same values.
                    for (c, &v) in report.result[..width].iter().enumerate() {
                        result[c0 + c] += v;
                    }
                }
            }
        }
        self.stats.mvm_count += 1;
        Ok(result)
    }

    /// Fallback MVM on the digital side (disableAnalogMode semantics).
    fn digital_mvm(&mut self, tile_idx: usize, id: VaCoreId, input: &[i64]) -> Result<MvmReport> {
        let tile = &mut self.tiles[tile_idx];
        let result = tile.mvm_oracle(id, input)?;
        // Cost: one 8-bit multiply + add per matrix row per column on the
        // DCE (bit-serial), using the macro cost model.
        let core = tile.vacores().get(id)?;
        let family = tile.config().family;
        let depth = tile.config().params.dce_pipeline_depth as u64;
        let elements = core.cols as u64;
        let mul =
            darth_digital::macros::MacroOp::Mul(core.element_bits).cost(family, depth, elements);
        let cycles = mul.pipelined_batch(core.rows as u64)
            + darth_digital::macros::MacroOp::Add
                .cost(family, depth, elements)
                .pipelined_batch(core.rows as u64);
        let energy = PicoJoules::new(
            mul.primitives as f64 * core.rows as f64 * family.energy_per_primitive_pj(),
        );
        tile.advance(cycles);
        Ok(MvmReport {
            result,
            cycles,
            analog_cycles: Cycles::ZERO,
            transfer_cycles: Cycles::ZERO,
            reduce_cycles: cycles,
            energy,
        })
    }

    /// Table 1 `updateRow`.
    ///
    /// # Errors
    ///
    /// Returns shape or substrate errors.
    pub fn update_row(&mut self, handle: MatrixHandle, row: usize, values: &[i64]) -> Result<()> {
        let alloc = self.allocation(handle)?.clone();
        if row >= alloc.rows || values.len() != alloc.cols {
            return Err(Error::Shape(format!(
                "row {row} of length {} does not fit {}x{}",
                values.len(),
                alloc.rows,
                alloc.cols
            )));
        }
        let dim = self.config.hct.params.array_dim;
        let rt = row / dim;
        let local_row = row % dim;
        for ct in 0..alloc.col_tile {
            let (tile_idx, id) = alloc.cores[rt][ct];
            let c0 = ct * dim;
            let width = (c0 + dim).min(alloc.cols) - c0;
            let cycles = self.tiles[tile_idx].update_row(id, local_row, &values[c0..c0 + width])?;
            self.stats.program_cycles += cycles;
        }
        Ok(())
    }

    /// Table 1 `updateCol`.
    ///
    /// # Errors
    ///
    /// Returns shape or substrate errors.
    pub fn update_col(&mut self, handle: MatrixHandle, col: usize, values: &[i64]) -> Result<()> {
        let alloc = self.allocation(handle)?.clone();
        if col >= alloc.cols || values.len() != alloc.rows {
            return Err(Error::Shape(format!(
                "column {col} of length {} does not fit {}x{}",
                values.len(),
                alloc.rows,
                alloc.cols
            )));
        }
        // Column updates decompose into per-row updates of the stored
        // weights (write–verify reprograms whole wordlines).
        for (row, &value) in values.iter().enumerate() {
            let mut stored = self.read_row(handle, row)?;
            stored[col] = value;
            self.update_row(handle, row, &stored)?;
        }
        Ok(())
    }

    /// Reads back a stored matrix row from the crossbars (test/verify
    /// support; the hardware equivalent is a digital read of the arrays).
    ///
    /// # Errors
    ///
    /// Returns unknown-handle or substrate errors.
    pub fn read_row(&self, handle: MatrixHandle, row: usize) -> Result<Vec<i64>> {
        let alloc = self.allocation(handle)?;
        if row >= alloc.rows {
            return Err(Error::Shape(format!(
                "row {row} out of range for {} rows",
                alloc.rows
            )));
        }
        let dim = self.config.hct.params.array_dim;
        let rt = row / dim;
        let local_row = row % dim;
        let mut out = vec![0i64; alloc.cols];
        for ct in 0..alloc.col_tile {
            let (tile_idx, id) = alloc.cores[rt][ct];
            let stored = self.tiles[tile_idx].stored_row(id, local_row)?;
            let c0 = ct * dim;
            out[c0..c0 + stored.len()].copy_from_slice(&stored);
        }
        Ok(out)
    }

    /// Table 1 `disableAnalogMode`: subsequent MVMs run on the DCE.
    pub fn disable_analog_mode(&mut self) {
        self.analog_enabled = false;
    }

    /// Re-enables the ACE.
    pub fn enable_analog_mode(&mut self) {
        self.analog_enabled = true;
    }

    /// Table 1 `disableDigitalMode`: DCE post-processing off (tile merges
    /// fall back to the host).
    pub fn disable_digital_mode(&mut self) {
        self.digital_enabled = false;
    }

    /// Re-enables DCE post-processing.
    pub fn enable_digital_mode(&mut self) {
        self.digital_enabled = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig::small_test()).expect("valid")
    }

    fn mvm_oracle(matrix: &[Vec<i64>], input: &[i64]) -> Vec<i64> {
        let cols = matrix[0].len();
        (0..cols)
            .map(|c| (0..matrix.len()).map(|r| input[r] * matrix[r][c]).sum())
            .collect()
    }

    #[test]
    fn small_mvm_round_trip() {
        let mut rt = runtime();
        let matrix = vec![vec![2, -1], vec![3, 4]];
        let h = rt.set_matrix(&matrix, 4, 1).expect("stores");
        let out = rt.exec_mvm(h, &[1, 2]).expect("executes");
        assert_eq!(out, mvm_oracle(&matrix, &[1, 2]));
        assert_eq!(rt.stats().mvm_count, 1);
        assert!(rt.stats().mvm_cycles > Cycles::ZERO);
    }

    #[test]
    fn precision_scale_mapping() {
        assert_eq!(RuntimeConfig::precision_to_bits_per_cell(0), 1);
        assert_eq!(RuntimeConfig::precision_to_bits_per_cell(1), 2);
        assert_eq!(RuntimeConfig::precision_to_bits_per_cell(2), 4);
    }

    #[test]
    fn row_tiled_matrix_sums_partials() {
        // 80 rows exceeds the 64-row array: two row tiles, summed.
        let mut rt = runtime();
        let rows = 80;
        let matrix: Vec<Vec<i64>> = (0..rows)
            .map(|r| vec![(r % 5) as i64 - 2, (r % 3) as i64])
            .collect();
        let h = rt.set_matrix(&matrix, 4, 1).expect("stores");
        let input: Vec<i64> = (0..rows).map(|r| (r % 7) as i64 - 3).collect();
        let out = rt.exec_mvm(h, &input).expect("executes");
        assert_eq!(out, mvm_oracle(&matrix, &input));
    }

    #[test]
    fn col_tiled_matrix_concatenates() {
        // 100 columns exceeds one array: two column tiles, concatenated.
        let mut rt = runtime();
        let cols = 100;
        let matrix: Vec<Vec<i64>> = (0..8)
            .map(|r| (0..cols).map(|c| ((r * c) % 9) as i64 - 4).collect())
            .collect();
        let h = rt.set_matrix(&matrix, 4, 1).expect("stores");
        let input = vec![1i64; 8];
        let out = rt.exec_mvm(h, &input).expect("executes");
        assert_eq!(out, mvm_oracle(&matrix, &input));
    }

    #[test]
    fn wrong_input_length_is_rejected() {
        let mut rt = runtime();
        let h = rt
            .set_matrix(&[vec![1, 2], vec![3, 4]], 4, 1)
            .expect("stores");
        assert!(matches!(rt.exec_mvm(h, &[1]), Err(Error::Shape(_))));
    }

    #[test]
    fn update_row_and_col() {
        let mut rt = runtime();
        let h = rt
            .set_matrix(&[vec![1, 1], vec![1, 1]], 4, 1)
            .expect("stores");
        rt.update_row(h, 0, &[5, -5]).expect("updates row");
        assert_eq!(rt.read_row(h, 0).expect("reads"), vec![5, -5]);
        rt.update_col(h, 1, &[7, 7]).expect("updates col");
        let out = rt.exec_mvm(h, &[1, 1]).expect("executes");
        assert_eq!(out, vec![5 + 1, 7 + 7]);
    }

    #[test]
    fn disable_analog_mode_uses_digital_path() {
        let mut rt = runtime();
        let matrix = vec![vec![3, -2], vec![1, 4]];
        let h = rt.set_matrix(&matrix, 4, 1).expect("stores");
        rt.disable_analog_mode();
        let out = rt.exec_mvm(h, &[2, -1]).expect("executes digitally");
        assert_eq!(out, mvm_oracle(&matrix, &[2, -1]));
        // new matrices cannot be stored while the ACE is down
        assert!(matches!(
            rt.set_matrix(&matrix, 4, 1),
            Err(Error::DomainDisabled("analog"))
        ));
        rt.enable_analog_mode();
        rt.set_matrix(&matrix, 4, 1).expect("stores again");
    }

    #[test]
    fn disable_digital_mode_still_correct() {
        let mut rt = runtime();
        let matrix = vec![vec![1, 2], vec![3, 4]];
        let h = rt.set_matrix(&matrix, 4, 1).expect("stores");
        rt.disable_digital_mode();
        let out = rt.exec_mvm(h, &[1, 1]).expect("executes");
        assert_eq!(out, mvm_oracle(&matrix, &[1, 1]));
        rt.enable_digital_mode();
    }

    #[test]
    fn unknown_handle() {
        let mut rt = runtime();
        assert!(matches!(
            rt.exec_mvm(MatrixHandle(9), &[1]),
            Err(Error::UnknownMatrix(9))
        ));
    }
}
