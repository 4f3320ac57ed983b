//! A convolution layer compiled to a self-contained ISA job.
//!
//! The §5.1 lowering made executable: the layer's weights become one
//! Toeplitz (im2col) matrix programmed into a vACore, each output pixel's
//! receptive field is staged as an input vector, and one analog MVM per
//! pixel produces all output channels at once, with the bias folded in by
//! a DCE `add`. The program is built as a `darth_kir` kernel IR and
//! compiled by its verify → allocate → lower pipeline. The differential
//! harness checks every output cell against the plain-Rust [`conv2d`]
//! reference.

use super::tensor::{conv2d, im2col_row, ConvWeights, Tensor3};
use crate::gemm::GemmWorkload;
use darth_kir::{CompiledKernel, KernelIr, KirBuilder};
use darth_pum::eval::{ErrorMetric, ExecJob, ExecOutput, Executable, SplitJob};
use darth_pum::hct::HctConfig;

/// Pipeline roles of the compiled convolution job.
const P_CONV_IN: u16 = 0;
const P_CONV_LAND: u16 = 1;
const CONV_DEPTH: usize = 16;
/// Output pixels the job shape supports (one parked patch register and
/// one result register per pixel, clear of the MVM landing cluster).
const CONV_MAX_PIXELS: usize = 8;

/// A quantized convolution layer compiled to an ISA job: deterministic
/// small-integer weights/activations sized so the raw accumulator (plus
/// bias) stays inside the 8-bit activation range — the golden
/// [`conv2d`] output is then bit-identical to the analog MVM path with
/// no requantization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvExec {
    /// Input channels.
    pub in_channels: usize,
    /// Input height and width (square).
    pub size: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel size (square, stride 1, no padding).
    pub kernel: usize,
    /// Data-synthesis seed.
    pub seed: u64,
}

impl ConvExec {
    /// The standard differential case: a 2-channel 4×4 input through a
    /// 3-output-channel 3×3 layer (2×2 output pixels).
    pub fn standard() -> Self {
        ConvExec {
            in_channels: 2,
            size: 4,
            out_channels: 3,
            kernel: 3,
            seed: 9,
        }
    }

    /// Output rows/cols (stride 1, no padding); `0` when the kernel
    /// does not fit the input (such configs are rejected by
    /// [`ConvExec::compiled`], but accessors must not underflow first).
    pub fn out_size(&self) -> usize {
        (self.size + 1).saturating_sub(self.kernel)
    }

    /// Rows of the Toeplitz matrix (`in_channels · kernel²`).
    pub fn toeplitz_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// The priced twin: the layer's im2col GEMM shape.
    pub fn workload(&self) -> GemmWorkload {
        GemmWorkload {
            m: (self.out_size() * self.out_size()) as u64,
            k: self.toeplitz_rows() as u64,
            n: self.out_channels as u64,
            input_bits: 4,
            weight_bits: 4,
        }
    }

    /// Deterministic layer weights (magnitudes ≤ 2) and biases.
    pub fn conv_weights(&self) -> ConvWeights {
        let n = self.out_channels * self.in_channels * self.kernel * self.kernel;
        let weights: Vec<i32> = (0..n)
            .map(|i| (((i as i64 * 3 + self.seed as i64) % 5) - 2) as i32)
            .collect();
        let bias: Vec<i32> = (0..self.out_channels)
            .map(|co| (((co as i64 * 7 + self.seed as i64) % 5) - 2) as i32)
            .collect();
        ConvWeights::new(
            self.out_channels,
            self.in_channels,
            self.kernel,
            weights,
            bias,
        )
        .expect("shape is consistent by construction")
    }

    /// Deterministic input activations (magnitudes ≤ 3).
    pub fn input(&self) -> Tensor3 {
        let n = self.in_channels * self.size * self.size;
        Tensor3::from_data(
            self.in_channels,
            self.size,
            self.size,
            (0..n)
                .map(|i| (((i as i64 * 5 + self.seed as i64) % 7) - 3) as i32)
                .collect(),
        )
        .expect("shape is consistent by construction")
    }

    /// The Toeplitz weight matrix: row = im2col position, column =
    /// output channel.
    fn toeplitz_matrix(&self, w: &ConvWeights) -> Vec<Vec<i64>> {
        (0..self.in_channels)
            .flat_map(|ci| {
                (0..self.kernel).flat_map(move |ky| (0..self.kernel).map(move |kx| (ci, ky, kx)))
            })
            .map(|(ci, ky, kx)| {
                (0..self.out_channels)
                    .map(|co| i64::from(w.weight(co, ci, ky, kx)))
                    .collect()
            })
            .collect()
    }

    /// Each output pixel's im2col patch, in readback (row-major pixel)
    /// order — the per-request payloads for
    /// [`CompiledKernel::input_program`].
    pub fn input_cells(&self, input: &Tensor3) -> Vec<Vec<i64>> {
        self.patches(input)
    }

    fn patches(&self, input: &Tensor3) -> Vec<Vec<i64>> {
        let out = self.out_size();
        (0..out)
            .flat_map(|oy| {
                (0..out)
                    .map(|ox| {
                        im2col_row(input, self.kernel, 1, 0, oy, ox)
                            .iter()
                            .map(|&x| i64::from(x))
                            .collect()
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The tile geometry the compiled program targets.
    pub fn tile_config() -> HctConfig {
        HctConfig {
            functional_pipelines: 2,
            functional_depth: CONV_DEPTH,
            functional_elements: 64,
            functional_vrs: 40,
            functional_ace_arrays: 2,
            ..HctConfig::small_test()
        }
    }

    fn validate(&self) -> darth_pum::Result<()> {
        if self.kernel == 0 || self.kernel > self.size {
            return Err(darth_pum::Error::Shape(
                "kernel must be nonzero and fit the input".into(),
            ));
        }
        let pixels = self.out_size() * self.out_size();
        if pixels > CONV_MAX_PIXELS || self.toeplitz_rows() > 64 || self.out_channels > 64 {
            return Err(darth_pum::Error::Shape(format!(
                "conv {}x{}x{} k{} exceeds the single-array job shape",
                self.in_channels, self.size, self.out_channels, self.kernel
            )));
        }
        Ok(())
    }

    /// Builds the layer as a kernel IR: the Toeplitz matrix as one
    /// vACore, the bias as a landing-pipe constant, pixel `p`'s
    /// receptive field as input slot `patch-{p}`, and per pixel an
    /// analog MVM folded into a parked result register by a bias `add`.
    pub fn build_ir(&self) -> KernelIr {
        let w = self.conv_weights();
        let mut b = KirBuilder::new(self.exec_name(), ConvExec::tile_config());
        let toeplitz = b.vacore(self.toeplitz_matrix(&w), 4, 2, 4, true);
        let bias_cells: Vec<(u8, i64)> = (0..self.out_channels)
            .map(|co| (co as u8, i64::from(w.bias(co))))
            .collect();
        let bias = b.const_s(P_CONV_LAND, "bias", &bias_cells);
        let patches: Vec<darth_kir::Value> = self
            .patches(&self.input())
            .iter()
            .enumerate()
            .map(|(p, patch)| b.input(P_CONV_IN, format!("patch-{p}"), true, patch))
            .collect();
        let out = self.out_size();
        for (p, &patch) in patches.iter().enumerate() {
            let dst = b.slot(P_CONV_LAND, format!("out-{p}"));
            let acc = b.mvm(toeplitz, patch, P_CONV_LAND);
            b.add_into(dst, acc, bias);
            b.readback(
                format!("pixel-{}-{}", p / out.max(1), p % out.max(1)),
                dst,
                self.out_channels,
                true,
            );
        }
        b.finish()
    }

    /// Compiles the kernel through the `darth_kir` pipeline.
    ///
    /// # Errors
    ///
    /// Returns shape errors for oversized layers and compiler
    /// diagnostics.
    pub fn compiled(&self) -> darth_pum::Result<CompiledKernel> {
        self.validate()?;
        Ok(self.build_ir().compile()?)
    }

    /// The split form for serving: the weight/bias setup is resident,
    /// every per-request patch load lives in the input section, and the
    /// body is pure compute (one MVM+bias pair per pixel, then `halt`).
    ///
    /// # Errors
    ///
    /// Returns shape errors for oversized layers and compiler
    /// diagnostics.
    pub fn split_job(&self) -> darth_pum::Result<SplitJob> {
        Ok(self.compiled()?.into_split_job())
    }

    /// The encoded per-request input section: each output pixel's im2col
    /// patch as `wimm`s into its parked input register. Halt-free. The
    /// input tensor must match the layer's `in_channels × size × size`.
    ///
    /// # Errors
    ///
    /// Returns shape errors on an input shape mismatch and range errors
    /// for values outside the 16-bit two's-complement field.
    pub fn input_program(&self, input: &Tensor3) -> darth_pum::Result<Vec<u8>> {
        if input.channels() != self.in_channels
            || input.height() != self.size
            || input.width() != self.size
        {
            return Err(darth_pum::Error::Shape(format!(
                "input must be {}x{}x{}",
                self.in_channels, self.size, self.size
            )));
        }
        self.compiled()?
            .input_program(&self.patches(input))
            .map_err(darth_pum::Error::from)
    }

    /// Deterministic per-request input activations (magnitudes ≤ 2 —
    /// tighter than [`ConvExec::input`] so accumulators stay clamp-free
    /// even for the larger serving shapes).
    pub fn synth_input(&self, request_seed: u64) -> Tensor3 {
        let n = self.in_channels * self.size * self.size;
        let s = request_seed as i64;
        Tensor3::from_data(
            self.in_channels,
            self.size,
            self.size,
            (0..n)
                .map(|i| (((i as i64 * 5 + s) % 5) - 2) as i32)
                .collect(),
        )
        .expect("shape is consistent by construction")
    }

    /// Golden outputs for an arbitrary input tensor under this layer's
    /// weights (shape-matched to the job's readbacks).
    ///
    /// # Errors
    ///
    /// Returns shape errors from the reference convolution.
    pub fn golden_for(&self, input: &Tensor3) -> darth_pum::Result<Vec<ExecOutput>> {
        let reference = conv2d(input, &self.conv_weights(), 1, 0, 0)
            .map_err(|e| darth_pum::Error::Shape(e.to_string()))?;
        let out = self.out_size();
        Ok((0..out)
            .flat_map(|oy| {
                (0..out)
                    .map(|ox| ExecOutput {
                        label: format!("pixel-{oy}-{ox}"),
                        cells: (0..self.out_channels)
                            .map(|co| i64::from(reference.get(co, oy, ox)))
                            .collect(),
                    })
                    .collect::<Vec<_>>()
            })
            .collect())
    }
}

impl Executable for ConvExec {
    fn exec_name(&self) -> String {
        format!(
            "conv-{}x{}x{}-k{}",
            self.in_channels, self.size, self.out_channels, self.kernel
        )
    }

    fn job(&self) -> darth_pum::Result<ExecJob> {
        Ok(self.compiled()?.exec_job())
    }

    fn golden(&self) -> darth_pum::Result<Vec<ExecOutput>> {
        self.golden_for(&self.input())
    }

    fn error_metric(&self) -> ErrorMetric {
        ErrorMetric::Relative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::execute_job;

    #[test]
    fn compiled_conv_matches_conv2d_reference() {
        let exec = ConvExec::standard();
        let job = exec.job().expect("compiles");
        let golden = exec.golden().expect("golden");
        assert_eq!(execute_job(&job), golden);
    }

    #[test]
    fn accumulators_stay_inside_the_activation_range() {
        // The golden comparison is only exact when conv2d's clamp is a
        // no-op; the synthesized data must guarantee that.
        let exec = ConvExec::standard();
        for out in exec.golden().expect("golden") {
            for &cell in &out.cells {
                assert!((-128..=127).contains(&cell), "cell {cell} would clamp");
            }
        }
    }

    #[test]
    fn split_conv_serves_arbitrary_inputs_bit_exact() {
        let exec = ConvExec::standard();
        let split = exec.split_job().expect("splits");
        split.check_invariants().expect("invariants hold");
        for request_seed in [0u64, 7, 23] {
            let input = exec.synth_input(request_seed);
            let stub = exec.input_program(&input).expect("encodes");
            let full = split.full_job(&stub);
            let golden = exec.golden_for(&input).expect("golden");
            assert_eq!(execute_job(&full), golden, "seed {request_seed}");
        }
        // Shape mismatches are rejected at encode time.
        let wrong = Tensor3::zeros(1, exec.size, exec.size).expect("builds");
        assert!(exec.input_program(&wrong).is_err());
    }

    #[test]
    fn oversized_conv_exec_is_rejected() {
        let mut exec = ConvExec::standard();
        exec.size = 7; // 5x5 = 25 output pixels
        assert!(exec.job().is_err());
        let mut exec = ConvExec::standard();
        exec.kernel = 5;
        assert!(exec.job().is_err());
        // Accessors on the invalid point must not underflow either.
        assert_eq!(exec.out_size(), 0);
        assert_eq!(exec.workload().m, 0);
    }

    #[test]
    fn priced_twin_matches_the_toeplitz_shape() {
        let exec = ConvExec::standard();
        let w = exec.workload();
        assert_eq!(w.k, 18);
        assert_eq!(w.n, 3);
        assert_eq!(w.m, 4);
    }
}
