//! The DCE pipeline abstraction shared by the reference and fast paths.
//!
//! [`DcePipeline`] is the surface the chip model programs against: vector
//! register I/O, the Boolean/arithmetic macro library, inter-pipeline
//! transfers and the timing/energy meters. Two implementations exist:
//!
//! * [`Pipeline`](crate::pipeline::Pipeline) — the cell-accurate
//!   reference, replaying each OSCAR primitive pulse by pulse over
//!   simulated ReRAM devices;
//! * [`PackedPipeline`](crate::packed::PackedPipeline) — the packed fast
//!   path, evaluating 64 cells per `u64` word while booking identical
//!   costs and primitive counts.
//!
//! The trait is the only declaration of the pipeline API: both types
//! implement it directly, so callers import it to reach any operation.
//! Making the chip generic over this trait keeps the MVM, timing and
//! energy logic single-copy, so the fast path cannot drift from the
//! reference in any layer above the pipeline.

use crate::logic::{BoolOp, LogicFamily};
use crate::pipeline::PipelineConfig;
use crate::timing::MacroCost;
use crate::{Error, Result};
use darth_reram::{Cycles, PicoJoules};

/// A RACER bit-pipeline: `depth`-bit values striped across bit planes,
/// `elements`-wide SIMD macros, and the timing/energy accounting the chip
/// model reads back.
///
/// All implementations must be observationally identical for identical
/// call sequences: same results, same errors (variant and check order),
/// same elapsed cycles and same primitive counts. The differential suite
/// in `darth_sim` enforces this end to end.
pub trait DcePipeline: Sized + Clone + std::fmt::Debug + Send {
    /// Creates a pipeline with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for unusable geometry.
    fn new(config: PipelineConfig) -> Result<Self>;

    /// The pipeline's configuration.
    fn config(&self) -> &PipelineConfig;

    /// Bit width of stored values.
    fn depth(&self) -> usize {
        self.config().depth
    }

    /// SIMD element count.
    fn elements(&self) -> usize {
        self.config().elements
    }

    /// Number of architectural vector registers.
    fn vr_count(&self) -> usize {
        self.config().vr_count
    }

    /// The logic family in use.
    fn family(&self) -> LogicFamily {
        self.config().family
    }

    /// Writes one element of a vector register.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range indices or a value wider than
    /// the pipeline depth.
    fn write_value(&mut self, vr: usize, element: usize, value: u64) -> Result<()>;

    /// Reads one element of a vector register.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range indices.
    fn read_value(&mut self, vr: usize, element: usize) -> Result<u64>;

    /// Reads one element as a signed two's-complement value.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range indices.
    fn read_value_signed(&mut self, vr: usize, element: usize) -> Result<i64> {
        let raw = self.read_value(vr, element)?;
        let depth = self.config().depth;
        if depth == 64 {
            return Ok(raw as i64);
        }
        let sign = 1u64 << (depth - 1);
        if raw & sign != 0 {
            Ok((raw as i64) - (1i64 << depth))
        } else {
            Ok(raw as i64)
        }
    }

    /// Writes a full vector (one element per row).
    ///
    /// # Errors
    ///
    /// Returns an error if `values` exceeds the element count or any
    /// value is too wide.
    fn write_vector(&mut self, vr: usize, values: &[u64]) -> Result<()> {
        if values.len() > self.config().elements {
            return Err(Error::InvalidElement {
                element: values.len(),
                count: self.config().elements,
            });
        }
        for (e, &v) in values.iter().enumerate() {
            self.write_value(vr, e, v)?;
        }
        Ok(())
    }

    /// Reads a full vector.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range register.
    fn read_vector(&mut self, vr: usize) -> Result<Vec<u64>> {
        (0..self.config().elements)
            .map(|e| self.read_value(vr, e))
            .collect()
    }

    /// Reads the first `count` elements as signed two's-complement
    /// values, charging one `ReadElement` per element like the scalar
    /// reads it stands in for.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range indices.
    fn read_signed_prefix(&mut self, vr: usize, count: usize) -> Result<Vec<i64>> {
        (0..count).map(|e| self.read_value_signed(vr, e)).collect()
    }

    /// Reads a value without charging I/O cost.
    fn peek_value(&self, vr: usize, element: usize) -> u64;

    /// `dst := op(a, b)` element-wise across the whole vector register.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn bool_op(&mut self, op: BoolOp, dst: usize, a: usize, b: usize) -> Result<()>;

    /// `dst := !a`, element-wise.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn not(&mut self, dst: usize, a: usize) -> Result<()>;

    /// `dst := a + b` (mod `2^depth`), element-wise.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn add(&mut self, dst: usize, a: usize, b: usize) -> Result<()>;

    /// `dst := a - b` (mod `2^depth`), element-wise.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn sub(&mut self, dst: usize, a: usize, b: usize) -> Result<()>;

    /// `dst := (a < b) ? all-ones : 0`, element-wise unsigned compare.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn cmp_lt(&mut self, dst: usize, a: usize, b: usize) -> Result<()>;

    /// `dst := cond ? a : b`, element-wise, with a 0/all-ones mask.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn select(&mut self, dst: usize, cond: usize, a: usize, b: usize) -> Result<()>;

    /// `dst := max(a, 0)` on two's-complement values.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn relu(&mut self, dst: usize, a: usize) -> Result<()>;

    /// `dst := a * b` (mod `2^depth`) over `width`-bit operands.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn mul(&mut self, dst: usize, a: usize, b: usize, width: u8) -> Result<()>;

    /// `dst := src` within this pipeline.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers.
    fn copy_vr(&mut self, dst: usize, src: usize) -> Result<()>;

    /// Copies a vector register from another pipeline into this one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::GeometryMismatch`] when the pipelines differ in
    /// depth or element count, or an index error.
    fn copy_from(&mut self, other: &Self, src_vr: usize, dst_vr: usize) -> Result<()>;

    /// `dst := src << k` (element-wise bit shift).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShiftTooFar`] when `k` exceeds the depth.
    fn shl(&mut self, dst: usize, src: usize, k: usize) -> Result<()>;

    /// `dst := src >> k` (logical right shift).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShiftTooFar`] when `k` exceeds the depth.
    fn shr(&mut self, dst: usize, src: usize, k: usize) -> Result<()>;

    /// `dst := rotl(src, k)` within the low `width` bits, via `tmp`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range registers, a `width` above the
    /// pipeline depth, or `k >= width`.
    fn rotate_left(
        &mut self,
        dst: usize,
        src: usize,
        tmp: usize,
        k: usize,
        width: usize,
    ) -> Result<()>;

    /// Reverses the pipeline's bit order (drains in-flight work first).
    fn reverse(&mut self);

    /// Element-wise indexed load: for each element `e`, reads the address
    /// in `addr_vr[e]`, fetches that value from `table`, stores it into
    /// `dst_vr[e]`. `table` is `&mut` so an implementation may refresh a
    /// host-side lookup cache on it; its modelled state is only read.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for addresses beyond the
    /// table's register file, or a geometry error when depths differ.
    fn elementwise_load(&mut self, addr_vr: usize, table: &mut Self, dst_vr: usize) -> Result<()>;

    /// Total native primitives executed.
    fn primitives_executed(&self) -> u64;

    /// Dynamic energy of all executed primitives.
    fn energy(&self) -> PicoJoules;

    /// Elapsed cycles including a drain of in-flight work.
    fn elapsed(&self) -> Cycles;

    /// Replaces the timer, returning the previous elapsed time.
    fn reset_timer(&mut self) -> Cycles;

    /// Issues an externally computed cost into this pipeline's timer.
    fn charge_external(&mut self, cost: MacroCost);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            depth: 8,
            elements: 8,
            vr_count: 10,
            scratch_cols: 8,
            family: LogicFamily::Oscar,
        }
    }

    /// Exercises the trait surface generically so both implementations
    /// compile against the same bounds the chip model uses.
    fn add_through_trait<P: DcePipeline>() -> (u64, u64) {
        let mut p = P::new(cfg()).expect("builds");
        p.write_value(0, 0, 25).expect("writes");
        p.write_value(1, 0, 17).expect("writes");
        p.add(2, 0, 1).expect("adds");
        (p.read_value(2, 0).expect("reads"), p.primitives_executed())
    }

    #[test]
    fn reference_and_packed_agree_through_the_trait() {
        let (sum_ref, prims_ref) = add_through_trait::<crate::pipeline::Pipeline>();
        let (sum_fast, prims_fast) = add_through_trait::<crate::packed::PackedPipeline>();
        assert_eq!(sum_ref, 42);
        assert_eq!(sum_fast, 42);
        assert_eq!(prims_ref, prims_fast);
    }

    #[test]
    fn signed_read_default_matches_reference_override() {
        let mut p = crate::packed::PackedPipeline::new(cfg()).expect("builds");
        p.write_value(0, 0, 0xFF).expect("writes");
        assert_eq!(p.read_value_signed(0, 0).expect("reads"), -1);
    }
}
