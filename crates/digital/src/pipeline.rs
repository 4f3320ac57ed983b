//! A RACER bit-pipeline: `depth` digital arrays with bit-striped vector
//! registers.
//!
//! Data layout (Figure 5 of the paper): a *vector register* (VR) is a column
//! index shared by all arrays; element `e` of a VR occupies row `e` in every
//! array, with bit `i` stored in array `i`. A pipeline with `elements` rows
//! therefore executes `elements`-wide SIMD operations, and a pipeline with
//! `depth` arrays handles `depth`-bit values.
//!
//! The functional model executes real cell-level gate programs for the
//! Boolean and additive macros (so AES on the DCE is bit-exact down to
//! individual OSCAR NOR pulses), while charging every macro's documented
//! cost from [`MacroOp::cost`] into a [`PipelineTimer`]. A handful of
//! wide macros (multiplication, comparison) execute at value level but
//! charge the same modelled cost; they are marked below.

use crate::array::DigitalArray;
use crate::dce::DcePipeline;
use crate::logic::{BoolOp, LogicFamily};
use crate::macros::MacroOp;
use crate::timing::{MacroCost, PipelineTimer};
use crate::{Error, Result};
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};

/// Geometry and logic family of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Number of arrays, i.e. the bit width of stored values (1..=64).
    pub depth: usize,
    /// Rows per array, i.e. the SIMD element count of a vector register.
    pub elements: usize,
    /// Architectural vector registers (columns visible to software).
    pub vr_count: usize,
    /// Scratch columns reserved for macro expansion (at least 8).
    pub scratch_cols: usize,
    /// The logic family executing the primitives.
    pub family: LogicFamily,
}

impl Default for PipelineConfig {
    /// Table 2 defaults: 64 arrays deep, 64×64 arrays, OSCAR primitives.
    fn default() -> Self {
        PipelineConfig {
            depth: 64,
            elements: 64,
            vr_count: 52,
            scratch_cols: 12,
            family: LogicFamily::Oscar,
        }
    }
}

impl PipelineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any dimension is unusable.
    pub fn validate(&self) -> Result<()> {
        if self.depth == 0 || self.depth > 64 {
            return Err(Error::InvalidConfig("depth must be in 1..=64"));
        }
        if self.elements == 0 {
            return Err(Error::InvalidConfig("elements must be nonzero"));
        }
        if self.vr_count == 0 {
            return Err(Error::InvalidConfig("vr_count must be nonzero"));
        }
        if self.scratch_cols < 8 {
            return Err(Error::InvalidConfig(
                "at least 8 scratch columns are required for the ADD chain",
            ));
        }
        Ok(())
    }

    /// Columns per array: architectural registers plus scratch.
    pub fn cols(&self) -> usize {
        self.vr_count + self.scratch_cols
    }
}

/// Encodes a signed value as the `depth`-bit two's-complement field a
/// pipeline stores — the host-side inverse of
/// [`DcePipeline::read_value_signed`], used when staging signed operands
/// through `WriteImm` instructions.
///
/// # Errors
///
/// Returns [`Error::ValueTooWide`] when `value` is outside the signed
/// range of `depth` bits, and [`Error::InvalidConfig`] for a depth
/// outside `1..=64`.
pub fn twos_complement_field(value: i64, depth: usize) -> Result<u64> {
    if depth == 0 || depth > 64 {
        return Err(Error::InvalidConfig("depth must be in 1..=64"));
    }
    if depth == 64 {
        return Ok(value as u64);
    }
    let min = -(1i64 << (depth - 1));
    let max = (1i64 << (depth - 1)) - 1;
    if value < min || value > max {
        return Err(Error::ValueTooWide {
            value: value.unsigned_abs(),
            depth,
        });
    }
    Ok((value as u64) & ((1u64 << depth) - 1))
}

// Scratch column roles, offset from `vr_count`.
const SC_CARRY: usize = 0;
const SC_X1: usize = 1;
const SC_C1: usize = 2;
const SC_C2: usize = 3;
const SC_GATE0: usize = 4;
const SC_GATE1: usize = 5;
const SC_GATE2: usize = 6;
const SC_MASK: usize = 7;

/// A bit-pipelined digital PUM unit.
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    config: PipelineConfig,
    arrays: Vec<DigitalArray>,
    timer: PipelineTimer,
}

impl Pipeline {
    fn check_vr(&self, vr: usize) -> Result<()> {
        if vr >= self.config.vr_count {
            return Err(Error::InvalidVectorRegister {
                vr,
                count: self.config.vr_count,
            });
        }
        Ok(())
    }

    fn check_elem(&self, element: usize) -> Result<()> {
        if element >= self.config.elements {
            return Err(Error::InvalidElement {
                element,
                count: self.config.elements,
            });
        }
        Ok(())
    }

    fn scratch(&self, role: usize) -> usize {
        self.config.vr_count + role
    }

    fn gate_scratch(&self) -> [usize; 3] {
        [
            self.scratch(SC_GATE0),
            self.scratch(SC_GATE1),
            self.scratch(SC_GATE2),
        ]
    }

    fn charge(&mut self, op: MacroOp) -> MacroCost {
        let cost = op.cost(
            self.config.family,
            self.config.depth as u64,
            self.config.elements as u64,
        );
        self.timer.issue(cost);
        cost
    }

    /// Mask for values representable at this depth.
    fn value_mask(&self) -> u64 {
        if self.config.depth == 64 {
            u64::MAX
        } else {
            (1u64 << self.config.depth) - 1
        }
    }

    /// The full-adder wave shared by `add` and `sub`. `b_col` may be a
    /// scratch column (for the negated subtrahend).
    fn ripple_add(&mut self, dst: usize, a: usize, b_col: usize, carry_in: bool) -> Result<()> {
        let family = self.config.family;
        let elements = self.config.elements;
        let sc_carry = self.scratch(SC_CARRY);
        let sc_x1 = self.scratch(SC_X1);
        let sc_c1 = self.scratch(SC_C1);
        let sc_c2 = self.scratch(SC_C2);
        let gates = self.gate_scratch();
        let mut carry = vec![carry_in; elements];
        for array in &mut self.arrays {
            array.set_col(sc_carry, &carry)?;
            // x1 = a XOR b
            array.exec_gate(family, BoolOp::Xor, a, b_col, sc_x1, &gates)?;
            // c1 = a AND b ; c2 = x1 AND carry (compute before dst write so
            // dst may alias a or b)
            array.exec_gate(family, BoolOp::And, a, b_col, sc_c1, &gates)?;
            array.exec_gate(family, BoolOp::And, sc_x1, sc_carry, sc_c2, &gates)?;
            // sum = x1 XOR carry
            array.exec_gate(family, BoolOp::Xor, sc_x1, sc_carry, dst, &gates)?;
            // cout = c1 OR c2 -> carry bus
            array.exec_gate(family, BoolOp::Or, sc_c1, sc_c2, sc_carry, &gates)?;
            carry = array.col(sc_carry)?;
        }
        Ok(())
    }
}

impl DcePipeline for Pipeline {
    /// Creates an erased pipeline.
    fn new(config: PipelineConfig) -> Result<Self> {
        config.validate()?;
        let arrays = (0..config.depth)
            .map(|_| DigitalArray::new(config.elements, config.cols()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Pipeline {
            config,
            arrays,
            timer: PipelineTimer::new(config.depth as u64),
        })
    }

    fn config(&self) -> &PipelineConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Peripheral I/O
    // ------------------------------------------------------------------

    /// Writes one element of a vector register (one row of data per cycle,
    /// §4.1).
    fn write_value(&mut self, vr: usize, element: usize, value: u64) -> Result<()> {
        self.check_vr(vr)?;
        self.check_elem(element)?;
        if value & !self.value_mask() != 0 {
            return Err(Error::ValueTooWide {
                value,
                depth: self.config.depth,
            });
        }
        for (i, array) in self.arrays.iter_mut().enumerate() {
            array.set_bit(element, vr, (value >> i) & 1 == 1);
        }
        self.charge(MacroOp::WriteElement);
        Ok(())
    }

    fn read_value(&mut self, vr: usize, element: usize) -> Result<u64> {
        self.check_vr(vr)?;
        self.check_elem(element)?;
        let mut value = 0u64;
        for (i, array) in self.arrays.iter().enumerate() {
            if array.bit(element, vr) {
                value |= 1 << i;
            }
        }
        self.charge(MacroOp::ReadElement);
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Boolean macros (cell-accurate)
    // ------------------------------------------------------------------

    fn bool_op(&mut self, op: BoolOp, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        let family = self.config.family;
        let scratch = self.gate_scratch();
        for array in &mut self.arrays {
            array.exec_gate(family, op, a, b, dst, &scratch)?;
        }
        self.charge(MacroOp::Bool(op));
        Ok(())
    }

    fn not(&mut self, dst: usize, a: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        let family = self.config.family;
        for array in &mut self.arrays {
            array.exec_gate(family, BoolOp::Nor, a, a, dst, &[])?;
        }
        self.charge(MacroOp::Not);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Arithmetic macros (cell-accurate ripple chains)
    // ------------------------------------------------------------------

    /// `dst := a + b` (mod `2^depth`), element-wise.
    ///
    /// Executes the real NOR-decomposed full-adder chain: the carry ripples
    /// from array to array through the inter-array buffer, exactly the wave
    /// that bit-pipelining overlaps across successive operations.
    fn add(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        self.ripple_add(dst, a, b, false)?;
        self.charge(MacroOp::Add);
        Ok(())
    }

    /// `dst := a - b` (mod `2^depth`), element-wise, via `a + !b + 1`.
    fn sub(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // NOT b into the X1 scratch of each array, then add with carry-in 1.
        let family = self.config.family;
        let nb = self.scratch(SC_MASK);
        for array in &mut self.arrays {
            array.exec_gate(family, BoolOp::Nor, b, b, nb, &[])?;
        }
        self.ripple_add(dst, a, nb, true)?;
        self.charge(MacroOp::Sub);
        Ok(())
    }

    /// `dst := (a < b) ? all-ones : 0`, element-wise unsigned compare.
    ///
    /// Functionally value-level (the borrow chain is the same wave as
    /// `sub`); charges the modelled [`MacroOp::CmpLt`] cost.
    fn cmp_lt(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        let mask = self.value_mask();
        for e in 0..self.config.elements {
            let va = self.peek_value(a, e);
            let vb = self.peek_value(b, e);
            let result = if va < vb { mask } else { 0 };
            for (i, array) in self.arrays.iter_mut().enumerate() {
                array.set_bit(e, dst, (result >> i) & 1 == 1);
            }
        }
        self.charge(MacroOp::CmpLt);
        Ok(())
    }

    /// `dst := cond ? a : b`, element-wise, where `cond` is a 0/all-ones
    /// mask register (as produced by `cmp_lt`).
    fn select(&mut self, dst: usize, cond: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(cond)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        let family = self.config.family;
        let gates = self.gate_scratch();
        let t0 = self.scratch(SC_C1);
        let t1 = self.scratch(SC_C2);
        let nc = self.scratch(SC_MASK);
        for array in &mut self.arrays {
            array.exec_gate(family, BoolOp::And, cond, a, t0, &gates)?;
            array.exec_gate(family, BoolOp::Nor, cond, cond, nc, &[])?;
            array.exec_gate(family, BoolOp::And, nc, b, t1, &gates)?;
            array.exec_gate(family, BoolOp::Or, t0, t1, dst, &gates)?;
        }
        self.charge(MacroOp::Select);
        Ok(())
    }

    /// `dst := max(a, 0)` on two's-complement values (the CNN activation).
    ///
    /// The sign bit is read from the top array and broadcast down the
    /// pipeline as an AND mask.
    fn relu(&mut self, dst: usize, a: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        let family = self.config.family;
        let gates = self.gate_scratch();
        let sc_mask = self.scratch(SC_MASK);
        let top = self.config.depth - 1;
        // mask = NOT sign, computed once in the top array
        self.arrays[top].exec_gate(family, BoolOp::Nor, a, a, sc_mask, &[])?;
        let mask = self.arrays[top].col(sc_mask)?;
        for array in &mut self.arrays {
            array.set_col(sc_mask, &mask)?;
            array.exec_gate(family, BoolOp::And, a, sc_mask, dst, &gates)?;
        }
        self.charge(MacroOp::Relu);
        Ok(())
    }

    /// `dst := a * b` (mod `2^depth`) over `width`-bit operands.
    ///
    /// Functionally value-level; charges the shift-add long-multiplication
    /// cost [`MacroOp::Mul`].
    fn mul(&mut self, dst: usize, a: usize, b: usize, width: u8) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        let mask = self.value_mask();
        for e in 0..self.config.elements {
            let va = self.peek_value(a, e);
            let vb = self.peek_value(b, e);
            let product = va.wrapping_mul(vb) & mask;
            for (i, array) in self.arrays.iter_mut().enumerate() {
                array.set_bit(e, dst, (product >> i) & 1 == 1);
            }
        }
        self.charge(MacroOp::Mul(width));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// `dst := src` within this pipeline (Boolean identity per array).
    fn copy_vr(&mut self, dst: usize, src: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        for array in &mut self.arrays {
            array.copy_col(src, dst);
        }
        self.charge(MacroOp::CopyVr);
        Ok(())
    }

    fn copy_from(&mut self, other: &Pipeline, src_vr: usize, dst_vr: usize) -> Result<()> {
        if other.config.depth != self.config.depth || other.config.elements != self.config.elements
        {
            return Err(Error::GeometryMismatch(
                "inter-pipeline copy requires identical depth and elements",
            ));
        }
        other.check_vr(src_vr)?;
        self.check_vr(dst_vr)?;
        for (dst_array, src_array) in self.arrays.iter_mut().zip(&other.arrays) {
            let col = src_array.col(src_vr)?;
            dst_array.set_col(dst_vr, &col)?;
        }
        self.charge(MacroOp::CopyAcross);
        Ok(())
    }

    /// `dst := src << k` (element-wise bit shift via inter-array moves).
    fn shl(&mut self, dst: usize, src: usize, k: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        if k > self.config.depth {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: self.config.depth,
            });
        }
        for i in (k..self.config.depth).rev() {
            let col = self.arrays[i - k].col(src)?;
            self.arrays[i].set_col(dst, &col)?;
        }
        for i in 0..k.min(self.config.depth) {
            self.arrays[i].clear_col(dst);
        }
        self.charge(MacroOp::ShiftBits(k as u8));
        Ok(())
    }

    fn shr(&mut self, dst: usize, src: usize, k: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        if k > self.config.depth {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: self.config.depth,
            });
        }
        for i in 0..self.config.depth.saturating_sub(k) {
            let col = self.arrays[i + k].col(src)?;
            self.arrays[i].set_col(dst, &col)?;
        }
        for i in self.config.depth.saturating_sub(k)..self.config.depth {
            self.arrays[i].clear_col(dst);
        }
        self.charge(MacroOp::ShiftBits(k as u8));
        Ok(())
    }

    /// `dst := rotl(src, k)` within the low `width` bits, using `tmp` as a
    /// scratch register. This is the ShiftRows building block (§5.3): left
    /// rotation is realised as `(src << k) | (src >> (width - k))` with the
    /// result masked to `width` bits.
    fn rotate_left(
        &mut self,
        dst: usize,
        src: usize,
        tmp: usize,
        k: usize,
        width: usize,
    ) -> Result<()> {
        if width > self.config.depth || width == 0 {
            return Err(Error::ShiftTooFar {
                amount: width,
                depth: self.config.depth,
            });
        }
        if k >= width {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: width,
            });
        }
        if k == 0 {
            return self.copy_vr(dst, src);
        }
        self.shl(tmp, src, k)?;
        self.shr(dst, src, width - k)?;
        self.bool_op(BoolOp::Or, dst, dst, tmp)?;
        // Mask away bits that the shl pushed above `width`.
        for i in width..self.config.depth {
            self.arrays[i].clear_col(dst);
        }
        Ok(())
    }

    /// Reverses the pipeline's bit order (drains in-flight work first).
    ///
    /// The paper uses reversal plus right shifts to emulate left shifts when
    /// no left terminal buffer exists; we expose it for the same purpose and
    /// for the ShiftRows macro.
    fn reverse(&mut self) {
        self.arrays.reverse();
        self.charge(MacroOp::Reverse);
    }

    /// Element-wise indexed load (§4.2): for each element `e`, reads the
    /// address in `addr_vr[e]`, fetches that value from `table`, and stores
    /// it into `dst_vr[e]`.
    ///
    /// Addresses index the table pipeline's register file in row-major
    /// order: address `a` maps to register `a / elements`, element
    /// `a % elements`.
    fn elementwise_load(
        &mut self,
        addr_vr: usize,
        table: &mut Pipeline,
        dst_vr: usize,
    ) -> Result<()> {
        if table.config.depth != self.config.depth {
            return Err(Error::GeometryMismatch(
                "element-wise load requires identical pipeline depth",
            ));
        }
        self.check_vr(addr_vr)?;
        self.check_vr(dst_vr)?;
        let capacity = (table.config.vr_count * table.config.elements) as u64;
        for e in 0..self.config.elements {
            let address = self.peek_value(addr_vr, e);
            if address >= capacity {
                return Err(Error::AddressOutOfRange {
                    address,
                    count: table.config.vr_count * table.config.elements,
                });
            }
            let tvr = (address as usize) / table.config.elements;
            let trow = (address as usize) % table.config.elements;
            let value = table.peek_value(tvr, trow);
            for (i, array) in self.arrays.iter_mut().enumerate() {
                array.set_bit(e, dst_vr, (value >> i) & 1 == 1);
            }
        }
        self.charge(MacroOp::ElementLoad);
        Ok(())
    }

    /// Reads a value without charging I/O cost (internal and test use; the
    /// hardware equivalent is the peripheral sensing that element-wise ops
    /// already pay for in their own cost).
    fn peek_value(&self, vr: usize, element: usize) -> u64 {
        let mut value = 0u64;
        for (i, array) in self.arrays.iter().enumerate() {
            if array.bit(element, vr) {
                value |= 1 << i;
            }
        }
        value
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Total native primitives executed by the pipeline's arrays.
    fn primitives_executed(&self) -> u64 {
        self.arrays.iter().map(|a| a.primitives_executed()).sum()
    }

    fn energy(&self) -> PicoJoules {
        PicoJoules::new(
            self.primitives_executed() as f64 * self.config.family.energy_per_primitive_pj(),
        )
    }

    fn elapsed(&self) -> Cycles {
        self.timer.elapsed()
    }

    /// Replaces the timer, returning the previous elapsed time. Used by the
    /// chip model when it re-schedules pipeline work itself.
    fn reset_timer(&mut self) -> Cycles {
        let old = std::mem::replace(
            &mut self.timer,
            PipelineTimer::new(self.config.depth as u64),
        );
        old.finish()
    }

    /// Issues an externally computed cost into this pipeline's timer (used
    /// by the HCT when the shift units write ACE partial products directly
    /// into the arrays).
    fn charge_external(&mut self, cost: MacroCost) {
        self.timer.issue(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(depth: usize) -> Pipeline {
        Pipeline::new(PipelineConfig {
            depth,
            elements: 8,
            vr_count: 10,
            scratch_cols: 8,
            family: LogicFamily::Oscar,
        })
        .expect("valid config")
    }

    #[test]
    fn twos_complement_field_round_trips_through_signed_read() {
        let mut p = pipe(8);
        for v in [-128i64, -1, 0, 1, 127] {
            let field = twos_complement_field(v, 8).expect("fits");
            p.write_value(0, 0, field).expect("writes");
            assert_eq!(p.read_value_signed(0, 0).expect("reads"), v, "value {v}");
        }
    }

    #[test]
    fn twos_complement_field_rejects_out_of_range() {
        assert!(matches!(
            twos_complement_field(128, 8),
            Err(Error::ValueTooWide { .. })
        ));
        assert!(matches!(
            twos_complement_field(-129, 8),
            Err(Error::ValueTooWide { .. })
        ));
        assert!(matches!(
            twos_complement_field(0, 0),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            twos_complement_field(0, 65),
            Err(Error::InvalidConfig(_))
        ));
        // Full width passes any value through unchanged.
        assert_eq!(twos_complement_field(-1, 64).expect("fits"), u64::MAX);
        assert_eq!(twos_complement_field(i64::MIN, 64).expect("fits"), 1 << 63);
    }

    #[test]
    fn config_validation() {
        assert!(Pipeline::new(PipelineConfig {
            depth: 0,
            ..PipelineConfig::default()
        })
        .is_err());
        assert!(Pipeline::new(PipelineConfig {
            depth: 65,
            ..PipelineConfig::default()
        })
        .is_err());
        assert!(Pipeline::new(PipelineConfig {
            scratch_cols: 2,
            ..PipelineConfig::default()
        })
        .is_err());
        assert!(Pipeline::new(PipelineConfig::default()).is_ok());
    }

    #[test]
    fn value_round_trip() {
        let mut p = pipe(16);
        p.write_value(0, 3, 0xBEEF).expect("fits");
        assert_eq!(p.read_value(0, 3).expect("in range"), 0xBEEF);
    }

    #[test]
    fn value_too_wide_is_rejected() {
        let mut p = pipe(8);
        assert!(matches!(
            p.write_value(0, 0, 256),
            Err(Error::ValueTooWide { .. })
        ));
        p.write_value(0, 0, 255).expect("fits");
    }

    #[test]
    fn signed_read() {
        let mut p = pipe(8);
        p.write_value(0, 0, 0xFF).expect("fits");
        assert_eq!(p.read_value_signed(0, 0).expect("in range"), -1);
        p.write_value(0, 1, 0x7F).expect("fits");
        assert_eq!(p.read_value_signed(0, 1).expect("in range"), 127);
    }

    #[test]
    fn vector_round_trip() {
        let mut p = pipe(8);
        let values = vec![1, 2, 3, 250, 0, 7, 8, 9];
        p.write_vector(1, &values).expect("fits");
        assert_eq!(p.read_vector(1).expect("in range"), values);
    }

    #[test]
    fn bool_ops_elementwise() {
        let mut p = pipe(8);
        p.write_vector(0, &[0b1100; 8]).expect("fits");
        p.write_vector(1, &[0b1010; 8]).expect("fits");
        p.bool_op(BoolOp::Xor, 2, 0, 1).expect("executes");
        assert_eq!(p.read_value(2, 0).expect("in range"), 0b0110);
        p.bool_op(BoolOp::And, 3, 0, 1).expect("executes");
        assert_eq!(p.read_value(3, 0).expect("in range"), 0b1000);
        p.not(4, 0).expect("executes");
        assert_eq!(p.read_value(4, 0).expect("in range"), 0b1111_0011);
    }

    #[test]
    fn add_is_exact_for_all_rows() {
        let mut p = pipe(16);
        let a: Vec<u64> = vec![0, 1, 255, 1000, 65535, 32768, 42, 9999];
        let b: Vec<u64> = vec![0, 1, 1, 24, 1, 32768, 58, 1];
        p.write_vector(0, &a).expect("fits");
        p.write_vector(1, &b).expect("fits");
        p.add(2, 0, 1).expect("executes");
        for e in 0..8 {
            let expected = (a[e] + b[e]) & 0xFFFF;
            assert_eq!(p.read_value(2, e).expect("in range"), expected, "row {e}");
        }
    }

    #[test]
    fn add_functional_primitives_match_cost_model() {
        let mut p = pipe(16);
        p.write_vector(0, &[3; 8]).expect("fits");
        p.write_vector(1, &[5; 8]).expect("fits");
        let before = p.primitives_executed();
        p.add(2, 0, 1).expect("executes");
        let actual = p.primitives_executed() - before;
        let modelled = MacroOp::Add.cost(LogicFamily::Oscar, 16, 8).primitives;
        assert_eq!(actual, modelled);
    }

    #[test]
    fn sub_wraps_like_twos_complement() {
        let mut p = pipe(8);
        p.write_vector(0, &[5; 8]).expect("fits");
        p.write_vector(1, &[7; 8]).expect("fits");
        p.sub(2, 0, 1).expect("executes");
        assert_eq!(p.read_value(2, 0).expect("in range"), 254); // -2 mod 256
        assert_eq!(p.read_value_signed(2, 0).expect("in range"), -2);
    }

    #[test]
    fn add_aliasing_dst_onto_src() {
        let mut p = pipe(8);
        p.write_vector(0, &[10; 8]).expect("fits");
        p.write_vector(1, &[32; 8]).expect("fits");
        p.add(0, 0, 1).expect("executes");
        assert_eq!(p.read_value(0, 0).expect("in range"), 42);
    }

    #[test]
    fn cmp_lt_and_select() {
        let mut p = pipe(8);
        p.write_vector(0, &[5, 9, 3, 3, 0, 255, 7, 8])
            .expect("fits");
        p.write_vector(1, &[9, 5, 3, 4, 1, 0, 7, 7]).expect("fits");
        p.cmp_lt(2, 0, 1).expect("executes");
        assert_eq!(p.read_value(2, 0).expect("in range"), 0xFF);
        assert_eq!(p.read_value(2, 1).expect("in range"), 0);
        assert_eq!(p.read_value(2, 2).expect("in range"), 0);
        p.select(3, 2, 0, 1).expect("executes");
        assert_eq!(p.read_value(3, 0).expect("in range"), 5); // 5 < 9: take a
        assert_eq!(p.read_value(3, 1).expect("in range"), 5); // 9 >= 5: take b
    }

    #[test]
    fn relu_clamps_negative() {
        let mut p = pipe(8);
        p.write_vector(0, &[0x05, 0xFB, 0x80, 0x00, 0x7F, 0xFF, 1, 2])
            .expect("fits");
        p.relu(1, 0).expect("executes");
        assert_eq!(p.read_value(1, 0).expect("in range"), 5);
        assert_eq!(p.read_value(1, 1).expect("in range"), 0); // -5 -> 0
        assert_eq!(p.read_value(1, 2).expect("in range"), 0); // -128 -> 0
        assert_eq!(p.read_value(1, 4).expect("in range"), 0x7F);
        assert_eq!(p.read_value(1, 5).expect("in range"), 0); // -1 -> 0
    }

    #[test]
    fn mul_matches_integer_semantics() {
        let mut p = pipe(16);
        p.write_vector(0, &[3, 255, 0, 1000, 7, 2, 9, 10])
            .expect("fits");
        p.write_vector(1, &[4, 255, 9, 100, 7, 2, 9, 10])
            .expect("fits");
        p.mul(2, 0, 1, 8).expect("executes");
        assert_eq!(p.read_value(2, 0).expect("in range"), 12);
        assert_eq!(p.read_value(2, 1).expect("in range"), (255 * 255) & 0xFFFF);
        assert_eq!(p.read_value(2, 3).expect("in range"), (1000 * 100) & 0xFFFF);
    }

    #[test]
    fn shifts_move_bits_between_arrays() {
        let mut p = pipe(8);
        p.write_vector(0, &[0b0001_0110; 8]).expect("fits");
        p.shl(1, 0, 2).expect("in range");
        assert_eq!(p.read_value(1, 0).expect("in range"), 0b0101_1000);
        p.shr(2, 0, 3).expect("in range");
        assert_eq!(p.read_value(2, 0).expect("in range"), 0b0000_0010);
        assert!(matches!(p.shl(1, 0, 9), Err(Error::ShiftTooFar { .. })));
    }

    #[test]
    fn shift_in_place() {
        let mut p = pipe(8);
        p.write_vector(0, &[0b1; 8]).expect("fits");
        p.shl(0, 0, 1).expect("in range");
        assert_eq!(p.read_value(0, 0).expect("in range"), 0b10);
        p.shr(0, 0, 1).expect("in range");
        assert_eq!(p.read_value(0, 0).expect("in range"), 0b1);
    }

    #[test]
    fn rotate_left_32bit_words() {
        let mut p = pipe(32);
        p.write_vector(0, &[0x8000_0001; 8]).expect("fits");
        p.rotate_left(1, 0, 2, 8, 32).expect("executes");
        assert_eq!(p.read_value(1, 0).expect("in range"), 0x0000_0180);
        p.rotate_left(3, 0, 2, 0, 32).expect("rot 0 is copy");
        assert_eq!(p.read_value(3, 0).expect("in range"), 0x8000_0001);
    }

    #[test]
    fn rotate_left_respects_sub_width() {
        let mut p = pipe(32);
        // rotate an 8-bit value stored in a 32-bit pipeline
        p.write_vector(0, &[0b1000_0001; 8]).expect("fits");
        p.rotate_left(1, 0, 2, 1, 8).expect("executes");
        assert_eq!(p.read_value(1, 0).expect("in range"), 0b0000_0011);
    }

    #[test]
    fn reverse_flips_bit_order() {
        let mut p = pipe(8);
        p.write_vector(0, &[0b0000_0001; 8]).expect("fits");
        p.reverse();
        assert_eq!(p.read_value(0, 0).expect("in range"), 0b1000_0000);
        p.reverse();
        assert_eq!(p.read_value(0, 0).expect("in range"), 0b0000_0001);
    }

    #[test]
    fn copy_within_and_across_pipelines() {
        let mut a = pipe(8);
        let mut b = pipe(8);
        a.write_vector(0, &[11; 8]).expect("fits");
        a.copy_vr(1, 0).expect("executes");
        assert_eq!(a.read_value(1, 0).expect("in range"), 11);
        b.copy_from(&a, 1, 2).expect("geometry matches");
        assert_eq!(b.read_value(2, 7).expect("in range"), 11);
    }

    #[test]
    fn copy_across_rejects_mismatched_geometry() {
        let a = pipe(8);
        let mut b = pipe(16);
        assert!(matches!(
            b.copy_from(&a, 0, 0),
            Err(Error::GeometryMismatch(_))
        ));
    }

    #[test]
    fn elementwise_load_gathers_from_table() {
        let mut table = pipe(8);
        // table register file: vr v, element e holds v * 8 + e + 100
        for vr in 0..4 {
            let vals: Vec<u64> = (0..8).map(|e| (vr as u64 * 8 + e + 100) & 0xFF).collect();
            table.write_vector(vr, &vals).expect("fits");
        }
        let mut p = pipe(8);
        p.write_vector(0, &[0, 9, 17, 31, 2, 3, 4, 5])
            .expect("fits");
        p.elementwise_load(0, &mut table, 1).expect("in range");
        assert_eq!(p.read_value(1, 0).expect("in range"), 100);
        assert_eq!(p.read_value(1, 1).expect("in range"), 109);
        assert_eq!(p.read_value(1, 2).expect("in range"), 117);
        assert_eq!(p.read_value(1, 3).expect("in range"), 131);
    }

    #[test]
    fn elementwise_load_rejects_bad_address() {
        let mut table = pipe(8);
        let mut p = pipe(8);
        p.write_vector(0, &[255; 8]).expect("fits");
        assert!(matches!(
            p.elementwise_load(0, &mut table, 1),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn timing_accumulates_and_resets() {
        let mut p = pipe(8);
        p.write_vector(0, &[1; 8]).expect("fits");
        p.write_vector(1, &[2; 8]).expect("fits");
        let t0 = p.elapsed();
        p.add(2, 0, 1).expect("executes");
        let t1 = p.elapsed();
        assert!(t1 > t0);
        let total = p.reset_timer();
        assert_eq!(total, t1);
        assert_eq!(p.elapsed(), Cycles::ZERO);
    }

    #[test]
    fn energy_grows_with_work() {
        let mut p = pipe(8);
        p.write_vector(0, &[1; 8]).expect("fits");
        p.write_vector(1, &[2; 8]).expect("fits");
        let e0 = p.energy();
        p.add(2, 0, 1).expect("executes");
        assert!(p.energy() > e0);
    }

    #[test]
    fn invalid_vr_is_rejected_everywhere() {
        let mut p = pipe(8);
        assert!(p.write_value(10, 0, 1).is_err());
        assert!(p.read_value(10, 0).is_err());
        assert!(p.bool_op(BoolOp::Xor, 10, 0, 1).is_err());
        assert!(p.add(0, 10, 1).is_err());
        assert!(p.relu(0, 10).is_err());
        assert!(p.copy_vr(0, 10).is_err());
    }
}
