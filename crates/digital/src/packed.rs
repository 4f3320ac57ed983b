//! Packed bit-plane storage: 64 pipeline elements per `u64` word.
//!
//! The cell-accurate [`Pipeline`](crate::pipeline::Pipeline) stores every
//! bit in its own simulated ReRAM device and replays each OSCAR
//! decomposition pulse by pulse — ideal for validating the architecture,
//! hopeless for running thousands of AES blocks. This module is the fast
//! path: a [`PackedPipeline`] keeps each bit-plane *column* (one bit
//! position of one vector register, across all elements) as a
//! [`PackedBits`] row of `u64` words, so a Boolean macro evaluates 64
//! cells per host bitwise instruction instead of one.
//!
//! The fast path is only trustworthy because it is *observationally
//! identical* to the reference: every method mirrors the reference
//! pipeline's argument checks (same error variants, same check order),
//! charges the same [`MacroOp`] cost into the same [`PipelineTimer`], and
//! books the same number of native primitives (so energy reports match to
//! the picojoule). Scratch columns are not modelled — they are
//! unobservable through the pipeline API — but the primitives their gate
//! decompositions would execute are still counted. The differential suite
//! in `darth_sim` (`fast_vs_reference`) and the property tests in
//! `crates/digital/tests/packed_property.rs` pin this equivalence.

use crate::dce::DcePipeline;
use crate::logic::BoolOp;
use crate::macros::MacroOp;
use crate::pipeline::PipelineConfig;
use crate::timing::{MacroCost, PipelineTimer};
use crate::{Error, Result};
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};

/// A row of bits packed 64-per-`u64`, with unused tail bits held at zero.
///
/// The tail-mask invariant (bits at index `>= len` are zero in the last
/// word) lets whole-word Boolean operations stand in for per-bit ones:
/// complementing ops re-apply the mask so garbage never leaks into the
/// tail and later whole-word comparisons/popcounts stay exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedBits {
    len: usize,
    words: Vec<u64>,
}

impl PackedBits {
    /// An all-zero row of `len` bits.
    pub fn new(len: usize) -> Self {
        PackedBits {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Packs a bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut row = PackedBits::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                row.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        row
    }

    /// Unpacks into a bool vector.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of bits in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mask valid in the final word; `u64::MAX` when `len` is a multiple
    /// of 64.
    fn tail_mask(&self) -> u64 {
        match self.len % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// Re-establishes the tail-mask invariant after a complementing op.
    fn mask_tail(&mut self) {
        let mask = self.tail_mask();
        if let Some(last) = self.words.last_mut() {
            *last &= mask;
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1u64 << b;
        } else {
            self.words[w] &= !(1u64 << b);
        }
    }

    /// Sets every bit to `value`.
    pub fn fill(&mut self, value: bool) {
        let word = if value { u64::MAX } else { 0 };
        self.words.fill(word);
        self.mask_tail();
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `self & other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch (callers operate on same-geometry rows).
    pub fn and(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| a & b, false)
    }

    /// `self | other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| a | b, false)
    }

    /// `self ^ other`, word-wise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xor(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| a ^ b, false)
    }

    /// `!(self | other)`, word-wise with the tail re-masked.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn nor(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| !(a | b), true)
    }

    /// `!(self & other)`, word-wise with the tail re-masked.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn nand(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| !(a & b), true)
    }

    /// `!(self ^ other)`, word-wise with the tail re-masked.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xnor(&self, other: &PackedBits) -> PackedBits {
        self.zip_words(other, |a, b| !(a ^ b), true)
    }

    /// `!self`, word-wise with the tail re-masked.
    pub fn not(&self) -> PackedBits {
        let mut out = PackedBits {
            len: self.len,
            words: self.words.iter().map(|&w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// Evaluates `op` over two rows.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn bool_op(&self, op: BoolOp, other: &PackedBits) -> PackedBits {
        match op {
            BoolOp::Nor => self.nor(other),
            BoolOp::Or => self.or(other),
            BoolOp::And => self.and(other),
            BoolOp::Nand => self.nand(other),
            BoolOp::Xor => self.xor(other),
            BoolOp::Xnor => self.xnor(other),
        }
    }

    /// The row shifted `k` positions toward higher indices (bit `i` moves
    /// to `i + k`; vacated low bits are zero, bits pushed past `len` drop).
    pub fn shl(&self, k: usize) -> PackedBits {
        let mut out = PackedBits::new(self.len);
        if k >= self.len {
            return out;
        }
        let (word_shift, bit_shift) = (k / 64, k % 64);
        for i in (0..out.words.len()).rev() {
            let mut w = if i >= word_shift {
                self.words[i - word_shift] << bit_shift
            } else {
                0
            };
            if bit_shift != 0 && i > word_shift {
                w |= self.words[i - word_shift - 1] >> (64 - bit_shift);
            }
            out.words[i] = w;
        }
        out.mask_tail();
        out
    }

    /// The row shifted `k` positions toward lower indices (bit `i` moves
    /// to `i - k`; vacated high bits are zero).
    pub fn shr(&self, k: usize) -> PackedBits {
        let mut out = PackedBits::new(self.len);
        if k >= self.len {
            return out;
        }
        let (word_shift, bit_shift) = (k / 64, k % 64);
        let n = self.words.len();
        for i in 0..n {
            let mut w = if i + word_shift < n {
                self.words[i + word_shift] >> bit_shift
            } else {
                0
            };
            if bit_shift != 0 && i + word_shift + 1 < n {
                w |= self.words[i + word_shift + 1] << (64 - bit_shift);
            }
            out.words[i] = w;
        }
        out
    }

    /// Evaluates `op` on one pair of packed words. The caller re-masks the
    /// tail (via [`PackedBits::set_word`]) for the complementing ops.
    fn word_op(op: BoolOp, a: u64, b: u64) -> u64 {
        match op {
            BoolOp::Nor => !(a | b),
            BoolOp::Or => a | b,
            BoolOp::And => a & b,
            BoolOp::Nand => !(a & b),
            BoolOp::Xor => a ^ b,
            BoolOp::Xnor => !(a ^ b),
        }
    }

    fn zip_words(
        &self,
        other: &PackedBits,
        f: impl Fn(u64, u64) -> u64,
        remask: bool,
    ) -> PackedBits {
        assert_eq!(
            self.len, other.len,
            "packed row length mismatch ({} vs {})",
            self.len, other.len
        );
        let mut out = PackedBits {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        };
        if remask {
            out.mask_tail();
        }
        out
    }
}

// Scratch-free fast path: the reference pipeline's scratch columns are
// unobservable through the API, so the packed model books their primitive
// counts without materialising them.

/// A bit-pipeline functionally identical to the reference
/// [`Pipeline`](crate::pipeline::Pipeline), with each bit-plane column
/// packed into `u64` words.
///
/// Bit planes live in one flat `u64` buffer, vr-major: the row for bit
/// position `plane` of vector register `vr` (its `elements` bits, 64 per
/// word) starts at `(vr * depth + plane) * nw`. One contiguous
/// allocation makes construction and cloning a single memcpy — the batch
/// executor stamps out thousands of per-job machines — and keeps a
/// register's planes adjacent for the word-sweep macros. Macro
/// semantics, argument validation, timing charges and primitive
/// accounting all mirror the reference implementation exactly; see the
/// module docs for the equivalence contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedPipeline {
    config: PipelineConfig,
    /// Words per packed row: `elements.div_ceil(64)`.
    nw: usize,
    words: Vec<u64>,
    primitives: u64,
    timer: PipelineTimer,
}

impl PackedPipeline {
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

    fn charge(&mut self, op: MacroOp) {
        let cost = op.cost(
            self.config.family,
            self.config.depth as u64,
            self.config.elements as u64,
        );
        self.timer.issue(cost);
    }

    /// Books the primitives a macro's gate decomposition executes on the
    /// reference pipeline (scratch sub-operations included).
    fn book(&mut self, primitives: u64) {
        self.primitives += primitives;
    }

    fn value_mask(&self) -> u64 {
        if self.config.depth == 64 {
            u64::MAX
        } else {
            (1u64 << self.config.depth) - 1
        }
    }

    /// Start of the flat row holding bit `plane` of register `vr`.
    #[inline]
    fn row(&self, vr: usize, plane: usize) -> usize {
        (vr * self.config.depth + plane) * self.nw
    }

    /// Mask valid in word `wi` of a row (`u64::MAX` except a short tail).
    #[inline]
    fn wmask(&self, wi: usize) -> u64 {
        if wi + 1 == self.nw {
            match self.config.elements % 64 {
                0 => u64::MAX,
                r => (1u64 << r) - 1,
            }
        } else {
            u64::MAX
        }
    }

    /// Zeroes the row holding bit `plane` of register `vr`.
    fn clear_row(&mut self, vr: usize, plane: usize) {
        let r = self.row(vr, plane);
        self.words[r..r + self.nw].fill(0);
    }

    /// Reads element `e` of `vr` by gathering one bit per plane.
    fn gather(&self, vr: usize, element: usize) -> u64 {
        let (w, b) = (element / 64, element % 64);
        let base = self.row(vr, 0) + w;
        let mut value = 0u64;
        for i in 0..self.config.depth {
            value |= (self.words[base + i * self.nw] >> b & 1) << i;
        }
        value
    }

    /// Scatters `value` into element `e` of `vr`, one bit per plane.
    /// `element` is in range, so the tail invariant holds by itself.
    fn scatter(&mut self, vr: usize, element: usize, value: u64) {
        let (w, b) = (element / 64, element % 64);
        let bit = 1u64 << b;
        let base = self.row(vr, 0) + w;
        for i in 0..self.config.depth {
            let slot = &mut self.words[base + i * self.nw];
            if value >> i & 1 == 1 {
                *slot |= bit;
            } else {
                *slot &= !bit;
            }
        }
    }

    /// The full-adder wave shared by `add` and `sub`, over packed planes.
    /// Runs word-by-word in place (no per-plane allocations); `dst` may
    /// alias either input because a plane's operand words are read before
    /// its sum word is written, matching the reference where input devices
    /// are sensed before the output switches. `invert_b` complements the
    /// addend on the fly (the `sub` path's NOT wave). Books the same
    /// 17 (OSCAR) / 5 (ideal) primitives per plane as the reference gate
    /// decomposition.
    fn ripple_add(&mut self, dst: usize, a: usize, b: usize, invert_b: bool, carry_in: bool) {
        let per_plane = MacroOp::Add.primitives_per_stage(self.config.family);
        let nw = self.nw;
        let mut carry = vec![0u64; nw];
        if carry_in {
            // Seed every element's carry bit, tail kept zero.
            for (wi, c) in carry.iter_mut().enumerate() {
                *c = self.wmask(wi);
            }
        }
        let (ra, rb, rd) = (self.row(a, 0), self.row(b, 0), self.row(dst, 0));
        for p in 0..self.config.depth {
            let off = p * nw;
            for (wi, c) in carry.iter_mut().enumerate() {
                let wa = self.words[ra + off + wi];
                let wb0 = self.words[rb + off + wi];
                // An inverted tail leaks 1s past the element count; every
                // product below is re-masked by a zero-tail operand or by
                // the explicit sum mask.
                let wb = if invert_b { !wb0 } else { wb0 };
                let x1 = wa ^ wb;
                let sum = x1 ^ *c;
                *c = (wa & wb) | (x1 & *c);
                self.words[rd + off + wi] = sum & self.wmask(wi);
            }
            self.primitives += per_plane;
        }
    }
}

impl DcePipeline for PackedPipeline {
    fn new(config: PipelineConfig) -> Result<Self> {
        config.validate()?;
        let nw = config.elements.div_ceil(64);
        Ok(PackedPipeline {
            config,
            nw,
            words: vec![0; config.vr_count * config.depth * nw],
            primitives: 0,
            timer: PipelineTimer::new(config.depth as u64),
        })
    }

    fn config(&self) -> &PipelineConfig {
        &self.config
    }

    fn write_value(&mut self, vr: usize, element: usize, value: u64) -> Result<()> {
        self.check_vr(vr)?;
        self.check_elem(element)?;
        if value & !self.value_mask() != 0 {
            return Err(Error::ValueTooWide {
                value,
                depth: self.config.depth,
            });
        }
        self.scatter(vr, element, value);
        self.charge(MacroOp::WriteElement);
        Ok(())
    }

    fn read_value(&mut self, vr: usize, element: usize) -> Result<u64> {
        self.check_vr(vr)?;
        self.check_elem(element)?;
        let value = self.gather(vr, element);
        self.charge(MacroOp::ReadElement);
        Ok(value)
    }

    fn write_vector(&mut self, vr: usize, values: &[u64]) -> Result<()> {
        if values.len() > self.config.elements {
            return Err(Error::InvalidElement {
                element: values.len(),
                count: self.config.elements,
            });
        }
        if values.is_empty() {
            return Ok(());
        }
        self.check_vr(vr)?;
        let mask = self.value_mask();
        if values.iter().any(|&v| v & !mask != 0) {
            // Rare: replay the scalar loop so the partial writes (and the
            // charges) before the offending value match the default.
            for (e, &v) in values.iter().enumerate() {
                self.write_value(vr, e, v)?;
            }
            return Ok(());
        }
        // Transpose values into plane words, sparse over set bits, then
        // merge (elements past `values.len()` keep their old bits).
        let nw = self.nw;
        let depth = self.config.depth;
        let mut buf = vec![0u64; depth * nw];
        for (e, &v) in values.iter().enumerate() {
            let (wi, bi) = (e / 64, e % 64);
            let mut rem = v;
            while rem != 0 {
                buf[rem.trailing_zeros() as usize * nw + wi] |= 1u64 << bi;
                rem &= rem - 1;
            }
        }
        let r0 = self.row(vr, 0);
        for i in 0..depth {
            for wi in 0..nw {
                let lo = wi * 64;
                let covered = if values.len() >= lo + 64 {
                    u64::MAX
                } else if values.len() > lo {
                    (1u64 << (values.len() - lo)) - 1
                } else {
                    0
                };
                let slot = &mut self.words[r0 + i * nw + wi];
                *slot = (*slot & !covered) | buf[i * nw + wi];
            }
        }
        for _ in 0..values.len() {
            self.charge(MacroOp::WriteElement);
        }
        Ok(())
    }

    fn read_vector(&mut self, vr: usize) -> Result<Vec<u64>> {
        self.check_vr(vr)?;
        let mut out = vec![0u64; self.config.elements];
        let r0 = self.row(vr, 0);
        for i in 0..self.config.depth {
            for wi in 0..self.nw {
                let mut w = self.words[r0 + i * self.nw + wi];
                while w != 0 {
                    out[wi * 64 + w.trailing_zeros() as usize] |= 1u64 << i;
                    w &= w - 1;
                }
            }
        }
        for _ in 0..self.config.elements {
            self.charge(MacroOp::ReadElement);
        }
        Ok(out)
    }

    fn read_signed_prefix(&mut self, vr: usize, count: usize) -> Result<Vec<i64>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.config.elements {
            // Rare: the scalar loop reproduces the per-element error (and
            // the charges issued before it) exactly.
            return (0..count).map(|e| self.read_value_signed(vr, e)).collect();
        }
        self.check_vr(vr)?;
        let depth = self.config.depth;
        let mut out = vec![0u64; count];
        let r0 = self.row(vr, 0);
        for i in 0..depth {
            for wi in 0..self.nw {
                let mut w = self.words[r0 + i * self.nw + wi];
                while w != 0 {
                    let e = wi * 64 + w.trailing_zeros() as usize;
                    if e < count {
                        out[e] |= 1u64 << i;
                    }
                    w &= w - 1;
                }
            }
        }
        let signed = out
            .into_iter()
            .map(|raw| {
                if depth < 64 && raw & (1u64 << (depth - 1)) != 0 {
                    (raw as i64) - (1i64 << depth)
                } else {
                    raw as i64
                }
            })
            .collect();
        for _ in 0..count {
            self.charge(MacroOp::ReadElement);
        }
        Ok(signed)
    }

    fn peek_value(&self, vr: usize, element: usize) -> u64 {
        self.gather(vr, element)
    }

    fn bool_op(&mut self, op: BoolOp, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        let per_plane = self.config.family.primitives_for(op);
        let nw = self.nw;
        let (ra, rb, rd) = (self.row(a, 0), self.row(b, 0), self.row(dst, 0));
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                let w =
                    PackedBits::word_op(op, self.words[ra + off + wi], self.words[rb + off + wi]);
                // Complementing ops set tail 1s; the mask restores the
                // zero-tail invariant.
                self.words[rd + off + wi] = w & self.wmask(wi);
            }
        }
        self.book(per_plane * self.config.depth as u64);
        self.charge(MacroOp::Bool(op));
        Ok(())
    }

    fn not(&mut self, dst: usize, a: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        let nw = self.nw;
        let (ra, rd) = (self.row(a, 0), self.row(dst, 0));
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                self.words[rd + off + wi] = !self.words[ra + off + wi] & self.wmask(wi);
            }
        }
        self.book(self.config.depth as u64);
        self.charge(MacroOp::Not);
        Ok(())
    }

    fn add(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        self.ripple_add(dst, a, b, false, false);
        self.charge(MacroOp::Add);
        Ok(())
    }

    fn sub(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // NOT b (one primitive per plane on the reference), folded into
        // the adder wave, then add with carry-in 1.
        self.book(self.config.depth as u64);
        self.ripple_add(dst, a, b, true, true);
        self.charge(MacroOp::Sub);
        Ok(())
    }

    fn cmp_lt(&mut self, dst: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // Unsigned compare as a packed borrow sweep, LSB to MSB:
        // lt = (!a & b) | (!(a ^ b) & lt). Both products are masked by a
        // zero-tail operand, so `lt` keeps the invariant without remasking.
        let nw = self.nw;
        let mut lt = vec![0u64; nw];
        let (ra, rb) = (self.row(a, 0), self.row(b, 0));
        for p in 0..self.config.depth {
            let off = p * nw;
            for (wi, l) in lt.iter_mut().enumerate() {
                let wa = self.words[ra + off + wi];
                let wb = self.words[rb + off + wi];
                *l = (!wa & wb) | (!(wa ^ wb) & *l);
            }
        }
        // The reference writes the mask value into every plane of dst.
        let rd = self.row(dst, 0);
        for p in 0..self.config.depth {
            let off = p * nw;
            for (wi, &l) in lt.iter().enumerate() {
                self.words[rd + off + wi] = l;
            }
        }
        self.charge(MacroOp::CmpLt);
        Ok(())
    }

    fn select(&mut self, dst: usize, cond: usize, a: usize, b: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(cond)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // Per plane on the reference: AND + NOT + AND + OR. The inverted
        // condition's tail 1s are masked away by the zero-tail operands.
        let family = self.config.family;
        let per_plane = family.primitives_for(BoolOp::And) * 2
            + family.primitives_for(BoolOp::Nor)
            + family.primitives_for(BoolOp::Or);
        let nw = self.nw;
        let (rc, ra, rb, rd) = (
            self.row(cond, 0),
            self.row(a, 0),
            self.row(b, 0),
            self.row(dst, 0),
        );
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                let c = self.words[rc + off + wi];
                let w = (c & self.words[ra + off + wi]) | (!c & self.words[rb + off + wi]);
                self.words[rd + off + wi] = w;
            }
        }
        self.book(per_plane * self.config.depth as u64);
        self.charge(MacroOp::Select);
        Ok(())
    }

    fn relu(&mut self, dst: usize, a: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        // mask = NOT sign, computed once in the top plane (1 primitive),
        // then broadcast + AND in every plane. Planes run bottom-up, so
        // the sign plane is read before the final iteration can overwrite
        // it when `dst` aliases `a`.
        let per_plane = self.config.family.primitives_for(BoolOp::And);
        let nw = self.nw;
        let (ra, rd) = (self.row(a, 0), self.row(dst, 0));
        let sign_off = (self.config.depth - 1) * nw;
        for p in 0..self.config.depth {
            let off = p * nw;
            for wi in 0..nw {
                let s = self.words[ra + sign_off + wi];
                let w = !s & self.words[ra + off + wi];
                self.words[rd + off + wi] = w;
            }
        }
        self.book(1 + per_plane * self.config.depth as u64);
        self.charge(MacroOp::Relu);
        Ok(())
    }

    fn mul(&mut self, dst: usize, a: usize, b: usize, width: u8) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(a)?;
        self.check_vr(b)?;
        // Value-level on the reference too; no primitives booked.
        let mask = self.value_mask();
        for e in 0..self.config.elements {
            let product = self.gather(a, e).wrapping_mul(self.gather(b, e)) & mask;
            self.scatter(dst, e, product);
        }
        self.charge(MacroOp::Mul(width));
        Ok(())
    }

    fn copy_vr(&mut self, dst: usize, src: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        let n = self.config.depth * self.nw;
        let (rs, rd) = (self.row(src, 0), self.row(dst, 0));
        self.words.copy_within(rs..rs + n, rd);
        // Boolean identity (OR(a,a)): one primitive per plane.
        self.book(self.config.depth as u64);
        self.charge(MacroOp::CopyVr);
        Ok(())
    }

    fn copy_from(&mut self, other: &Self, src_vr: usize, dst_vr: usize) -> Result<()> {
        if other.config.depth != self.config.depth || other.config.elements != self.config.elements
        {
            return Err(Error::GeometryMismatch(
                "inter-pipeline copy requires identical depth and elements",
            ));
        }
        other.check_vr(src_vr)?;
        self.check_vr(dst_vr)?;
        // Same depth and elements, so both sides share `nw` and one
        // register is one contiguous block on each side.
        let n = self.config.depth * self.nw;
        let rs = other.row(src_vr, 0);
        let rd = self.row(dst_vr, 0);
        self.words[rd..rd + n].copy_from_slice(&other.words[rs..rs + n]);
        self.charge(MacroOp::CopyAcross);
        Ok(())
    }

    fn shl(&mut self, dst: usize, src: usize, k: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        if k > self.config.depth {
            return Err(Error::ShiftTooFar {
                amount: k,
                depth: self.config.depth,
            });
        }
        // Plane block i..depth of dst receives block 0..depth-k of src;
        // `copy_within` is a memmove, so a `dst == src` overlap behaves
        // as if staged through a temporary — the same result the
        // reference's descending plane loop produces.
        let nw = self.nw;
        let depth = self.config.depth;
        let (rs, rd) = (self.row(src, 0), self.row(dst, 0));
        if k < depth {
            let n = (depth - k) * nw;
            self.words.copy_within(rs..rs + n, rd + k * nw);
        }
        for i in 0..k.min(depth) {
            self.clear_row(dst, i);
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
        let nw = self.nw;
        let depth = self.config.depth;
        let (rs, rd) = (self.row(src, 0), self.row(dst, 0));
        if k < depth {
            let n = (depth - k) * nw;
            self.words.copy_within(rs + k * nw..rs + k * nw + n, rd);
        }
        for i in depth.saturating_sub(k)..depth {
            self.clear_row(dst, i);
        }
        self.charge(MacroOp::ShiftBits(k as u8));
        Ok(())
    }

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
        for i in width..self.config.depth {
            self.clear_row(dst, i);
        }
        Ok(())
    }

    fn reverse(&mut self) {
        // Swap plane p with plane depth-1-p inside every register block.
        let depth = self.config.depth;
        let nw = self.nw;
        for vr in 0..self.config.vr_count {
            for p in 0..depth / 2 {
                let (lo, hi) = (self.row(vr, p), self.row(vr, depth - 1 - p));
                for wi in 0..nw {
                    self.words.swap(lo + wi, hi + wi);
                }
            }
        }
        self.charge(MacroOp::Reverse);
    }

    fn elementwise_load(&mut self, addr_vr: usize, table: &Self, dst_vr: usize) -> Result<()> {
        if table.config.depth != self.config.depth {
            return Err(Error::GeometryMismatch(
                "element-wise load requires identical pipeline depth",
            ));
        }
        self.check_vr(addr_vr)?;
        self.check_vr(dst_vr)?;
        let depth = self.config.depth;
        let nw = self.nw;
        let t_nw = table.nw;
        let t_elems = table.config.elements;
        let capacity = (table.config.vr_count * t_elems) as u64;
        // Transpose the address register once, sparse over its set bits,
        // instead of gathering each element's address bit by bit.
        let mut addrs = vec![0u64; self.config.elements];
        let r_addr = self.row(addr_vr, 0);
        for i in 0..depth {
            for wi in 0..nw {
                let mut w = self.words[r_addr + i * nw + wi];
                while w != 0 {
                    addrs[wi * 64 + w.trailing_zeros() as usize] |= 1u64 << i;
                    w &= w - 1;
                }
            }
        }
        // Validate addresses up front (ascending, like the scalar loop),
        // then gather plane-major: each element's table position becomes
        // a (row-base, bit) pair, so a plane pass is `base + i * t_nw`.
        let bad = addrs
            .iter()
            .enumerate()
            .find(|&(_, &a)| a >= capacity)
            .map(|(e, &a)| (e, a));
        let limit = bad.map_or(self.config.elements, |(e, _)| e);
        let pre: Vec<(usize, u32)> = addrs[..limit]
            .iter()
            .map(|&a| {
                let (tvr, trow) = (a as usize / t_elems, a as usize % t_elems);
                (tvr * depth * t_nw + trow / 64, (trow % 64) as u32)
            })
            .collect();
        let mut out = vec![0u64; depth * nw];
        for i in 0..depth {
            let plane_off = i * t_nw;
            for wi in 0..nw {
                let base = wi * 64;
                if base >= limit {
                    break;
                }
                let mut w = 0u64;
                for (off, &(tbase, tbi)) in pre[base..limit.min(base + 64)].iter().enumerate() {
                    w |= (table.words[tbase + plane_off] >> tbi & 1) << off;
                }
                out[i * nw + wi] = w;
            }
        }
        if let Some((e, address)) = bad {
            // Match the scalar loop's partial-scatter semantics: elements
            // before the offending address have landed.
            for pe in 0..e {
                let mut v = 0u64;
                for i in 0..depth {
                    v |= (out[i * nw + pe / 64] >> (pe % 64) & 1) << i;
                }
                self.scatter(dst_vr, pe, v);
            }
            return Err(Error::AddressOutOfRange {
                address,
                count: table.config.vr_count * t_elems,
            });
        }
        // Every element was loaded, so the destination register block is
        // overwritten wholesale from the staging buffer.
        let rd = self.row(dst_vr, 0);
        self.words[rd..rd + depth * nw].copy_from_slice(&out);
        self.charge(MacroOp::ElementLoad);
        Ok(())
    }

    fn primitives_executed(&self) -> u64 {
        self.primitives
    }

    fn energy(&self) -> PicoJoules {
        PicoJoules::new(self.primitives as f64 * self.config.family.energy_per_primitive_pj())
    }

    fn elapsed(&self) -> Cycles {
        self.timer.elapsed()
    }

    fn reset_timer(&mut self) -> Cycles {
        let old = std::mem::replace(
            &mut self.timer,
            PipelineTimer::new(self.config.depth as u64),
        );
        old.finish()
    }

    fn charge_external(&mut self, cost: MacroCost) {
        self.timer.issue(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::LogicFamily;
    use crate::pipeline::Pipeline;

    fn config(depth: usize, elements: usize) -> PipelineConfig {
        PipelineConfig {
            depth,
            elements,
            vr_count: 10,
            scratch_cols: 8,
            family: LogicFamily::Oscar,
        }
    }

    #[test]
    fn packed_bits_round_trips_odd_lengths() {
        for len in [1usize, 63, 64, 65, 127, 128, 192] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let row = PackedBits::from_bools(&bits);
            assert_eq!(row.to_bools(), bits, "len {len}");
        }
    }

    #[test]
    fn packed_not_keeps_tail_zero() {
        let row = PackedBits::new(70);
        let inverted = row.not();
        assert_eq!(inverted.to_bools(), vec![true; 70]);
        // Tail bits of the final word stay zero.
        assert_eq!(inverted.words()[1] >> 6, 0);
    }

    #[test]
    fn packed_shifts_match_index_semantics() {
        let bits: Vec<bool> = (0..100).map(|i| i % 7 == 0).collect();
        let row = PackedBits::from_bools(&bits);
        for k in [0usize, 1, 63, 64, 65, 99, 100, 150] {
            let shl = row.shl(k);
            let shr = row.shr(k);
            for i in 0..100 {
                let expect_l = i >= k && bits[i - k];
                let expect_r = i + k < 100 && bits[i + k];
                assert_eq!(shl.get(i), expect_l, "shl k={k} i={i}");
                assert_eq!(shr.get(i), expect_r, "shr k={k} i={i}");
            }
        }
    }

    #[test]
    fn packed_pipeline_matches_reference_on_arithmetic() {
        let cfg = config(16, 8);
        let mut fast = PackedPipeline::new(cfg).expect("builds");
        let mut slow = Pipeline::new(cfg).expect("builds");
        let a = [0u64, 1, 255, 1000, 65535, 32768, 42, 9999];
        let b = [0u64, 1, 1, 24, 1, 32768, 58, 1];
        for e in 0..8 {
            DcePipeline::write_value(&mut fast, 0, e, a[e]).expect("writes");
            DcePipeline::write_value(&mut fast, 1, e, b[e]).expect("writes");
            slow.write_value(0, e, a[e]).expect("writes");
            slow.write_value(1, e, b[e]).expect("writes");
        }
        DcePipeline::add(&mut fast, 2, 0, 1).expect("adds");
        slow.add(2, 0, 1).expect("adds");
        DcePipeline::sub(&mut fast, 3, 0, 1).expect("subs");
        slow.sub(3, 0, 1).expect("subs");
        DcePipeline::cmp_lt(&mut fast, 4, 0, 1).expect("compares");
        slow.cmp_lt(4, 0, 1).expect("compares");
        for vr in 2..5 {
            for e in 0..8 {
                assert_eq!(
                    fast.peek_value(vr, e),
                    slow.peek_value(vr, e),
                    "vr {vr} e {e}"
                );
            }
        }
        assert_eq!(
            DcePipeline::primitives_executed(&fast),
            slow.primitives_executed()
        );
        assert_eq!(DcePipeline::elapsed(&fast), slow.elapsed());
    }

    #[test]
    fn aliasing_add_matches_reference() {
        let cfg = config(8, 8);
        let mut fast = PackedPipeline::new(cfg).expect("builds");
        for e in 0..8 {
            DcePipeline::write_value(&mut fast, 0, e, 10).expect("writes");
            DcePipeline::write_value(&mut fast, 1, e, 32).expect("writes");
        }
        DcePipeline::add(&mut fast, 0, 0, 1).expect("adds");
        assert_eq!(fast.peek_value(0, 0), 42);
    }
}
