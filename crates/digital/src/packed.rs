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
//! decompositions would execute are still counted. Element-wise loads
//! read their table through a value-major host cache of its registers
//! (`ValueMirror`), which is not modelled state either. The differential
//! suite in `darth_sim` (`fast_vs_reference`) and the property tests in
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
///
/// Element-wise loads read the *table* pipeline through its value
/// mirror, a value-major host copy of its registers (see `ValueMirror`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedPipeline {
    config: PipelineConfig,
    /// Words per packed row: `elements.div_ceil(64)`.
    nw: usize,
    words: Vec<u64>,
    primitives: u64,
    timer: PipelineTimer,
    mirror: ValueMirror,
}

/// A value-major copy of a pipeline's registers for the `eload` lookups
/// that read it as a table: `values[address]` is element
/// `address % elements` of register `address / elements`, so a lookup
/// is one read instead of a `depth`-bit gather out of the bit planes.
///
/// A host cache, not modelled state:
/// * built by the first `eload` that reads the pipeline as a table, so a
///   pipeline that never serves as one never allocates or copies it;
/// * every write to a register marks that register stale, and
///   `reverse` marks all of them; an `eload` rebuilds the stale
///   registers it addresses before reading them;
/// * excluded from equality, and never charged to the timer or booked
///   as primitives.
#[derive(Debug, Clone, Default)]
struct ValueMirror {
    values: Vec<u64>,
    /// `stale[vr]`: `vr`'s slice of `values` is out of date. Empty
    /// until the mirror is built.
    stale: Vec<bool>,
}

impl ValueMirror {
    /// Allocates the mirror, every register stale, unless it exists.
    fn build(&mut self, config: &PipelineConfig) {
        if self.stale.is_empty() {
            self.values = vec![0; config.vr_count * config.elements];
            self.stale = vec![true; config.vr_count];
        }
    }

    fn mark_stale(&mut self, vr: usize) {
        if let Some(stale) = self.stale.get_mut(vr) {
            *stale = true;
        }
    }
}

impl PartialEq for ValueMirror {
    /// Two pipelines with equal planes are equal whatever their caches
    /// hold.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A mask of the low `n` bits (`n <= 64`).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Transposes an 8×8 bit matrix held row-major in a `u64` (row `r` is
/// byte `r`, column `c` is bit `c` of it).
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes an 8×8 byte matrix held as eight row words (byte `j` of
/// `m[r]` is entry `(r, j)`), in place: swap the off-diagonal 4×4, then
/// 2×2, then 1×1 byte blocks.
fn transpose_bytes(m: &mut [u64; 8]) {
    const HALF: u64 = 0x0000_0000_FFFF_FFFF;
    const QUARTER: u64 = 0x0000_FFFF_0000_FFFF;
    const EIGHTH: u64 = 0x00FF_00FF_00FF_00FF;
    const SWAPS: [(usize, usize, u32, u64); 12] = [
        (0, 4, 32, HALF),
        (1, 5, 32, HALF),
        (2, 6, 32, HALF),
        (3, 7, 32, HALF),
        (0, 2, 16, QUARTER),
        (1, 3, 16, QUARTER),
        (4, 6, 16, QUARTER),
        (5, 7, 16, QUARTER),
        (0, 1, 8, EIGHTH),
        (2, 3, 8, EIGHTH),
        (4, 5, 8, EIGHTH),
        (6, 7, 8, EIGHTH),
    ];
    for (a, b, shift, mask) in SWAPS {
        let t = ((m[a] >> shift) ^ m[b]) & mask;
        m[a] ^= t << shift;
        m[b] ^= t;
    }
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
        low_bits(self.config.elements - wi * 64)
    }

    /// Start of register `vr`'s planes for a macro that writes them:
    /// marks `vr` stale in the value mirror. Every write goes through
    /// here.
    #[inline]
    fn dst_row(&mut self, vr: usize) -> usize {
        self.mirror.mark_stale(vr);
        self.row(vr, 0)
    }

    /// Zeroes the row holding bit `plane` of register `vr`.
    fn clear_row(&mut self, vr: usize, plane: usize) {
        let r = self.dst_row(vr) + plane * self.nw;
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
        let base = self.dst_row(vr) + w;
        for i in 0..self.config.depth {
            let slot = &mut self.words[base + i * self.nw];
            if value >> i & 1 == 1 {
                *slot |= bit;
            } else {
                *slot &= !bit;
            }
        }
    }

    /// Elements `64 * wi ..` of `vr` as values: word `wi` of every plane,
    /// transposed in 8×8 bit blocks. `out[k]` is element `64 * wi + k`
    /// (zero past the element count). Plane groups with no set bit are
    /// skipped, so narrow values in a deep register cost one group.
    fn load_column(&self, vr: usize, wi: usize, out: &mut [u64; 64]) {
        *out = [0; 64];
        let (depth, nw) = (self.config.depth, self.nw);
        let base = self.row(vr, 0) + wi;
        for g in (0..depth).step_by(8) {
            let mut rows = [0u64; 8];
            for (r, row) in rows.iter_mut().enumerate().take(depth - g) {
                *row = self.words[base + (g + r) * nw];
            }
            if rows == [0; 8] {
                continue;
            }
            // Block `j` holds byte `j` of each plane: elements 8j..8j+8.
            transpose_bytes(&mut rows);
            for (j, &block) in rows.iter().enumerate() {
                if block != 0 {
                    let bytes = transpose8(block).to_le_bytes();
                    for (c, &byte) in bytes.iter().enumerate() {
                        out[8 * j + c] |= u64::from(byte) << g;
                    }
                }
            }
        }
    }

    /// The inverse of [`Self::load_column`]: writes `values` (each at most
    /// `depth` bits wide) into word `wi` of `vr`'s planes, for the
    /// elements selected by `mask`; the other elements keep their bits.
    fn store_column(&mut self, vr: usize, wi: usize, values: &[u64; 64], mask: u64) {
        let (depth, nw) = (self.config.depth, self.nw);
        let base = self.dst_row(vr) + wi;
        let set = values.iter().fold(0, |acc, &v| acc | v);
        for g in (0..depth).step_by(8) {
            let mut rows = [0u64; 8];
            if set >> g & 0xFF != 0 {
                for (j, block) in rows.iter_mut().enumerate() {
                    let bytes: [u8; 8] = std::array::from_fn(|c| (values[8 * j + c] >> g) as u8);
                    *block = transpose8(u64::from_le_bytes(bytes));
                }
                transpose_bytes(&mut rows);
            }
            for (r, &row) in rows.iter().enumerate().take(depth - g) {
                let slot = &mut self.words[base + (g + r) * nw];
                *slot = (*slot & !mask) | (row & mask);
            }
        }
    }

    /// The value at `address` of this pipeline as an `eload` table,
    /// rebuilding the addressed register's mirror slice first if it is
    /// stale. `address` is below `vr_count * elements`.
    #[inline]
    fn table_value(&mut self, address: usize) -> u64 {
        let elements = self.config.elements;
        // A shift for power-of-two widths (every tile geometry): a
        // division per element would cost as much as the lookup.
        let vr = if elements.is_power_of_two() {
            address >> elements.trailing_zeros()
        } else {
            address / elements
        };
        if self.mirror.stale[vr] {
            self.refresh_mirror(vr);
        }
        self.mirror.values[address]
    }

    /// Rebuilds register `vr`'s slice of the value mirror from its planes.
    #[cold]
    fn refresh_mirror(&mut self, vr: usize) {
        let elements = self.config.elements;
        let mut column = [0u64; 64];
        for wi in 0..self.nw {
            self.load_column(vr, wi, &mut column);
            let lo = wi * 64;
            let n = (elements - lo).min(64);
            self.mirror.values[vr * elements + lo..][..n].copy_from_slice(&column[..n]);
        }
        self.mirror.stale[vr] = false;
    }

    /// The first `count` elements of `vr` (`count <= elements`).
    fn read_prefix(&self, vr: usize, count: usize) -> Vec<u64> {
        let mut out = vec![0u64; count];
        let mut column = [0u64; 64];
        for (wi, chunk) in out.chunks_mut(64).enumerate() {
            self.load_column(vr, wi, &mut column);
            chunk.copy_from_slice(&column[..chunk.len()]);
        }
        out
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
        let (ra, rb, rd) = (self.row(a, 0), self.row(b, 0), self.dst_row(dst));
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
            mirror: ValueMirror::default(),
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
        // Elements past `values.len()` keep their old bits.
        for (wi, chunk) in values.chunks(64).enumerate() {
            let mut column = [0u64; 64];
            column[..chunk.len()].copy_from_slice(chunk);
            self.store_column(vr, wi, &column, low_bits(chunk.len()));
        }
        for _ in 0..values.len() {
            self.charge(MacroOp::WriteElement);
        }
        Ok(())
    }

    fn read_vector(&mut self, vr: usize) -> Result<Vec<u64>> {
        self.check_vr(vr)?;
        let out = self.read_prefix(vr, self.config.elements);
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
        let out = self.read_prefix(vr, count);
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
        let (ra, rb, rd) = (self.row(a, 0), self.row(b, 0), self.dst_row(dst));
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
        let (ra, rd) = (self.row(a, 0), self.dst_row(dst));
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
        let rd = self.dst_row(dst);
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
            self.dst_row(dst),
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
        let (ra, rd) = (self.row(a, 0), self.dst_row(dst));
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
        let (mut va, mut vb) = ([0u64; 64], [0u64; 64]);
        for wi in 0..self.nw {
            self.load_column(a, wi, &mut va);
            self.load_column(b, wi, &mut vb);
            for (x, &y) in va.iter_mut().zip(&vb) {
                *x = x.wrapping_mul(y) & mask;
            }
            self.store_column(dst, wi, &va, self.wmask(wi));
        }
        self.charge(MacroOp::Mul(width));
        Ok(())
    }

    fn copy_vr(&mut self, dst: usize, src: usize) -> Result<()> {
        self.check_vr(dst)?;
        self.check_vr(src)?;
        let n = self.config.depth * self.nw;
        let (rs, rd) = (self.row(src, 0), self.dst_row(dst));
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
        let rd = self.dst_row(dst_vr);
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
        let (rs, rd) = (self.row(src, 0), self.dst_row(dst));
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
        let (rs, rd) = (self.row(src, 0), self.dst_row(dst));
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
        self.mirror.stale.fill(true);
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

    fn elementwise_load(&mut self, addr_vr: usize, table: &mut Self, dst_vr: usize) -> Result<()> {
        if table.config.depth != self.config.depth {
            return Err(Error::GeometryMismatch(
                "element-wise load requires identical pipeline depth",
            ));
        }
        self.check_vr(addr_vr)?;
        self.check_vr(dst_vr)?;
        let count = table.config.vr_count * table.config.elements;
        table.mirror.build(&table.config);
        // 64 elements at a time: transpose the addresses out of the bit
        // planes, look each one up in the table's value mirror, transpose
        // the results into the destination planes. A column's
        // destination word is written after its address word is read,
        // so `dst_vr` may alias `addr_vr`.
        let (mut addresses, mut loaded) = ([0u64; 64], [0u64; 64]);
        for wi in 0..self.nw {
            self.load_column(addr_vr, wi, &mut addresses);
            let n = (self.config.elements - wi * 64).min(64);
            for k in 0..n {
                let address = addresses[k];
                if address >= count as u64 {
                    // The reference loads element by element, so the
                    // elements before the offending one have landed.
                    self.store_column(dst_vr, wi, &loaded, low_bits(k));
                    return Err(Error::AddressOutOfRange { address, count });
                }
                loaded[k] = table.table_value(address as usize);
            }
            self.store_column(dst_vr, wi, &loaded, self.wmask(wi));
        }
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
    fn block_transposes_match_their_definitions() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..64 {
            x = x.rotate_left(13).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5555;
            let t = transpose8(x);
            let rows: [u64; 8] = std::array::from_fn(|i| x.rotate_left(8 * i as u32) ^ i as u64);
            let mut m = rows;
            transpose_bytes(&mut m);
            for (r, &row) in rows.iter().enumerate() {
                for (c, &col) in m.iter().enumerate() {
                    assert_eq!(t >> (8 * c + r) & 1, x >> (8 * r + c) & 1);
                    assert_eq!(col >> (8 * r) & 0xFF, row >> (8 * c) & 0xFF);
                }
            }
        }
    }

    #[test]
    fn value_mirror_is_a_cache_not_state() {
        let cfg = config(16, 70);
        let mut table = PackedPipeline::new(cfg).expect("builds");
        let mut addr = PackedPipeline::new(cfg).expect("builds");
        let values: Vec<u64> = (0..70).map(|e| e * 3 + 1).collect();
        table.write_vector(2, &values).expect("writes");
        addr.write_vector(0, &(0..70).map(|e| 2 * 70 + e).collect::<Vec<_>>())
            .expect("writes");
        let before = table.clone();
        addr.elementwise_load(0, &mut table, 1).expect("loads");
        assert_eq!(addr.read_vector(1).expect("reads"), values);
        // The table built its mirror; the address side never serves as a
        // table and never allocates one.
        assert_eq!(table.mirror.values.len(), 10 * 70);
        assert!(addr.mirror.values.is_empty());
        // Neither the mirror nor its refresh is observable state.
        assert_eq!(table, before);
        assert_eq!(table.elapsed(), before.elapsed());
        assert_eq!(table.primitives_executed(), before.primitives_executed());
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
