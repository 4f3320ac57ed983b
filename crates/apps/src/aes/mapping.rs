//! AES on DARTH-PUM (§5.3, Figure 12).
//!
//! Placement:
//!
//! * **State** — 16 byte-elements of a vector register in the *state
//!   pipeline*.
//! * **SubBytes** — the S-box lives in a spare pipeline (4 vector
//!   registers × 64 elements = 256 entries); each state byte is its own
//!   lookup address for the element-wise load instruction (§4.2).
//! * **ShiftRows** — a byte permutation, realised by staging the state
//!   into the table pipeline and gathering it back through a constant
//!   address register (the same element-wise load datapath; the paper's
//!   pipeline-reversal variant is timing-equivalent and is modelled in the
//!   unoptimized schedule).
//! * **MixColumns** — the GF(2)-linear 32×32 binary matrix
//!   ([`crate::aes::gf2::mixcolumns_matrix`]) sits in one SLC analog
//!   array, remapped to ±1 by the §4.3 compensation scheme. Each column's
//!   32 bits drive the wordlines; each bitline's count decodes to its
//!   parity — the one bit the subsequent XOR structure needs, which is
//!   what lets a ramp ADC terminate after 4 levels (§7.3).
//! * **AddRoundKey** — round keys are resident in the table pipeline and
//!   XORed into the state with one Boolean macro.
//!
//! Every step executes *functionally* on the simulated tile: the
//! ciphertext is produced by OSCAR NOR pulses and analog bitline currents,
//! then checked against FIPS-197.

use super::gf2;
use super::golden::{self, Aes};
use crate::{Error, Result};
use darth_analog::compensation::CompensationScheme;
use darth_digital::logic::LogicFamily;
use darth_digital::macros::MacroOp;
use darth_digital::{BoolOp, DcePipeline};
use darth_isa::iiu::ReductionRegs;
use darth_isa::VaCoreId;
use darth_pum::hct::{HctConfig, HybridComputeTile};
use darth_reram::Cycles;
use std::collections::BTreeMap;

/// Pipeline roles within the AES tile.
const STATE_PIPE: usize = 0;
const TABLE_PIPE: usize = 1;
const LANDING_PIPE: usize = 2;

/// Table-pipeline register map.
const SBOX_BASE_VR: usize = 0; // v0..v3: the 256-entry S-box
const STAGING_VR: usize = 4; // ShiftRows staging copy of the state
const ROUND_KEY_BASE_VR: usize = 5; // v5..: one VR per round key

/// State-pipeline register map.
const STATE_VR: usize = 0;
const KEY_TMP_VR: usize = 1;
const SHIFT_ADDR_VR: usize = 2;

/// AES-128/192/256 encryption running on a hybrid compute tile.
#[derive(Debug)]
pub struct AesDarth {
    tile: HybridComputeTile,
    vacore: VaCoreId,
    golden: Aes,
    scheme: CompensationScheme,
    kernel_cycles: BTreeMap<String, Cycles>,
    blocks_encrypted: u64,
}

impl AesDarth {
    /// Builds an AES-128 engine with the default functional tile.
    ///
    /// # Errors
    ///
    /// Propagates tile construction and programming errors.
    pub fn new_128(key: &[u8; 16]) -> Result<Self> {
        AesDarth::with_config(Aes::new_128(key), AesDarth::default_config())
    }

    /// Builds an AES-192 engine.
    ///
    /// # Errors
    ///
    /// Propagates tile construction and programming errors.
    pub fn new_192(key: &[u8; 24]) -> Result<Self> {
        AesDarth::with_config(Aes::new_192(key), AesDarth::default_config())
    }

    /// Builds an AES-256 engine.
    ///
    /// # Errors
    ///
    /// Propagates tile construction and programming errors.
    pub fn new_256(key: &[u8; 32]) -> Result<Self> {
        AesDarth::with_config(Aes::new_256(key), AesDarth::default_config())
    }

    /// The tile geometry AES needs: three pipelines (state, table,
    /// landing), 16-bit depth, one SLC analog array.
    pub fn default_config() -> HctConfig {
        HctConfig {
            functional_pipelines: 3,
            functional_depth: 16,
            functional_elements: 64,
            functional_vrs: 24,
            functional_ace_arrays: 2,
            functional_bits_per_cell: 1,
            ..HctConfig::small_test()
        }
    }

    /// Builds an engine from an expanded key on a custom tile (the
    /// noise-injection tests use a noisy configuration here).
    ///
    /// # Errors
    ///
    /// Returns mapping errors when the tile is too small, or substrate
    /// errors.
    pub fn with_config(golden: Aes, config: HctConfig) -> Result<Self> {
        if config.functional_pipelines < 3 {
            return Err(Error::Mapping(
                "AES needs three pipelines (state, table, landing)".into(),
            ));
        }
        let needed_vrs = ROUND_KEY_BASE_VR + golden.round_keys().len() + 1;
        if config.functional_vrs < needed_vrs {
            return Err(Error::Mapping(format!(
                "AES needs {needed_vrs} vector registers in the table pipeline"
            )));
        }
        let mut tile = HybridComputeTile::new(config)?;
        // ±1 remapping plus the digitally applied IR-drop correction
        // (§4.3); range scaling is unnecessary at integer ADC LSBs.
        let scheme = CompensationScheme {
            remap: true,
            scale_half: false,
            ir_drop_alpha: 0.0,
        }
        .with_ir_alpha(tile.ace().config().crossbar.ir_drop_alpha);

        // Program the ±1-remapped MixColumns matrix into one SLC vACore.
        let vacore = tile.alloc_vacore(1, 1, 1, false)?;
        let matrix = scheme.remap_matrix(&gf2::mixcolumns_matrix());
        tile.set_matrix(vacore, &matrix)?;

        // Load the S-box: 256 entries across four vector registers.
        for vr in 0..4 {
            let values: Vec<u64> = (0..64)
                .map(|e| u64::from(golden::SBOX[vr * 64 + e]))
                .collect();
            tile.pipeline_mut(TABLE_PIPE)?
                .write_vector(SBOX_BASE_VR + vr, &values)?;
        }

        // Load the round keys, one register each.
        for (r, rk) in golden.round_keys().iter().enumerate() {
            let values: Vec<u64> = rk.iter().map(|&b| u64::from(b)).collect();
            tile.pipeline_mut(TABLE_PIPE)?
                .write_vector(ROUND_KEY_BASE_VR + r, &values)?;
        }

        // ShiftRows gather addresses: shifted[e] = staged[perm[e]], where
        // the staging copy lives at table address STAGING_VR*64 + perm[e].
        let elements = tile.pipeline(STATE_PIPE)?.elements() as u64;
        let mut addresses = vec![0u64; 16];
        for r in 0..4usize {
            for c in 0..4usize {
                let dst = r + 4 * c;
                let src = r + 4 * ((c + r) % 4);
                addresses[dst] = STAGING_VR as u64 * elements + src as u64;
            }
        }
        tile.pipeline_mut(STATE_PIPE)?
            .write_vector(SHIFT_ADDR_VR, &addresses)?;

        Ok(AesDarth {
            tile,
            vacore,
            golden,
            scheme,
            kernel_cycles: BTreeMap::new(),
            blocks_encrypted: 0,
        })
    }

    /// The golden context (round keys, oracle encryption).
    pub fn golden(&self) -> &Aes {
        &self.golden
    }

    /// Per-kernel cycle totals accumulated so far (Figure 14's breakdown).
    pub fn kernel_cycles(&self) -> &BTreeMap<String, Cycles> {
        &self.kernel_cycles
    }

    /// Blocks encrypted so far.
    pub fn blocks_encrypted(&self) -> u64 {
        self.blocks_encrypted
    }

    /// The underlying tile (energy/stat inspection).
    pub fn tile(&self) -> &HybridComputeTile {
        &self.tile
    }

    fn charge(&mut self, kernel: &str, cycles: Cycles) {
        *self
            .kernel_cycles
            .entry(kernel.to_owned())
            .or_insert(Cycles::ZERO) += cycles;
        self.tile.advance(cycles);
    }

    fn macro_latency(&self, op: MacroOp) -> Cycles {
        let params = &self.tile.config().params;
        op.cost(
            self.tile.config().family,
            params.dce_pipeline_depth as u64,
            params.array_dim as u64,
        )
        .latency()
    }

    /// Encrypts one 16-byte block on the tile.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors; results are validated against the
    /// golden model by the test suite, not silently corrected here.
    pub fn encrypt_block(&mut self, block: &[u8; 16]) -> Result<[u8; 16]> {
        // Load the plaintext into the state register (16 peripheral
        // writes: one row of data per cycle).
        let values: Vec<u64> = block.iter().map(|&b| u64::from(b)).collect();
        self.tile
            .pipeline_mut(STATE_PIPE)?
            .write_vector(STATE_VR, &values)?;
        self.charge("DataMovement", Cycles::new(16));

        let rounds = self.golden.rounds();
        self.add_round_key(0)?;
        for round in 1..rounds {
            self.sub_bytes()?;
            self.shift_rows()?;
            self.mix_columns()?;
            self.add_round_key(round)?;
        }
        self.sub_bytes()?;
        self.shift_rows()?;
        self.add_round_key(rounds)?;

        let mut out = [0u8; 16];
        let pipe = self.tile.pipeline_mut(STATE_PIPE)?;
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = pipe.read_value(STATE_VR, i)? as u8;
        }
        self.charge("DataMovement", Cycles::new(16));
        self.blocks_encrypted += 1;
        Ok(out)
    }

    /// SubBytes: element-wise gather through the S-box pipeline.
    fn sub_bytes(&mut self) -> Result<()> {
        let cost = self.macro_latency(MacroOp::ElementLoad);
        {
            let (state, table) = self.tile.pipeline_pair(STATE_PIPE, TABLE_PIPE)?;
            state.elementwise_load(STATE_VR, table, STATE_VR)?;
        }
        self.charge("SubBytes", cost);
        Ok(())
    }

    /// ShiftRows: stage into the table pipeline, gather back permuted.
    fn shift_rows(&mut self) -> Result<()> {
        let copy = self.macro_latency(MacroOp::CopyAcross);
        let gather = self.macro_latency(MacroOp::ElementLoad);
        {
            let (table, state) = self.tile.pipeline_pair(TABLE_PIPE, STATE_PIPE)?;
            table.copy_from(state, STATE_VR, STAGING_VR)?;
        }
        {
            let (state, table) = self.tile.pipeline_pair(STATE_PIPE, TABLE_PIPE)?;
            state.elementwise_load(SHIFT_ADDR_VR, table, STATE_VR)?;
        }
        self.charge("ShiftRows", copy + gather);
        Ok(())
    }

    /// MixColumns: one analog MVM per state column, parity-decoded.
    fn mix_columns(&mut self) -> Result<()> {
        // Ramp ADCs terminate after 4 levels here (§7.3); SAR ignores it.
        let early = Some(4u16);
        let unpack = self.macro_latency(MacroOp::ShiftBits(1)) * 8;
        let pack = unpack;
        for c in 0..4 {
            // Read the column's bytes out of the DCE (peripheral reads are
            // part of the MVM's input staging, charged via `unpack`).
            let col: [u8; 4] = {
                let pipe = self.tile.pipeline_mut(STATE_PIPE)?;
                [
                    pipe.peek_value(STATE_VR, 4 * c) as u8,
                    pipe.peek_value(STATE_VR, 4 * c + 1) as u8,
                    pipe.peek_value(STATE_VR, 4 * c + 2) as u8,
                    pipe.peek_value(STATE_VR, 4 * c + 3) as u8,
                ]
            };
            let bits = gf2::column_to_bits(&col);
            let active: i64 = bits.iter().sum();
            let regs = ReductionRegs::dense(1);
            let report = self
                .tile
                .exec_mvm(self.vacore, &bits, LANDING_PIPE, &regs, early)?;
            // ±1 remap: measured = 2·count − active; parity = count & 1.
            // The IR-drop correction divides out the (1 − α·k) droop first.
            let out_bits: Vec<i64> = report.result[..32]
                .iter()
                .map(|&m| {
                    let corrected = self.scheme.correct_ir(m as f64, active);
                    self.scheme.decode(corrected, active) & 1
                })
                .collect();
            let out = gf2::bits_to_column(&out_bits);
            {
                let pipe = self.tile.pipeline_mut(STATE_PIPE)?;
                for (i, &b) in out.iter().enumerate() {
                    pipe.write_value(STATE_VR, 4 * c + i, u64::from(b))?;
                }
            }
            self.charge("MixColumns", report.cycles + unpack + pack);
        }
        Ok(())
    }

    /// AddRoundKey: copy the resident key across, XOR into the state.
    fn add_round_key(&mut self, round: usize) -> Result<()> {
        let copy = self.macro_latency(MacroOp::CopyAcross);
        let xor = self.macro_latency(MacroOp::Bool(BoolOp::Xor));
        {
            let (state, table) = self.tile.pipeline_pair(STATE_PIPE, TABLE_PIPE)?;
            state.copy_from(table, ROUND_KEY_BASE_VR + round, KEY_TMP_VR)?;
            state.bool_op(BoolOp::Xor, STATE_VR, STATE_VR, KEY_TMP_VR)?;
        }
        self.charge("AddRoundKey", copy + xor);
        Ok(())
    }
}

/// Convenience: the logic-family-dependent cycle estimate for one AES
/// block on the DCE alone (used by the Figure 7 sweep).
pub fn digital_only_block_cycles(family: LogicFamily) -> u64 {
    // Per round: SubBytes (element loads) + ShiftRows (copy+gather) +
    // MixColumns as ~36 XOR macros over the GF(2) map + AddRoundKey (XOR).
    let depth = 64u64;
    let elements = 64u64;
    let eload = MacroOp::ElementLoad
        .cost(family, depth, elements)
        .latency()
        .get();
    let copy = MacroOp::CopyAcross
        .cost(family, depth, elements)
        .latency()
        .get();
    let xor_cost = MacroOp::Bool(BoolOp::Xor).cost(family, depth, elements);
    // The GF(2) MixColumns XOR network pipelines (bit-aligned deps).
    let xors = xor_cost.pipelined_batch(36).get();
    let per_round = eload + (copy + eload) + xors + (copy + xor_cost.latency().get());
    10 * per_round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plaintext = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let mut engine = AesDarth::new_128(&key).expect("builds");
        let ct = engine.encrypt_block(&plaintext).expect("encrypts");
        assert_eq!(
            ct,
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    #[test]
    fn matches_golden_for_many_blocks() {
        let key = *b"hybrid-pum-key!!";
        let mut engine = AesDarth::new_128(&key).expect("builds");
        let golden = Aes::new_128(&key);
        for seed in 0u8..8 {
            let block: [u8; 16] =
                core::array::from_fn(|i| seed.wrapping_mul(37).wrapping_add((i * 3) as u8));
            let hybrid = engine.encrypt_block(&block).expect("encrypts");
            assert_eq!(hybrid, golden.encrypt_block(&block), "block {seed}");
        }
        assert_eq!(engine.blocks_encrypted(), 8);
    }

    #[test]
    fn aes256_matches_golden() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7) as u8);
        let mut engine = AesDarth::new_256(&key).expect("builds");
        let golden = Aes::new_256(&key);
        let block: [u8; 16] = core::array::from_fn(|i| (255 - i) as u8);
        assert_eq!(
            engine.encrypt_block(&block).expect("encrypts"),
            golden.encrypt_block(&block)
        );
    }

    #[test]
    fn aes192_matches_golden() {
        let key: [u8; 24] = core::array::from_fn(|i| (i * 11 + 3) as u8);
        let mut engine = AesDarth::new_192(&key).expect("builds");
        let golden = Aes::new_192(&key);
        let block = *b"0123456789abcdef";
        assert_eq!(
            engine.encrypt_block(&block).expect("encrypts"),
            golden.encrypt_block(&block)
        );
    }

    #[test]
    fn kernel_breakdown_covers_all_steps() {
        let mut engine = AesDarth::new_128(&[7u8; 16]).expect("builds");
        engine.encrypt_block(&[1u8; 16]).expect("encrypts");
        let kernels = engine.kernel_cycles();
        for name in [
            "DataMovement",
            "SubBytes",
            "ShiftRows",
            "MixColumns",
            "AddRoundKey",
        ] {
            assert!(
                kernels.get(name).is_some_and(|c| c.get() > 0),
                "kernel {name} missing from breakdown: {kernels:?}"
            );
        }
        // MixColumns runs through the ACE, so analog energy must exist.
        let meter = engine.tile().energy_meter();
        assert!(meter.component("ace.adc").get() > 0.0);
    }

    #[test]
    fn too_small_tile_is_rejected() {
        let mut config = AesDarth::default_config();
        config.functional_pipelines = 2;
        let err = AesDarth::with_config(Aes::new_128(&[0; 16]), config).unwrap_err();
        assert!(matches!(err, Error::Mapping(_)));
    }

    #[test]
    fn digital_only_estimate_orders_families() {
        let oscar = digital_only_block_cycles(LogicFamily::Oscar);
        let ideal = digital_only_block_cycles(LogicFamily::Ideal);
        assert!(ideal < oscar);
        // §3: the ideal family buys roughly 2x for digital-only AES.
        // §3 reports ~2.1x for digital-only AES with an ideal family.
        let ratio = oscar as f64 / ideal as f64;
        assert!((1.5..=3.5).contains(&ratio), "ratio {ratio}");
    }
}
