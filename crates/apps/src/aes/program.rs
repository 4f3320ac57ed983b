//! AES compiled to a self-contained DARTH-PUM ISA program — via the
//! `darth_kir` kernel-IR compiler.
//!
//! [`AesExec`] builds an AES block encryption as a kernel IR — every
//! round step, including the MixColumns bit unpack/parity/repack
//! plumbing, is an IR op lowering to one real
//! `shr`/`and`/`eload`/`mvm`/`shl`/`or` instruction — and the compiler
//! pipeline (verify → allocate → lower) emits the encoded program. No
//! host step runs between kernels: the whole block encryption is one
//! instruction stream on the tile.
//!
//! Placement notes that survive the compiler:
//!
//! * the GF(2) MixColumns matrix is programmed **raw** (0/1 weights in
//!   SLC cells, no ±1 remap): each bitline count's LSB is its output
//!   parity, so parity is one `and` with an all-ones register — no host.
//!   An SLC weight owns the full conductance window, so the counts stay
//!   exact on a noisy tile at the default sigmas too;
//! * the S-box is *self-addressing* (a state byte is its own lookup
//!   address), so its four registers are pinned at table registers 0–3
//!   with [`KirBuilder::const_u_at`] — the one placement the allocator
//!   must not choose;
//! * all other gather tables (`ShiftRows` permutation, MVM input
//!   addresses, repack addresses) are IR address tables: they reference
//!   *slots*, and the compiler resolves the global
//!   `register × elements + element` addresses after allocation.
//!
//! The compiled job is the flagship case of the `darth_sim` differential
//! harness: FIPS-197 vectors run through decode → dispatch → ACE/DCE and
//! must match [`Aes::encrypt_block`] byte-for-byte.

use super::gf2;
use super::golden::{Aes, KeySize, SBOX};
use darth_isa::instruction::IsaBoolOp;
use darth_kir::{pack_bit_planes, unpack_bit_planes, CompiledKernel, KernelIr, KirBuilder, Value};
use darth_pum::eval::{ExecJob, ExecOutput, Executable, SplitJob};
use darth_pum::hct::HctConfig;

/// Pipeline roles.
const P_STATE: u16 = 0;
const P_TABLE: u16 = 1;
const P_IN: u16 = 2;
const P_LAND: u16 = 3;

/// Elements per vector register in the compiled tile.
const ELEMENTS: usize = 64;

/// One AES block encryption compiled to a self-contained ISA job.
#[derive(Debug, Clone)]
pub struct AesExec {
    name: String,
    golden: Aes,
    plaintext: [u8; 16],
}

impl AesExec {
    /// An AES-128 job.
    pub fn aes128(name: impl Into<String>, key: &[u8; 16], plaintext: [u8; 16]) -> Self {
        AesExec {
            name: name.into(),
            golden: Aes::new_128(key),
            plaintext,
        }
    }

    /// An AES-192 job.
    pub fn aes192(name: impl Into<String>, key: &[u8; 24], plaintext: [u8; 16]) -> Self {
        AesExec {
            name: name.into(),
            golden: Aes::new_192(key),
            plaintext,
        }
    }

    /// An AES-256 job.
    pub fn aes256(name: impl Into<String>, key: &[u8; 32], plaintext: [u8; 16]) -> Self {
        AesExec {
            name: name.into(),
            golden: Aes::new_256(key),
            plaintext,
        }
    }

    /// The FIPS-197 Appendix B worked example (AES-128).
    pub fn fips197_appendix_b() -> Self {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plaintext = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        AesExec::aes128("aes-128/fips197-b", &key, plaintext)
    }

    /// The FIPS-197 Appendix C vector for the given key size (key bytes
    /// `00 01 02 …`, plaintext `00 11 22 … ff`).
    pub fn fips197_appendix_c(size: KeySize) -> Self {
        let plaintext: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        match size {
            KeySize::Aes128 => {
                let key: [u8; 16] = core::array::from_fn(|i| i as u8);
                AesExec::aes128("aes-128/fips197-c", &key, plaintext)
            }
            KeySize::Aes192 => {
                let key: [u8; 24] = core::array::from_fn(|i| i as u8);
                AesExec::aes192("aes-192/fips197-c", &key, plaintext)
            }
            KeySize::Aes256 => {
                let key: [u8; 32] = core::array::from_fn(|i| i as u8);
                AesExec::aes256("aes-256/fips197-c", &key, plaintext)
            }
        }
    }

    /// The tile geometry the compiled program targets: four pipelines
    /// (state, table, MVM input, landing), 16-bit depth, SLC MixColumns.
    pub fn tile_config() -> HctConfig {
        HctConfig {
            functional_pipelines: 4,
            functional_depth: 16,
            functional_elements: ELEMENTS,
            functional_vrs: 40,
            functional_ace_arrays: 2,
            functional_bits_per_cell: 1,
            ..HctConfig::small_test()
        }
    }

    /// Builds the block encryption as a kernel IR: one vACore for the
    /// GF(2) MixColumns matrix, the S-box/round-key/mask constants and
    /// gather-address tables as setup, the plaintext as the per-request
    /// input, and the rounds as the body.
    pub fn build_ir(&self) -> KernelIr {
        let mut b = KirBuilder::new(&self.name, AesExec::tile_config());
        // The raw 0/1 GF(2) matrix: rows are input bits (wordlines),
        // columns output bits (bitlines); the exact bitline count's LSB
        // is the output parity.
        let mc = b.vacore(gf2::mixcolumns_matrix(), 1, 1, 1, false);

        // S-box: 256 entries across four *pinned* table registers so
        // entry `v` sits at global address `v` — a state byte is its own
        // lookup address.
        for chunk in 0..4u8 {
            let cells: Vec<(u8, u64)> = SBOX[usize::from(chunk) * 64..][..64]
                .iter()
                .enumerate()
                .map(|(e, &s)| (e as u8, u64::from(s)))
                .collect();
            b.const_u_at(P_TABLE, chunk, format!("sbox{chunk}"), &cells);
        }
        // Round keys, one register each.
        let rks: Vec<Value> = self
            .golden
            .round_keys()
            .iter()
            .enumerate()
            .map(|(r, rk)| {
                let cells: Vec<(u8, u64)> = rk
                    .iter()
                    .enumerate()
                    .map(|(e, &v)| (e as u8, u64::from(v)))
                    .collect();
                b.const_u(P_TABLE, format!("rk{r}"), &cells)
            })
            .collect();

        // The state register doubles as the request input: requests
        // write the plaintext, the body transforms it in place, and the
        // readback below reports it as the ciphertext.
        let state = b.input(P_STATE, "state", false, &self.plaintext.map(i64::from));
        // Bit-extraction mask (1 in every state element).
        let one_cells: Vec<(u8, u64)> = (0..16).map(|e| (e, 1)).collect();
        let ones = b.const_u(P_STATE, "ones", &one_cells);
        // Byte mask over the whole register: keeps the unused tail
        // elements inside the table's address space after packing.
        let mask_cells: Vec<(u8, u64)> = (0..ELEMENTS as u8).map(|e| (e, 0xFF)).collect();
        let mask8 = b.const_u(P_STATE, "mask8", &mask_cells);

        // ShiftRows staging slot and permutation addresses:
        // shifted[r + 4c] reads the staging copy at byte r + 4·((c+r) mod 4).
        let stage = b.slot(P_TABLE, "stage");
        let shift_entries: Vec<(u8, Value, u64)> = (0..4u64)
            .flat_map(|r| (0..4u64).map(move |c| ((r + 4 * c) as u8, r + 4 * ((c + r) % 4))))
            .map(|(dst, src)| (dst, stage, src))
            .collect();
        let shiftaddr = b.addr_table(P_STATE, "shiftaddr", &shift_entries);

        // Staged state bit planes and landed column parities.
        let bits: Vec<Value> = (0..8).map(|k| b.slot(P_TABLE, format!("bit{k}"))).collect();
        let par: Vec<Value> = (0..4).map(|c| b.slot(P_TABLE, format!("par{c}"))).collect();
        // Pack gather addresses: state byte `e`, bit `k` reads output
        // bit `8·(e mod 4) + k` of column `e / 4`'s landed parity.
        let packaddr: Vec<Value> = (0..8u64)
            .map(|k| {
                let entries: Vec<(u8, Value, u64)> = (0..16u64)
                    .map(|e| (e as u8, par[(e / 4) as usize], 8 * (e % 4) + k))
                    .collect();
                b.addr_table(P_STATE, format!("packaddr{k}"), &entries)
            })
            .collect();
        // MVM input gather addresses: input bit `j` of column `c` is
        // bit `j mod 8` of state byte `4c + j/8` (the gf2 wordline
        // order).
        let mvmaddr: Vec<Value> = (0..4u64)
            .map(|c| {
                let entries: Vec<(u8, Value, u64)> = (0..32u64)
                    .map(|j| (j as u8, bits[(j % 8) as usize], 4 * c + j / 8))
                    .collect();
                b.addr_table(P_IN, format!("mvmaddr{c}"), &entries)
            })
            .collect();
        // Parity mask in the landing pipeline (1 across the 32 bitlines).
        let ones32_cells: Vec<(u8, u64)> = (0..32).map(|e| (e, 1)).collect();
        let ones32 = b.const_u(P_LAND, "ones32", &ones32_cells);

        let add_round_key = |b: &mut KirBuilder, rk: Value| {
            let key = b.copy_to(P_STATE, rk);
            b.bool_into(state, IsaBoolOp::Xor, state, key);
        };
        // SubBytes: each state byte is its own S-box gather address.
        let sub_bytes = |b: &mut KirBuilder| b.gather_into(state, state, P_TABLE);
        // ShiftRows: stage the state into the table pipeline, gather it
        // back through the constant permutation addresses.
        let shift_rows = |b: &mut KirBuilder| {
            b.mov(stage, state);
            b.gather_into(state, shiftaddr, P_TABLE);
        };
        // MixColumns: unpack the state into bit planes, gather each
        // column's 32 wordline bits, run the analog MVM, mask the
        // bitline counts down to parities, and pack the output planes
        // back into state bytes.
        let mix_columns = |b: &mut KirBuilder| {
            unpack_bit_planes(b, state, ones, &bits);
            for c in 0..4 {
                let input = b.gather(mvmaddr[c], P_TABLE);
                let acc = b.mvm(mc, input, P_LAND);
                let parity = b.bool_op(IsaBoolOp::And, acc, ones32);
                b.mov(par[c], parity);
            }
            pack_bit_planes(b, &packaddr, P_TABLE, mask8, state);
        };

        let rounds = self.golden.rounds();
        add_round_key(&mut b, rks[0]);
        for &rk in &rks[1..rounds] {
            sub_bytes(&mut b);
            shift_rows(&mut b);
            mix_columns(&mut b);
            add_round_key(&mut b, rk);
        }
        sub_bytes(&mut b);
        shift_rows(&mut b);
        add_round_key(&mut b, rks[rounds]);

        b.readback("ciphertext", state, 16, false);
        b.finish()
    }

    /// Compiles the kernel through the `darth_kir` pipeline.
    ///
    /// # Errors
    ///
    /// Propagates compiler diagnostics (none occur for this fixed
    /// kernel; the channel keeps the API honest).
    pub fn compiled(&self) -> darth_pum::Result<CompiledKernel> {
        Ok(self.build_ir().compile()?)
    }

    /// The split form for serving: halt-free setup, per-request
    /// plaintext stub, resident body.
    ///
    /// # Errors
    ///
    /// Propagates compiler diagnostics.
    pub fn split_job(&self) -> darth_pum::Result<SplitJob> {
        Ok(self.compiled()?.into_split_job())
    }

    /// The input payload for a plaintext, shaped for
    /// [`CompiledKernel::input_program`] (one payload per input slot).
    pub fn input_cells(plaintext: &[u8; 16]) -> Vec<Vec<i64>> {
        vec![plaintext.iter().map(|&v| i64::from(v)).collect()]
    }

    /// The encoded per-request input section for `plaintext`: 16
    /// `wimm`s into the state register, halt-free. Serving paths hold
    /// the [`CompiledKernel`] and restage without recompiling; this
    /// convenience recompiles.
    ///
    /// # Errors
    ///
    /// Propagates compiler diagnostics.
    pub fn input_program(&self, plaintext: &[u8; 16]) -> darth_pum::Result<Vec<u8>> {
        self.compiled()?
            .input_program(&AesExec::input_cells(plaintext))
            .map_err(darth_pum::Error::from)
    }

    /// Golden ciphertext for an arbitrary per-request plaintext under
    /// this job's key (shape-matched to the job's readbacks).
    pub fn golden_for(&self, plaintext: &[u8; 16]) -> Vec<ExecOutput> {
        let ct = self.golden.encrypt_block(plaintext);
        vec![ExecOutput {
            label: "ciphertext".into(),
            cells: ct.iter().map(|&v| i64::from(v)).collect(),
        }]
    }
}

impl Executable for AesExec {
    fn exec_name(&self) -> String {
        self.name.clone()
    }

    fn job(&self) -> darth_pum::Result<ExecJob> {
        Ok(self.compiled()?.exec_job())
    }

    fn golden(&self) -> darth_pum::Result<Vec<ExecOutput>> {
        Ok(self.golden_for(&self.plaintext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::execute_job;
    use darth_isa::instruction::Instruction;

    /// Executes a compiled job on a fresh chip and reads the ciphertext
    /// through the job's own readbacks.
    fn run(exec: &AesExec) -> [u8; 16] {
        let job = exec.job().expect("compiles");
        let outputs = execute_job(&job);
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].label, "ciphertext");
        core::array::from_fn(|i| outputs[0].cells[i] as u8)
    }

    #[test]
    fn appendix_b_vector_matches() {
        let exec = AesExec::fips197_appendix_b();
        assert_eq!(
            run(&exec),
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32
            ]
        );
    }

    #[test]
    fn appendix_c_all_key_sizes_match_golden() {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let exec = AesExec::fips197_appendix_c(size);
            let golden = exec.golden().expect("golden");
            let got = run(&exec);
            let cells: Vec<i64> = got.iter().map(|&v| i64::from(v)).collect();
            assert_eq!(cells, golden[0].cells, "{:?}", size);
        }
    }

    #[test]
    fn arbitrary_key_and_block_match_golden() {
        let key = *b"isa-compiled-key";
        let block: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(73).wrapping_add(9));
        let exec = AesExec::aes128("aes-128/custom", &key, block);
        assert_eq!(run(&exec), Aes::new_128(&key).encrypt_block(&block));
    }

    #[test]
    fn program_is_fully_self_contained() {
        // No instruction needs host data beyond the one staged matrix.
        let exec = AesExec::fips197_appendix_b();
        let job = exec.job().expect("compiles");
        let program = job.decoded_program().expect("decodes");
        assert_eq!(job.data.matrices.len(), 1);
        assert!(job.data.vectors.is_empty());
        assert!(program.ends_with_halt());
        // 128-bit job: setup + 10 rounds land in the ~1.5k range.
        assert!(program.len() > 1000, "len {}", program.len());
    }

    #[test]
    fn split_concatenation_is_exactly_the_monolithic_program() {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let exec = AesExec::fips197_appendix_c(size);
            let job = exec.job().expect("compiles");
            let kernel = exec.compiled().expect("compiles");
            let input = kernel.default_input_program().to_vec();
            assert_eq!(
                input,
                exec.input_program(&exec.plaintext).expect("encodes"),
                "{size:?}"
            );
            let full = kernel.split().full_job(&input);
            assert_eq!(full.program, job.program, "{size:?}");
            assert_eq!(full.tile, job.tile, "{size:?}");
            assert_eq!(full.data, job.data, "{size:?}");
            assert_eq!(full.readbacks, job.readbacks, "{size:?}");
            // Sections keep the serving invariants: halt-free setup and
            // input, body ends with halt.
            kernel.split().check_invariants().expect("invariants hold");
            let stub = darth_isa::encode::decode_program(&input).expect("decodes");
            assert!(stub.is_halt_free(), "{size:?}");
            assert!(stub
                .iter()
                .all(|inst| matches!(inst, Instruction::WriteImm { .. })));
        }
    }

    #[test]
    fn key_sizes_scale_the_program() {
        let p128 = AesExec::fips197_appendix_c(KeySize::Aes128)
            .job()
            .expect("compiles")
            .instruction_count();
        let p256 = AesExec::fips197_appendix_c(KeySize::Aes256)
            .job()
            .expect("compiles")
            .instruction_count();
        assert!(p256 > p128);
    }
}
