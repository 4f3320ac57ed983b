//! The AES workload stream (block encryptions as op events).
//!
//! Kernel names match Figure 14's breakdown categories: `DataMovement`,
//! `SubBytes`, `ShiftRows`, `MixColumns`, `AddRoundKey`. The per-round op
//! counts follow the §5.3 mapping: 16 S-box gathers, a staged 16-element
//! permutation gather, four 32×32 binary MVMs, and one 16-lane XOR.
//!
//! Two emitters live here:
//!
//! * [`emit_block`] streams *one* block encryption — the paper's
//!   evaluation point ([`AesWorkload`]);
//! * [`BulkAesWorkload`] streams an arbitrary number of blocks with
//!   run-length op batches ([`TraceSink::op_run`]), so a million-block
//!   scenario emits a few dozen events and prices in O(1) memory (the
//!   `make eval-large` scenario).

use darth_pum::eval::Workload;
use darth_pum::trace::{KernelOp, TraceMeta, TraceSink, VectorKind};

/// Rounds for each AES variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesVariant {
    /// AES-128 (10 rounds).
    Aes128,
    /// AES-192 (12 rounds).
    Aes192,
    /// AES-256 (14 rounds).
    Aes256,
}

impl AesVariant {
    /// Number of rounds.
    pub fn rounds(self) -> u64 {
        match self {
            AesVariant::Aes128 => 10,
            AesVariant::Aes192 => 12,
            AesVariant::Aes256 => 14,
        }
    }

    /// The registry slug (`"aes-128"`, …).
    pub fn slug(self) -> &'static str {
        match self {
            AesVariant::Aes128 => "aes-128",
            AesVariant::Aes192 => "aes-192",
            AesVariant::Aes256 => "aes-256",
        }
    }
}

/// One S-box gather: 16 byte lookups through the 256-entry table.
const SUB_BYTES_LOOKUP: KernelOp = KernelOp::TableLookup {
    elements: 16,
    table_size: 256,
    bits: 8,
};

/// The staged ShiftRows permutation gather.
const SHIFT_ROWS_LOOKUP: KernelOp = KernelOp::TableLookup {
    elements: 16,
    table_size: 64,
    bits: 8,
};

/// A 16-byte state copy between pipeline registers.
const STATE_COPY: KernelOp = KernelOp::Vector {
    kind: VectorKind::Copy,
    elements: 16,
    bits: 8,
    count: 1,
};

/// The 16-lane round-key XOR.
const ROUND_KEY_XOR: KernelOp = KernelOp::Vector {
    kind: VectorKind::Bool,
    elements: 16,
    bits: 8,
    count: 1,
};

/// Four column transforms through the 32×32 binary matrix; the 1-bit
/// inputs need no input slicing.
const MIX_COLUMNS_MVM: KernelOp = KernelOp::Mvm {
    rows: 32,
    cols: 32,
    input_bits: 1,
    weight_bits: 1,
    batch: 4,
};

/// Bit unpack/pack around the crossbar.
const MIX_COLUMNS_PACK: KernelOp = KernelOp::Vector {
    kind: VectorKind::Shift,
    elements: 16,
    bits: 8,
    count: 16,
};

/// Streams one block encryption into `sink` (metadata plus the five
/// Figure 14 kernels, ops in the §5.3 per-round order).
///
/// Kernels aggregate over all rounds so Figure 14's percentages read
/// directly from the per-kernel breakdown.
pub fn emit_block(variant: AesVariant, sink: &mut dyn TraceSink) {
    sink.begin_trace(
        // One block occupies the state/table/landing pipeline trio.
        &TraceMeta::new(variant.slug()).with_pipelines_per_item(3),
    );
    emit_block_kernels(variant, sink);
}

/// Streams the five kernels of one block encryption (no
/// [`TraceSink::begin_trace`]), so callers can compose multi-block work
/// items.
pub fn emit_block_kernels(variant: AesVariant, sink: &mut dyn TraceSink) {
    let rounds = variant.rounds();
    sink.begin_kernel("DataMovement");
    sink.op(&KernelOp::HostMove { bytes: 32 });
    // Every round runs SubBytes/ShiftRows/AddRoundKey; MixColumns skips
    // the final round; AddRoundKey adds the initial whitening.
    sink.begin_kernel("SubBytes");
    sink.op_run(&SUB_BYTES_LOOKUP, rounds);
    sink.begin_kernel("ShiftRows");
    for _ in 0..rounds {
        sink.op(&STATE_COPY);
        sink.op(&SHIFT_ROWS_LOOKUP);
    }
    sink.begin_kernel("MixColumns");
    for _ in 1..rounds {
        sink.op(&MIX_COLUMNS_MVM);
        sink.op(&MIX_COLUMNS_PACK);
    }
    sink.begin_kernel("AddRoundKey");
    for _ in 0..=rounds {
        sink.op(&STATE_COPY);
        sink.op(&ROUND_KEY_XOR);
    }
}

/// The AES scenario as a pluggable [`Workload`]: one block encryption of
/// the chosen key-size variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AesWorkload {
    /// Key-size variant (round count).
    pub variant: AesVariant,
}

impl AesWorkload {
    /// The paper's evaluation scenario (AES-128).
    pub fn paper() -> Self {
        AesWorkload {
            variant: AesVariant::Aes128,
        }
    }

    /// All three key-size variants, smallest first.
    pub fn sweep() -> Vec<AesWorkload> {
        [AesVariant::Aes128, AesVariant::Aes192, AesVariant::Aes256]
            .into_iter()
            .map(|variant| AesWorkload { variant })
            .collect()
    }
}

impl Workload for AesWorkload {
    fn name(&self) -> String {
        self.variant.slug().into()
    }

    fn label(&self) -> String {
        match self.variant {
            AesVariant::Aes128 => "AES".into(),
            AesVariant::Aes192 => "AES-192".into(),
            AesVariant::Aes256 => "AES-256".into(),
        }
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![("rounds".into(), self.variant.rounds().to_string())]
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        emit_block(self.variant, sink);
    }
}

/// A bulk-encryption scenario: `blocks` independent block encryptions
/// streamed as one work item — the PrIM-style large memory-bound
/// regime.
///
/// Ops are grouped per kernel into run-length batches (all S-box gathers
/// of all blocks in one [`TraceSink::op_run`], and so on), so the
/// emission is O(1) events regardless of `blocks` and run-length sinks
/// (accumulators, the engine's summary recorder) stay O(1) memory. The
/// blocks are modelled as a dependent stream through one pipeline trio;
/// chip-level parallelism across streams comes from `parallel_items` as
/// usual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkAesWorkload {
    /// Key-size variant (round count).
    pub variant: AesVariant,
    /// Independent blocks encrypted by one work item.
    pub blocks: u64,
}

impl BulkAesWorkload {
    /// The `make eval-large` headline scenario: 2²⁰ (≈1M) AES-128 blocks,
    /// a 16 MiB plaintext.
    pub fn million_blocks() -> Self {
        BulkAesWorkload {
            variant: AesVariant::Aes128,
            blocks: 1 << 20,
        }
    }
}

impl Workload for BulkAesWorkload {
    fn name(&self) -> String {
        format!("{}-bulk{}", self.variant.slug(), self.blocks)
    }

    fn label(&self) -> String {
        format!("AES×{}", self.blocks)
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![
            ("rounds".into(), self.variant.rounds().to_string()),
            ("blocks".into(), self.blocks.to_string()),
        ]
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        let rounds = self.variant.rounds();
        let blocks = self.blocks.max(1);
        sink.begin_trace(&TraceMeta::new(self.name()).with_pipelines_per_item(3));
        sink.begin_kernel("DataMovement");
        sink.op_run(&KernelOp::HostMove { bytes: 32 }, blocks);
        sink.begin_kernel("SubBytes");
        sink.op_run(&SUB_BYTES_LOOKUP, rounds.saturating_mul(blocks));
        sink.begin_kernel("ShiftRows");
        sink.op_run(&STATE_COPY, rounds.saturating_mul(blocks));
        sink.op_run(&SHIFT_ROWS_LOOKUP, rounds.saturating_mul(blocks));
        sink.begin_kernel("MixColumns");
        sink.op_run(&MIX_COLUMNS_MVM, (rounds - 1).saturating_mul(blocks));
        sink.op_run(&MIX_COLUMNS_PACK, (rounds - 1).saturating_mul(blocks));
        sink.begin_kernel("AddRoundKey");
        sink.op_run(&STATE_COPY, (rounds + 1).saturating_mul(blocks));
        sink.op_run(&ROUND_KEY_XOR, (rounds + 1).saturating_mul(blocks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_pum::trace::{KernelSummary, OpRun, SummaryRecorder, TraceSummary};

    fn block_summary(variant: AesVariant) -> TraceSummary {
        TraceSummary::record(|r| emit_block(variant, r))
    }

    #[test]
    fn aes_workload_names_follow_variant() {
        assert_eq!(AesWorkload::paper().name(), "aes-128");
        assert_eq!(AesWorkload::paper().label(), "AES");
        let names: Vec<String> = AesWorkload::sweep().iter().map(Workload::name).collect();
        assert_eq!(names, ["aes-128", "aes-192", "aes-256"]);
        for w in AesWorkload::sweep() {
            assert_eq!(TraceSummary::record(|r| w.emit(r)).name(), w.name());
        }
    }

    #[test]
    fn trace_has_figure14_kernels() {
        let t = block_summary(AesVariant::Aes128);
        for name in [
            "DataMovement",
            "SubBytes",
            "ShiftRows",
            "MixColumns",
            "AddRoundKey",
        ] {
            assert!(t.kernel(name).is_some(), "missing kernel {name}");
        }
    }

    #[test]
    fn round_scaling() {
        let aes128 = block_summary(AesVariant::Aes128);
        let aes256 = block_summary(AesVariant::Aes256);
        assert!(aes256.macs() > aes128.macs());
        // MixColumns runs rounds-1 times with 4 column MVMs each.
        assert_eq!(
            aes128.kernel("MixColumns").map(KernelSummary::macs),
            Some(9 * 4 * 32 * 32)
        );
    }

    #[test]
    fn per_round_op_structure_is_preserved() {
        // The emitter must keep the §5.3 per-round op order (the
        // figure-pricing byte-identity depends on it).
        let t = block_summary(AesVariant::Aes128);
        let shift_rows = t.kernel("ShiftRows").expect("present");
        assert_eq!(shift_rows.op_count(), 20);
        assert_eq!(shift_rows.runs[0].op, STATE_COPY);
        assert_eq!(shift_rows.runs[1].op, SHIFT_ROWS_LOOKUP);
        let sub_bytes = t.kernel("SubBytes").expect("present");
        assert_eq!(
            sub_bytes.runs,
            vec![OpRun {
                op: SUB_BYTES_LOOKUP,
                repeat: 10
            }]
        );
        let ark = t.kernel("AddRoundKey").expect("present");
        assert_eq!(ark.op_count(), 22, "initial whitening + 10 rounds + final");
    }

    #[test]
    fn aes_is_not_mvm_dominated_by_op_count() {
        // §3's central observation: three of four steps are non-MVM.
        // (Raw MAC counts still dominate because the 32x32 binary matrix
        // is dense; the *time* split is what Figure 14 shows.)
        let t = block_summary(AesVariant::Aes128);
        assert!(t.element_ops() > 0);
        assert!(t.mvm_fraction() < 0.95);
    }

    #[test]
    fn pipelines_per_item_reflects_mapping() {
        assert_eq!(block_summary(AesVariant::Aes128).meta.pipelines_per_item, 3);
    }

    #[test]
    fn bulk_emission_is_compact_and_scales_counts() {
        let bulk = BulkAesWorkload {
            variant: AesVariant::Aes128,
            blocks: 1 << 20,
        };
        assert_eq!(bulk.name(), "aes-128-bulk1048576");
        let mut recorder = SummaryRecorder::new();
        bulk.emit(&mut recorder);
        let summary = recorder.finish();
        // O(1) summary for a million blocks: 5 kernels, ≤ 2 runs each.
        assert_eq!(summary.kernels.len(), 5);
        assert!(summary.kernels.iter().all(|k| k.runs.len() <= 2));
        // Totals scale with the block count.
        let one = BulkAesWorkload { blocks: 1, ..bulk };
        let mut one_rec = SummaryRecorder::new();
        one.emit(&mut one_rec);
        let one_summary = one_rec.finish();
        assert_eq!(summary.macs(), one_summary.macs() * (1 << 20));
        assert_eq!(summary.op_count(), one_summary.op_count() * (1 << 20));
    }

    #[test]
    fn bulk_single_block_matches_per_block_op_totals() {
        // Grouped emission reorders within kernels but must conserve the
        // per-kernel op counts of the per-round emitter.
        let bulk = BulkAesWorkload {
            variant: AesVariant::Aes256,
            blocks: 1,
        };
        let bulk_summary = TraceSummary::record(|r| bulk.emit(r));
        let single = block_summary(AesVariant::Aes256);
        assert_eq!(bulk_summary.kernel_count(), single.kernel_count());
        for kernel in &single.kernels {
            let bulk_kernel = bulk_summary.kernel(&kernel.name).expect("same kernels");
            assert_eq!(bulk_kernel.op_count(), kernel.op_count(), "{}", kernel.name);
            assert_eq!(bulk_kernel.macs(), kernel.macs());
            assert_eq!(bulk_kernel.element_ops(), kernel.element_ops());
        }
    }
}
