//! Property-based tests over the core substrates (proptest): cell-level
//! pipeline semantics, the full-opcode-space ISA round trip, streaming
//! run-length pricing equivalence, and design-space config invariants.

use darth_analog::adc::AdcKind;
use darth_digital::logic::LogicFamily;
use darth_digital::pipeline::{Pipeline, PipelineConfig};
use darth_digital::{BoolOp, DcePipeline};
use darth_isa::encode::{decode, encode};
use darth_isa::instruction::{Instruction, IsaBoolOp, PipelineId, Vr};
use proptest::prelude::*;

/// Samples one instruction from the *full* opcode space: `sel` picks the
/// variant, the remaining words fill every operand field at full width
/// (the fixed-width encoding stores operands verbatim, so round-tripping
/// must hold for arbitrary field values, not just in-range ones).
fn sample_instruction(sel: u64, a: u64, b: u64, c: u64, d: u64) -> Instruction {
    use darth_isa::instruction::VaCoreId;
    let pipe = PipelineId(a as u16);
    let pipe2 = PipelineId((a >> 16) as u16);
    let (va, vb, vc, vd) = (
        Vr(b as u8),
        Vr((b >> 8) as u8),
        Vr((b >> 16) as u8),
        Vr((b >> 24) as u8),
    );
    let vacore = VaCoreId(c as u8);
    match sel % 28 {
        0 => Instruction::Nop,
        1 => Instruction::Bool {
            op: IsaBoolOp::ALL[(c % 6) as usize],
            pipe,
            dst: va,
            a: vb,
            b: vc,
        },
        2 => Instruction::Not {
            pipe,
            dst: va,
            a: vb,
        },
        3 => Instruction::Add {
            pipe,
            dst: va,
            a: vb,
            b: vc,
        },
        4 => Instruction::Sub {
            pipe,
            dst: va,
            a: vb,
            b: vc,
        },
        5 => Instruction::Mul {
            pipe,
            dst: va,
            a: vb,
            b: vc,
            width: c as u8,
        },
        6 => Instruction::CmpLt {
            pipe,
            dst: va,
            a: vb,
            b: vc,
        },
        7 => Instruction::Select {
            pipe,
            dst: va,
            cond: vd,
            a: vb,
            b: vc,
        },
        8 => Instruction::Relu {
            pipe,
            dst: va,
            a: vb,
        },
        9 => Instruction::ShiftLeft {
            pipe,
            dst: va,
            src: vb,
            amount: c as u8,
        },
        10 => Instruction::ShiftRight {
            pipe,
            dst: va,
            src: vb,
            amount: c as u8,
        },
        11 => Instruction::RotateLeft {
            pipe,
            dst: va,
            src: vb,
            tmp: vc,
            amount: c as u8,
            width: (c >> 8) as u8,
        },
        12 => Instruction::CopyVr {
            pipe,
            dst: va,
            src: vb,
        },
        13 => Instruction::CopyAcross {
            src_pipe: pipe,
            src: va,
            dst_pipe: pipe2,
            dst: vb,
        },
        14 => Instruction::ElementLoad {
            pipe,
            addr: va,
            table_pipe: pipe2,
            dst: vb,
        },
        15 => Instruction::PipeReverse { pipe },
        16 => Instruction::WriteImm {
            pipe,
            vr: va,
            element: c as u8,
            value: d,
        },
        17 => Instruction::Mvm {
            vacore,
            input_pipe: pipe,
            input_vr: va,
            dst_pipe: pipe2,
            dst_vr: vb,
            early_levels: d as u16,
        },
        18 => Instruction::ProgMatrix {
            vacore,
            matrix_handle: d as u16,
        },
        19 => Instruction::UpdateRow {
            vacore,
            row: (c >> 8) as u8,
            data_handle: d as u16,
        },
        20 => Instruction::UpdateCol {
            vacore,
            col: (c >> 8) as u8,
            data_handle: d as u16,
        },
        21 => Instruction::PipeReserve { pipe },
        22 => Instruction::AllocVaCore {
            vacore,
            element_bits: (c >> 8) as u8,
            bits_per_cell: (c >> 16) as u8,
            input_bits: (c >> 24) as u8,
            input_signed: d & 1 == 1,
        },
        23 => Instruction::FreeVaCore { vacore },
        24 => Instruction::FenceAd,
        25 => Instruction::SetAnalogMode {
            enabled: d & 1 == 1,
        },
        26 => Instruction::SetDigitalMode {
            enabled: d & 1 == 1,
        },
        _ => Instruction::Halt,
    }
}

/// Samples one kernel op across every [`darth_pum::trace::KernelOp`]
/// variant, with shapes spanning the realistic evaluation range.
fn sample_kernel_op(sel: u64, a: u64, b: u64) -> darth_pum::trace::KernelOp {
    use darth_pum::trace::{KernelOp, VectorKind};
    const KINDS: [VectorKind; 6] = [
        VectorKind::Bool,
        VectorKind::Add,
        VectorKind::Mul,
        VectorKind::Shift,
        VectorKind::Compare,
        VectorKind::Copy,
    ];
    match sel % 6 {
        0 => KernelOp::Mvm {
            rows: 1 + a % 512,
            cols: 1 + b % 512,
            input_bits: 1 + (a >> 32) as u8 % 16,
            weight_bits: 1 + (b >> 32) as u8 % 16,
            batch: 1 + (a >> 48) % 64,
        },
        1 => KernelOp::Vector {
            kind: KINDS[(a >> 8) as usize % 6],
            elements: 1 + a % 4096,
            bits: 1 + (b >> 16) as u8 % 64,
            count: 1 + b % 64,
        },
        2 => KernelOp::TableLookup {
            elements: 1 + a % 1024,
            table_size: 1 + b % 65536,
            bits: 1 + (a >> 32) as u8 % 32,
        },
        3 => KernelOp::HostMove {
            bytes: a % (1 << 30),
        },
        4 => KernelOp::OnChipMove {
            bytes: b % (1 << 30),
        },
        _ => KernelOp::WeightUpdate {
            rows: 1 + a % 512,
            cols: 1 + b % 512,
            weight_bits: 1 + (a >> 32) as u8 % 16,
        },
    }
}

/// Prices `op_run(op, n)` through a fresh accumulator of `model`.
fn price_run(
    model: &dyn darth_pum::eval::ArchModel,
    op: &darth_pum::trace::KernelOp,
    n: u64,
    batched: bool,
) -> darth_pum::trace::CostReport {
    use darth_pum::trace::TraceMeta;
    let mut acc = model.accumulator();
    acc.begin_trace(&TraceMeta::new("run-length"));
    acc.begin_kernel("k");
    if batched {
        acc.op_run(op, n);
    } else {
        for _ in 0..n {
            acc.op(op);
        }
    }
    acc.finish()
}

fn pipeline(family: LogicFamily) -> Pipeline {
    Pipeline::new(PipelineConfig {
        depth: 16,
        elements: 4,
        vr_count: 10,
        scratch_cols: 8,
        family,
    })
    .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipeline_add_matches_u64(a in 0u64..0x10000, b in 0u64..0x10000) {
        let mut p = pipeline(LogicFamily::Oscar);
        p.write_value(0, 0, a).expect("fits");
        p.write_value(1, 0, b).expect("fits");
        p.add(2, 0, 1).expect("runs");
        prop_assert_eq!(p.read_value(2, 0).expect("reads"), (a + b) & 0xFFFF);
    }

    #[test]
    fn pipeline_sub_matches_wrapping(a in 0u64..0x10000, b in 0u64..0x10000) {
        let mut p = pipeline(LogicFamily::Oscar);
        p.write_value(0, 0, a).expect("fits");
        p.write_value(1, 0, b).expect("fits");
        p.sub(2, 0, 1).expect("runs");
        prop_assert_eq!(p.read_value(2, 0).expect("reads"), a.wrapping_sub(b) & 0xFFFF);
    }

    #[test]
    fn pipeline_bool_ops_match(a in 0u64..0x10000, b in 0u64..0x10000, op_idx in 0usize..6) {
        let op = BoolOp::ALL[op_idx];
        let mut p = pipeline(LogicFamily::Oscar);
        p.write_value(0, 0, a).expect("fits");
        p.write_value(1, 0, b).expect("fits");
        p.bool_op(op, 2, 0, 1).expect("runs");
        let expected = match op {
            BoolOp::Nor => !(a | b),
            BoolOp::Or => a | b,
            BoolOp::And => a & b,
            BoolOp::Nand => !(a & b),
            BoolOp::Xor => a ^ b,
            BoolOp::Xnor => !(a ^ b),
        } & 0xFFFF;
        prop_assert_eq!(p.read_value(2, 0).expect("reads"), expected);
    }

    #[test]
    fn shifts_match_u64(a in 0u64..0x10000, k in 0usize..16) {
        let mut p = pipeline(LogicFamily::Oscar);
        p.write_value(0, 0, a).expect("fits");
        p.shl(1, 0, k).expect("runs");
        p.shr(2, 0, k).expect("runs");
        prop_assert_eq!(p.read_value(1, 0).expect("reads"), (a << k) & 0xFFFF);
        prop_assert_eq!(p.read_value(2, 0).expect("reads"), (a & 0xFFFF) >> k);
    }

    #[test]
    fn ideal_and_oscar_agree(a in 0u64..0x10000, b in 0u64..0x10000) {
        let mut po = pipeline(LogicFamily::Oscar);
        let mut pi = pipeline(LogicFamily::Ideal);
        for p in [&mut po, &mut pi] {
            p.write_value(0, 0, a).expect("fits");
            p.write_value(1, 0, b).expect("fits");
            p.add(2, 0, 1).expect("runs");
            p.bool_op(BoolOp::Xor, 3, 0, 1).expect("runs");
        }
        prop_assert_eq!(po.read_value(2, 0).expect("r"), pi.read_value(2, 0).expect("r"));
        prop_assert_eq!(po.read_value(3, 0).expect("r"), pi.read_value(3, 0).expect("r"));
    }

    #[test]
    fn isa_round_trips(pipe in 0u16..512, dst in 0u8..64, a in 0u8..64, b in 0u8..64, op_idx in 0usize..6) {
        let inst = Instruction::Bool {
            op: IsaBoolOp::ALL[op_idx],
            pipe: PipelineId(pipe),
            dst: Vr(dst),
            a: Vr(a),
            b: Vr(b),
        };
        prop_assert_eq!(decode(&encode(&inst)).expect("decodes"), inst);
        let add = Instruction::Add { pipe: PipelineId(pipe), dst: Vr(dst), a: Vr(a), b: Vr(b) };
        prop_assert_eq!(decode(&encode(&add)).expect("decodes"), add);
    }

    #[test]
    fn every_instruction_encodes_decodes_reencodes_identically(
        sel in 0u64..28,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        d in 0u64..u64::MAX,
    ) {
        let inst = sample_instruction(sel, a, b, c, d);
        let bytes = encode(&inst);
        let back = decode(&bytes).expect("valid encodings decode");
        prop_assert_eq!(back, inst);
        // Re-encoding the decoded instruction is byte-identical: the
        // encoding has one canonical form per instruction.
        prop_assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn every_instruction_survives_the_assembler(
        sel in 0u64..28,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        d in 0u64..u64::MAX,
    ) {
        use darth_isa::asm::{assemble, disassemble};
        let inst = sample_instruction(sel, a, b, c, d);
        let text = disassemble(&inst);
        let program = assemble(&text).expect("disassembly reassembles");
        prop_assert_eq!(program.instructions.len(), 1);
        prop_assert_eq!(program.instructions[0], inst);
    }

    #[test]
    fn unknown_opcodes_and_payload_junk_are_rejected(
        opcode in 0x1Cu64..0x100,
        fill in 0u64..u64::MAX,
    ) {
        use darth_isa::encode::RECORD_SIZE;
        let mut record = [0u8; RECORD_SIZE];
        record[0] = opcode as u8;
        for (i, byte) in record.iter_mut().enumerate().skip(1) {
            *byte = (fill >> (8 * ((i - 1) % 8))) as u8;
        }
        prop_assert!(matches!(
            decode(&record),
            Err(darth_isa::Error::UnknownOpcode(op)) if op == opcode as u8
        ));
    }

    #[test]
    fn invalid_bool_operator_codes_are_rejected(code in 6u64..0x100, fill in 0u64..u64::MAX) {
        let mut record = encode(&Instruction::Bool {
            op: IsaBoolOp::Nor,
            pipe: PipelineId(fill as u16),
            dst: Vr((fill >> 16) as u8),
            a: Vr((fill >> 24) as u8),
            b: Vr((fill >> 32) as u8),
        });
        record[1] = code as u8;
        prop_assert!(matches!(
            decode(&record),
            Err(darth_isa::Error::InvalidField { .. })
        ));
    }

    #[test]
    fn op_run_prices_identically_to_repeated_single_ops(
        sel in 0u64..6,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        n in 0u64..50,
    ) {
        use darth_pum::model::DarthModel;
        let op = sample_kernel_op(sel, a, b);
        for kind in [AdcKind::Sar, AdcKind::Ramp] {
            let model = DarthModel::paper(kind);
            let batched = price_run(&model, &op, n, true);
            let unrolled = price_run(&model, &op, n, false);
            // Bit-level equality: folding a run must reproduce the exact
            // f64 accumulation of op-by-op streaming.
            prop_assert_eq!(batched.latency_s.to_bits(), unrolled.latency_s.to_bits());
            prop_assert_eq!(
                batched.energy_per_item_j.to_bits(),
                unrolled.energy_per_item_j.to_bits()
            );
            prop_assert_eq!(
                batched.throughput_items_per_s.to_bits(),
                unrolled.throughput_items_per_s.to_bits()
            );
            prop_assert_eq!(batched.kernel_latency_s.len(), unrolled.kernel_latency_s.len());
            for (x, y) in batched.kernel_latency_s.iter().zip(&unrolled.kernel_latency_s) {
                prop_assert_eq!(&x.0, &y.0);
                prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
            }
        }
    }

    #[test]
    fn darth_config_validate_and_build_agree(
        adc_sel in 0u64..2,
        adc_bits in 0u64..24,
        rows in 0usize..300,
        cols in 0usize..300,
        bits_per_cell in 0u64..12,
        arrays in 0usize..200,
        clock_tenths in 0u64..80,
    ) {
        use darth_pum::config::DarthConfig;
        let kind = if adc_sel == 0 { AdcKind::Sar } else { AdcKind::Ramp };
        let config = DarthConfig::paper(kind)
            .with_adc_bits(adc_bits as u8)
            .with_crossbar(rows, cols)
            .with_bits_per_cell(bits_per_cell as u8)
            .with_ace_arrays(arrays)
            .with_clock_ghz(clock_tenths as f64 / 10.0);
        // `build` succeeds exactly when `validate` accepts the point —
        // no config can construct a model its validator rejects.
        let validated = config.validate();
        let built = config.build();
        prop_assert_eq!(validated.is_ok(), built.is_ok());
        if let Ok(model) = built {
            // A valid point prices real work to positive, finite costs.
            let gemm = darth_apps::gemm::GemmWorkload::square(32);
            let report = darth_pum::eval::ArchModel::price(&model, &gemm);
            prop_assert!(report.latency_s.is_finite() && report.latency_s > 0.0);
            prop_assert!(
                report.energy_per_item_j.is_finite() && report.energy_per_item_j > 0.0
            );
            // And the point reports every swept axis in its params.
            let params = config.params();
            for key in ["adc_bits", "bits_per_cell", "clock_ghz"] {
                prop_assert!(params.iter().any(|(k, _)| k == key), "missing {}", key);
            }
        }
    }

    #[test]
    fn crossbar_exact_mvm_is_linear(seed in 0u64..1000) {
        use darth_analog::crossbar::{Crossbar, CrossbarConfig};
        use darth_reram::NoiseRng;
        let mut rng = NoiseRng::seed_from(seed);
        let mut xbar = Crossbar::new(CrossbarConfig::ideal(8, 4)).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..8)
            .map(|_| (0..4).map(|_| (rng.index(15) as i64) - 7).collect())
            .collect();
        xbar.program(&matrix, &mut rng).expect("programs");
        let x: Vec<bool> = (0..8).map(|_| rng.chance(0.5)).collect();
        let y: Vec<bool> = (0..8).map(|_| rng.chance(0.5)).collect();
        // superposition: M(x or y) + M(x and y) == M(x) + M(y)
        let or_vec: Vec<bool> = x.iter().zip(&y).map(|(&p, &q)| p | q).collect();
        let and_vec: Vec<bool> = x.iter().zip(&y).map(|(&p, &q)| p & q).collect();
        let mx = xbar.mvm_exact(&x).expect("runs");
        let my = xbar.mvm_exact(&y).expect("runs");
        let mor = xbar.mvm_exact(&or_vec).expect("runs");
        let mand = xbar.mvm_exact(&and_vec).expect("runs");
        for c in 0..4 {
            prop_assert_eq!(mor[c] + mand[c], mx[c] + my[c]);
        }
    }
}
