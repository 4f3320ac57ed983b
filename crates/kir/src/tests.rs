//! In-crate compiler tests: one rejection case per verifier diagnostic,
//! allocator placement/reuse behavior, lowering spot checks against the
//! encoded artifact, and a miniature end-to-end kernel executed on the
//! functional chip. The cross-crate surface (app kernels, differential
//! registry, parity pins) lives in `darth_apps`/`darth_sim`; the
//! property-based round-trip suite is `tests/roundtrip.rs`.

use darth_digital::DcePipeline;
use darth_isa::encode::decode_program;
use darth_isa::instruction::{Instruction, IsaBoolOp};
use darth_pum::hct::HctConfig;

use crate::ir::VaCore;
use crate::{stage_field, CompileError, KirBuilder};

/// A small two-pipe tile: 8 elements, 16-bit depth, 8 registers per
/// pipeline (7 allocatable, the top one is the zero register).
fn tile() -> HctConfig {
    tile_with_vrs(8)
}

fn tile_with_vrs(vrs: usize) -> HctConfig {
    HctConfig {
        functional_pipelines: 2,
        functional_depth: 16,
        functional_elements: 8,
        functional_vrs: vrs,
        functional_ace_arrays: 1,
        ..HctConfig::small_test()
    }
}

// ---------------------------------------------------------------------
// Verifier: every diagnostic is reachable and structured.
// ---------------------------------------------------------------------

#[test]
fn use_before_def_is_rejected() {
    let mut b = KirBuilder::new("t", tile());
    let x = b.input(0, "x", false, &[1]);
    let out = b.slot(0, "out");
    let t = b.shl(x, 1);
    b.mov(out, t);
    let mut ir = b.finish();
    // Reorder the body so the mov reads the temp before its definition.
    ir.body.swap(0, 1);
    assert!(matches!(
        ir.verify(),
        Err(CompileError::UseBeforeDef { .. })
    ));
}

#[test]
fn redefined_temp_is_rejected() {
    let mut b = KirBuilder::new("t", tile());
    let x = b.input(0, "x", false, &[1]);
    let t = b.shl(x, 1);
    let out = b.slot(0, "out");
    b.mov(out, t);
    let mut ir = b.finish();
    // Duplicate the defining shift: temps are SSA.
    ir.body.push(ir.body[0].clone());
    assert!(matches!(ir.verify(), Err(CompileError::Redefined { .. })));
}

#[test]
fn cross_pipe_operands_are_rejected() {
    let mut b = KirBuilder::new("t", tile());
    let a = b.input(0, "a", false, &[1]);
    let c = b.input(1, "c", false, &[1]);
    let t = b.bool_op(IsaBoolOp::Xor, a, c);
    let out = b.slot(0, "out");
    b.mov(out, t);
    let err = b.finish().verify().unwrap_err();
    assert_eq!(
        err,
        CompileError::PipeMismatch {
            op: "bool",
            value: "c".into(),
            expected: 0,
            found: 1,
        }
    );
}

#[test]
fn out_of_range_pipes_are_rejected() {
    let mut b = KirBuilder::new("t", tile());
    b.slot(9, "nowhere");
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::BadPipe {
            pipe: 9,
            pipelines: 2
        })
    );

    // A gather's table pipeline is checked too.
    let mut b = KirBuilder::new("t", tile());
    let addr = b.input(0, "addr", false, &[0]);
    let out = b.slot(0, "out");
    b.gather_into(out, addr, 7);
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::BadPipe {
            pipe: 7,
            pipelines: 2
        })
    );
}

#[test]
fn colliding_fixed_slots_are_rejected() {
    let mut b = KirBuilder::new("t", tile());
    b.fixed_slot(0, 2, "first");
    b.fixed_slot(0, 2, "second");
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::FixedSlotOverlap { pipe: 0, vr: 2 })
    );

    // Same pin in *different* pipelines is fine.
    let mut b = KirBuilder::new("t", tile());
    b.fixed_slot(0, 2, "first");
    b.fixed_slot(1, 2, "second");
    b.finish().verify().expect("distinct pipelines");
}

#[test]
fn fixed_slot_on_the_zero_register_is_rejected() {
    // vrs = 8 → registers 0..=6 allocatable, 7 is the zero register.
    let mut b = KirBuilder::new("t", tile());
    b.fixed_slot(0, 7, "zero");
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::FixedSlotOutOfRange {
            pipe: 0,
            vr: 7,
            vrs: 8
        })
    );
}

#[test]
fn out_of_range_elements_are_rejected() {
    // Constant cell past the register (8 elements).
    let mut b = KirBuilder::new("t", tile());
    b.const_u(0, "c", &[(8, 1)]);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::BadElement { element: 8, .. })
    ));

    // Oversized input payload.
    let mut b = KirBuilder::new("t", tile());
    b.input(0, "x", false, &[0; 9]);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::BadElement { element: 9, .. })
    ));

    // Oversized readback.
    let mut b = KirBuilder::new("t", tile());
    let out = b.slot(0, "out");
    b.readback("out", out, 9, false);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::BadElement { element: 9, .. })
    ));
}

#[test]
fn malformed_vacore_matrices_are_rejected() {
    let ragged = vec![vec![1, 2], vec![3]];
    let mut b = KirBuilder::new("t", tile());
    b.vacore(ragged, 2, 2, 8, true);
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::BadMatrix {
            vacore: 0,
            reason: "ragged rows"
        })
    );

    let mut b = KirBuilder::new("t", tile());
    b.vacore(Vec::new(), 2, 2, 8, true);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::BadMatrix { .. })
    ));

    // Taller than one register (8 elements).
    let mut b = KirBuilder::new("t", tile());
    b.vacore(vec![vec![1]; 9], 2, 2, 8, true);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::BadMatrix { .. })
    ));
}

#[test]
fn undeclared_vacores_are_rejected() {
    let mut b = KirBuilder::new("t", tile());
    let x = b.input(0, "x", true, &[1, 2]);
    let out = b.slot(1, "out");
    let acc = b.mvm(VaCore(3), x, 1);
    b.mov(out, acc);
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::BadVaCore { vacore: 3 })
    );
}

#[test]
fn address_tables_must_target_persistent_slots_in_the_gather_pipe() {
    // Temp target: no stable address.
    let mut b = KirBuilder::new("t", tile());
    let x = b.input(0, "x", false, &[1]);
    let t = b.shl(x, 1);
    b.addr_table(0, "tab", &[(0, t, 0)]);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::NotPersistent { .. })
    ));

    // Slot in pipe 0, gathered as if resident in pipe 1.
    let mut b = KirBuilder::new("t", tile());
    let data = b.const_u(0, "data", &[(0, 5)]);
    let tab = b.addr_table(0, "tab", &[(0, data, 0)]);
    let out = b.slot(0, "out");
    b.gather_into(out, tab, 1);
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::TablePipeMismatch {
            table: "tab".into(),
            slot: "data".into(),
            expected: 1,
            found: 0,
        })
    );
}

#[test]
fn readback_of_a_temp_is_rejected() {
    let mut b = KirBuilder::new("t", tile());
    let x = b.input(0, "x", false, &[1]);
    let t = b.shl(x, 1);
    b.readback("t", t, 1, false);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::NotPersistent { .. })
    ));
}

#[test]
fn oversized_immediates_are_rejected_at_verify_time() {
    let mut b = KirBuilder::new("t", tile());
    b.const_u(0, "wide", &[(0, 1 << 16)]);
    assert_eq!(
        b.finish().verify(),
        Err(CompileError::ValueTooWide {
            value: 1 << 16,
            signed: false,
            depth: 16,
        })
    );

    let mut b = KirBuilder::new("t", tile());
    b.input(0, "x", true, &[-40_000]);
    assert!(matches!(
        b.finish().verify(),
        Err(CompileError::ValueTooWide { signed: true, .. })
    ));
}

#[test]
fn stage_field_covers_both_signednesses() {
    assert_eq!(stage_field(65_535, false, 16), Ok(65_535));
    assert_eq!(stage_field(-1, true, 16), Ok(0xFFFF));
    assert_eq!(stage_field(-32_768, true, 16), Ok(0x8000));
    assert!(stage_field(65_536, false, 16).is_err());
    assert!(stage_field(-32_769, true, 16).is_err());
    assert!(stage_field(-1, false, 16).is_err());
    // Full-width fields never overflow the bounds check.
    assert_eq!(stage_field(i64::MAX, false, 64), Ok(i64::MAX as u64));
}

// ---------------------------------------------------------------------
// Allocator: placement, reuse, pressure diagnostics.
// ---------------------------------------------------------------------

#[test]
fn register_pressure_is_a_diagnostic_not_a_panic() {
    // 4 vrs → 3 allocatable; the MVM landing cluster needs
    // ⌈1/1⌉ × 4 + 2 = 6 contiguous registers.
    let mut b = KirBuilder::new("t", tile_with_vrs(4));
    let w = b.vacore(vec![vec![1]; 2], 1, 1, 4, false);
    let x = b.input(0, "x", false, &[1, 2]);
    let out = b.slot(1, "out");
    let acc = b.mvm(w, x, 1);
    b.mov(out, acc);
    let err = b.finish().compile().unwrap_err();
    assert_eq!(
        err,
        CompileError::RegisterPressure {
            pipe: 1,
            needed: 6,
            available: 2,
        }
    );
}

#[test]
fn dead_temps_recycle_their_registers() {
    let mut b = KirBuilder::new("t", tile());
    let x = b.input(0, "x", false, &[1]);
    let out1 = b.slot(0, "out1");
    let out2 = b.slot(0, "out2");
    let t1 = b.shl(x, 1);
    b.mov(out1, t1);
    let t2 = b.shl(x, 2);
    b.mov(out2, t2);
    let ir = b.finish();
    ir.verify().expect("well-formed");
    let alloc = crate::alloc::allocate(&ir).expect("fits");
    // Persistents first-fit in declaration order...
    assert_eq!(alloc.vr[x.0 as usize], 0);
    assert_eq!(alloc.vr[out1.0 as usize], 1);
    assert_eq!(alloc.vr[out2.0 as usize], 2);
    // ...and t2 reuses t1's register once the first mov retires it.
    assert_eq!(alloc.vr[t1.0 as usize], 3);
    assert_eq!(alloc.vr[t2.0 as usize], alloc.vr[t1.0 as usize]);
}

#[test]
fn fixed_slots_pin_allocation_around_them() {
    let mut b = KirBuilder::new("t", tile());
    // Pin a table at register 1; the next persistent must skip it.
    let tab = b.const_u_at(0, 1, "tab", &[(0, 9)]);
    let out = b.slot(0, "out");
    b.gather_into(out, tab, 0);
    b.readback("out", out, 1, false);
    let ir = b.finish();
    let alloc = crate::alloc::allocate(&ir).expect("fits");
    assert_eq!(alloc.vr[tab.0 as usize], 1);
    assert_eq!(alloc.vr[out.0 as usize], 0);

    // The pin is visible in the lowered artifact: the table's setup
    // immediate writes register 1.
    let compiled = ir.compile().expect("compiles");
    let setup = decode_program(compiled.split().setup.as_slice()).expect("decodes");
    assert!(setup.iter().any(|i| matches!(
        i,
        Instruction::WriteImm { vr, value: 9, .. } if vr.0 == 1
    )));
}

// ---------------------------------------------------------------------
// Lowering: the split contract and the input-stub surface.
// ---------------------------------------------------------------------

/// A tiny valid kernel: `out[e] = a[e] + bias[e]` over three elements.
fn mini_kernel() -> crate::KernelIr {
    let mut b = KirBuilder::new("mini-add", tile());
    let a = b.input(0, "a", true, &[3, -2, 5]);
    let bias = b.const_s(0, "bias", &[(0, 1), (1, 1), (2, 1)]);
    let out = b.slot(0, "out");
    b.add_into(out, a, bias);
    b.readback("out", out, 3, true);
    b.finish()
}

#[test]
fn compiled_sections_honor_the_split_contract() {
    let compiled = mini_kernel().compile().expect("compiles");
    let split = compiled.split();
    split.check_invariants().expect("invariants hold");
    assert!(decode_program(&split.setup).expect("setup").is_halt_free());
    assert!(decode_program(compiled.default_input_program())
        .expect("input")
        .is_halt_free());
    assert!(decode_program(&split.body).expect("body").ends_with_halt());
    // Section instruction counts match the IR: 3 bias immediates, 3
    // default-payload immediates, add + halt.
    assert_eq!(compiled.setup_instructions(), 3);
    assert_eq!(compiled.input_instructions(), 3);
    assert_eq!(compiled.body_instructions(), 2);
}

#[test]
fn the_monolithic_job_is_the_byte_concatenation_of_the_sections() {
    let compiled = mini_kernel().compile().expect("compiles");
    let job = compiled.exec_job();
    let mut expected = compiled.split().setup.clone();
    expected.extend_from_slice(compiled.default_input_program());
    expected.extend_from_slice(&compiled.split().body);
    assert_eq!(job.program, expected);
    assert_eq!(job.name, "mini-add");
}

#[test]
fn input_programs_reject_malformed_requests() {
    let compiled = mini_kernel().compile().expect("compiles");
    assert_eq!(compiled.input_slots().len(), 1);
    assert_eq!(compiled.input_slots()[0].elements, 3);
    assert!(compiled.input_slots()[0].signed);

    assert_eq!(
        compiled.input_program(&[]),
        Err(CompileError::InputCount {
            expected: 1,
            found: 0
        })
    );
    assert_eq!(
        compiled.input_program(&[vec![1, 2]]),
        Err(CompileError::InputShape {
            slot: "a".into(),
            expected: 3,
            found: 2
        })
    );
    assert!(matches!(
        compiled.input_program(&[vec![1 << 20, 0, 0]]),
        Err(CompileError::ValueTooWide { .. })
    ));
    // A well-formed request encodes to exactly one wimm per element.
    let stub = compiled
        .input_program(&[vec![7, -7, 0]])
        .expect("well-formed");
    assert_eq!(decode_program(&stub).expect("decodes").len(), 3);
}

#[test]
fn a_compiled_kernel_executes_end_to_end_on_the_chip() {
    use darth_pum::chip::DarthPumChip;
    use darth_pum::params::ChipParams;

    let compiled = mini_kernel().compile().expect("compiles");
    let run = |input: &[u8]| -> Vec<i64> {
        let job = compiled.split().full_job(input);
        let program = job.decoded_program().expect("decodes");
        let mut chip = DarthPumChip::new(ChipParams::default(), job.tile.clone()).expect("builds");
        chip.execute(&program, &job.data).expect("executes");
        let rb = &job.readbacks[0];
        let pipe = chip
            .tile_mut()
            .pipeline_mut(usize::from(rb.pipe))
            .expect("exists");
        (0..rb.elements)
            .map(|e| {
                pipe.read_value_signed(usize::from(rb.vr), e)
                    .expect("reads")
            })
            .collect()
    };
    // Default payload: [3, -2, 5] + bias 1.
    assert_eq!(run(compiled.default_input_program()), vec![4, -1, 6]);
    // A restaged request reuses the same resident sections.
    let stub = compiled
        .input_program(&[vec![-8, 0, 100]])
        .expect("encodes");
    assert_eq!(run(&stub), vec![-7, 1, 101]);
}
