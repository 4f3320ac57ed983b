//! The hardware instruction injection unit (§4.2).
//!
//! A small table plus counter that replays the shift-and-add reduction
//! directly into the digital µop queues, freeing the front end to serve
//! other HCTs. [`replay`] executes an [`darth_isa::iiu::InjectionProgram`]
//! against any [`darth_digital::DcePipeline`] implementation (the
//! cell-accurate reference or the packed fast path). Whether the IIU or
//! the front end issues the µops changes only who is charged for the
//! issue, never the dataflow, so both paths run the same replay.

use crate::Result;
use darth_digital::DcePipeline;
use darth_isa::iiu::{InjectionProgram, InjectionStep};

/// Replays `program` on `pipeline`.
///
/// `zero_vr` names a vector register the tile keeps at zero, used to
/// realise negation (`Neg` = `0 - src`).
///
/// # Errors
///
/// Propagates pipeline execution errors (bad registers, shift range).
pub fn replay<P: DcePipeline>(
    program: &InjectionProgram,
    pipeline: &mut P,
    zero_vr: usize,
) -> Result<()> {
    for step in program.steps() {
        match *step {
            InjectionStep::Shift { dst, src, amount } => {
                pipeline.shl(dst.0 as usize, src.0 as usize, amount as usize)?;
            }
            InjectionStep::Add { dst, a, b } => {
                pipeline.add(dst.0 as usize, a.0 as usize, b.0 as usize)?;
            }
            InjectionStep::Sub { dst, a, b } => {
                pipeline.sub(dst.0 as usize, a.0 as usize, b.0 as usize)?;
            }
            InjectionStep::Copy { dst, src } => {
                pipeline.copy_vr(dst.0 as usize, src.0 as usize)?;
            }
            InjectionStep::Neg { dst, src } => {
                pipeline.sub(dst.0 as usize, zero_vr, src.0 as usize)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_digital::pipeline::{Pipeline, PipelineConfig};
    use darth_isa::iiu::ReductionRegs;

    fn pipeline() -> Pipeline {
        Pipeline::new(PipelineConfig {
            depth: 16,
            elements: 4,
            vr_count: 12,
            scratch_cols: 8,
            ..PipelineConfig::default()
        })
        .expect("valid")
    }

    #[test]
    fn replay_reduces_partial_products() {
        // 2-bit unsigned inputs, single weight slice: terms land in v0, v1
        // pre-shifted (in-flight mode), result accumulates in v3.
        let mut pipe = pipeline();
        let zero_vr = 11;
        // partial products for input bits 0 and 1, already shifted:
        // term0 = [3, 5, 0, 1], term1 = [2 << 1, 0, 4 << 1, 2 << 1]
        pipe.write_vector(0, &[3, 5, 0, 1]).expect("fits");
        pipe.write_vector(1, &[4, 0, 8, 4]).expect("fits");
        let regs = ReductionRegs::dense(2); // parts v0, v1; tmp v2; acc v3
        let program = InjectionProgram::shift_and_add(2, false, 1, 2, &regs, true);
        replay(&program, &mut pipe, zero_vr).expect("replays");
        assert_eq!(pipe.read_vector(3).expect("in range"), vec![7, 5, 8, 5]);
    }

    #[test]
    fn replay_with_shifts_in_table() {
        // unoptimized mode: raw partial products, shifts in the program
        let mut pipe = pipeline();
        pipe.write_vector(0, &[3, 5, 0, 1]).expect("fits");
        pipe.write_vector(1, &[2, 0, 4, 2]).expect("fits");
        let regs = ReductionRegs::dense(2);
        let program = InjectionProgram::shift_and_add(2, false, 1, 2, &regs, false);
        replay(&program, &mut pipe, 11).expect("replays");
        assert_eq!(pipe.read_vector(3).expect("in range"), vec![7, 5, 8, 5]);
    }

    #[test]
    fn neg_uses_zero_register() {
        // 1-bit signed input: single all-negative term
        let mut pipe = pipeline();
        pipe.write_vector(0, &[1, 2, 3, 4]).expect("fits");
        let regs = ReductionRegs::dense(1);
        let program = InjectionProgram::shift_and_add(1, true, 1, 1, &regs, true);
        replay(&program, &mut pipe, 11).expect("replays");
        let signed: Vec<i64> = (0..4)
            .map(|e| pipe.read_value_signed(2, e).expect("in range"))
            .collect();
        assert_eq!(signed, vec![-1, -2, -3, -4]);
    }

    #[test]
    fn bad_register_surfaces_error() {
        let mut pipe = pipeline();
        let regs = ReductionRegs {
            parts: vec![darth_isa::Vr(50)],
            tmp: darth_isa::Vr(51),
            acc: darth_isa::Vr(52),
        };
        let program = InjectionProgram::shift_and_add(1, false, 1, 1, &regs, true);
        assert!(replay(&program, &mut pipe, 11).is_err());
    }
}
