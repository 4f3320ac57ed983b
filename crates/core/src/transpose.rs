//! The transposition unit (§4.2).
//!
//! Analog and digital PUM operate on different axes: analog applies inputs
//! along wordlines and accumulates along bitlines, while digital stripes
//! operands column-wise and computes row-wise. Every partial-product row
//! vector an MVM lands in a column-oriented vector register passes through
//! this unit, which retimes the stream as it passes: a one-cycle pipeline
//! stage per vector rather than a full matrix pass. That stage is all the
//! tile executes, so the unit is modelled by its cost alone.

use darth_reram::Cycles;

/// Cycles the transpose unit adds to each partial-product vector it
/// retimes into a column register.
pub const VECTOR_RETIME_CYCLES: Cycles = Cycles::new(1);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_retime_is_one_stage() {
        assert_eq!(VECTOR_RETIME_CYCLES.get(), 1);
    }
}
