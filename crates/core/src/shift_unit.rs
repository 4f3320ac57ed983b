//! The shift units: in-flight shift-and-place on ACE→DCE transfers (§4.1).
//!
//! Without them (Figure 10a), every partial product must be written to the
//! digital arrays, shifted into its bit position with Boolean µops (a
//! pipelining barrier), and only then added — serializing the whole
//! reduction. The shift units instead apply the statically known shift
//! *during* the transfer, writing each partial product pre-shifted, so only
//! pipelined ADDs remain (Figure 10b). A term's sign is not applied here:
//! the IIU's `Sub` step handles negative-weight terms.
//!
//! The unit also enforces the rate match between ADC output and DCE write
//! bandwidth: the I/O network moves [`ACE_DCE_BYTES_PER_CYCLE`] bytes per
//! cycle, and the DCE accepts one row of data per cycle.

use crate::params::ACE_DCE_BYTES_PER_CYCLE;
use darth_reram::Cycles;

/// Cycles to move one partial-product vector of `elements` values of
/// `element_bits` bits into the DCE.
///
/// Two limits apply: the I/O network's byte rate and the DCE's
/// one-row-of-data-per-cycle write port (§4.1); the transfer takes the
/// slower of the two.
pub fn transfer_cycles(elements: u64, element_bits: u64) -> Cycles {
    let bytes = elements * element_bits.div_ceil(8);
    let io_limit = bytes.div_ceil(ACE_DCE_BYTES_PER_CYCLE);
    let write_limit = elements; // one row of data per cycle
    Cycles::new(io_limit.max(write_limit))
}

/// Applies the in-flight transform: shifts every code left by `amount`.
pub fn apply(codes: &[i64], amount: u8) -> Vec<i64> {
    codes.iter().map(|&c| c << amount).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_is_8_bytes() {
        // One 512-bit element is 64 bytes: 8 cycles at 8 B/cycle.
        assert_eq!(ACE_DCE_BYTES_PER_CYCLE, 8);
        assert_eq!(transfer_cycles(1, 512).get(), 8);
    }

    #[test]
    fn transfer_is_write_port_limited_for_narrow_data() {
        // 64 one-byte elements: IO limit 64/8 = 8 cycles, write limit 64.
        assert_eq!(transfer_cycles(64, 8).get(), 64);
    }

    #[test]
    fn transfer_is_io_limited_for_wide_data() {
        // 8 elements of 64 bits = 64 bytes: IO limit 8, write limit 8 — a
        // tie; at 128 bits per element the IO limit (16) dominates.
        assert_eq!(transfer_cycles(8, 64).get(), 8);
        assert_eq!(transfer_cycles(8, 128).get(), 16);
    }

    #[test]
    fn apply_shifts_and_negates() {
        // Negative codes shift arithmetically and keep their sign; the
        // term's own negation is the IIU's `Sub`, never applied here.
        assert_eq!(apply(&[1, -2, 3], 2), vec![4, -8, 12]);
        assert_eq!(apply(&[-1], 1), vec![-2]);
        assert_eq!(apply(&[], 5), Vec::<i64>::new());
    }
}
