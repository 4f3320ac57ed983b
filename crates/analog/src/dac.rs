//! Input drivers and input bit-slicing.
//!
//! High-resolution digital-to-analog converters are expensive, so analog
//! PUM applies multi-bit inputs one bit at a time (Section 2.2.1,
//! "bit-slicing can also be applied to input values"): an `N`-bit input
//! vector becomes `N` sequential Boolean wordline vectors, each driven by a
//! trivial 1-bit DAC. The partial products are recombined downstream by the
//! shift-and-add plan ([`crate::slicing::RecombinationPlan`]).

use crate::{Error, Result};
use serde::{Deserialize, Serialize};

/// A bank of 1-bit wordline drivers with input bit-slicing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputDriver {
    bits: u8,
    signed: bool,
}

impl InputDriver {
    /// Creates a driver for `bits`-bit inputs.
    ///
    /// Signed drivers interpret inputs as two's complement; the top bit
    /// slice then carries negative weight in the recombination
    /// (`-2^(bits-1)`), which the reduction applies as a subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `bits` is zero or above 32.
    pub fn new(bits: u8, signed: bool) -> Result<Self> {
        if bits == 0 || bits > 32 {
            return Err(Error::InvalidConfig("input bits must be in 1..=32"));
        }
        Ok(InputDriver { bits, signed })
    }

    /// Input width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Smallest representable input.
    pub fn min_value(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.bits - 1))
        } else {
            0
        }
    }

    /// Largest representable input.
    pub fn max_value(&self) -> i64 {
        if self.signed {
            (1i64 << (self.bits - 1)) - 1
        } else {
            (1i64 << self.bits) - 1
        }
    }

    /// Slices an input vector into `bits` Boolean wordline vectors,
    /// least-significant bit first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputOutOfRange`] if any value does not fit.
    pub fn slice(&self, values: &[i64]) -> Result<Vec<Vec<bool>>> {
        for &v in values {
            if v < self.min_value() || v > self.max_value() {
                return Err(Error::InputOutOfRange {
                    value: v,
                    bits: self.bits,
                });
            }
        }
        let mask = if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        let slices = (0..self.bits)
            .map(|b| {
                values
                    .iter()
                    .map(|&v| ((v as u64) & mask) >> b & 1 == 1)
                    .collect()
            })
            .collect();
        Ok(slices)
    }

    /// Reconstructs values from bit slices — the software inverse of
    /// [`InputDriver::slice`], used in tests and recombination checks.
    pub fn unslice(&self, slices: &[Vec<bool>]) -> Vec<i64> {
        if slices.is_empty() {
            return Vec::new();
        }
        let n = slices[0].len();
        let mut out = vec![0i64; n];
        for (b, slice) in slices.iter().enumerate() {
            let weight = if self.signed && b as u8 == self.bits - 1 {
                -(1i64 << b)
            } else {
                1i64 << b
            };
            for (i, &bit) in slice.iter().enumerate() {
                if bit {
                    out[i] += weight;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(InputDriver::new(0, false).is_err());
        assert!(InputDriver::new(33, false).is_err());
        assert!(InputDriver::new(8, true).is_ok());
    }

    #[test]
    fn unsigned_ranges() {
        let d = InputDriver::new(8, false).expect("valid");
        assert_eq!(d.min_value(), 0);
        assert_eq!(d.max_value(), 255);
    }

    #[test]
    fn signed_ranges() {
        let d = InputDriver::new(8, true).expect("valid");
        assert_eq!(d.min_value(), -128);
        assert_eq!(d.max_value(), 127);
    }

    #[test]
    fn slice_unsigned_round_trip() {
        let d = InputDriver::new(4, false).expect("valid");
        let values = vec![0, 1, 7, 15, 8, 5];
        let slices = d.slice(&values).expect("in range");
        assert_eq!(slices.len(), 4);
        assert_eq!(d.unslice(&slices), values);
    }

    #[test]
    fn slice_signed_round_trip() {
        let d = InputDriver::new(8, true).expect("valid");
        let values = vec![-128, -1, 0, 1, 127, -37];
        let slices = d.slice(&values).expect("in range");
        assert_eq!(d.unslice(&slices), values);
    }

    #[test]
    fn slice_is_lsb_first() {
        let d = InputDriver::new(3, false).expect("valid");
        let slices = d.slice(&[0b110]).expect("in range");
        assert_eq!(slices[0], vec![false]);
        assert_eq!(slices[1], vec![true]);
        assert_eq!(slices[2], vec![true]);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let d = InputDriver::new(4, false).expect("valid");
        assert!(matches!(
            d.slice(&[16]),
            Err(Error::InputOutOfRange { value: 16, bits: 4 })
        ));
        let s = InputDriver::new(4, true).expect("valid");
        assert!(s.slice(&[-9]).is_err());
        assert!(s.slice(&[8]).is_err());
        assert!(s.slice(&[-8, 7]).is_ok());
    }

    #[test]
    fn one_bit_driver() {
        let d = InputDriver::new(1, false).expect("valid");
        let slices = d.slice(&[1, 0, 1]).expect("in range");
        assert_eq!(slices, vec![vec![true, false, true]]);
    }
}
