//! Virtual analog cores (§4.2).
//!
//! A *vACore* logically combines several analog arrays within one ACE to
//! support operand widths beyond a single device: an 8-bit-element matrix
//! in 2-bit cells occupies four arrays (weight slices), all driven by the
//! same inputs with their partial products recombined by the shift-and-add
//! program. Firmware tracks the allocation; allocating a vACore also
//! configures the shift units and the instruction injection unit.
//!
//! The paper's simplification — "the HCT can only have vACores of the same
//! bit width at a time" — is enforced by [`VaCoreTable`].

use crate::{Error, Result};
use darth_analog::slicing::{RecombinationPlan, WeightSlicer};
use darth_isa::iiu::{InjectionProgram, ReductionRegs};
use darth_isa::VaCoreId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One allocated virtual analog core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VaCore {
    /// Firmware id.
    pub id: VaCoreId,
    /// ACE array indices holding the weight slices, LSB slice first.
    pub arrays: Vec<usize>,
    /// Matrix element width in bits.
    pub element_bits: u8,
    /// Device bits per cell.
    pub bits_per_cell: u8,
    /// Input width in bits.
    pub input_bits: u8,
    /// Whether inputs are two's complement.
    pub input_signed: bool,
    /// Logical matrix rows (set by `set_matrix`).
    pub rows: usize,
    /// Logical matrix columns.
    pub cols: usize,
    slicer: WeightSlicer,
    plan: RecombinationPlan,
}

impl VaCore {
    /// The weight slicer for this core's geometry.
    pub fn slicer(&self) -> &WeightSlicer {
        &self.slicer
    }

    /// The recombination plan (shift amounts and signs per term).
    pub fn plan(&self) -> &RecombinationPlan {
        &self.plan
    }

    /// Number of weight slices (= arrays used).
    pub fn slice_count(&self) -> usize {
        self.slicer.slice_count()
    }

    /// Total partial-product terms per MVM.
    pub fn term_count(&self) -> usize {
        self.plan.term_count()
    }

    /// Bit shift for term index `t` (slice-major ordering). A term's sign
    /// is the IIU program's business (its `Sub` steps), not the shift's.
    pub fn term_shift(&self, t: usize) -> u8 {
        let bits = usize::from(self.input_bits);
        let slice = t / bits;
        let bit = t % bits;
        (self.plan.weight_shift(slice) + self.plan.input_shift(bit)) as u8
    }

    /// Compiles the IIU program for this core.
    ///
    /// `shifts_in_flight` selects the Figure 10b (optimized) form without
    /// shift steps.
    pub fn injection_program(
        &self,
        regs: &ReductionRegs,
        shifts_in_flight: bool,
    ) -> InjectionProgram {
        InjectionProgram::shift_and_add(
            self.input_bits,
            self.input_signed,
            self.slice_count() as u8,
            self.bits_per_cell,
            regs,
            shifts_in_flight,
        )
    }
}

/// Firmware table of a tile's vACores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VaCoreTable {
    cores: BTreeMap<u8, VaCore>,
    free_arrays: Vec<usize>,
    next_id: u8,
}

impl VaCoreTable {
    /// Creates a table managing `ace_arrays` analog arrays.
    pub fn new(ace_arrays: usize) -> Self {
        VaCoreTable {
            cores: BTreeMap::new(),
            free_arrays: (0..ace_arrays).rev().collect(),
            next_id: 0,
        }
    }

    /// Number of unallocated arrays.
    pub fn free_arrays(&self) -> usize {
        self.free_arrays.len()
    }

    /// The uniform element width currently configured, if any core exists.
    pub fn fixed_element_bits(&self) -> Option<u8> {
        self.cores.values().next().map(|c| c.element_bits)
    }

    /// Allocates a vACore.
    ///
    /// # Errors
    ///
    /// * [`Error::VaCore`] when the requested width conflicts with live
    ///   cores (§4.2's single-width constraint) or parameters are invalid.
    /// * [`Error::ResourceExhausted`] when too few arrays remain.
    pub fn alloc(
        &mut self,
        element_bits: u8,
        bits_per_cell: u8,
        input_bits: u8,
        input_signed: bool,
    ) -> Result<VaCoreId> {
        if let Some(fixed) = self.fixed_element_bits() {
            if fixed != element_bits {
                return Err(Error::VaCore(format!(
                    "HCT is configured for {fixed}-bit elements; cannot allocate \
                     a {element_bits}-bit vACore (single-width constraint)"
                )));
            }
        }
        let slicer = WeightSlicer::new(element_bits, bits_per_cell)
            .map_err(|e| Error::VaCore(e.to_string()))?;
        let needed = slicer.slice_count();
        if self.free_arrays.len() < needed {
            return Err(Error::ResourceExhausted("analog arrays"));
        }
        if input_bits == 0 || input_bits > 32 {
            return Err(Error::VaCore("input bits must be in 1..=32".to_owned()));
        }
        let arrays: Vec<usize> = (0..needed)
            .map(|_| self.free_arrays.pop().expect("checked length"))
            .collect();
        let id = VaCoreId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        let core = VaCore {
            id,
            arrays,
            element_bits,
            bits_per_cell,
            input_bits,
            input_signed,
            rows: 0,
            cols: 0,
            slicer,
            plan: RecombinationPlan {
                input_bits,
                input_signed,
                weight_slices: needed as u8,
                bits_per_cell,
            },
        };
        self.cores.insert(id.0, core);
        Ok(id)
    }

    /// Frees a vACore, returning its arrays to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VaCore`] for an unknown id.
    pub fn free(&mut self, id: VaCoreId) -> Result<()> {
        let core = self
            .cores
            .remove(&id.0)
            .ok_or_else(|| Error::VaCore(format!("unknown vACore {id}")))?;
        self.free_arrays.extend(core.arrays);
        Ok(())
    }

    /// Looks up a core.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VaCore`] for an unknown id.
    pub fn get(&self, id: VaCoreId) -> Result<&VaCore> {
        self.cores
            .get(&id.0)
            .ok_or_else(|| Error::VaCore(format!("unknown vACore {id}")))
    }

    /// Mutable lookup.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VaCore`] for an unknown id.
    pub fn get_mut(&mut self, id: VaCoreId) -> Result<&mut VaCore> {
        self.cores
            .get_mut(&id.0)
            .ok_or_else(|| Error::VaCore(format!("unknown vACore {id}")))
    }

    /// Iterates over live cores.
    pub fn iter(&self) -> impl Iterator<Item = &VaCore> {
        self.cores.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reserves_slice_count_arrays() {
        let mut table = VaCoreTable::new(8);
        let id = table.alloc(8, 2, 8, false).expect("fits");
        let core = table.get(id).expect("exists");
        assert_eq!(core.slice_count(), 4); // 8 bits / 2 per cell
        assert_eq!(core.arrays.len(), 4);
        assert_eq!(table.free_arrays(), 4);
    }

    #[test]
    fn single_width_constraint() {
        let mut table = VaCoreTable::new(8);
        table.alloc(8, 2, 8, false).expect("fits");
        let err = table.alloc(4, 2, 8, false).unwrap_err();
        assert!(matches!(err, Error::VaCore(_)));
        // same width is fine
        table.alloc(8, 4, 8, false).expect("same width allowed");
    }

    #[test]
    fn width_constraint_lifts_after_free() {
        let mut table = VaCoreTable::new(8);
        let id = table.alloc(8, 2, 8, false).expect("fits");
        table.free(id).expect("frees");
        table.alloc(4, 2, 8, false).expect("constraint lifted");
    }

    #[test]
    fn exhausting_arrays() {
        let mut table = VaCoreTable::new(3);
        let err = table.alloc(8, 2, 8, false).unwrap_err(); // needs 4
        assert!(matches!(err, Error::ResourceExhausted(_)));
        table.alloc(6, 2, 8, false).expect("needs 3, fits");
        assert_eq!(table.free_arrays(), 0);
    }

    #[test]
    fn free_returns_arrays() {
        let mut table = VaCoreTable::new(4);
        let id = table.alloc(4, 2, 4, false).expect("fits");
        assert_eq!(table.free_arrays(), 2);
        table.free(id).expect("frees");
        assert_eq!(table.free_arrays(), 4);
        assert!(table.free(id).is_err(), "double free is an error");
    }

    #[test]
    fn term_shift_ordering() {
        let mut table = VaCoreTable::new(8);
        let id = table.alloc(4, 2, 3, false).expect("fits");
        let core = table.get(id).expect("exists");
        assert_eq!(core.term_count(), 6); // 2 slices x 3 input bits
        assert_eq!(core.term_shift(0), 0); // slice 0, bit 0
        assert_eq!(core.term_shift(1), 1); // slice 0, bit 1
        assert_eq!(core.term_shift(3), 2); // slice 1, bit 0
        assert_eq!(core.term_shift(5), 4); // slice 1, bit 2
    }

    #[test]
    fn signed_input_top_bit_is_negative() {
        let mut table = VaCoreTable::new(8);
        let id = table.alloc(4, 4, 4, true).expect("fits");
        let core = table.get(id).expect("exists");
        assert_eq!(core.term_shift(3), 3);
        assert!(core.plan().input_negative(3));
        assert_eq!(core.term_shift(2), 2);
        assert!(!core.plan().input_negative(2));
    }

    #[test]
    fn invalid_parameters() {
        let mut table = VaCoreTable::new(8);
        assert!(table.alloc(0, 1, 8, false).is_err());
        assert!(table.alloc(8, 0, 8, false).is_err());
        assert!(table.alloc(8, 2, 0, false).is_err());
    }
}
