//! The front-end controller: fetch, decode, issue.
//!
//! One front end serves eight HCTs (Table 3), issuing one decoded
//! instruction per cycle. Without the IIU, every MVM's reduction sequence
//! (hundreds of µops, §4.2) occupies the issue port and starves the other
//! seven tiles; with it, the front end issues a single MVM instruction and
//! moves on. [`FrontEnd`] counts the instructions one chip issues and
//! prices their energy; the analytical model ([`crate::model`]) prices the
//! issue contention across tiles itself.

use crate::params::power;
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};

/// A front end shared by up to eight HCTs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontEnd {
    issued: u64,
}

impl FrontEnd {
    /// Creates an idle front end.
    pub fn new() -> Self {
        FrontEnd::default()
    }

    /// Issues `count` instructions, returning the occupancy (one per
    /// cycle).
    pub fn issue(&mut self, count: u64) -> Cycles {
        self.issued += count;
        Cycles::new(count)
    }

    /// Total instructions issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Front-end energy over an execution window.
    pub fn energy(&self, window: Cycles) -> PicoJoules {
        PicoJoules::from_power(power::FRONT_END, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_occupies_one_cycle_each() {
        let mut fe = FrontEnd::new();
        assert_eq!(fe.issue(10).get(), 10);
        assert_eq!(fe.issued(), 10);
    }

    #[test]
    fn energy_uses_table3_power() {
        let fe = FrontEnd::new();
        // 63 mW for 1000 cycles = 63,000 pJ
        assert!((fe.energy(Cycles::new(1000)).get() - 63_000.0).abs() < 1e-9);
    }
}
