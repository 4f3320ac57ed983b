//! The analog/digital arbiter (§4.2).
//!
//! Analog instructions run for hundreds of cycles and must appear atomic:
//! a younger digital instruction touching the same pipeline (e.g. the ReLU
//! after an MVM) must wait until the MVM's reduction completes. The
//! arbiter enforces per-pipeline domain ownership: an MVM acquires its
//! landing pipeline for the analog domain and releases it once the
//! reduction has drained.

use crate::{Error, Result};
use serde::{Deserialize, Serialize};

/// Which domain currently owns a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Owned by an in-flight analog operation (MVM landing zone).
    Analog,
    /// Owned by digital operations.
    Digital,
}

/// Per-pipeline ownership tracker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdArbiter {
    owners: Vec<Option<Domain>>,
}

impl AdArbiter {
    /// Creates an arbiter over `pipelines` pipelines, all free.
    pub fn new(pipelines: usize) -> Self {
        AdArbiter {
            owners: vec![None; pipelines],
        }
    }

    /// Attempts to acquire a pipeline for a domain.
    ///
    /// Acquiring a pipeline the same domain already owns is idempotent;
    /// acquiring one owned by the *other* domain is a conflict.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArbiterConflict`] when the pipeline belongs to the
    /// other domain or does not exist.
    pub fn acquire(&mut self, pipeline: usize, domain: Domain) -> Result<()> {
        let slot = self
            .owners
            .get_mut(pipeline)
            .ok_or(Error::ArbiterConflict { pipeline })?;
        match *slot {
            None => {
                *slot = Some(domain);
                Ok(())
            }
            Some(current) if current == domain => Ok(()),
            Some(_) => Err(Error::ArbiterConflict { pipeline }),
        }
    }

    /// Releases a pipeline (no-op when already free).
    pub fn release(&mut self, pipeline: usize) {
        if let Some(slot) = self.owners.get_mut(pipeline) {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_free_pipeline() {
        let mut arb = AdArbiter::new(4);
        arb.acquire(0, Domain::Analog).expect("free");
        // Only the acquired pipeline is taken.
        assert!(arb.acquire(0, Domain::Digital).is_err());
        arb.acquire(1, Domain::Digital).expect("still free");
    }

    #[test]
    fn same_domain_reacquire_is_idempotent() {
        let mut arb = AdArbiter::new(4);
        arb.acquire(1, Domain::Digital).expect("free");
        arb.acquire(1, Domain::Digital).expect("idempotent");
    }

    #[test]
    fn cross_domain_acquire_conflicts() {
        let mut arb = AdArbiter::new(4);
        arb.acquire(2, Domain::Analog).expect("free");
        let err = arb.acquire(2, Domain::Digital).unwrap_err();
        assert!(matches!(err, Error::ArbiterConflict { pipeline: 2 }));
    }

    #[test]
    fn release_frees_for_other_domain() {
        let mut arb = AdArbiter::new(4);
        arb.acquire(3, Domain::Analog).expect("free");
        arb.release(3);
        arb.acquire(3, Domain::Digital).expect("released");
    }

    #[test]
    fn out_of_range_pipeline_is_a_conflict_error() {
        let mut arb = AdArbiter::new(2);
        assert!(arb.acquire(7, Domain::Analog).is_err());
    }
}
