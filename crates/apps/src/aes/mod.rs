//! AES encryption (§5.3): golden model, GF(2) linear algebra, the
//! compiled ISA program and workload trace.

pub mod gf2;
pub mod golden;
pub mod program;
pub mod workload;

pub use golden::Aes;
pub use program::AesExec;
