//! Workloads for the DARTH-PUM reproduction: AES encryption, ResNet-20
//! inference, and an integer (I-BERT-style) LLM encoder.
//!
//! Each application ships up to three layers:
//!
//! 1. A **golden model** — a plain-Rust reference implementation used as
//!    the correctness oracle (AES is validated against FIPS-197 vectors;
//!    the CNN and encoder are exact integer programs).
//! 2. A **compiled ISA program** — the kernel lowered through the
//!    `darth_kir` compiler to one self-contained instruction stream
//!    ([`aes::AesExec`], [`cnn::program::ConvExec`], [`gemm::GemmExec`])
//!    that runs *functionally* on the simulated hybrid compute tile: AES
//!    runs bit-exactly through OSCAR pipelines and the analog MixColumns
//!    crossbar, with no host step between kernels.
//! 3. A **workload stream** — the architecture-neutral op stream
//!    ([`darth_pum::trace::TraceSink`] events) every cost model prices
//!    for Figures 13–18.
//!
//! Every stream emitter is also exposed as a pluggable
//! [`darth_pum::eval::Workload`] scenario ([`aes::workload::AesWorkload`],
//! [`cnn::workload::ResNetWorkload`], [`llm::workload::EncoderWorkload`],
//! and the application-free [`gemm::GemmWorkload`]), each with parameter
//! sweeps beyond the paper's three fixed points; the `darth_eval` engine
//! prices any set of them against any set of architecture models.
//!
//! # Example: AES through the hybrid tile
//!
//! ```
//! use darth_apps::aes::{Aes, AesExec};
//! use darth_pum::eval::{Executable, Executor};
//! use darth_sim::FastExecutor;
//!
//! # fn main() -> Result<(), darth_pum::Error> {
//! let key = [0u8; 16];
//! let block = *b"darth-pum block!";
//! let aes = AesExec::aes128("aes-128/doc", &key, block);
//! let run = FastExecutor::new().execute(&aes.job()?)?;
//! let ciphertext: Vec<u8> = run.outputs[0].cells.iter().map(|&c| c as u8).collect();
//! assert_eq!(ciphertext, Aes::new_128(&key).encrypt_block(&block));
//! # Ok(())
//! # }
//! ```

pub mod aes;
pub mod cnn;
pub mod gemm;
pub mod llm;
pub mod reduce;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helper for the compiled-program module tests: execute a job
    //! on a fresh chip and harvest its outputs through the job's own
    //! readback declarations (no hand-tracked register constants).

    use darth_digital::DcePipeline;
    use darth_pum::chip::DarthPumChip;
    use darth_pum::eval::{ExecJob, ExecOutput};
    use darth_pum::params::ChipParams;

    pub(crate) fn execute_job(job: &ExecJob) -> Vec<ExecOutput> {
        let program = job.decoded_program().expect("decodes");
        let mut chip = DarthPumChip::new(ChipParams::default(), job.tile.clone()).expect("builds");
        chip.execute(&program, &job.data).expect("executes");
        job.readbacks
            .iter()
            .map(|rb| {
                let pipe = chip
                    .tile_mut()
                    .pipeline_mut(usize::from(rb.pipe))
                    .expect("exists");
                let cells: Vec<i64> = (0..rb.elements)
                    .map(|e| {
                        if rb.signed {
                            pipe.read_value_signed(usize::from(rb.vr), e)
                                .expect("reads")
                        } else {
                            pipe.read_value(usize::from(rb.vr), e).expect("reads") as i64
                        }
                    })
                    .collect();
                ExecOutput {
                    label: rb.label.clone(),
                    cells,
                }
            })
            .collect()
    }
}

use std::fmt;

/// Errors produced by the application layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A configuration or shape problem in an application model.
    Mapping(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Mapping(msg) => write!(f, "application mapping: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;
