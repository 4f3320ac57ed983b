//! Serving request classes: the fixed programs a DARTH-PUM fleet keeps
//! resident, each paired with a per-request input synthesizer and a
//! software golden reference.
//!
//! A class wraps one app's kernel compiled once through `darth_kir`
//! ([`CompiledKernel`]): the setup + body sections are compiled once per
//! chip (and cached by signature), while each request contributes only a
//! tiny halt-free input stub restaged straight from the resident
//! kernel's input slots — no per-request recompilation. Request inputs
//! are synthesized deterministically from the request's `input_seed`, so
//! every layer of the stack — served outputs, reference-executor spot
//! checks, software goldens — can regenerate the exact same request
//! independently.

use darth_apps::aes::golden::KeySize;
use darth_apps::aes::AesExec;
use darth_apps::cnn::ConvExec;
use darth_apps::gemm::GemmExec;
use darth_kir::CompiledKernel;
use darth_pum::eval::{ExecJob, ExecOutput, JobSignature, SplitJob};
use darth_reram::noise::NoiseRng;

/// The app behind a serving class.
#[derive(Debug, Clone)]
enum ClassKind {
    /// AES block encryption; requests supply the 16-byte plaintext.
    Aes(AesExec),
    /// Integer GEMM; requests supply the `m × k` activation matrix.
    Gemm(GemmExec),
    /// Convolution layer; requests supply the input tensor.
    Conv(ConvExec),
}

/// One serving request class: a resident compiled kernel plus the
/// per-request input synthesizer and golden reference for it.
#[derive(Debug, Clone)]
pub struct ServeClass {
    name: String,
    kind: ClassKind,
    kernel: CompiledKernel,
    signature: JobSignature,
}

/// Derives a deterministic 16-byte AES plaintext from a request seed.
fn aes_plaintext(input_seed: u64) -> [u8; 16] {
    let mut rng = NoiseRng::seed_from(input_seed);
    let mut block = [0u8; 16];
    for chunk in block.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    block
}

impl ServeClass {
    fn new(name: String, kind: ClassKind, kernel: CompiledKernel) -> Self {
        ServeClass {
            name,
            signature: kernel.split().signature(),
            kernel,
            kind,
        }
    }

    /// Wraps an AES job as a serving class.
    ///
    /// # Errors
    ///
    /// Returns compile errors from the kernel-IR pipeline.
    pub fn aes(name: impl Into<String>, exec: AesExec) -> darth_pum::Result<Self> {
        let kernel = exec.compiled()?;
        Ok(ServeClass::new(name.into(), ClassKind::Aes(exec), kernel))
    }

    /// Wraps a GEMM job as a serving class.
    ///
    /// # Errors
    ///
    /// Returns compile errors from the kernel-IR pipeline.
    pub fn gemm(name: impl Into<String>, exec: GemmExec) -> darth_pum::Result<Self> {
        let kernel = exec.compiled()?;
        Ok(ServeClass::new(name.into(), ClassKind::Gemm(exec), kernel))
    }

    /// Wraps a convolution job as a serving class.
    ///
    /// # Errors
    ///
    /// Returns compile errors from the kernel-IR pipeline.
    pub fn conv(name: impl Into<String>, exec: ConvExec) -> darth_pum::Result<Self> {
        let kernel = exec.compiled()?;
        Ok(ServeClass::new(name.into(), ClassKind::Conv(exec), kernel))
    }

    /// Class name (used in reports and request records).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resident split program this class serves.
    pub fn split(&self) -> &SplitJob {
        self.kernel.split()
    }

    /// The split program's stable signature — the coalescing and
    /// program-cache key.
    pub fn signature(&self) -> JobSignature {
        self.signature
    }

    /// Synthesizes the encoded halt-free input stub for a request by
    /// restaging the resident kernel's input slots — no recompilation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the kernel's input staging (cannot
    /// happen for inputs synthesized here, but the staging validates).
    pub fn input_program(&self, input_seed: u64) -> darth_pum::Result<Vec<u8>> {
        let payloads = match &self.kind {
            ClassKind::Aes(_) => AesExec::input_cells(&aes_plaintext(input_seed)),
            ClassKind::Gemm(exec) => exec.synth_activations(input_seed),
            ClassKind::Conv(exec) => exec.input_cells(&exec.synth_input(input_seed)),
        };
        Ok(self.kernel.input_program(&payloads)?)
    }

    /// The software golden outputs for a request.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the golden reference.
    pub fn golden(&self, input_seed: u64) -> darth_pum::Result<Vec<ExecOutput>> {
        match &self.kind {
            ClassKind::Aes(exec) => Ok(exec.golden_for(&aes_plaintext(input_seed))),
            ClassKind::Gemm(exec) => Ok(exec.golden_for(&exec.synth_activations(input_seed))),
            ClassKind::Conv(exec) => exec.golden_for(&exec.synth_input(input_seed)),
        }
    }

    /// Reassembles the request as one monolithic [`ExecJob`]
    /// (setup ‖ input ‖ body) for reference-executor spot checks.
    ///
    /// # Errors
    ///
    /// Propagates input-staging errors.
    pub fn full_job(&self, input_seed: u64) -> darth_pum::Result<ExecJob> {
        Ok(self.split().full_job(&self.input_program(input_seed)?))
    }
}

/// The standard serving mix: three AES key sizes, two GEMM shapes, two
/// convolution layers — seven resident programs with distinct
/// signatures, covering both serving regimes (tiny latency-bound AES
/// stubs vs. wide analog MVM batches).
///
/// # Errors
///
/// Returns compile errors from the kernel-IR pipeline (none occur for
/// these fixed shapes; the error channel keeps callers honest).
pub fn standard_classes() -> darth_pum::Result<Vec<ServeClass>> {
    Ok(vec![
        ServeClass::aes("aes128", AesExec::fips197_appendix_c(KeySize::Aes128))?,
        ServeClass::aes("aes192", AesExec::fips197_appendix_c(KeySize::Aes192))?,
        ServeClass::aes("aes256", AesExec::fips197_appendix_c(KeySize::Aes256))?,
        ServeClass::gemm("gemm-4x12x10", GemmExec::standard())?,
        ServeClass::gemm(
            "gemm-8x32x24",
            GemmExec {
                m: 8,
                k: 32,
                n: 24,
                seed: 11,
            },
        )?,
        ServeClass::conv("conv-2c4x4-o3k3", ConvExec::standard())?,
        ServeClass::conv(
            "conv-2c4x4-o5k3",
            ConvExec {
                in_channels: 2,
                size: 4,
                out_channels: 5,
                kernel: 3,
                seed: 13,
            },
        )?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_pum::eval::Executor;
    use darth_sim::SimExecutor;

    /// The seven resident-program cache keys: a signature hashes the
    /// encoded setup and body, so any drift in an instruction record
    /// moves one. It also hashes the tile's `Debug` rendering, so adding
    /// or removing an `HctConfig` field moves all seven while the program
    /// bytes stay put.
    #[test]
    fn standard_class_signatures_are_pinned() {
        let signatures: Vec<String> = standard_classes()
            .expect("classes compile")
            .iter()
            .map(|c| format!("{} {}", c.name(), c.signature()))
            .collect();
        assert_eq!(
            signatures,
            [
                "aes128 e64f41e034fda7c2",
                "aes192 d3d2acd06869ac1f",
                "aes256 a611fc4c78cdcbae",
                "gemm-4x12x10 f06b51adb15994d0",
                "gemm-8x32x24 649cd5cbee09e7a2",
                "conv-2c4x4-o3k3 36b5a0bfbf505bd8",
                "conv-2c4x4-o5k3 2dc1327db25c3ed0",
            ]
        );
    }

    #[test]
    fn standard_classes_have_unique_signatures_and_golden_matched_jobs() {
        let classes = standard_classes().expect("classes compile");
        assert_eq!(classes.len(), 7);
        let mut signatures: Vec<_> = classes.iter().map(|c| c.signature()).collect();
        signatures.sort();
        signatures.dedup();
        assert_eq!(signatures.len(), classes.len(), "signatures collide");

        // Every class serves bit-exact against the reference executor
        // and its own software golden, for two distinct request seeds.
        let executor = SimExecutor::new();
        for class in &classes {
            class.split().check_invariants().expect("invariants hold");
            for seed in [1u64, 99] {
                let run = executor
                    .execute(&class.full_job(seed).expect("input lowers"))
                    .expect("job runs");
                let golden = class.golden(seed).expect("golden computes");
                assert_eq!(run.outputs, golden, "{} seed {seed}", class.name());
            }
            // Distinct seeds produce distinct inputs (the stub really
            // carries the request payload).
            assert_ne!(
                class.input_program(1).unwrap(),
                class.input_program(99).unwrap(),
                "{}",
                class.name()
            );
        }
    }
}
