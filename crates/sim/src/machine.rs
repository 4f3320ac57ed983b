//! The functional simulator: encoded ISA streams in, output cells out.
//!
//! [`Machine`] owns one [`GenericChip`] and drives the full §4.2
//! execution flow from *encoded bytes*: every run decodes the 16-byte
//! records ([`darth_isa::encode`]), dispatches digital ops to the DCE
//! pipelines, routes analog ops through vACores, the shift units and the
//! A/D arbiter, and lets the IIU replay each MVM's reduction — all over
//! bit-accurate memory state. On top of the chip's own accounting the
//! machine keeps a per-mnemonic histogram of executed instructions, so a
//! differential run reports *what* it executed, not just how much.
//! [`SimMachine`] is the reference machine over cell-accurate pipelines;
//! [`crate::FastMachine`] is the same machine over packed ones.

use darth_digital::{DcePipeline, PackedPipeline, Pipeline};
use darth_isa::instruction::Program;
use darth_pum::chip::{CompiledProgram, GenericChip, RunStats, SideChannel};
use darth_pum::eval::{ExecJob, ExecOutput, ExecRun, Executor, Readback};
use darth_pum::hct::HctConfig;
use darth_pum::params::ChipParams;
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Statistics of **one** simulator run: every field covers exactly that
/// run, so `histogram` values sum to `run.instructions` and
/// `busy_cycles`/`energy` are the run's own deltas even when several
/// programs execute on the same machine. Lifetime aggregates stay
/// available through [`Machine::histogram`] and the chip's meters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Chip-level run statistics (instructions, analog share, issue).
    pub run: RunStats,
    /// Instructions this run executed, by mnemonic. Keys are the interned
    /// `&'static str` mnemonics from
    /// [`darth_isa::instruction::Instruction::mnemonic`], so merging and
    /// comparing histograms never clones key strings.
    pub histogram: BTreeMap<&'static str, u64>,
    /// Tile busy cycles this run added.
    pub busy_cycles: Cycles,
    /// Tile energy this run added.
    pub energy: PicoJoules,
}

/// Process-wide count of [`Machine::new`] tile constructions.
///
/// Clones are deliberately *not* counted: the whole point of the
/// prototype caches is that stamping a machine out of a warm prototype
/// skips tile construction, and tests pin that by watching this counter
/// stand still.
static CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// A functional DARTH-PUM machine executing encoded instruction streams,
/// generic over its DCE pipeline implementation.
///
/// `Clone` copies the full machine state; a clone of a freshly built
/// machine is indistinguishable from calling [`Machine::new`] again with
/// the same config (construction is deterministic, RNG seed included),
/// which is what lets the executors stamp out per-job machines from a
/// prototype instead of rebuilding the tile each time.
#[derive(Debug, Clone)]
pub struct Machine<P: DcePipeline> {
    chip: GenericChip<P>,
    histogram: BTreeMap<&'static str, u64>,
}

/// The reference machine: cell-accurate pipelines.
pub type SimMachine = Machine<Pipeline>;

/// The fast-path machine: packed bit-plane pipelines.
pub type FastMachine = Machine<PackedPipeline>;

impl<P: DcePipeline> Machine<P> {
    /// Builds a machine around one functional tile.
    ///
    /// # Errors
    ///
    /// Propagates tile construction errors.
    pub fn new(tile: HctConfig) -> darth_pum::Result<Self> {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        Ok(Machine {
            chip: GenericChip::new(ChipParams::default(), tile)?,
            histogram: BTreeMap::new(),
        })
    }

    /// Process-wide count of tile constructions via [`Machine::new`].
    /// Clones of an existing machine do **not** count — that is the
    /// invariant the prototype caches exist to exploit, and what
    /// construction-count regression tests pin.
    pub fn constructions() -> u64 {
        CONSTRUCTIONS.load(Ordering::Relaxed)
    }

    /// The underlying chip (state inspection).
    pub fn chip(&self) -> &GenericChip<P> {
        &self.chip
    }

    /// Mutable chip access (host staging between runs).
    pub fn chip_mut(&mut self) -> &mut GenericChip<P> {
        &mut self.chip
    }

    /// Prepares a decoded program for repeated
    /// [`Machine::run_compiled`] runs ([`GenericChip::compile`]).
    pub fn compile(program: &Program) -> CompiledProgram<P> {
        GenericChip::compile(program)
    }

    /// Decodes and executes an encoded instruction stream.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed records and the first
    /// execution error (bad operands, arbiter conflicts, missing
    /// side-channel data).
    pub fn run_encoded(&mut self, bytes: &[u8], data: &SideChannel) -> darth_pum::Result<SimStats> {
        let program = darth_isa::encode::decode_program(bytes).map_err(darth_pum::Error::Isa)?;
        self.run(&program, data)
    }

    /// Compiles and executes a decoded program.
    ///
    /// # Errors
    ///
    /// Returns the first execution error.
    pub fn run(&mut self, program: &Program, data: &SideChannel) -> darth_pum::Result<SimStats> {
        self.run_compiled(&Self::compile(program), data)
    }

    /// Executes a compiled program. The executed prefix's mnemonic
    /// histogram was counted at compile time, so a run only clones it.
    ///
    /// # Errors
    ///
    /// Returns the first execution error.
    pub fn run_compiled(
        &mut self,
        program: &CompiledProgram<P>,
        data: &SideChannel,
    ) -> darth_pum::Result<SimStats> {
        let busy_before = self.chip.tile().busy_cycles();
        let energy_before = self.chip.energy_meter().total();
        let run = self.chip.run_compiled(program, data)?;
        // Interned `&'static str` keys: merging into the lifetime
        // histogram is entry-API on `Copy` keys — no per-run key clones.
        let histogram = program.histogram().clone();
        for (&mnemonic, count) in &histogram {
            *self.histogram.entry(mnemonic).or_insert(0) += count;
        }
        Ok(SimStats {
            run,
            histogram,
            busy_cycles: self.chip.tile().busy_cycles().saturating_sub(busy_before),
            energy: self.chip.energy_meter().total() - energy_before,
        })
    }

    /// Runs `compiled` for `job` and reads the job's outputs back: the
    /// one way both executors turn a machine run into an [`ExecRun`].
    ///
    /// # Errors
    ///
    /// Returns the first execution or readback error.
    pub(crate) fn run_job(
        &mut self,
        compiled: &CompiledProgram<P>,
        job: &ExecJob,
    ) -> darth_pum::Result<(ExecRun, SimStats)> {
        let stats = self.run_compiled(compiled, &job.data)?;
        let outputs = job
            .readbacks
            .iter()
            .map(|rb| self.read_output(rb))
            .collect::<darth_pum::Result<_>>()?;
        Ok((
            ExecRun {
                outputs,
                instructions: stats.run.instructions,
                analog_instructions: stats.run.analog_instructions,
            },
            stats,
        ))
    }

    /// Executed instructions by mnemonic, across all runs so far.
    pub fn histogram(&self) -> &BTreeMap<&'static str, u64> {
        &self.histogram
    }

    /// Reads one output location from the finished machine.
    ///
    /// # Errors
    ///
    /// Returns pipeline/register range errors.
    pub fn read_output(&mut self, readback: &Readback) -> darth_pum::Result<ExecOutput> {
        let pipe = self.chip.tile_mut().pipeline_mut(readback.pipe as usize)?;
        let cells = (0..readback.elements)
            .map(|e| {
                if readback.signed {
                    pipe.read_value_signed(readback.vr as usize, e)
                } else {
                    pipe.read_value(readback.vr as usize, e).map(|v| v as i64)
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(ExecOutput {
            label: readback.label.clone(),
            cells,
        })
    }
}

/// An [`ExecJob`] whose instruction stream was decoded and compiled
/// exactly once by [`SimExecutor::prepare`]; reusable across runs.
#[derive(Debug)]
pub struct PreparedJob<'j> {
    job: &'j ExecJob,
    compiled: CompiledProgram<Pipeline>,
}

impl PreparedJob<'_> {
    /// The compiled program.
    pub fn compiled(&self) -> &CompiledProgram<Pipeline> {
        &self.compiled
    }
}

/// An [`Executor`] that also reports full simulator statistics — the
/// contract the executor-pair differential mode
/// ([`crate::diff::DiffHarness::verify_pair`]) compares on: outputs plus
/// instructions, analog share, issue cycles, per-mnemonic histogram,
/// busy cycles and energy.
pub trait StatExecutor: Executor {
    /// Executes `job`, returning outputs and the run's [`SimStats`].
    ///
    /// # Errors
    ///
    /// As [`Executor::execute`].
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)>;
}

/// The reference [`Executor`]: one fresh [`SimMachine`] per job.
///
/// Decode and compile are hoisted out of the run path:
/// [`SimExecutor::prepare`] turns a job into a reusable [`PreparedJob`]
/// handle, and repeated [`SimExecutor::run_prepared`] calls re-execute it
/// without touching the encoded bytes again. [`SimExecutor::decodes`] counts stream decodes so
/// tests can pin that invariant.
#[derive(Debug, Default)]
pub struct SimExecutor {
    decodes: AtomicU64,
}

impl SimExecutor {
    /// A fresh executor.
    pub fn new() -> Self {
        SimExecutor::default()
    }

    /// Instruction-stream decodes this executor has performed. Repeated
    /// [`SimExecutor::run_prepared`] calls on one handle must not move
    /// this counter.
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Decodes and compiles `job`'s instruction stream once into a
    /// reusable handle.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed records.
    pub fn prepare<'j>(&self, job: &'j ExecJob) -> darth_pum::Result<PreparedJob<'j>> {
        self.decodes.fetch_add(1, Ordering::Relaxed);
        let compiled = SimMachine::compile(&job.decoded_program()?);
        Ok(PreparedJob { job, compiled })
    }

    /// Runs a prepared job on a fresh machine — no re-decode, no
    /// re-compile — returning outputs and the run's statistics.
    ///
    /// # Errors
    ///
    /// Returns the first execution or readback error.
    pub fn run_prepared(
        &self,
        prepared: &PreparedJob<'_>,
    ) -> darth_pum::Result<(ExecRun, SimStats)> {
        SimMachine::new(prepared.job.tile.clone())?.run_job(&prepared.compiled, prepared.job)
    }
}

impl Executor for SimExecutor {
    fn name(&self) -> String {
        "darth-sim".into()
    }

    fn label(&self) -> String {
        "DARTH-PUM functional simulator".into()
    }

    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        let prepared = self.prepare(job)?;
        self.run_prepared(&prepared).map(|(run, _)| run)
    }
}

impl StatExecutor for SimExecutor {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let prepared = self.prepare(job)?;
        self.run_prepared(&prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_isa::asm::assemble;
    use darth_isa::encode::encode_program;

    fn machine() -> SimMachine {
        SimMachine::new(HctConfig::small_test()).expect("builds")
    }

    #[test]
    fn runs_an_encoded_digital_program() {
        let program = assemble(
            "wimm p0 v0 0 25\n\
             wimm p0 v1 0 17\n\
             add p0 v2 v0 v1\n\
             halt\n",
        )
        .expect("assembles");
        let mut m = machine();
        let stats = m
            .run_encoded(&encode_program(&program), &SideChannel::new())
            .expect("runs");
        assert_eq!(stats.run.instructions, 4);
        assert_eq!(stats.histogram.get("wimm"), Some(&2));
        assert_eq!(stats.histogram.get("add"), Some(&1));
        assert_eq!(stats.histogram.get("halt"), Some(&1));
        assert!(stats.energy > PicoJoules::ZERO);
        let out = m
            .read_output(&Readback {
                label: "sum".into(),
                pipe: 0,
                vr: 2,
                elements: 1,
                signed: false,
            })
            .expect("reads");
        assert_eq!(out.cells, vec![42]);
    }

    #[test]
    fn stats_are_per_run_while_the_machine_aggregates() {
        let first =
            assemble("wimm p0 v0 0 1\nwimm p0 v1 0 2\nadd p0 v2 v0 v1\nhalt\n").expect("assembles");
        let second = assemble("xor p0 v3 v0 v1\nhalt\n").expect("assembles");
        let mut m = machine();
        let s1 = m
            .run_encoded(&encode_program(&first), &SideChannel::new())
            .expect("runs");
        let s2 = m
            .run_encoded(&encode_program(&second), &SideChannel::new())
            .expect("runs");
        // Each report covers exactly its own run…
        assert_eq!(s2.run.instructions, 2);
        assert_eq!(s2.histogram.values().sum::<u64>(), s2.run.instructions);
        assert!(!s2.histogram.contains_key("wimm"));
        assert!(s2.energy > PicoJoules::ZERO);
        assert!(s1.energy > PicoJoules::ZERO);
        // …while the machine keeps the lifetime aggregate.
        assert_eq!(
            m.histogram().values().sum::<u64>(),
            s1.run.instructions + s2.run.instructions
        );
    }

    #[test]
    fn histogram_counts_only_the_executed_prefix() {
        let program = assemble("nop\nhalt\nwimm p0 v0 0 9\n").expect("assembles");
        let mut m = machine();
        let stats = m
            .run_encoded(&encode_program(&program), &SideChannel::new())
            .expect("runs");
        assert_eq!(stats.run.instructions, 2);
        assert!(!stats.histogram.contains_key("wimm"));
    }

    #[test]
    fn malformed_records_are_decode_errors() {
        let mut m = machine();
        let err = m
            .run_encoded(&[0xEEu8; 16], &SideChannel::new())
            .unwrap_err();
        assert!(matches!(err, darth_pum::Error::Isa(_)));
        // Trailing partial record is rejected too.
        let err = m.run_encoded(&[0u8; 17], &SideChannel::new()).unwrap_err();
        assert!(matches!(err, darth_pum::Error::Isa(_)));
    }

    #[test]
    fn executor_runs_a_hybrid_job_end_to_end() {
        let mut data = SideChannel::new();
        let handle = data
            .stage_matrix(vec![vec![5, 9], vec![8, 7]])
            .expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 3 0\n\
             progm ac0 {handle}\n\
             wimm p0 v0 0 2\n\
             wimm p0 v0 1 7\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             halt\n"
        ))
        .expect("assembles");
        let job = ExecJob {
            name: "figure9".into(),
            tile: HctConfig::small_test(),
            program: encode_program(&program),
            data,
            readbacks: vec![Readback {
                label: "result".into(),
                pipe: 1,
                vr: 4,
                elements: 2,
                signed: true,
            }],
        };
        let run = SimExecutor::new().execute(&job).expect("executes");
        assert_eq!(run.outputs[0].cells, vec![66, 67]);
        assert_eq!(run.analog_instructions, 2);
        assert_eq!(run.instructions, 6);
    }

    #[test]
    fn prepared_jobs_decode_once_and_rerun_identically() {
        let program =
            assemble("wimm p0 v0 0 25\nwimm p0 v1 0 17\nadd p0 v2 v0 v1\nhalt\n").expect("parses");
        let job = ExecJob {
            name: "repeat".into(),
            tile: HctConfig::small_test(),
            program: encode_program(&program),
            data: SideChannel::new(),
            readbacks: vec![Readback {
                label: "sum".into(),
                pipe: 0,
                vr: 2,
                elements: 1,
                signed: false,
            }],
        };
        let executor = SimExecutor::new();
        let prepared = executor.prepare(&job).expect("decodes");
        assert_eq!(executor.decodes(), 1);
        let (first_run, first_stats) = executor.run_prepared(&prepared).expect("runs");
        let (second_run, second_stats) = executor.run_prepared(&prepared).expect("runs");
        let (third_run, third_stats) = executor.run_prepared(&prepared).expect("runs");
        // Repeated runs of one prepared job: identical outputs and stats…
        assert_eq!(first_run, second_run);
        assert_eq!(first_run, third_run);
        assert_eq!(first_stats, second_stats);
        assert_eq!(first_stats, third_stats);
        assert_eq!(first_run.outputs[0].cells, vec![42]);
        // …and not one further decode of the instruction stream.
        assert_eq!(executor.decodes(), 1);
        // The convenience path still decodes (once per call).
        executor.execute(&job).expect("runs");
        assert_eq!(executor.decodes(), 2);
    }
}
