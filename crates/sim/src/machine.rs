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
//! [`FastMachine`] is the same machine over packed ones.
//!
//! [`MachineExecutor`] is the one [`Executor`] over a machine:
//! [`SimExecutor`] and [`FastExecutor`] are its two pipeline flavours.
//! Every job it runs, and every request a [`crate::ResidentProgram`]
//! serves, goes through one machine call (`Machine::run_job`): an
//! optional interpreted input stub, the compiled body, the readbacks.

use darth_digital::{DcePipeline, PackedPipeline, Pipeline};
use darth_isa::instruction::Program;
use darth_pum::chip::{CompiledProgram, GenericChip, RunStats, SideChannel};
use darth_pum::eval::{ExecJob, ExecOutput, ExecRun, Executor, Readback};
use darth_pum::hct::HctConfig;
use darth_pum::params::ChipParams;
use darth_reram::{Cycles, PicoJoules};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::marker::PhantomData;
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

/// One job run's result: outputs plus the run's own cost deltas. For a
/// served request these cover the input stub and the body, never the
/// resident setup ([`crate::ResidentProgram::setup_cycles`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRun {
    /// Outputs and instruction counts (input stub + body).
    pub run: ExecRun,
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
/// which is what lets the executor stamp out per-job machines from a
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

    /// Decodes, compiles and executes an encoded instruction stream.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed records and the first
    /// execution error (bad operands, arbiter conflicts, missing
    /// side-channel data).
    pub fn run_encoded(&mut self, bytes: &[u8], data: &SideChannel) -> darth_pum::Result<SimStats> {
        let program = darth_isa::encode::decode_program(bytes).map_err(darth_pum::Error::Isa)?;
        self.run_compiled(&Self::compile(&program), data)
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
        let (_, stats) = with_histogram(program, self.run_job(None, program, data, &[])?);
        // Interned `&'static str` keys: merging into the lifetime
        // histogram is entry-API on `Copy` keys — no per-run key clones.
        for (&mnemonic, count) in &stats.histogram {
            *self.histogram.entry(mnemonic).or_insert(0) += count;
        }
        Ok(stats)
    }

    /// Runs one job: the optional per-request `stub` (interpreted), then
    /// the compiled `body`, then the `readbacks`. The one run path of
    /// [`Machine::run_compiled`], [`MachineExecutor`] and
    /// [`crate::ResidentProgram::serve`]; the returned counts and cost
    /// deltas cover stub and body together. The lifetime histogram is
    /// left alone: job machines are throwaway, so a served request pays
    /// no histogram clone or merge.
    ///
    /// # Errors
    ///
    /// Returns the first execution or readback error.
    pub(crate) fn run_job(
        &mut self,
        stub: Option<&Program>,
        body: &CompiledProgram<P>,
        data: &SideChannel,
        readbacks: &[Readback],
    ) -> darth_pum::Result<(ServedRun, RunStats)> {
        let busy_before = self.chip.tile().busy_cycles();
        let energy_before = self.chip.energy_meter().total();
        let stub = match stub {
            Some(program) => self.chip.execute(program, data)?,
            None => RunStats::default(),
        };
        let body = self.chip.run_compiled(body, data)?;
        let outputs = readbacks
            .iter()
            .map(|rb| self.read_output(rb))
            .collect::<darth_pum::Result<_>>()?;
        let stats = RunStats {
            instructions: stub.instructions + body.instructions,
            analog_instructions: stub.analog_instructions + body.analog_instructions,
            issue_cycles: stub.issue_cycles + body.issue_cycles,
        };
        let served = ServedRun {
            run: ExecRun {
                outputs,
                instructions: stats.instructions,
                analog_instructions: stats.analog_instructions,
            },
            busy_cycles: self.chip.tile().busy_cycles().saturating_sub(busy_before),
            energy: self.chip.energy_meter().total() - energy_before,
        };
        Ok((served, stats))
    }

    /// [`Machine::run_job`] on a copy of this prototype, which stays
    /// untouched: the one place a per-run machine is stamped out of a
    /// never-run or warmed prototype.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_job`].
    pub(crate) fn run_job_on_copy(
        &self,
        stub: Option<&Program>,
        body: &CompiledProgram<P>,
        data: &SideChannel,
        readbacks: &[Readback],
    ) -> darth_pum::Result<(ServedRun, RunStats)> {
        self.clone().run_job(stub, body, data, readbacks)
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

/// An [`ExecJob`] decoded and compiled exactly once by
/// [`MachineExecutor::prepare`], plus a never-run prototype machine for
/// its tile; reusable across runs.
#[derive(Debug)]
pub struct PreparedJob<'j, P: DcePipeline> {
    job: &'j ExecJob,
    compiled: CompiledProgram<P>,
    prototype: Machine<P>,
}

impl<P: DcePipeline> PreparedJob<'_, P> {
    /// The compiled program.
    pub fn compiled(&self) -> &CompiledProgram<P> {
        &self.compiled
    }

    /// The never-run prototype machine runs are cloned from.
    pub fn prototype(&self) -> &Machine<P> {
        &self.prototype
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

/// The one [`Executor`] over [`Machine<P>`]: every job runs on its own
/// machine, so runs never see each other's state.
///
/// [`MachineExecutor::prepare`] decodes and compiles a job once and
/// builds a never-run prototype machine; [`MachineExecutor::run_prepared`]
/// reruns it on clones of that prototype. A one-shot
/// [`Executor::execute`] builds one machine and runs it, with no clone.
/// [`MachineExecutor::decodes`] counts stream decodes so tests can pin
/// that invariant.
#[derive(Debug)]
pub struct MachineExecutor<P: DcePipeline> {
    pub(crate) workers: Option<usize>,
    decodes: AtomicU64,
    pipeline: PhantomData<fn() -> P>,
}

/// The reference executor (`"darth-sim"`): cell-accurate pipelines.
pub type SimExecutor = MachineExecutor<Pipeline>;

/// The fast-path executor (`"darth-sim-fast"`): packed pipelines,
/// bit-identical to [`SimExecutor`] (the differential suite enforces
/// it).
pub type FastExecutor = MachineExecutor<PackedPipeline>;

impl<P: DcePipeline> Default for MachineExecutor<P> {
    fn default() -> Self {
        MachineExecutor {
            workers: None,
            decodes: AtomicU64::new(0),
            pipeline: PhantomData,
        }
    }
}

impl<P: DcePipeline> MachineExecutor<P> {
    /// An executor using the default worker selection
    /// ([`darth_pum::workers::worker_count`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a fixed worker count for batches, overriding the
    /// environment (determinism tests pin {1, 2, …} this way without
    /// racing on the process environment).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Instruction-stream decodes this executor has performed. Repeated
    /// [`MachineExecutor::run_prepared`] calls on one handle must not
    /// move this counter.
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Decodes and compiles `job`'s instruction stream.
    pub(crate) fn compile(&self, job: &ExecJob) -> darth_pum::Result<CompiledProgram<P>> {
        self.decodes.fetch_add(1, Ordering::Relaxed);
        Ok(Machine::compile(&job.decoded_program()?))
    }

    /// Decodes, compiles and tile-constructs `job` once into a reusable
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed records and tile construction
    /// errors.
    pub fn prepare<'j>(&self, job: &'j ExecJob) -> darth_pum::Result<PreparedJob<'j, P>> {
        Ok(PreparedJob {
            job,
            compiled: self.compile(job)?,
            prototype: Machine::new(job.tile.clone())?,
        })
    }

    /// Runs a prepared job on a clone of its prototype — no re-decode,
    /// no re-compile, no tile re-construction. A clone of a never-run
    /// machine equals a newly built one, so results match a
    /// fresh-machine run bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first execution or readback error.
    pub fn run_prepared(
        &self,
        prepared: &PreparedJob<'_, P>,
    ) -> darth_pum::Result<(ExecRun, SimStats)> {
        run_on(&prepared.prototype, &prepared.compiled, prepared.job)
    }
}

/// Runs `job` on a copy of `prototype` and attaches the compiled
/// program's histogram: the executor's prototype-to-[`SimStats`] step.
pub(crate) fn run_on<P: DcePipeline>(
    prototype: &Machine<P>,
    compiled: &CompiledProgram<P>,
    job: &ExecJob,
) -> darth_pum::Result<(ExecRun, SimStats)> {
    let run = prototype.run_job_on_copy(None, compiled, &job.data, &job.readbacks)?;
    Ok(with_histogram(compiled, run))
}

/// Turns a [`Machine::run_job`] result into the executor's
/// `(ExecRun, SimStats)`.
fn with_histogram<P: DcePipeline>(
    compiled: &CompiledProgram<P>,
    (served, run): (ServedRun, RunStats),
) -> (ExecRun, SimStats) {
    let stats = SimStats {
        run,
        histogram: compiled.histogram().clone(),
        busy_cycles: served.busy_cycles,
        energy: served.energy,
    };
    (served.run, stats)
}

impl<P: DcePipeline> StatExecutor for MachineExecutor<P>
where
    Self: Executor,
{
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let compiled = self.compile(job)?;
        let run =
            Machine::new(job.tile.clone())?.run_job(None, &compiled, &job.data, &job.readbacks)?;
        Ok(with_histogram(&compiled, run))
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
        self.execute_with_stats(job).map(|(run, _)| run)
    }
}

impl Executor for FastExecutor {
    fn name(&self) -> String {
        "darth-sim-fast".into()
    }

    fn label(&self) -> String {
        "DARTH-PUM fast-path simulator (packed bit-planes)".into()
    }

    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.execute_with_stats(job).map(|(run, _)| run)
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

    /// Prepare-once, run-many on one executor: identical reruns, and not
    /// one further decode after `prepare`.
    fn decodes_once_and_reruns_identically<P: DcePipeline>(executor: MachineExecutor<P>)
    where
        MachineExecutor<P>: Executor,
    {
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
        // The one-shot path still decodes (once per call) and matches.
        let (once, once_stats) = executor.execute_with_stats(&job).expect("runs");
        assert_eq!(executor.decodes(), 2);
        assert_eq!((once, once_stats), (first_run, first_stats));
    }

    #[test]
    fn prepared_jobs_decode_once_and_rerun_identically() {
        decodes_once_and_reruns_identically(SimExecutor::new());
        decodes_once_and_reruns_identically(FastExecutor::new());
    }
}
