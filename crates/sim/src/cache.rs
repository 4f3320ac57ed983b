//! Resident compiled programs and the signature-keyed LRU program cache
//! — the serving layer's core optimization.
//!
//! The fast path already amortizes *decode* and *compile* across reruns
//! of one job ([`crate::FastExecutor::prepare`]); this module amortizes
//! them across a **request stream**. A [`ResidentProgram`] is built once
//! per distinct [`JobSignature`]: its setup section (weight programming,
//! constants, round keys) is executed once onto a prototype
//! [`FastMachine`] and the compute body is precompiled once. Serving a
//! request then costs one machine clone, the interpretation of a tiny
//! per-request input program, and one precompiled body run — the
//! ACE-style "keep the circuit resident, swap the inputs" trick.
//!
//! [`ProgramCache`] bounds how many residents stay warm, with LRU
//! eviction and hit/miss/eviction counters ([`CacheStats`]) that the
//! serving layer reports per chip.

use crate::machine::{FastMachine, ServedRun};
use darth_digital::PackedPipeline;
use darth_pum::chip::CompiledProgram;
use darth_pum::eval::{JobSignature, SplitJob};
use darth_reram::Cycles;
use std::collections::BTreeMap;

/// Decodes an encoded section, mapping ISA errors into the crate error.
fn decode(bytes: &[u8]) -> darth_pum::Result<darth_isa::instruction::Program> {
    darth_isa::encode::decode_program(bytes).map_err(darth_pum::Error::Isa)
}

/// A compiled program kept resident for a request stream: the warmed
/// prototype machine (setup already executed), the precompiled compute
/// body, and the one-time setup cost.
#[derive(Debug)]
pub struct ResidentProgram {
    split: SplitJob,
    compiled: CompiledProgram<PackedPipeline>,
    warmed: FastMachine,
    setup_cycles: Cycles,
    setup_instructions: u64,
}

impl ResidentProgram {
    /// Builds the resident form of `split`: one tile construction, one
    /// interpreted setup run, one body compile.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed sections, tile construction
    /// errors, and the first setup execution error.
    pub fn for_split(split: SplitJob) -> darth_pum::Result<Self> {
        let mut warmed = FastMachine::new(split.tile.clone())?;
        let setup_program = decode(&split.setup)?;
        let setup_stats = warmed.chip_mut().execute(&setup_program, &split.data)?;
        let setup_cycles = warmed.chip().tile().busy_cycles();
        let compiled = FastMachine::compile(&decode(&split.body)?);
        Ok(ResidentProgram {
            split,
            compiled,
            warmed,
            setup_cycles,
            setup_instructions: setup_stats.instructions,
        })
    }

    /// Busy cycles the one-time setup run consumed — what a cache miss
    /// charges to the serving timeline on top of the first request.
    pub fn setup_cycles(&self) -> Cycles {
        self.setup_cycles
    }

    /// Instructions the one-time setup run executed.
    pub fn setup_instructions(&self) -> u64 {
        self.setup_instructions
    }

    /// Serves one request: interprets the per-request `input` section
    /// (halt-free, usually a handful of `wimm`s) and runs the
    /// precompiled body on a clone of the warmed prototype, then reads
    /// the outputs back — the same machine call every executor job runs
    /// through. Deterministic: identical inputs produce byte-identical
    /// [`ServedRun`]s at any point in the stream, because every serve
    /// starts from the same warmed clone.
    ///
    /// # Errors
    ///
    /// Returns input decode errors and the first execution or readback
    /// error.
    pub fn serve(&self, input: &[u8]) -> darth_pum::Result<ServedRun> {
        let stub = decode(input)?;
        let (served, _) = self.warmed.run_job_on_copy(
            Some(&stub),
            &self.compiled,
            &self.split.data,
            &self.split.readbacks,
        )?;
        Ok(served)
    }
}

/// Hit/miss/eviction counters of one [`ProgramCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a resident entry.
    pub hits: u64,
    /// Lookups that had to build a resident entry.
    pub misses: u64,
    /// Resident entries evicted to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over all lookups, in `[0, 1]`; `0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU cache of [`ResidentProgram`]s keyed by
/// [`JobSignature`].
///
/// Recency is a logical tick bumped on every lookup; eviction removes
/// the least-recently-used entry (ties impossible — ticks are unique).
/// All state is plain data behind `&mut self`, so a per-chip cache in a
/// serving worker is deterministic by construction.
#[derive(Debug)]
pub struct ProgramCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<JobSignature, (u64, ResidentProgram)>,
    stats: CacheStats,
}

impl ProgramCache {
    /// A cache holding at most `capacity` resident programs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Lookup/insert counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident entries currently warm.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no residents yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The resident for `split`, building (and possibly evicting) on
    /// miss. Hashes `split` for its signature; a caller that already
    /// holds the signature calls [`Self::get_or_build`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`ResidentProgram::for_split`] build errors; the cache is
    /// unchanged on error.
    pub fn get_or_build_split(&mut self, split: &SplitJob) -> darth_pum::Result<&ResidentProgram> {
        self.get_or_build(split.signature(), split)
    }

    /// The resident keyed by `signature`, building it from `split`
    /// (and possibly evicting) on miss. `signature` must be
    /// `split.signature()`. The returned reference stays valid until the
    /// next `&mut` call.
    ///
    /// # Errors
    ///
    /// Returns [`ResidentProgram::for_split`] build errors; the cache is
    /// unchanged on error.
    pub fn get_or_build(
        &mut self,
        signature: JobSignature,
        split: &SplitJob,
    ) -> darth_pum::Result<&ResidentProgram> {
        if !self.entries.contains_key(&signature) {
            let resident = ResidentProgram::for_split(split.clone())?;
            self.stats.misses += 1;
            self.evict_to(self.capacity - 1);
            self.entries.insert(signature, (self.tick, resident));
        } else {
            self.stats.hits += 1;
        }
        self.tick += 1;
        let (last_used, resident) = self
            .entries
            .get_mut(&signature)
            .expect("entry was just inserted or found");
        *last_used = self.tick;
        Ok(resident)
    }

    /// Evicts least-recently-used entries until at most `target` remain.
    fn evict_to(&mut self, target: usize) {
        while self.entries.len() > target {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(sig, _)| *sig)
                .expect("non-empty while above target");
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{FastExecutor, SimExecutor, StatExecutor};
    use darth_isa::asm::assemble;
    use darth_isa::encode::{encode_program, is_valid_opcode};
    use darth_pum::chip::SideChannel;
    use darth_pum::eval::Readback;
    use darth_pum::hct::HctConfig;
    use darth_reram::NoiseRng;

    /// A hand-built split: constant `constant` staged in setup,
    /// per-request value via the input section, sum computed by the
    /// resident body.
    fn split_with(constant: u64) -> SplitJob {
        let setup = assemble(&format!("wimm p0 v1 0 {constant}\n")).expect("parses");
        let body = assemble("add p0 v2 v0 v1\nhalt\n").expect("parses");
        SplitJob {
            name: format!("digital-split-{constant}"),
            tile: HctConfig::small_test(),
            setup: encode_program(&setup),
            body: encode_program(&body),
            data: SideChannel::new(),
            readbacks: vec![Readback {
                label: "sum".into(),
                pipe: 0,
                vr: 2,
                elements: 1,
                signed: false,
            }],
        }
    }

    fn digital_split() -> SplitJob {
        split_with(17)
    }

    fn input_for(value: u64) -> Vec<u8> {
        encode_program(&assemble(&format!("wimm p0 v0 0 {value}\n")).expect("parses"))
    }

    #[test]
    fn resident_split_serves_bit_exact_against_the_reference() {
        let split = digital_split();
        let resident = ResidentProgram::for_split(split.clone()).expect("builds");
        let reference = SimExecutor::new();
        for value in [0u64, 1, 9, 25, 63] {
            let input = input_for(value);
            let served = resident.serve(&input).expect("serves");
            // The reference runs the reassembled monolithic program.
            let (ref_run, _) = reference
                .execute_with_stats(&split.full_job(&input))
                .expect("reference runs");
            assert_eq!(served.run.outputs, ref_run.outputs, "value {value}");
            assert_eq!(served.run.outputs[0].cells, vec![value as i64 + 17]);
            // Served instruction counts exclude exactly the setup.
            assert_eq!(
                served.run.instructions + resident.setup_instructions(),
                ref_run.instructions
            );
        }
        // Serving is order-independent: a re-serve of the first input
        // after others is byte-identical (each serve clones the warmed
        // prototype).
        let first = resident.serve(&input_for(9)).expect("serves");
        let again = resident.serve(&input_for(9)).expect("serves");
        assert_eq!(first, again);
    }

    #[test]
    fn cached_split_matches_uncached_and_counts_hits() {
        let mut cache = ProgramCache::new(4);
        let split = digital_split();
        let input = input_for(25);
        let (plain, _) = FastExecutor::new()
            .execute_with_stats(&split.full_job(&input))
            .expect("runs");
        let resident = cache.get_or_build_split(&split).expect("builds");
        let first = resident.serve(&input).expect("serves");
        let setup_instructions = resident.setup_instructions();
        let second = cache
            .get_or_build_split(&split)
            .expect("hits")
            .serve(&input)
            .expect("serves");
        // The uncached run is the same program with its setup inline.
        assert_eq!(first.run.outputs, plain.outputs);
        assert_eq!(
            first.run.instructions + setup_instructions,
            plain.instructions
        );
        assert_eq!(first.run.analog_instructions, plain.analog_instructions);
        assert_eq!(first, second);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_resident() {
        let mut cache = ProgramCache::new(2);
        let (a, b, c) = (split_with(1), split_with(2), split_with(3));
        let lookup = |cache: &mut ProgramCache, split: &SplitJob| {
            cache
                .get_or_build_split(split)
                .expect("builds")
                .serve(&input_for(5))
                .expect("serves");
        };
        lookup(&mut cache, &a);
        lookup(&mut cache, &b);
        // Touch `a` so `b` is the LRU, then overflow with `c`.
        lookup(&mut cache, &a);
        lookup(&mut cache, &c);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        // `a` and `c` are warm; `b` was evicted and must rebuild.
        lookup(&mut cache, &a);
        lookup(&mut cache, &c);
        assert_eq!(cache.stats().misses, 3);
        lookup(&mut cache, &b);
        assert_eq!(cache.stats().misses, 4);
        assert!(cache.stats().hit_rate() > 0.0);
    }

    #[test]
    fn serve_survives_arbitrary_input_stubs() {
        let resident = ResidentProgram::for_split(digital_split()).expect("builds");
        let mut rng = NoiseRng::seed_from(0x5EED_0015);
        let mut stubs: Vec<Vec<u8>> = (0..64)
            .map(|len| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect();
        // Random well-formed records: a valid opcode byte, random fields.
        let opcodes: Vec<u8> = (0..=u8::MAX).filter(|&b| is_valid_opcode(b)).collect();
        for _ in 0..64 {
            let mut stub = Vec::new();
            for _ in 0..=rng.index(3) {
                let mut record: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
                record[0] = opcodes[rng.index(opcodes.len())];
                stub.extend(record);
            }
            stubs.push(stub);
        }
        let before = resident.serve(&input_for(9)).expect("serves");
        let mut served = 0;
        for stub in &stubs {
            // `Ok` or `Err`, never a panic.
            served += usize::from(resident.serve(stub).is_ok());
        }
        assert!(served > 0, "the empty stub at least must serve");
        // No stub reached the warmed prototype.
        assert_eq!(resident.serve(&input_for(9)).expect("serves"), before);
    }

    #[test]
    fn signature_lookup_matches_split_lookup() {
        let splits = [1, 2, 1, 3, 2].map(split_with);
        let (mut by_split, mut by_signature) = (ProgramCache::new(2), ProgramCache::new(2));
        for split in &splits {
            let served = by_split
                .get_or_build_split(split)
                .expect("builds")
                .serve(&input_for(5))
                .expect("serves");
            let served_by_signature = by_signature
                .get_or_build(split.signature(), split)
                .expect("builds")
                .serve(&input_for(5))
                .expect("serves");
            assert_eq!(served, served_by_signature);
            assert_eq!(by_split.stats(), by_signature.stats());
        }
        // On one cache, both entry points resolve to the same resident.
        let split = &splits[4];
        let first: *const ResidentProgram = by_split.get_or_build_split(split).expect("hits");
        let second: *const ResidentProgram = by_split
            .get_or_build(split.signature(), split)
            .expect("hits");
        assert!(std::ptr::eq(first, second));
        assert_eq!(by_split.stats().hits, by_signature.stats().hits + 2);
        assert_eq!(by_split.stats().misses, by_signature.stats().misses);
    }

    /// A split whose body `eload`s from table register `p1 v0`, rewrites
    /// that register with the request's input, then `eload`s from it
    /// again: the second load sees the rewrite only if the write
    /// invalidated the table's value mirror.
    fn table_rewrite_split() -> SplitJob {
        let mut setup = String::new();
        for e in 0..4 {
            setup += &format!("wimm p1 v0 {e} {}\nwimm p0 v1 {e} {e}\n", 100 + e);
        }
        let body = "eload p0 v0 p1 v2\n\
                    copyx p0 v0 p1 v0\n\
                    eload p0 v1 p1 v3\n\
                    halt\n";
        let readback = |label: &str, vr| Readback {
            label: label.into(),
            pipe: 0,
            vr,
            elements: 4,
            signed: false,
        };
        SplitJob {
            name: "table-rewrite".into(),
            tile: HctConfig::small_test(),
            setup: encode_program(&assemble(&setup).expect("parses")),
            body: encode_program(&assemble(body).expect("parses")),
            data: SideChannel::new(),
            readbacks: vec![readback("before", 2), readback("after", 3)],
        }
    }

    #[test]
    fn table_rewrites_never_leak_between_requests() {
        let split = table_rewrite_split();
        let resident = ResidentProgram::for_split(split.clone()).expect("builds");
        let reference = SimExecutor::new();
        let input = |seed: u64| {
            let stub: String = (0..4)
                .map(|e| format!("wimm p0 v0 {e} {}\n", (seed + e) % 64))
                .collect();
            encode_program(&assemble(&stub).expect("parses"))
        };
        let first = resident.serve(&input(0)).expect("serves");
        for seed in [0, 1, 2, 3, 9, 63, 0] {
            let served = resident.serve(&input(seed)).expect("serves");
            let (ref_run, _) = reference
                .execute_with_stats(&split.full_job(&input(seed)))
                .expect("reference runs");
            assert_eq!(served.run.outputs, ref_run.outputs, "seed {seed}");
            let addresses: Vec<i64> = (0..4).map(|e| ((seed + e) % 64) as i64).collect();
            assert_eq!(served.run.outputs[1].cells, addresses, "seed {seed}");
        }
        // Every serve starts from the same warmed prototype.
        assert_eq!(resident.serve(&input(0)).expect("serves"), first);
    }

    #[test]
    fn cache_capacity_has_a_floor_of_one() {
        let mut cache = ProgramCache::new(0);
        let split = digital_split();
        cache.get_or_build_split(&split).expect("builds");
        assert_eq!(cache.len(), 1);
        // A second lookup of the same split hits.
        cache.get_or_build_split(&split).expect("hits");
        assert_eq!(cache.stats().hits, 1);
    }
}
