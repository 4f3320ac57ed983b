# DARTH-PUM reproduction — one-command recipes for the tier-1 gate and the
# supporting checks. `make verify` is the whole tier-1 recipe.

CARGO ?= cargo

## Virtual-memory ceiling (KB) for `make eval-large`: 2 GiB. The
## streaming pipeline prices a ≥1M-block AES stream (74M op events)
## well under it — the bulk-stream memory gate.
EVAL_LARGE_CAP_KB ?= 2097152

## Wall-clock budget (seconds) for the scaled fast-vs-reference gate in
## `make sim-verify`: the 1000-block bulk-AES executor-pair run takes a
## few seconds on the fast path; the budget exists so a fast-path
## performance regression fails the gate instead of quietly crawling.
## Generous because a cold tree pays the release build inside it.
SIM_VERIFY_BUDGET_S ?= 600

.PHONY: all build test verify doc lint fmt fmt-check bench figures eval eval-large equivalence dse dse-smoke sim-verify kir-verify serve serve-smoke mc mc-smoke hostbench-check loc trajectory clean

all: verify

## Tier-1 gate (release build + full test suite) plus the lint gates
## (clippy and rustfmt, both warnings-as-errors), then — explicitly —
## the streaming/replay equivalence regression, the DSE smoke sweep, the
## functional-simulator differential gate, the kernel-IR compiler gate,
## the serving smoke suite, the Monte-Carlo smoke suite and the host
## benchmark's compile check.
verify: build test lint fmt-check equivalence dse-smoke sim-verify kir-verify serve-smoke mc-smoke hostbench-check

## The host benchmark (hostbench/, a package of its own outside the
## workspace) must keep compiling against the workspace API on its
## committed lockfile: `--locked` fails loudly on any change that would
## rewrite hostbench/Cargo.lock. Builds into the gitignored
## hostbench/target/.
hostbench-check:
	$(CARGO) check --offline --locked --manifest-path hostbench/Cargo.toml

## The golden-model differential gate: the standard registry
## (AES-128/192/256 on FIPS-197 vectors, integer GEMM, a conv layer)
## executes on the functional ISA simulator and must match its golden
## software references bit-exactly, cell by cell, while the paired
## priced twins flow through the analytical engine. The fast path
## (packed bit-planes + sharded tiles, on the reference's own
## instruction dispatch) then replays the executor-pair suite in release
## at bulk scale — 1000 AES blocks — and must match the reference
## executor result-, energy- and cycle-exactly; the packed pipeline's
## property suite checks its element-wise load (value-mirror fast path)
## against the reference pipeline between random table writes. Also
## refuses any `#[ignore]`d test in the tier-1 tree — a silently skipped
## differential case must fail the build, not hide.
sim-verify:
	@if grep -rn "\#\[ignore" --include='*.rs' crates src tests examples 2>/dev/null; then \
		echo "ERROR: ignored tests are not allowed in the tier-1 tree"; \
		exit 1; \
	fi
	$(CARGO) test -q -p darth_sim --test differential
	$(CARGO) test -q -p darth_eval --test sim_differential
	DARTH_SIM_BULK_BLOCKS=1000 timeout $(SIM_VERIFY_BUDGET_S) \
		$(CARGO) test -q --release -p darth_sim --test fast_vs_reference
	$(CARGO) test -q -p darth_digital --test packed_property
	$(CARGO) test -q --release -p darth_sim --test shard_determinism

## The kernel-IR compiler gate: the darth_kir unit + property suites
## (verifier diagnostics, allocator reuse/pressure, encode → decode →
## re-encode round trips, the split-concatenation invariant) and the
## hand-lowering parity regression (per-mnemonic histograms, analog-op
## counts, cycles and energy pinned against the pre-compiler baselines).
## Also part of `make test`; kept addressable so `make verify` names it.
kir-verify:
	$(CARGO) test -q -p darth_kir
	$(CARGO) test -q -p darth_sim --test kir_parity

## The registry-wide bit-identity regression: live stream == recorded
## summary replay == one-pass fanout == engine cell for every
## (workload, model) cell, at every worker count. Also part of
## `make test`; kept addressable so the guarantee is auditable on its
## own.
equivalence:
	$(CARGO) test -q -p darth_eval --test streaming_equivalence

## The DSE smoke sweep: a small config grid over the paper workloads,
## serial == parallel bit-identical, with the paper's SAR/ramp design
## points asserted byte-identical to the BENCH_fig13.json pricing. Also
## part of `make test`; kept addressable so `make verify` names it.
dse-smoke:
	$(CARGO) test -q -p darth_eval --test dse

## The serving smoke suite: a small bursty trace on a fleet from the
## real DSE smoke-sweep frontier — resident-program cache hits,
## sustained >= offered at low load with zero rejections, served
## outputs bit-exact against the reference executor and software
## goldens, batch coalescing + bounded-queue rejection under overload,
## and serving determinism at worker counts {1, 2, 64} plus the
## DARTH_EVAL_THREADS paths. Also part of `make test`; kept
## addressable so `make verify` names it.
serve-smoke:
	$(CARGO) test -q -p darth_serve --test smoke
	$(CARGO) test -q -p darth_serve --test determinism

## The Monte-Carlo accuracy smoke suite: zero-sigma noise-injected
## trials reproduce the golden registry bit-exactly across the DSE
## smoke grid, a noisy campaign is bit-identical across worker counts
## {1, 2, 64} and reruns (plus the property suite over random seeds),
## noise-off executions consume zero RNG draws on the full path, and
## accuracy attaches to the darth-dse-sweep/v2 JSON. Also part of
## `make test`; kept addressable so `make verify` names it.
mc-smoke:
	$(CARGO) test -q -p darth_eval --test mc_smoke
	$(CARGO) test -q -p darth_sim --test noise_determinism

## The Monte-Carlo accuracy campaign at the paper's SAR and ramp design
## points: noise-injected trials of the standard functional workloads
## (zero-sigma gate first), per-workload error statistics and trial
## throughput; writes BENCH_mc.json. Tune with DARTH_MC_TRIALS.
mc:
	$(CARGO) run -q --release -p darth_bench --bin mc

## The serving benchmark: a >=1M-request deterministic bursty trace,
## mixed over the standard class registry, served on an 8-chip fleet
## from the default DSE sweep's Pareto frontier; writes
## BENCH_serve.json (offered vs sustained throughput, p50/p99/p999
## latency, batch histogram, cache hit rates, per-chip utilization,
## warm-vs-cold resident-program comparison). Tune with
## DARTH_SERVE_REQUESTS / DARTH_SERVE_SEED / DARTH_SERVE_LOAD.
serve:
	$(CARGO) run -q --release -p darth_bench --bin serve

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

## Rustdoc for every workspace crate; warnings are errors.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps

## Clippy across all targets; warnings are errors.
lint:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

## Simulator throughput: bulk AES through the reference interpreter and
## the fast path (1 worker and one per core); writes BENCH_sim.json.
## Tune with DARTH_SIM_BENCH_BLOCKS.
bench:
	$(CARGO) run -q --release -p darth_bench --bin sim_throughput

## Regenerate every paper figure and table in one run (prints to stdout;
## each artefact also drops a BENCH_<figure>.json report).
figures:
	$(CARGO) run -q --release -p darth_bench --bin figures

## Price the full extended workload x architecture matrix through the
## evaluation engine (serial vs parallel timing) and write BENCH_eval.json.
eval:
	$(CARGO) run -q --release -p darth_bench --bin eval

## The design-space sweep: the default 48-config grid (ADC kind x
## resolution x crossbar geometry x slicing x clock) priced on the full
## extended workload registry, with Pareto frontiers and best-config
## tables; writes BENCH_dse.json.
dse:
	$(CARGO) run -q --release -p darth_bench --bin dse

## Price the bulk scenarios (>=1M-block AES, seq-4096 + GPT-2-XL
## encoders, ResNet-110) under a hard memory ceiling, writing
## BENCH_eval_large.json.
eval-large: build
	@echo "== streaming pipeline under ulimit -v $(EVAL_LARGE_CAP_KB) KB =="
	@bash -c 'ulimit -v $(EVAL_LARGE_CAP_KB); exec ./target/release/eval_large'

## Lines of Rust in the tracked source trees (vendored stand-ins and
## build output excluded) — the code-size metric.
loc:
	@find crates src tests examples -name target -prune -o -name '*.rs' -print0 \
		| xargs -0 cat | wc -l

## Append this commit's line to the tracked perf/trajectory.tsv: each
## hostbench workload's median host_ops_per_s over three seeds (untraced
## runs of BENCHMARK.json's run_seconds each), `make loc` and the tier-1
## test count. Takes several minutes, so it is not part of `make verify`.
trajectory:
	python3 perf/trajectory.py

clean:
	$(CARGO) clean
