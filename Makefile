.PHONY: install test bench bench-quick bench-smoke bench-refine bench-pivot bench-scale bench-scale-smoke bench-pipeline chaos-smoke chaos-runtime trace-smoke examples lint clean

install:
	python setup.py develop

test:
	pytest tests/ -q

bench:
	pytest benchmarks/ --benchmark-only -q

bench-quick:
	REPRO_BENCH_SCALE=0.3 REPRO_BENCH_REPS=2 pytest benchmarks/ --benchmark-only -q

# Tiny-scale perf harness: regenerates BENCH_pruning.json and
# BENCH_endtoend.json at the repo root (machine-readable stage timings).
bench-smoke:
	REPRO_BENCH_SCALE=0.3 python benchmarks/bench_pruning.py
	REPRO_BENCH_SCALE=0.2 python benchmarks/bench_endtoend.py

# Refinement benchmark: the incremental, cached PC-Refine vs its
# full-re-evaluation oracle (repro.reference) on every dataset, asserting
# identical outputs.  Regenerates BENCH_refine.json at the repo root.
bench-refine:
	REPRO_BENCH_SCALE=0.5 python benchmarks/bench_refine.py

# Pivot benchmark: the incremental PC-Pivot (live order, fused Equation-4
# scan) vs its per-round re-derivation oracle (repro.reference) on every
# dataset, asserting identical outputs.  Regenerates BENCH_pivot.json at
# the repo root.
bench-pivot:
	REPRO_BENCH_SCALE=1.0 python benchmarks/bench_pivot.py

# Scale benchmark: the production (sharded, vectorized) prefix join vs
# its scalar oracles -- the frozenset join and the scoring loop from
# repro.reference -- on the synthetic largescale population, asserting
# byte-identical candidate sets, plus the cluster-generation stage
# (classic PC-Pivot vs the component-decomposed run_pipeline, identical
# clusterings, crowd-iteration and wall-clock speedups) on tiers up to
# REPRO_BENCH_GENERATION_CAP and the refinement stage (classic PC-Refine
# vs run_pipeline resumed from the classic generation checkpoint, on a
# confused regeneration of the tier, refine_speedup /
# refine_iteration_speedup, advisory classic-parity flag) on tiers up to
# REPRO_BENCH_REFINE_CAP.  Regenerates
# BENCH_scale.json at the repo root with records/sec, pairs/sec, and
# peak-RSS meters, at the 10k and 100k tiers the committed file holds.
# For the 1M tier as well (about 8 GiB of memory), run
# REPRO_BENCH_SCALE_TIERS=10000,100000,1000000 python benchmarks/bench_scale.py
bench-scale:
	REPRO_BENCH_SCALE_TIERS=10000,100000 python benchmarks/bench_scale.py

# 10k-only tier for CI runners (minutes, not tens of minutes).
bench-scale-smoke:
	REPRO_BENCH_SCALE_TIERS=10000 python benchmarks/bench_scale.py

# Pipelined-executor smoke: barrier (full pruning join, then the
# pre-pruned pipeline) vs component-streaming pipelined execution on the
# same pool size under a simulated crowd latency model, asserting
# byte-identical candidate sets and final
# clusterings and reporting pipeline_makespan_speedup /
# pipeline_overlap_efficiency.  Runs a reduced 20k tier for CI runners
# (the committed BENCH_endtoend.json carries the full 100k tier);
# regenerates BENCH_endtoend.json at the repo root.
bench-pipeline:
	REPRO_BENCH_STAGES=pipelined REPRO_BENCH_PIPELINE_RECORDS=20000 \
		REPRO_BENCH_PIPELINE_WORKERS=4 \
		python benchmarks/bench_endtoend.py

# Fault-injection smoke: every pipeline family must terminate under the
# default hostile crowd (abandonment, timeouts, spammers, early quorum),
# the supervised worker pool must stay byte-identical under process
# faults (kills, delays, poison chunks) for the sharded pruning join and
# the component-streaming pipelined executor (whose generation
# clustering is also checked against the global PC-Pivot, and whose
# result against pruning-then-pipeline execution), and all three phase
# checkpoints (pruning / generation / refinement) must kill-resume
# byte-identically.
# Regenerates CHAOS_smoke.json at the repo root.
chaos-smoke:
	python -m repro chaos --dataset restaurant --scale 0.1 --seeds 5 \
		--output CHAOS_smoke.json

# Runtime-focused chaos: the process-fault matrix (worker kills / task
# delays / poison chunks on sharded 10k pruning and the pipelined
# executor) and the checkpoint kill-resume checks for all three phases,
# with the crowd-side sweep cut to a single seed.  Writes
# CHAOS_runtime.json (not tracked).
chaos-runtime:
	python -m repro chaos --dataset restaurant --scale 0.1 --seeds 1 \
		--runtime-records 10000 --output CHAOS_runtime.json

# Observability smoke: one traced run end to end, then the manifest must
# validate and the trace must summarize.  Regenerates TRACE_smoke.jsonl
# and TRACE_smoke.manifest.json at the repo root.
trace-smoke:
	python -m repro run restaurant --scale 0.1 --trace TRACE_smoke.jsonl
	python -m repro trace validate TRACE_smoke.manifest.json
	python -m repro trace summarize TRACE_smoke.jsonl

examples:
	for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
	done

lint:
	python -m py_compile $$(find src -name '*.py')

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
