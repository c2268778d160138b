.PHONY: install test bench bench-paper bench-compare chaos-smoke resume-smoke obs-report experiments examples lint clean

install:
	pip install -e .[test]

test:
	pytest tests/ -q

# Workloads with committed BENCH_<workload>.json records.  cells_jobs2 is
# left out: its formulation builds vs cache hits depend on worker scheduling.
BENCH_WORKLOADS = table4_g10 sweep_warm dosepl_yield

# $(call bench_record,DIR): run each workload traced and write perfbench's
# last stdout line, unchanged, to DIR/BENCH_<workload>.json
bench_record = log=$$(mktemp) && for w in $(BENCH_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seconds 5 --trace 1 > $$log \
	    || { cat $$log; rm -f $$log; exit 1; }; \
	  tail -n 1 $$log > $(1)/BENCH_$$w.json; \
	done && rm -f $$log

# Re-record the committed BENCH_<workload>.json files
bench:
	$(call bench_record,.)

# Paper-reproduction benchmark suite (tables/figures timings)
bench-paper:
	pytest benchmarks/ --benchmark-only

# Fault-injection (REPRO_CHAOS) recovery-path smoke
chaos-smoke:
	PYTHONPATH=src python benchmarks/chaos_smoke.py

# Kill-and-resume checkpoint smoke (byte-identical rows)
resume-smoke:
	PYTHONPATH=src python benchmarks/resume_smoke.py

# Perf-regression gate: fresh records vs the committed ones (counts must
# be equal, times within 2x; see docs/observability.md)
bench-compare:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(call bench_record,$$dir) && status=0 && \
	for w in $(BENCH_WORKLOADS); do \
	  PYTHONPATH=src python3 -m repro.obs compare BENCH_$$w.json $$dir/BENCH_$$w.json \
	    || status=1; \
	done; exit $$status

# Traced optimize run + manifest analysis (see docs/observability.md)
obs-report:
	PYTHONPATH=src python -m repro --trace /tmp/obs_demo.jsonl optimize AES-65 --grid 20 --mode qcp > /dev/null
	PYTHONPATH=src python -m repro.obs report /tmp/obs_demo.jsonl

experiments:
	python -m repro.experiments

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:
	rm -rf .pytest_cache benchmarks/results **/__pycache__
