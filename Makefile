# Convenience targets; everything works without make too.

.PHONY: install test bench bench-smoke bench-ingest bench-search bench-ranking bench-shard bench-serve bench-stream serve-smoke shard-smoke stream-smoke chaos failover-chaos bench-paper experiments examples clean

install:
	pip install -e . || python setup.py develop

test: bench-smoke
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-smoke:           ## engine-vs-oracle A/B + micro benches; fails on mismatch
	pytest benchmarks/test_bench_simengine.py benchmarks/test_bench_micro.py \
		-q --timeout=300

bench-ingest:          ## ingestion serial vs process pool vs stream, scan vs DOM gate; records BENCH_ingest.json
	pytest benchmarks/test_bench_ingest.py -q -s --timeout=600

bench-search:          ## scan-vs-indexed search A/B; records BENCH_search.json
	pytest benchmarks/test_bench_search.py -q -s --timeout=600

bench-ranking:         ## weighting-scheme A/B (eq1/bm25/tf); records BENCH_ranking.json
	pytest benchmarks/test_bench_ranking.py -q -s --timeout=600

bench-shard:           ## single vs 2-/4-shard A/B + replica catch-up; records BENCH_shard.json
	pytest benchmarks/test_bench_shard.py -q -s --timeout=600

bench-serve:           ## HTTP server at c=1/64/1024 (parity gated vs app.handle) + 429 saturation; records BENCH_serve.json
	pytest benchmarks/test_bench_serve.py -q -s --timeout=600

bench-stream:          ## 100k-page streamed ingest (RSS ceiling + batch-parity gate); records BENCH_stream.json
	pytest benchmarks/test_bench_stream.py -q -s --timeout=1200

stream-smoke:          ## 20k-page streamed ingest under an RSS cap + batch-parity gate on the reference corpus
	PYTHONPATH=src python -m repro ingest --stream --smoke

serve-smoke:           ## boot the directory server on an ephemeral port, probe /healthz, /classify and /add, shut down
	PYTHONPATH=src python -m repro serve --smoke

shard-smoke:           ## boot router + 2 shards + 1 replica in-process, round-trip, shut down
	PYTHONPATH=src python -m repro router --smoke

chaos:                 ## resilience suite (fault injection, journal crash-recovery, coverage-degraded harvest, Section 3.1 backlink union), then a chaos-armed serve smoke whose /add crosses the journal.append seam
	PYTHONPATH=src python -m pytest tests/test_resilience.py tests/test_journal.py tests/test_chaos.py tests/test_webgraph.py -q
	tmp=$$(mktemp -d) && PYTHONPATH=src python -m repro serve --smoke --chaos 7 --journal $$tmp/serve.wal; status=$$?; rm -rf "$$tmp"; exit $$status

failover-chaos:        ## epoch-fencing soak: 25+ seeded kill/pause schedules (zombie-leader invariant) + failover suite
	PYTHONPATH=src REPRO_FENCING_SEEDS=25 python -m pytest tests/test_fencing.py tests/test_distrib_failover.py -q

bench-paper:           ## full paper protocol (20 CAFC-C trials per bench)
	REPRO_BENCH_RUNS=20 pytest benchmarks/ --benchmark-only

experiments:
	python -m repro experiments --runs 20

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
