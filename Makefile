# Developer entry points. Everything also works as plain commands; see README.

PYTHON ?= python

.PHONY: install test test-fast bench bench-quick experiments experiments-quick \
        baseline compare experiments-md loc clean

install:
	PIP_NO_BUILD_ISOLATION=0 pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:  ## skip the slower end-to-end/calibration files
	$(PYTHON) -m pytest tests/ --ignore=tests/test_calibration.py \
	    --ignore=tests/test_examples_smoke.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --quick-bench

experiments:
	$(PYTHON) -m repro all

experiments-quick:
	$(PYTHON) -m repro all --quick

baseline:  ## save the current numeric results for regression tracking
	mkdir -p results
	$(PYTHON) -m repro all --save results/baseline.json

compare:  ## compare against the saved baseline
	$(PYTHON) -m repro all --compare results/baseline.json

experiments-md:  ## regenerate EXPERIMENTS.md from full-scale runs
	$(PYTHON) scripts/generate_experiments_md.py

loc:
	@find src tests benchmarks examples scripts -name "*.py" | xargs wc -l | tail -1

clean:  ## also drops the gitignored run artifacts at the repo root
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	rm -rf .perfbench BENCH_*.json repro-stream-*
	find . -name __pycache__ -type d -exec rm -rf {} +
