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

baseline:  ## pin the current numeric results as the experiments reference run
	$(PYTHON) -m repro all && $(PYTHON) -m repro runs submit --bench experiments --pin

compare:  ## record a run and gate it against the pinned reference (exit 1 on drift)
	$(PYTHON) -m repro all && $(PYTHON) -m repro runs submit --bench experiments \
	    && $(PYTHON) -m repro runs gate --bench experiments

experiments-md:  ## regenerate EXPERIMENTS.md from full-scale runs
	$(PYTHON) scripts/generate_experiments_md.py

loc:  ## the src/ total (the number ROADMAP.md tracks), then everything
	@echo "src: $$(find src -name '*.py' | xargs cat | wc -l)"
	@find src tests benchmarks examples scripts -name "*.py" | xargs wc -l | tail -1

clean:  ## also drops the gitignored run artifacts at the repo root
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	rm -rf .perfbench BENCH_*.json repro-stream-*
	find . -name __pycache__ -type d -exec rm -rf {} +
