"""One cold set-up: import the program, set up one workload, exit.

    python3 perfbench/setup_once.py <workload> <seed> <spill dir>

``run.py`` times this script in fresh processes for ``setup_s``, so every
timed set-up pays the imports and the first-call costs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wk  # noqa: E402

wk.set_up(wk.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
