"""Standard benchmark output location: ``BENCH_<name>.json`` at repo root.

Every bench CLI and pytest benchmark writes its machine-readable results
through this module so artifacts always land in one predictable place:

1. ``$BENCH_METRICS_DIR`` when set (CI points this at its artifact dir),
2. otherwise the repository root (the first ancestor of this file holding a
   ``pyproject.toml``),
3. otherwise the current working directory (installed-package fallback).

:func:`to_payload` turns a harness result object into the JSON-safe dict
those files hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict

__all__ = ["bench_output_dir", "bench_output_path", "to_payload", "write_bench_json"]

_SCALARS = (str, int, float, bool, type(None))
_DROP = object()


def _clean(value: Any) -> Any:
    """Keep only JSON-friendly scalars/containers; ``_DROP`` anything else."""
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_clean(v) for v in value.tolist()]
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        items = ((str(k), _clean(v)) for k, v in value.items())
        return {k: v for k, v in items if v is not _DROP}
    if isinstance(value, (list, tuple)):
        return [v for v in map(_clean, value) if v is not _DROP]
    return _DROP


def to_payload(result: Any) -> Dict[str, Any]:
    """Serialize an experiment result (dataclass or dict) to a JSON-safe dict.

    Attributes that are not JSON-representable (models, devices) are
    silently dropped, and so are nested dataclasses -- pass
    ``dataclasses.asdict(result)`` to keep those.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        raw = {
            f.name: getattr(result, f.name) for f in dataclasses.fields(result)
        }
    elif isinstance(result, dict):
        raw = result
    else:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    return _clean(raw)


def bench_output_dir() -> Path:
    """Directory benchmark artifacts belong in (see module docstring)."""
    env = os.environ.get("BENCH_METRICS_DIR")
    if env:
        return Path(env)
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return Path.cwd()


def bench_output_path(name: str) -> Path:
    """``BENCH_<name>.json`` inside :func:`bench_output_dir`."""
    if name.endswith(".jsonl") or name.endswith(".json"):
        raise ValueError(
            f"bench name must be bare (got {name!r}); the extension is fixed"
        )
    return bench_output_dir() / f"BENCH_{name}.json"


def write_bench_json(name: str, payload: Any, path: str | Path | None = None) -> Path:
    """Write ``payload`` as ``BENCH_<name>.json`` (or to ``path``); returns
    the path.

    Also removes any stale ``BENCH_<name>.jsonl`` sibling: the ``.jsonl``
    variant was retired (one structured ``.json`` document per bench) and
    must never linger next to fresh results.
    """
    path = Path(path) if path is not None else bench_output_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    stale = path.with_suffix(".jsonl")
    if stale.exists():
        stale.unlink()
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
    )
    return path
