"""Crash-safe file I/O shared by model persistence, checkpoints, run
records, and blocks.

A file that readers may load at any time must never be observable in a
half-written state.  :func:`atomic_write_text` follows the standard recipe:
write to a temporary file *in the destination directory* (so the rename
stays on one filesystem), flush + fsync the data, atomically rename over
the destination, then fsync the directory so the rename itself survives a
power loss.  :func:`atomic_write_bytes` is the binary twin used by the
out-of-core block store (:mod:`repro.stream.blockstore`), whose spilled
column blocks are far cheaper to ship as raw array bytes than as text.

Checksummed JSON
----------------
:func:`seal_json` wraps a JSON payload in the one self-verifying envelope
the dist checkpoints and the benchmark run store share::

    {"checksum": "<sha256 of the payload string>", "format": "<fmt>",
     "payload": "<canonical json of the payload>"}

and :func:`open_json` is its reader: a truncated, unparsable, foreign,
incomplete or tampered document raises :class:`EnvelopeError`.

Fault injection
---------------
``fault_hook`` is called between the write steps with the step name
(``"begin"``, ``"written"``, ``"synced"``, ``"renamed"``).  A hook that
raises :class:`SimulatedCrash` models a hard kill at that point: the
exception propagates *without* cleanup, leaving the filesystem exactly as a
``kill -9`` would (an orphaned ``*.tmp`` file at most -- never a partial
destination file).  Any other exception is treated as an ordinary error and
the temporary file is removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = [
    "EnvelopeError",
    "SimulatedCrash",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "open_json",
    "seal_json",
]


class SimulatedCrash(BaseException):
    """Raised by fault-injection hooks to model a hard process kill.

    Derives from ``BaseException`` so ordinary ``except Exception`` recovery
    code cannot accidentally swallow the simulated kill.
    """


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (persists a completed rename)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(
    path: Path,
    data: bytes | str,
    mode: str,
    encoding: Optional[str],
    hook: Callable[[str], None],
) -> Path:
    """The shared tmp-write + fsync + rename recipe (see module docstring)."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        hook("begin")
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            fh.write(data)
            hook("written")
            fh.flush()
            os.fsync(fh.fileno())
        hook("synced")
        os.replace(tmp, path)
        hook("renamed")
        fsync_dir(path.parent)
    except SimulatedCrash:
        raise  # a hard kill cleans nothing up
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: Path | str,
    text: str,
    *,
    encoding: str = "utf-8",
    fault_hook: Optional[Callable[[str], None]] = None,
) -> Path:
    """Write ``text`` to ``path`` so readers see the old or the new content,
    never a mixture; returns the destination path."""
    hook = fault_hook if fault_hook is not None else (lambda step: None)
    return _atomic_write(Path(path), text, "w", encoding, hook)


def atomic_write_bytes(
    path: Path | str,
    data: bytes,
    *,
    fault_hook: Optional[Callable[[str], None]] = None,
) -> Path:
    """Binary :func:`atomic_write_text`: same crash-safety guarantees, same
    fault-injection steps, raw bytes instead of encoded text."""
    hook = fault_hook if fault_hook is not None else (lambda step: None)
    return _atomic_write(Path(path), data, "wb", None, hook)


class EnvelopeError(ValueError):
    """A sealed JSON document is truncated, not JSON, of another format,
    missing a field, or fails its checksum."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seal_json(fmt: str, payload: Any) -> str:
    """``payload`` as the checksummed ``{checksum, format, payload}``
    envelope text; the payload travels as its canonical JSON string."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {"checksum": _sha256(body), "format": fmt, "payload": body}, sort_keys=True
    )


def open_json(fmt: str, text: str) -> Any:
    """The payload :func:`seal_json` sealed under ``fmt`` into ``text``.

    Raises :class:`EnvelopeError` unless ``text`` is a complete ``fmt``
    envelope whose payload matches its checksum.
    """
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise EnvelopeError("is not valid JSON (truncated write?)") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != fmt:
        raise EnvelopeError(f"has unknown format (expected {fmt!r})")
    payload = envelope.get("payload")
    checksum = envelope.get("checksum")
    if not isinstance(payload, str) or not isinstance(checksum, str):
        raise EnvelopeError("envelope is incomplete")
    if _sha256(payload) != checksum:
        raise EnvelopeError("fails its checksum")
    return json.loads(payload)
