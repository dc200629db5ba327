"""Crash-safe training checkpoints: atomic writes, checksums, param digests.

The crash recovery of :class:`~repro.dist.trainer.DistributedHistTrainer`
rests on this store: rank 0 checkpoints between rounds, and after a worker
failure the driver restores the newest checkpoint and retries.  Every
checkpoint is written and read inside one ``fit``, in a directory of its
own that the fit removes when it ends.

A checkpoint freezes a boosting run between rounds: the model payload (the
same canonical JSON the registry content-addresses), the number of boosting
rounds completed, and a digest of every hyper-parameter that shapes tree
growth.  Because warm-start boosting is bit-identical to uninterrupted
training (``fit`` with ``init_model=`` on every trainer), "resume from the
last checkpoint" reproduces the exact model an uninterrupted run would have
produced -- the fault-injection tests assert equal content digests.

Safety properties
-----------------
* **Atomic**: files are written via :func:`repro.ioutil.atomic_write_text`
  (tmp file in the destination directory, fsync, rename).  A kill at any
  point leaves either the previous checkpoint set or the new one, plus at
  most an orphaned ``*.tmp`` the store ignores.
* **Self-verifying**: the file is a :func:`repro.ioutil.seal_json`
  envelope carrying a SHA-256 checksum of the payload; truncated or
  corrupted files raise :class:`CheckpointCorrupt`
  on load, and :meth:`CheckpointStore.latest` skips them (counting the
  recovery in the metrics registry) and falls back to the newest valid one.
* **Param-guarded**: loading with a params whose growth-relevant fields
  differ from the writer's raises :class:`CheckpointMismatch` -- silently
  resuming under different hyper-parameters would produce a model that
  matches neither run.  ``n_trees`` is deliberately excluded from the
  digest: it is the round *budget*, not a growth parameter, and the round
  count is stored explicitly.

The sampling state needs no separate RNG blob: per-round row/column
sampling is a pure function of ``(params.seed, round_index)``
(:func:`repro.core.sampling.sample_tree`), so the resumed round index *is*
the RNG state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional

from ..core.booster_model import GBDTModel, canonical_model_payload, model_digest
from ..core.params import GBDTParams
from ..ioutil import EnvelopeError, atomic_write_text, open_json, seal_json
from ..obs import get_registry, span

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointStore",
    "load_checkpoint",
    "params_digest",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = "repro-ckpt-v1"
_FILE_RE = re.compile(r"^ckpt-(\d{6})\.json$")


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures."""


class CheckpointCorrupt(CheckpointError):
    """The file is unreadable or not a sound envelope (the
    :class:`~repro.ioutil.EnvelopeError` it wraps says why)."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint was written under different training parameters."""


def params_digest(params: GBDTParams) -> str:
    """Digest of every growth-shaping hyper-parameter (``n_trees`` excluded:
    it budgets rounds, it does not shape them)."""
    config = params.to_config()
    config.pop("n_trees", None)
    text = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class Checkpoint:
    """One loaded (or to-be-written) checkpoint."""

    round: int
    model_payload: str
    params_digest: str
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)
    path: Optional[Path] = None

    @property
    def model_digest(self) -> str:
        return model_digest(self.model_payload)

    def restore_model(self, params: GBDTParams | None = None) -> GBDTModel:
        """Rebuild the model; pass the training params so the restored model
        can seed a warm start under the exact same configuration."""
        return GBDTModel.from_json(self.model_payload, params=params)


def write_checkpoint(path: Path | str, ckpt: Checkpoint, *, fault_hook=None) -> Path:
    """Serialize ``ckpt`` to ``path`` atomically; returns the path."""
    envelope = seal_json(
        CHECKPOINT_FORMAT,
        {
            "round": int(ckpt.round),
            "params_digest": ckpt.params_digest,
            "model": ckpt.model_payload,
            "meta": ckpt.meta,
        },
    )
    with span("checkpoint_write", round=ckpt.round, bytes=len(envelope)):
        out = atomic_write_text(path, envelope, fault_hook=fault_hook)
    reg = get_registry()
    reg.counter("checkpoint_writes_total", "checkpoints written").inc()
    reg.gauge("checkpoint_bytes", "size of the last checkpoint written").set(
        float(len(envelope))
    )
    return out


def load_checkpoint(
    path: Path | str, params: GBDTParams | None = None
) -> Checkpoint:
    """Load and verify one checkpoint file.

    Raises :class:`CheckpointCorrupt` on truncation/checksum failure and
    :class:`CheckpointMismatch` when ``params`` digests differently from the
    params the checkpoint was written under.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        record = open_json(CHECKPOINT_FORMAT, text)
    except EnvelopeError as exc:
        raise CheckpointCorrupt(f"checkpoint {path} {exc}") from exc
    ckpt = Checkpoint(
        round=int(record["round"]),
        model_payload=record["model"],
        params_digest=record["params_digest"],
        meta=dict(record.get("meta", {})),
        path=path,
    )
    if params is not None and params_digest(params) != ckpt.params_digest:
        raise CheckpointMismatch(
            f"checkpoint {path} was written under different training params "
            f"(stored digest {ckpt.params_digest}, requested {params_digest(params)}); "
            "refusing to resume"
        )
    return ckpt


class CheckpointStore:
    """A directory of round-numbered checkpoints with crash recovery.

    Files are named ``ckpt-NNNNNN.json`` by boosting round.  ``latest``
    walks rounds newest-first, skipping corrupt/truncated files (counted as
    recoveries) so a crash mid-write falls back to the last good state; a
    *valid* file written under different params raises instead of being
    silently skipped.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, round_: int) -> Path:
        return self.directory / f"ckpt-{round_:06d}.json"

    def rounds(self) -> List[int]:
        """Round numbers with a checkpoint file present, ascending."""
        out = []
        for p in self.directory.iterdir():
            m = _FILE_RE.match(p.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def save(
        self,
        model: GBDTModel,
        params: GBDTParams,
        *,
        round_: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
        fault_hook=None,
    ) -> Checkpoint:
        """Checkpoint ``model`` after ``round_`` boosting rounds (defaults
        to ``model.n_trees``); returns the written record."""
        round_ = model.n_trees if round_ is None else int(round_)
        ckpt = Checkpoint(
            round=round_,
            model_payload=canonical_model_payload(model),
            params_digest=params_digest(params),
            meta=dict(meta or {}),
        )
        ckpt.path = write_checkpoint(
            self.path_for(round_), ckpt, fault_hook=fault_hook
        )
        return ckpt

    def latest(self, params: GBDTParams | None = None) -> Optional[Checkpoint]:
        """Newest loadable checkpoint, or ``None`` if the store is empty.

        Corrupt files are skipped (and counted in the
        ``checkpoint_recoveries_total`` metric); a params mismatch on a
        valid file propagates as :class:`CheckpointMismatch`.
        """
        skipped = 0
        found: Optional[Checkpoint] = None
        for round_ in reversed(self.rounds()):
            try:
                found = load_checkpoint(self.path_for(round_), params=params)
                break
            except CheckpointCorrupt:
                skipped += 1
        if skipped:
            get_registry().counter(
                "checkpoint_recoveries_total",
                "corrupt/truncated checkpoints skipped during recovery",
            ).inc(skipped)
        return found
