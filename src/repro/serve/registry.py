"""Versioned model registry: publish, hot-swap, roll back.

Versions are *content-addressed*: the version id is a digest of the model's
canonical JSON payload, so publishing byte-identical models twice yields one
version (training determinism -- same seed, same data, same trees -- is what
makes this a stable identity; ``tests/test_serve_determinism.py`` guards it).

Every published model is **round-tripped** through
``GBDTModel.to_json``/``from_json`` before flattening: the serving path only
ever sees what survives serialization, so a model restored from disk on
another host predicts identically to the one published here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from typing import Dict, List

import numpy as np

from ..core.booster_model import GBDTModel
from ..obs import get_registry, span
from .flat_model import FlatEnsemble

__all__ = ["ModelRegistry", "ModelVersion"]

DEFAULT_NAME = "default"


@dataclasses.dataclass(frozen=True)
class ModelVersion:
    """One immutable published model."""

    name: str
    version: str
    payload: str
    flat: FlatEnsemble
    seq: int

    def restore(self) -> GBDTModel:
        """Rebuild the full :class:`GBDTModel` from the stored payload."""
        return GBDTModel.from_json(self.payload)


def canonical_payload(model: GBDTModel) -> str:
    """Deterministic JSON for content addressing (sorted keys, no spaces)."""
    return json.dumps(
        json.loads(model.to_json()), sort_keys=True, separators=(",", ":")
    )


class ModelRegistry:
    """Named, versioned store of flattened models for the serving path.

    Thread-safe: the batcher may resolve the active version while another
    thread publishes or rolls back.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._versions: Dict[str, Dict[str, ModelVersion]] = {}
        self._history: Dict[str, List[str]] = {}  # activation order, last = active
        self._seq = 0

    # ------------------------------------------------------------ publishing
    def publish(
        self, model: GBDTModel, name: str = DEFAULT_NAME, *, activate: bool = True
    ) -> str:
        """Register ``model`` under ``name``; returns its content version id.

        Re-publishing identical content is a no-op apart from (optionally)
        activating the existing version.  Raises ``ValueError``, registering
        and activating nothing, when the model's base score or any leaf
        value is non-finite: such a model cannot predict anything right.
        """
        with span("registry_publish", model=name):
            payload = canonical_payload(model)
            version = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
            with self._lock:
                if version not in self._versions.get(name, {}):
                    restored = GBDTModel.from_json(payload, params=model.params)
                    flat = FlatEnsemble.from_model(restored)
                    if not (np.isfinite(flat.base_score) and np.isfinite(flat.value).all()):
                        raise ValueError(
                            f"refusing to publish model {name!r}: non-finite "
                            "base score or leaf value"
                        )
                    self._seq += 1
                    self._versions.setdefault(name, {})[version] = ModelVersion(
                        name=name,
                        version=version,
                        payload=payload,
                        flat=flat,
                        seq=self._seq,
                    )
                    get_registry().counter(
                        "registry_publishes_total", "distinct model versions published"
                    ).inc()
                if activate:
                    self._activate_locked(name, version)
            return version

    def _activate_locked(self, name: str, version: str) -> None:
        history = self._history.setdefault(name, [])
        if not history or history[-1] != version:
            history.append(version)
            if len(history) > 1:
                get_registry().counter(
                    "registry_swaps_total", "hot swaps of an active model version"
                ).inc()

    def activate(self, name: str, version: str) -> None:
        """Hot-swap ``name`` to an already-published version."""
        with self._lock:
            if version not in self._versions.get(name, {}):
                raise KeyError(f"unknown version {version!r} for model {name!r}")
            self._activate_locked(name, version)

    def rollback(self, name: str = DEFAULT_NAME) -> str:
        """Re-activate the previously active version; returns its id."""
        with self._lock:
            history = self._history.get(name, [])
            if len(history) < 2:
                raise KeyError(f"model {name!r} has no previous version to roll back to")
            history.pop()
            get_registry().counter(
                "registry_rollbacks_total", "rollbacks to a previous version"
            ).inc()
            return history[-1]

    # -------------------------------------------------------------- resolving
    def active(self, name: str = DEFAULT_NAME) -> ModelVersion:
        """The currently serving version of ``name``."""
        with self._lock:
            history = self._history.get(name)
            if not history:
                raise KeyError(f"no active version for model {name!r}")
            return self._versions[name][history[-1]]

    def get(self, name: str, version: str) -> ModelVersion:
        with self._lock:
            try:
                return self._versions[name][version]
            except KeyError:
                raise KeyError(f"unknown version {version!r} for model {name!r}") from None

    def versions(self, name: str = DEFAULT_NAME) -> List[str]:
        """All published version ids for ``name``, in publish order."""
        with self._lock:
            store = self._versions.get(name, {})
            return [v.version for v in sorted(store.values(), key=lambda m: m.seq)]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._versions
