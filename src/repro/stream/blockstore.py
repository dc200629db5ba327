"""Spillable column-block store: the disk tier of out-of-core training.

A :class:`ColumnBlock` holds the quantized entries of one row range of the
training matrix -- ``(instance id, global bin id)`` pairs sorted by bin.
Because the global bin id ranges of different attributes are disjoint
(``gbin = bin_offset[attr] + local_bin``), the attribute array never needs
storing: it is recovered exactly from the bin ids with one ``searchsorted``
against the bin offsets.  Sorting by bin makes the bin array a staircase of
runs, so blocks RLE-compress the bin ids the same way Section III-C
compresses sorted value lists (instance ids name distinct instances and
stay dense, exactly as in :mod:`repro.data.rle`).

On-disk format (``repro-blk-v1``)
---------------------------------
One JSON header line -- magic, row range, array dtypes/shapes, and the
SHA-256 of the body -- followed by the raw little-endian array bytes.
Files are written with :func:`repro.ioutil.atomic_write_bytes`, so a crash
mid-write leaves at most an orphaned ``*.tmp`` file; a file that *is*
damaged anyway (truncation, bit rot, a writer without the atomic recipe)
fails the checksum, is counted by ``blockstore_torn_skipped_total``,
deleted, and re-materialized from the source matrix.

Cache policy
------------
The store keeps recently used blocks in host memory under a **hard byte
budget** (LRU eviction).  Evicting a block that has never reached disk
spills it first (``blocks_spilled_total``, modeled as a disk write);
fetching an evicted block reads it back (modeled as a disk read).  Blocks
pinned by the prefetch pipeline are never evicted -- the budget must cover
the pinned working set, which is what bounds peak resident bytes.

LRU is the worst policy for a *cyclic* scan over more blocks than fit:
when every pass walks blocks ``0..B-1`` in the same order, the block a
pass needs next is always the one evicted longest ago, so every ``get``
misses.  The stream trainer therefore walks the blocks serpentine (each
pass reverses the previous one), and each pass starts on the blocks the
last pass left resident.  Only the prefetch worker calls :meth:`get`, in
pass order, and pinned blocks are always the newest, so the eviction
victim is always the oldest block: the fetch sequence, and so the modeled
disk traffic, does not depend on thread timing.  Nor does the ledger order:
the worker's gets (:meth:`get_deferring_io`) hand their disk transfers back
instead of recording them, and the pipeline records them (:meth:`charge`)
when the trainer takes the block, between the trainer's own ledger entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..gpusim.kernel import GpuDevice
from ..ioutil import atomic_write_bytes
from ..obs import get_registry, span

__all__ = [
    "BLOCK_MAGIC",
    "BlockStore",
    "ColumnBlock",
    "TornBlockError",
    "attrs_from_gbin",
]

BLOCK_MAGIC = "repro-blk-v1"

#: gpusim phase label for all block-store disk traffic, so phase reports
#: separate modeled IO time from modeled compute time
IO_PHASE = "stream_io"

#: one deferred disk transfer: ``(name, bytes, "read" | "write")``
DiskIO = Tuple[str, int, str]


class TornBlockError(RuntimeError):
    """A block file failed validation (bad magic, header, or checksum)."""


def attrs_from_gbin(ent_gbin: np.ndarray, bin_offset: np.ndarray) -> np.ndarray:
    """Recover the attribute of each entry from its global bin id.

    Attribute ``a`` owns bins ``[bin_offset[a], bin_offset[a+1])``; the
    ranges partition ``[0, total_bins)``, so the mapping is exact.
    """
    return np.searchsorted(bin_offset, ent_gbin, side="right") - 1


def _rle_encode(ent_gbin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode a sorted int64 bin array into (values, lengths)."""
    n = ent_gbin.size
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ent_gbin)) + 1))
    run_values = ent_gbin[starts]
    run_lengths = np.diff(np.concatenate((starts, [n])))
    return run_values.astype(np.int64), run_lengths.astype(np.int64)


@dataclasses.dataclass
class ColumnBlock:
    """Quantized entries of rows ``[row_lo, row_hi)``, sorted by bin id.

    ``ent_inst`` is always dense int64 (global instance ids).  The bin ids
    are stored either dense (``gbin_values`` with ``gbin_lengths is None``)
    or run-length encoded; :meth:`entries` returns the dense triple either
    way.
    """

    block_id: int
    row_lo: int
    row_hi: int
    n_entries: int
    ent_inst: np.ndarray
    gbin_values: np.ndarray
    gbin_lengths: Optional[np.ndarray]

    @classmethod
    def build(
        cls,
        block_id: int,
        row_lo: int,
        row_hi: int,
        ent_inst: np.ndarray,
        ent_gbin: np.ndarray,
        *,
        use_rle: bool = True,
    ) -> "ColumnBlock":
        """Pack already bin-sorted entry arrays into a block."""
        ent_inst = np.ascontiguousarray(ent_inst, dtype=np.int64)
        ent_gbin = np.ascontiguousarray(ent_gbin, dtype=np.int64)
        if ent_inst.size != ent_gbin.size:
            raise ValueError("entry arrays must align")
        if ent_gbin.size and np.any(np.diff(ent_gbin) < 0):
            raise ValueError("block entries must be sorted by global bin id")
        if use_rle:
            values, lengths = _rle_encode(ent_gbin)
            return cls(block_id, int(row_lo), int(row_hi), ent_inst.size,
                       ent_inst, values, lengths)
        return cls(block_id, int(row_lo), int(row_hi), ent_inst.size,
                   ent_inst, ent_gbin, None)

    @property
    def is_rle(self) -> bool:
        return self.gbin_lengths is not None

    @property
    def nbytes(self) -> int:
        """Host bytes this block occupies as stored (the budget currency)."""
        b = self.ent_inst.nbytes + self.gbin_values.nbytes
        if self.gbin_lengths is not None:
            b += self.gbin_lengths.nbytes
        return int(b)

    def entries(
        self, bin_offset: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense ``(ent_inst, ent_gbin, ent_attr)`` of this block."""
        if self.gbin_lengths is not None:
            ent_gbin = np.repeat(self.gbin_values, self.gbin_lengths)
        else:
            ent_gbin = self.gbin_values
        return self.ent_inst, ent_gbin, attrs_from_gbin(ent_gbin, bin_offset)

    # ------------------------------------------------------------- envelope
    def to_bytes(self) -> bytes:
        """Serialize as a checksummed ``repro-blk-v1`` envelope."""
        arrays = [("ent_inst", self.ent_inst), ("gbin_values", self.gbin_values)]
        if self.gbin_lengths is not None:
            arrays.append(("gbin_lengths", self.gbin_lengths))
        body = b"".join(np.ascontiguousarray(a).tobytes() for _, a in arrays)
        header = {
            "magic": BLOCK_MAGIC,
            "block_id": self.block_id,
            "row_lo": self.row_lo,
            "row_hi": self.row_hi,
            "n_entries": self.n_entries,
            "rle": self.is_rle,
            "arrays": [
                {"name": name, "dtype": str(a.dtype), "shape": list(a.shape)}
                for name, a in arrays
            ],
            "body_sha256": hashlib.sha256(body).hexdigest(),
        }
        return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ColumnBlock":
        """Parse an envelope; raises :class:`TornBlockError` on any damage."""
        nl = raw.find(b"\n")
        if nl < 0:
            raise TornBlockError("no header line")
        try:
            header = json.loads(raw[:nl].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TornBlockError(f"unparseable header: {exc}") from exc
        if header.get("magic") != BLOCK_MAGIC:
            raise TornBlockError(f"bad magic {header.get('magic')!r}")
        body = raw[nl + 1:]
        if hashlib.sha256(body).hexdigest() != header.get("body_sha256"):
            raise TornBlockError("body checksum mismatch")
        arrays: Dict[str, np.ndarray] = {}
        pos = 0
        for spec in header["arrays"]:
            dt = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            nb = dt.itemsize * count
            arrays[spec["name"]] = np.frombuffer(
                body[pos:pos + nb], dtype=dt
            ).reshape(spec["shape"]).copy()
            pos += nb
        if pos != len(body):
            raise TornBlockError("trailing bytes after declared arrays")
        return cls(
            block_id=int(header["block_id"]),
            row_lo=int(header["row_lo"]),
            row_hi=int(header["row_hi"]),
            n_entries=int(header["n_entries"]),
            ent_inst=arrays["ent_inst"],
            gbin_values=arrays["gbin_values"],
            gbin_lengths=arrays.get("gbin_lengths"),
        )


class BlockStore:
    """LRU host cache over disk-spillable column blocks.

    Parameters
    ----------
    directory:
        Where block files live (created if missing).
    budget_bytes:
        Hard ceiling on resident (cached + pinned) block bytes.
    device:
        When given, spills and fetches are charged to its cost ledger as
        disk transfers under the ``stream_io`` phase.
    """

    def __init__(
        self,
        directory: Path | str,
        budget_bytes: int,
        *,
        device: GpuDevice | None = None,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.budget_bytes = int(budget_bytes)
        self.device = device
        self._cache: "OrderedDict[int, ColumnBlock]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        self._on_disk: set[int] = set()
        self._known: set[int] = set()
        self._resident = 0
        self.peak_resident_bytes = 0
        #: :meth:`get` calls so far: one per block per pass over the store
        self.get_calls = 0
        self._materializer: Optional[Callable[[int], ColumnBlock]] = None
        #: where :meth:`get_deferring_io` collects disk transfers while it runs
        self._deferred: Optional[List[DiskIO]] = None
        self._lock = threading.RLock()

    # ---------------------------------------------------------------- public
    def set_materializer(self, fn: Callable[[int], ColumnBlock]) -> None:
        """Register the rebuild-from-source fallback for torn/lost files."""
        self._materializer = fn

    @property
    def resident_bytes(self) -> int:
        """Current cached (incl. pinned) block bytes."""
        with self._lock:
            return self._resident

    @property
    def n_blocks(self) -> int:
        with self._lock:
            return len(self._known)

    def block_path(self, block_id: int) -> Path:
        return self.directory / f"block-{block_id:06d}.blk"

    def put(self, block: ColumnBlock) -> None:
        """Register a freshly built block and cache it (evicting as needed)."""
        with self._lock:
            self._known.add(block.block_id)
            if block.block_id in self._cache:
                self._drop(block.block_id)
            self._on_disk.discard(block.block_id)
            self._insert(block)

    def get(self, block_id: int, *, pin: bool = False) -> ColumnBlock:
        """Return a block, fetching from disk (or rebuilding) on a miss."""
        with self._lock:
            if block_id not in self._known:
                raise KeyError(f"unknown block {block_id}")
            self.get_calls += 1
            block = self._cache.get(block_id)
            if block is not None:
                self._cache.move_to_end(block_id)
            else:
                block = self._fetch(block_id)
                self._insert(block)
            if pin:
                self._pins[block_id] = self._pins.get(block_id, 0) + 1
            return block

    def get_deferring_io(
        self, block_id: int, transfers: List[DiskIO], *, pin: bool = False
    ) -> ColumnBlock:
        """:meth:`get`, but the disk transfers it causes -- its fetch and the
        spills its evictions force -- are appended to ``transfers`` instead
        of going to the device ledger; :meth:`charge` records them later."""
        with self._lock:
            self._deferred = transfers
            try:
                return self.get(block_id, pin=pin)
            finally:
                self._deferred = None

    def charge(self, transfers: List[DiskIO]) -> None:
        """Record transfers :meth:`get_deferring_io` deferred on the device."""
        if self.device is not None:
            for name, nbytes, direction in transfers:
                self.device.disk_transfer(name, nbytes, direction, phase=IO_PHASE)

    def release(self, block_id: int) -> None:
        """Drop one pin (prefetch consumer done with the block)."""
        with self._lock:
            count = self._pins.get(block_id, 0) - 1
            if count <= 0:
                self._pins.pop(block_id, None)
            else:
                self._pins[block_id] = count

    def flush(self) -> None:
        """Spill every cached block and empty the cache (end of training)."""
        with self._lock:
            for block_id in list(self._cache):
                self._evict(block_id)

    def close(self) -> None:
        """Forget all cached state (files stay for post-mortem inspection)."""
        with self._lock:
            self._cache.clear()
            self._pins.clear()
            self._resident = 0

    # --------------------------------------------------------------- internals
    def _counter(self, name: str, help_: str):
        return get_registry().counter(name, help_)

    def _insert(self, block: ColumnBlock) -> None:
        nbytes = block.nbytes
        pinned = sum(
            self._cache[b].nbytes for b in self._pins if b in self._cache
        )
        if pinned + nbytes > self.budget_bytes:
            raise RuntimeError(
                f"cache budget {self.budget_bytes} B cannot hold block "
                f"{block.block_id} ({nbytes} B) plus the pinned working set "
                f"({pinned} B); raise the budget or lower the prefetch depth"
            )
        while self._resident + nbytes > self.budget_bytes:
            victim = next(
                (b for b in self._cache if b not in self._pins), None
            )
            if victim is None:  # pragma: no cover - guarded by the check above
                raise RuntimeError("all cached blocks are pinned")
            self._evict(victim)
        self._cache[block.block_id] = block
        self._resident += nbytes
        if self._resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident

    def _disk_io(self, name: str, nbytes: int, direction: str) -> None:
        if self._deferred is not None:
            self._deferred.append((name, nbytes, direction))
        else:
            self.charge([(name, nbytes, direction)])

    def _drop(self, block_id: int) -> None:
        block = self._cache.pop(block_id, None)
        if block is not None:
            self._resident -= block.nbytes

    def _evict(self, block_id: int) -> None:
        block = self._cache[block_id]
        with span("stream.evict", block=block_id, bytes=block.nbytes):
            if block_id not in self._on_disk:
                self._spill(block)
            self._drop(block_id)

    def _spill(self, block: ColumnBlock) -> None:
        raw = block.to_bytes()
        atomic_write_bytes(self.block_path(block.block_id), raw)
        self._on_disk.add(block.block_id)
        self._counter(
            "blocks_spilled_total", "column blocks written to the disk tier"
        ).inc(1)
        self._disk_io("spill_block", len(raw), "write")

    def _fetch(self, block_id: int) -> ColumnBlock:
        path = self.block_path(block_id)
        with span("stream.fetch", block=block_id):
            raw: bytes | None
            try:
                raw = path.read_bytes()
            except OSError:
                raw = None
            if raw is not None:
                try:
                    block = ColumnBlock.from_bytes(raw)
                    self._disk_io("fetch_block", len(raw), "read")
                    self._counter(
                        "blocks_fetched_total",
                        "column blocks read back from the disk tier",
                    ).inc(1)
                    return block
                except TornBlockError:
                    self._counter(
                        "blockstore_torn_skipped_total",
                        "torn/corrupt block files skipped and rebuilt",
                    ).inc(1)
                    try:
                        path.unlink()
                    except OSError:
                        pass
            # missing or torn: rebuild from the source matrix
            if self._materializer is None:
                raise TornBlockError(
                    f"block {block_id} unreadable and no materializer set"
                )
            block = self._materializer(block_id)
            self._on_disk.discard(block_id)
            self._counter(
                "blocks_rematerialized_total",
                "blocks rebuilt from source after a torn or missing file",
            ).inc(1)
            return block
