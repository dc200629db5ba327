"""Out-of-core training: datasets larger than device memory.

The paper's answer to the Titan X's 12 GB is RLE compression (Section
III-C); when even the compressed sorted lists do not fit, the run simply
cannot happen -- the same wall the dense baseline hits on Table II's large
datasets.  This module removes that wall in the natural way the paper's
layout permits: the attribute lists are **column-sharded into groups that
fit individually**, kept in host memory, and streamed over PCIe group by
group at every level.

Per level:

1. for each resident group: upload its current lists (PCIe), find the best
   split of every node among its attributes (the unmodified kernels of
   :mod:`repro.core.split`), download the per-node winners (tiny);
2. combine winners across groups on the host (same tie rule as multi-GPU:
   strict gain, then lowest global attribute);
3. re-upload each group to partition its lists, then download the
   partitioned lists back to host.

The trainer is :class:`~repro.core.trainer.GPUGBDTTrainer` with one column
shard per group, all on the one device; the shared grow loop runs the steps
above and the streaming is charged through its ``_page_in`` /
``_exchange_winners`` / ``_page_out`` hooks.  The trees are identical to
in-memory training (asserted by tests) -- also under row/column subsampling
and warm starts -- because the algorithm is still exact; only the PCIe
traffic grows.  The modeled-time overhead quantifies what the paper's
"reduce data transferring between CPUs and GPUs" advice is worth.

.. note::
   This column-group streamer keeps every group resident in host memory;
   it moves the *device*-memory wall but not the host one, and re-uploads
   whole groups every level.  For true out-of-core training -- disk-backed
   blocks under a hard host-cache budget, with prefetch overlap -- prefer
   :mod:`repro.stream` (:class:`repro.stream.StreamingHistTrainer`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.params import GBDTParams
from ..core.trainer import ColumnShard, GPUGBDTTrainer
from ..data.matrix import CSRMatrix
from ..data.sorted_columns import build_sorted_columns
from ..gpusim.device import TITAN_X_PASCAL, DeviceSpec
from ..gpusim.kernel import GpuDevice
from ..gpusim.memory import DeviceOutOfMemory
from .multigpu import _comm, build_column_shard

__all__ = ["OutOfCoreGBDTTrainer", "plan_column_groups"]


def plan_column_groups(
    col_nnz: np.ndarray,
    work_scale: float,
    budget_bytes: float,
    *,
    bytes_per_entry: float = 8.0,
) -> List[np.ndarray]:
    """Greedy first-fit packing of attributes into device-sized groups.

    ``col_nnz`` holds per-attribute present counts at run scale;
    ``work_scale`` lifts them to full scale.  Attributes are packed in
    order (keeping groups contiguous-ish for coalesced uploads) such that
    each group's full-scale list bytes stay under ``budget_bytes``.
    """
    if budget_bytes <= 0:
        raise ValueError("budget must be positive")
    groups: List[List[int]] = [[]]
    acc = 0.0
    for j, nnz in enumerate(col_nnz):
        b = float(nnz) * work_scale * bytes_per_entry
        if b > budget_bytes:
            raise DeviceOutOfMemory(
                f"attribute {j} alone needs {b / 2**30:.2f} GiB "
                f"of the {budget_bytes / 2**30:.2f} GiB group budget"
            )
        if acc + b > budget_bytes and groups[-1]:
            groups.append([])
            acc = 0.0
        groups[-1].append(j)
        acc += b
    return [np.asarray(g, dtype=np.int64) for g in groups if g]


class OutOfCoreGBDTTrainer(GPUGBDTTrainer):
    """Exact GBDT training with host-resident, group-streamed columns.

    Parameters
    ----------
    params, spec, work_scale, seg_scale, row_scale:
        As in the other trainers.
    group_budget_bytes:
        Device bytes one resident column group may occupy.  Defaults to
        roughly half the device memory (lists + working buffers).
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        spec: DeviceSpec = TITAN_X_PASCAL,
        *,
        work_scale: float = 1.0,
        seg_scale: float = 1.0,
        row_scale: float = 1.0,
        group_budget_bytes: float | None = None,
    ) -> None:
        super().__init__(
            params,
            GpuDevice(spec, work_scale=work_scale, seg_scale=seg_scale),
            row_scale=row_scale,
        )
        self.group_budget_bytes = (
            float(group_budget_bytes)
            if group_budget_bytes is not None
            else spec.global_mem_bytes * 0.5
        )
        self.n_groups_: int | None = None
        self.used_rle = False

    # ------------------------------------------------------------------ hooks
    def _build_shards(self, X: CSRMatrix) -> Tuple[List[ColumnShard], bool]:
        """Pack columns into device-sized groups kept in host memory."""
        device = self.device
        csc = X.to_csc()
        groups = plan_column_groups(
            np.diff(csc.indptr), device.work_scale, self.group_budget_bytes
        )
        self.n_groups_ = len(groups)
        self.used_rle = self._decide_rle(build_sorted_columns(csc))
        # group state lives on the HOST; the device holds one group at a time
        shards = [build_column_shard(csc, a, device, self.used_rle) for a in groups]
        n_full = X.n_rows * self.row_scale
        device.memory.alloc("resident_group", self.group_budget_bytes)
        device.memory.alloc("gradients_gh", n_full * 8)
        device.memory.alloc("predictions", n_full * 4)
        device.memory.alloc("instance_to_node", n_full * 4)
        return shards, self.used_rle

    def _round_span_attrs(self) -> dict:
        return {"groups": self.n_groups_, "rle": self.used_rle}

    def _group_bytes(self, shard: ColumnShard) -> float:
        """Current list bytes of a group (values/runs + instance ids)."""
        value_bytes = shard.rle.n_runs * 8 if self.used_rle else shard.vals.size * 4
        return value_bytes + shard.inst.size * 4

    def _stream(self, shard: ColumnShard, op: str, direction: str) -> None:
        nbytes = self._group_bytes(shard)
        self.device.transfer(op, nbytes, direction=direction)
        # the transfer is work_scale-extrapolated; the counter must report
        # the same full-scale bytes
        _comm("outofcore", op, nbytes * self.device.work_scale)

    def _page_in(self, shard: ColumnShard) -> None:
        self._stream(shard, "stream_group_in", "h2d")

    def _exchange_winners(self, shard: ColumnShard, n_active: int) -> None:
        self.device.transfer(
            "download_group_winners", n_active * 64, direction="d2h", scale=False
        )
        _comm("outofcore", "download_group_winners", n_active * 64)

    def _page_out(self, shard: ColumnShard) -> None:
        self._stream(shard, "stream_group_out", "d2h")
