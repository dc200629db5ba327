"""Multi-GPU GBDT training (the paper's stated future work, Section VI).

"Our algorithm is naturally applicable to multiple GPUs or GPU clusters,
and we consider this direction as our future work."  This module implements
the natural extension: **attribute-parallel** training, the layout later
adopted by ThunderGBM.  Attributes are sharded round-robin across devices;
every device holds the full instance set but only its attributes' sorted
(optionally RLE-compressed) lists.

The trainer is :class:`~repro.core.trainer.GPUGBDTTrainer` with one column
shard per device; the shared grow loop does, per level:

1. every device finds the best split of every active node *among its own
   attributes* (the unmodified single-GPU kernels of
   :mod:`repro.core.split`);
2. the per-node winners are combined across devices (an allreduce of a few
   dozen bytes per node; ties break to the globally lowest attribute, the
   single-GPU rule);
3. the device owning each winning attribute materializes the instance
   routing and the side array is broadcast (1 byte per instance per peer,
   charged as PCIe traffic);
4. every device partitions its own lists locally.

Gradients are computed on device 0 and broadcast each round.  The trees are
bit-identical to single-GPU training (asserted by ``tests/test_multigpu.py``)
because every decision consumes the same float32-quantized gains -- also
under row/column subsampling and warm starts, which come with the loop.

The modeled wall time is the slowest device's ledger (shards are balanced,
communication is charged to the devices that perform it).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.params import GBDTParams
from ..core.trainer import ColumnShard, GPUGBDTTrainer
from ..data.matrix import CSCMatrix, CSRMatrix
from ..data.rle import encode_segments
from ..data.sorted_columns import build_sorted_columns
from ..gpusim.device import TITAN_X_PASCAL, DeviceSpec
from ..gpusim.kernel import GpuDevice
from ..obs import get_registry

__all__ = ["MultiGpuGBDTTrainer"]


def _comm(trainer: str, op: str, nbytes: float) -> None:
    """Count inter-device payload bytes next to the ledger charge."""
    get_registry().counter(
        "comm_bytes_total",
        "inter-device communication payload bytes",
        trainer=trainer,
        op=op,
    ).inc(float(nbytes))


def build_column_shard(
    csc: CSCMatrix, attrs: np.ndarray, device: GpuDevice, used_rle: bool
) -> ColumnShard:
    """Sort (on ``device``) and optionally RLE-encode the ``attrs`` columns."""
    idx, val = zip(*(csc.column(j) for j in attrs))
    sub = CSCMatrix(
        np.concatenate(([0], np.cumsum([i.size for i in idx]))),
        np.concatenate(idx),
        np.concatenate(val),
        n_rows=csc.n_rows,
    )
    cols = build_sorted_columns(sub, device)
    base_rle = encode_segments(cols.values, cols.col_offsets) if used_rle else None
    return ColumnShard(device, attrs, cols, base_rle)


class MultiGpuGBDTTrainer(GPUGBDTTrainer):
    """Attribute-parallel GBDT training over ``n_devices`` simulated GPUs."""

    def __init__(
        self,
        params: GBDTParams | None = None,
        n_devices: int = 2,
        spec: DeviceSpec = TITAN_X_PASCAL,
        *,
        work_scale: float = 1.0,
        seg_scale: float = 1.0,
        row_scale: float = 1.0,
    ) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.devices = [
            GpuDevice(spec, work_scale=work_scale, seg_scale=seg_scale)
            for _ in range(n_devices)
        ]
        super().__init__(params, self.devices[0], row_scale=row_scale)
        self.used_rle = False

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def elapsed_seconds(self) -> float:
        """Modeled wall time: the slowest device (shards run concurrently)."""
        return max(dev.elapsed_seconds() for dev in self.devices)

    # ------------------------------------------------------------------ hooks
    def _build_shards(self, X: CSRMatrix) -> Tuple[List[ColumnShard], bool]:
        """Round-robin attributes over the devices and upload each shard."""
        csc = X.to_csc()
        # one global compression decision so every shard uses the same path
        self.used_rle = self._decide_rle(build_sorted_columns(csc))
        d, k = X.n_cols, self.n_devices
        shards = []
        for di, dev in enumerate(self.devices):
            attrs = np.arange(di, d, k, dtype=np.int64)
            if attrs.size == 0:
                continue  # more devices than attributes: this one idles
            with dev.phase("setup"):
                shard = build_column_shard(csc, attrs, dev, self.used_rle)
                nnz = shard.cols.nnz
                if self.used_rle:
                    dev.launch(
                        "rle_compress_initial",
                        elements=nnz,
                        flops_per_element=2.0,
                        coalesced_bytes=nnz * 8 + shard.base_rle.n_runs * 16,
                    )
                    value_bytes = shard.base_rle.n_runs * 8
                else:
                    value_bytes = nnz * 4
                dev.transfer("upload_shard", nnz * 4 + value_bytes)
            shards.append(shard)
        return shards, self.used_rle

    def _round_span_attrs(self) -> dict:
        return {"devices": self.n_devices, "rle": self.used_rle}

    def _share_gradients(self, n: int) -> None:
        nbytes = n * 16 * self.row_scale
        for dev in self.devices[1:]:
            dev.transfer("broadcast_gradients", nbytes, scale=False)
            _comm("multigpu", "broadcast_gradients", nbytes)

    def _exchange_winners(self, shard: ColumnShard, n_active: int) -> None:
        # every device takes part in the allreduce of per-node winners
        nbytes = n_active * 64 * (self.n_devices - 1)
        shard.device.transfer("allreduce_best_splits", nbytes, scale=False)
        _comm("multigpu", "allreduce_best_splits", nbytes)

    def _charge_routing(self, owners: List[ColumnShard], n: int, d: int, split_n) -> None:
        # each winner's device materializes the side array and broadcasts it
        rows = n * self.row_scale
        for shard in owners:
            shard.device.launch(
                "materialize_instance_sides",
                elements=rows,
                flops_per_element=2.0,
                coalesced_bytes=rows * 9,
                scale=False,
            )
            shard.device.transfer(
                "broadcast_side_array", rows * (self.n_devices - 1), scale=False
            )
            _comm("multigpu", "broadcast_side_array", rows * (self.n_devices - 1))
