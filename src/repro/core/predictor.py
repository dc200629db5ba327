"""The GPU prediction kernel (Section III-D).

Although SmartGD removes prediction from the *training* loop, the paper
still ships a parallel predictor for scoring unseen data: "we do both
instance level and tree level parallelism (i.e., one GPU thread predicts the
partial target value of an instance using one tree)", followed by a
reduction summing the per-tree partial predictions.

This module charges that kernel to the simulator; the values themselves
come from the ensemble's exact traversal (:class:`~repro.serve.FlatEnsemble`).
The cost charged is one thread per (instance, tree) pair doing depth-many
irregular node fetches -- precisely the traffic SmartGD avoids during
training.
"""

from __future__ import annotations

from ..gpusim.kernel import GpuDevice

__all__ = ["charge_prediction_kernels"]


def charge_prediction_kernels(
    device: GpuDevice,
    *,
    n_rows: float,
    n_trees: int,
    avg_depth: float,
    row_scale: float = 1.0,
) -> None:
    """Record the Section III-D prediction kernels on ``device``'s ledger.

    The serving path (:class:`~repro.serve.batcher.MicroBatcher`) charges
    every flush through it.
    """
    rows = n_rows * row_scale
    n_trees = max(n_trees, 1)
    with device.phase("predict"):
        # one thread per (instance, tree): traversal fetches a node record
        # (~24 B) and an attribute value (~8 B) per level, data-dependent
        device.launch(
            "predict_instance_x_tree",
            elements=rows * n_trees,
            flops_per_element=4.0 * avg_depth,
            coalesced_bytes=rows * n_trees * 4,
            irregular_bytes=rows * n_trees * avg_depth * 32,
            scale=False,
        )
        # sum the per-tree partial predictions (parallel reduction [12])
        device.launch(
            "reduce_partial_predictions",
            elements=rows * n_trees,
            flops_per_element=1.0,
            coalesced_bytes=rows * n_trees * 4 + rows * 4,
            scale=False,
        )
        device.transfer("download_predictions", rows * 4, direction="d2h", scale=False)

