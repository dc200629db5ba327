"""Beyond the 12 GB wall: out-of-core streaming and newer silicon.

Two answers to "my dataset's sorted lists don't fit on the Titan X":

1. **Stream it** (`repro.ext.outofcore`): shard the attribute lists into
   device-sized column groups kept in host memory and stream them over
   PCIe every level.  Still exact -- identical trees -- just slower by the
   PCIe traffic.
2. **Buy a bigger card** (the A100 what-if preset): 80 GB of HBM2e holds
   the lists outright and its 2 TB/s bandwidth shortens the memory-bound
   kernels.

This example builds a 60M x 142 categorical workload (Kaggle-scale), shows
the in-memory Titan X run dying with OOM, then both remedies working.
"""

import dataclasses

from repro import GBDTParams, make_dataset, models_equal
from repro.bench.harness import run_gpu_gbdt
from repro.ext.outofcore import OutOfCoreGBDTTrainer
from repro.gpusim.device import A100_80GB, GIB, TITAN_X_PASCAL


def main() -> None:
    base = make_dataset("insurance", run_rows=1000, seed=13)
    huge = dataclasses.replace(
        base,
        spec=dataclasses.replace(
            base.spec, name="kaggle-60M", n_full=60_000_000, d_full=142,
            density_full=0.9,
        ),
    )
    params = GBDTParams(n_trees=4, max_depth=6)
    print(huge.describe())
    approx_bytes = huge.spec.nnz_full * 8
    print(f"sorted lists at full scale: ~{approx_bytes / GIB:.0f} GiB "
          f"(Titan X has {TITAN_X_PASCAL.global_mem_bytes / GIB:.0f} GiB)\n")

    # 1. in-memory on the Titan X: OOM
    inmem = run_gpu_gbdt(huge, params, spec=TITAN_X_PASCAL)
    print(f"Titan X in-memory : {inmem.status.upper()} -- {inmem.notes}")

    # 2. out-of-core on the Titan X: works, pays PCIe
    ooc = OutOfCoreGBDTTrainer(
        params, TITAN_X_PASCAL,
        work_scale=huge.work_scale, seg_scale=huge.seg_scale,
        row_scale=huge.row_scale,
    )
    ooc_model = ooc.fit(huge.X, huge.y)
    print(f"Titan X streamed  : OK in {ooc.elapsed_seconds():8.1f} modeled s "
          f"({ooc.n_groups_} column groups)")

    # 3. A100 what-if: fits in memory, and the bandwidth shows
    a100 = run_gpu_gbdt(huge, params, spec=A100_80GB)
    print(f"A100 in-memory    : OK in {a100.seconds:8.1f} modeled s")

    # exactness is never traded away
    same = models_equal(ooc_model, a100.model)
    print(f"\nstreamed and A100 trees identical: {same}")
    print("out-of-core overhead vs A100: "
          f"{ooc.elapsed_seconds() / a100.seconds:.1f}x "
          "(PCIe is the new bottleneck -- Section II-C's point, one order of "
          "magnitude slower than device memory)")


if __name__ == "__main__":
    main()
