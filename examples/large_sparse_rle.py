"""Why RLE + sparse layout matters: training where the dense baseline dies.

Section III-C's claim in one script: on a news20-like dataset (20k x 1.36M,
0.034% dense) the dense-representation GPU XGBoost needs hundreds of GB and
aborts with device OOM, while GPU-GBDT's compressed sorted lists fit in the
Titan X's 12 GB with room to spare.  Also contrasts the Fig. 6 vs Fig. 7
splitting strategies on a compressible dataset.
"""

from repro import GBDTParams, make_dataset
from repro.bench.harness import run_gpu_gbdt, run_xgb_gpu
from repro.cpu.gpu_xgboost import dense_device_bytes
from repro.gpusim.device import GIB, TITAN_X_PASCAL


def main() -> None:
    params = GBDTParams(n_trees=8, max_depth=6)

    # --- the memory story on news20 -------------------------------------
    ds = make_dataset("news20", seed=2)
    print(ds.describe())
    need = dense_device_bytes(ds.spec.n_full, ds.spec.d_full, params.max_depth)
    print(f"\ndense representation would need {need / GIB:,.0f} GiB "
          f"(device has {TITAN_X_PASCAL.global_mem_bytes / GIB:.0f} GiB)")

    dense_res = run_xgb_gpu(ds, params)
    print(f"xgbst-gpu: {dense_res.status.upper()} -- {dense_res.notes}")

    ours = run_gpu_gbdt(ds, params)
    mem = ours.device.memory
    print(f"GPU-GBDT : trained in {ours.seconds:.2f} modeled s, "
          f"peak device memory {mem.peak_bytes / GIB:.2f} GiB")
    print(ours.device.memory.report())

    # --- RLE splitting strategies on compressible data -------------------
    print("\n--- Directly-Split-RLE (Fig. 7) vs decompress/recompress (Fig. 6) ---")
    ins = make_dataset("insurance", run_rows=2000, seed=2)
    direct = run_gpu_gbdt(ins, params, rle_policy="always")
    decomp = run_gpu_gbdt(ins, params, rle_policy="always", use_direct_rle=False)
    print(f"{ins.name}: direct {direct.seconds:.2f}s vs decompress {decomp.seconds:.2f}s "
          f"(+{(decomp.seconds / direct.seconds - 1) * 100:.0f}% without the Fig. 7 trick)")

    norle = run_gpu_gbdt(ins, params, rle_policy="never")
    print(f"{ins.name}: disabling RLE entirely costs "
          f"+{(norle.seconds / direct.seconds - 1) * 100:.0f}%")


if __name__ == "__main__":
    main()
