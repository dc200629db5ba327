"""Case study (i): frequent model updates for credit-risk prediction.

The paper (Section IV-E i) motivates GPU-GBDT with online learning: a card
processor retrains on a rolling window as transactions stream in, and the
work [18] it cites needs ~27 CPU-minutes per refresh at 211,357 x 8,990 --
too slow to react to fraud.

This example simulates the rolling-window loop: every "hour" a batch of new
transactions arrives, the window slides, and the model is refreshed.  Each
refresh is served three ways -- **warm-start** boosting a few more rounds
onto the serving ensemble (`fit(..., init_model=)`), retraining
from scratch on the simulated Titan X, and retraining on the 40-thread CPU
model -- so the output shows how many refreshes per hour each strategy
sustains.
"""

import dataclasses

import numpy as np

from repro import GBDTParams, make_dataset, rmse
from repro.bench.harness import run_cpu_baseline, run_gpu_gbdt
from repro.data.matrix import CSRMatrix

REFRESHES = 3
REFRESH_TREES = 2


def sliding_window(X: CSRMatrix, y, start: int, size: int):
    idx = np.arange(start, start + size) % X.n_rows
    idx = np.sort(idx)
    return X.select_rows(idx), y[idx]


def main() -> None:
    # a credit-card-shaped dataset: sparse engineered features
    base = make_dataset("real-sim", run_rows=1600, seed=8)
    ds = dataclasses.replace(
        base,
        spec=dataclasses.replace(
            base.spec, name="credit-risk", n_full=211_357, d_full=8_990, density_full=0.05
        ),
    )
    params = GBDTParams(n_trees=10, max_depth=6)

    window = ds.X.n_rows // 2
    print(f"rolling-window refresh loop ({REFRESHES} refreshes):")
    print(f"  window = {window} rows (stands in for ~105k full-scale rows)")
    print(
        f"  warm-start adds {REFRESH_TREES} trees per refresh; "
        f"from-scratch retrains all {params.n_trees}\n"
    )

    # the serving model everyone starts from (common cost, not timed below)
    Xw, yw = sliding_window(ds.X, ds.y, 0, window)
    serving = run_gpu_gbdt(dataclasses.replace(ds, X=Xw, y=yw), params).model

    warm_total = gpu_total = cpu_total = 0.0
    for step in range(1, REFRESHES + 1):
        Xw, yw = sliding_window(ds.X, ds.y, step * window // 2, window)
        wds = dataclasses.replace(ds, X=Xw, y=yw)
        warm = run_gpu_gbdt(
            wds, params.replace(n_trees=REFRESH_TREES), init_model=serving
        )
        serving = warm.model
        gpu = run_gpu_gbdt(wds, params)
        _, forty, _ = run_cpu_baseline(wds, params)
        warm_total += warm.seconds
        gpu_total += gpu.seconds
        cpu_total += forty.seconds
        err_warm = rmse(ds.y_test, serving.predict(ds.X_test))
        err_gpu = rmse(ds.y_test, gpu.model.predict(ds.X_test))
        print(
            f"  refresh {step}: warm-start {warm.seconds:6.2f}s "
            f"| GPU scratch {gpu.seconds:6.2f}s | xgbst-40 {forty.seconds:6.2f}s "
            f"| holdout RMSE {err_warm:.4f} (warm) vs {err_gpu:.4f} (scratch)"
        )

    def per_hour(total: float) -> float:
        return 3600 / (total / REFRESHES)

    print(
        f"\nper refresh: warm-start {warm_total / REFRESHES:.2f}s vs "
        f"GPU scratch {gpu_total / REFRESHES:.2f}s vs CPU {cpu_total / REFRESHES:.2f}s"
    )
    print(
        f"refreshes/hour: {per_hour(warm_total):,.0f} warm-start vs "
        f"{per_hour(gpu_total):,.0f} GPU scratch vs {per_hour(cpu_total):,.0f} CPU "
        f"({gpu_total / warm_total:.1f}x more than scratch, "
        f"{cpu_total / warm_total:.1f}x more than CPU)"
    )
    print("paper's framing: GPU-GBDT 'can respond new credit risk and prevent "
          "invalid transactions more timely'")


if __name__ == "__main__":
    main()
