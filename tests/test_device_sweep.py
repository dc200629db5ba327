"""Cross-device test: the P100/K20 validation note of Section IV."""

from repro import GBDTParams, TESLA_K20, TESLA_P100, TITAN_X_PASCAL
from repro.bench.experiments import run_device_sweep
from repro.bench.harness import run_gpu_gbdt
from repro.data import make_dataset


class TestDeviceOrdering:
    def test_faster_devices_train_faster(self):
        """K20 < Titan X < P100 in training throughput."""
        ds = make_dataset("susy", run_rows=500)
        p = GBDTParams(n_trees=4, max_depth=5)
        times = {
            spec.name: run_gpu_gbdt(ds, p, spec=spec).seconds
            for spec in (TESLA_K20, TITAN_X_PASCAL, TESLA_P100)
        }
        assert times["Tesla P100"] < times["Titan X (Pascal)"] < times["Tesla K20"]

    def test_k20_memory_is_tighter(self):
        """The 5 GB K20 OOMs on workloads the 12 GB Titan X can hold --
        a Kaggle-scale categorical dataset (17M x 142) needs ~10 GB."""
        import dataclasses

        base = make_dataset("insurance", run_rows=300)
        ds = dataclasses.replace(
            base,
            spec=dataclasses.replace(
                base.spec, n_full=17_000_000, d_full=142, density_full=0.9
            ),
        )
        p = GBDTParams(n_trees=1, max_depth=6)
        titan = run_gpu_gbdt(ds, p, spec=TITAN_X_PASCAL)
        k20 = run_gpu_gbdt(ds, p, spec=TESLA_K20)
        assert titan.ok
        assert not k20.ok

    def test_sweep_experiment(self):
        res = run_device_sweep(quick=True, names=("susy",))
        assert res.xs == ["Tesla K20", "Titan X (Pascal)", "Tesla P100"]
        sus = res.series["susy"]
        assert sus[0] == 1.0
        assert sus[0] < sus[1] < sus[2]
