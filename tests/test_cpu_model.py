"""Tests for the CPU cost model and the xgbst-1/xgbst-40 runners."""

import pytest

from repro import GBDTParams, GpuDevice, TITAN_X_PASCAL
from repro.cpu.model import CpuLedger, CpuOp, CpuTimeModel, translate_gpu_ledger
from repro.cpu.parallel_model import XGBoostCpuRunner
from repro.gpusim.device import XEON_E5_2640V4_X2


class TestCpuOps:
    def test_record(self):
        led = CpuLedger()
        led.record("scan", 1000, streamed_bytes=8000, phase="find_split")
        assert led.total_elements == 1000
        assert led.total_bytes == 8000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CpuOp("x", elements=-1, flops_per_element=1, streamed_bytes=0,
                  random_bytes=0, phase="p")


class TestCpuTimeModel:
    def _op(self, **kw):
        base = dict(name="op", elements=10**7, flops_per_element=4.0,
                    streamed_bytes=8e7, random_bytes=1e7, phase="p", parallel=True)
        base.update(kw)
        return CpuOp(**base)

    def test_more_threads_is_faster(self):
        m = CpuTimeModel(XEON_E5_2640V4_X2)
        op = self._op()
        t1 = m.op_time(op, 1)
        t40 = m.op_time(op, 40)
        assert t40 < t1

    def test_scaling_in_papers_band(self):
        """Table II implies xgbst-1 / xgbst-40 around 6-12x."""
        m = CpuTimeModel(XEON_E5_2640V4_X2)
        led = CpuLedger()
        led.ops.append(self._op(elements=10**9, streamed_bytes=1.5e11, random_bytes=2.5e10))
        ratio = m.total_time(led, 1) / m.total_time(led, 40)
        assert 5.0 < ratio < 13.0

    def test_serial_ops_do_not_scale(self):
        m = CpuTimeModel(XEON_E5_2640V4_X2)
        op = self._op(parallel=False)
        assert m.op_time(op, 40) == m.op_time(op, 1)

    def test_amdahl_serial_fraction_limits_scaling(self):
        m = CpuTimeModel(XEON_E5_2640V4_X2)
        op = self._op(elements=10**10, streamed_bytes=8e10)
        t1, t40 = m.op_time(op, 1), m.op_time(op, 40)
        # can never beat 1/serial_fraction
        assert t1 / t40 < 1.0 / XEON_E5_2640V4_X2.serial_fraction

    def test_random_bytes_cost_more(self):
        m = CpuTimeModel(XEON_E5_2640V4_X2)
        a = m.op_time(self._op(streamed_bytes=1e8, random_bytes=0), 1)
        b = m.op_time(self._op(streamed_bytes=0, random_bytes=1e8), 1)
        assert b > a

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            CpuTimeModel().op_time(self._op(), 0)

    def test_phase_times_sum(self):
        m = CpuTimeModel()
        led = CpuLedger()
        led.record("a", 1000, streamed_bytes=1e6, phase="x")
        led.record("b", 1000, streamed_bytes=1e6, phase="y")
        per = m.phase_times(led, 4)
        assert sum(per.values()) == pytest.approx(m.total_time(led, 4))


class TestTranslate:
    def test_kernels_become_ops_transfers_dropped(self):
        d = GpuDevice(TITAN_X_PASCAL)
        with d.phase("find_split"):
            d.launch("k", elements=100, coalesced_bytes=800, irregular_bytes=80)
        d.transfer("upload", 1e9)
        led = translate_gpu_ledger(d.ledger)
        assert len(led.ops) == 1
        op = led.ops[0]
        assert op.elements == 100
        assert op.streamed_bytes == 800
        assert op.random_bytes == 80
        assert op.phase == "find_split"

    def test_scaled_work_carries_over(self):
        d = GpuDevice(TITAN_X_PASCAL, work_scale=7.0)
        d.launch("k", elements=10)
        led = translate_gpu_ledger(d.ledger)
        assert led.ops[0].elements == 70


class TestRunner:
    def test_profile_disables_rle(self, covtype_small):
        """XGBoost stores plain sorted columns, and its prediction cache
        (SmartGD's role) cannot be switched off."""
        ds = covtype_small
        runner = XGBoostCpuRunner(params=GBDTParams(n_trees=1, max_depth=2))
        runner.fit(ds.X, ds.y)
        assert not any("rle" in op.name for op in runner.ledger.ops)
        with pytest.raises(ValueError, match="prediction cache"):
            XGBoostCpuRunner(params=GBDTParams(use_smartgd=False))

    def test_fit_then_model_times(self, covtype_small):
        ds = covtype_small
        runner = XGBoostCpuRunner(
            params=GBDTParams(n_trees=2, max_depth=3),
            work_scale=ds.work_scale, seg_scale=ds.seg_scale, row_scale=ds.row_scale,
        )
        model = runner.fit(ds.X, ds.y)
        assert model.n_trees == 2
        t1 = runner.modeled_seconds(1)
        t40 = runner.modeled_seconds(40)
        assert 0 < t40 < t1

    def test_parallel_overhead_dominates_tiny_workloads(self, covtype_small):
        """At unscaled (tiny) workloads the fork/join overhead makes many
        threads a net loss -- the reason thread counts are tuned per
        dataset (the paper swept 10/20/40/80 threads)."""
        ds = covtype_small
        runner = XGBoostCpuRunner(params=GBDTParams(n_trees=2, max_depth=3))
        runner.fit(ds.X, ds.y)
        assert runner.modeled_seconds(40) > runner.modeled_seconds(1) * 0.5

    def test_modeled_before_fit_raises(self):
        runner = XGBoostCpuRunner(params=GBDTParams(n_trees=1))
        with pytest.raises(RuntimeError):
            runner.modeled_seconds(1)

    def test_split_finding_dominates_cpu_profile(self, susy_small):
        """Section IV-A: ~75% of XGBoost time in finding the best split."""
        ds = susy_small
        runner = XGBoostCpuRunner(
            params=GBDTParams(n_trees=4, max_depth=5),
            work_scale=ds.work_scale, seg_scale=ds.seg_scale, row_scale=ds.row_scale,
        )
        runner.fit(ds.X, ds.y)
        per = runner.phase_seconds(40)
        assert per["find_split"] == max(per.values())

    def test_trees_equal_gpu_trainer(self, covtype_small):
        """xgbst trees == GPU-GBDT trees (the Table-II RMSE equality)."""
        from repro import GPUGBDTTrainer, models_equal

        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=4)
        runner = XGBoostCpuRunner(params=p)
        cpu_model = runner.fit(ds.X, ds.y)
        gpu_model = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        assert models_equal(cpu_model, gpu_model)


class TestThreadSweep:
    def test_forty_threads_is_the_sweet_spot(self, susy_small):
        """Section IV: 'using 40 threads results in the shortest execution
        time' on the 40-hardware-thread workstation; 80 oversubscribes."""
        ds = susy_small
        runner = XGBoostCpuRunner(
            params=GBDTParams(n_trees=3, max_depth=4),
            work_scale=ds.work_scale, seg_scale=ds.seg_scale, row_scale=ds.row_scale,
        )
        runner.fit(ds.X, ds.y)
        times = {t: runner.modeled_seconds(t) for t in (1, 10, 20, 40, 80)}
        assert min(times, key=times.get) in (20, 40)
        assert times[80] > times[40]
        assert times[10] < times[1]

    def test_sweep_experiment(self):
        from repro.bench.experiments import run_thread_sweep

        res = run_thread_sweep(quick=True)
        series = res.series["xgbst modeled seconds"]
        assert len(series) == 5
        i40 = res.xs.index(40)
        i80 = res.xs.index(80)
        assert series[i80] > series[i40]
