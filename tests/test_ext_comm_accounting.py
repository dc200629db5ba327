"""Comm-volume accounting for the ext trainers (multigpu / outofcore).

The attribute-parallel and out-of-core trainers charge their inter-device
traffic to the gpusim ledgers *and* count the same payloads through the obs
metric ``comm_bytes_total{trainer=,op=}``.  These tests pin both books to
each other and -- for multigpu -- to closed-form formulas derived by
replaying the grown trees:

* ``broadcast_gradients``   = n_trees * (k-1) * n * 16 * row_scale
* ``allreduce_best_splits`` = sum over trees and executed levels L of
  n_active(L) * 64 * (k-1) * k          (every shard charges the exchange)
* ``broadcast_side_array``  = sum over trees and levels of
  #owner-shards(L) * n * row_scale * (k-1), where the owner of attribute a
  under round-robin sharding is device ``a % k`` and a shard charges only
  when it owns at least one winning split at that level.

n_active(L) is the node count at depth L of the final tree -- exact because
the depthwise loop enters level L iff any node exists there, and charges the
allreduce before deciding leaves.
"""

import numpy as np

from repro import GBDTParams
from repro.data import make_dataset
from repro.ext.multigpu import MultiGpuGBDTTrainer
from repro.ext.outofcore import OutOfCoreGBDTTrainer
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer


def _counter_value(registry, trainer, op):
    return registry.counter("comm_bytes_total", trainer=trainer, op=op).value


def _ledger_bytes(devices, name):
    return sum(
        t.nbytes for dev in devices for t in dev.ledger.transfers if t.name == name
    )


class TestMultiGpuAccounting:
    K = 3

    def _train(self, k=K, n_trees=3, max_depth=4):
        registry = MetricsRegistry(max_label_sets=1024)
        tracer = Tracer(enabled=True)
        with use_registry(registry), use_tracer(tracer):
            ds = make_dataset("covtype", run_rows=400, seed=3)
            trainer = MultiGpuGBDTTrainer(
                GBDTParams(n_trees=n_trees, max_depth=max_depth, seed=7),
                n_devices=k,
            )
            model = trainer.fit(ds.X, ds.y)
        return ds, trainer, model, registry, tracer

    def _analytic(self, ds, trainer, model):
        n = ds.X.shape[0]
        k = trainer.n_devices
        p = trainer.params
        rs = trainer.row_scale
        bg = p.n_trees * (k - 1) * n * 16 * rs
        ar = 0.0
        bs = 0.0
        for tree in model.trees:
            depths = np.asarray(tree.depth)
            for lvl in range(p.max_depth):
                n_active = int((depths == lvl).sum())
                if n_active == 0:
                    break
                ar += n_active * 64 * (k - 1) * k
                owners = {
                    tree.attr[nid] % k
                    for nid in range(tree.n_nodes)
                    if tree.depth[nid] == lvl and not tree.is_leaf(nid)
                }
                bs += len(owners) * n * rs * (k - 1)
        return {
            "broadcast_gradients": bg,
            "allreduce_best_splits": ar,
            "broadcast_side_array": bs,
        }

    def test_counters_match_ledger_and_formulas(self):
        ds, trainer, model, registry, _ = self._train()
        expected = self._analytic(ds, trainer, model)
        assert expected["broadcast_side_array"] > 0  # workload actually splits
        for op, want in expected.items():
            counted = _counter_value(registry, "multigpu", op)
            ledgered = _ledger_bytes(trainer.devices, op)
            assert counted == ledgered == want, (op, counted, ledgered, want)

    def test_row_scale_scales_row_linear_ops(self):
        registry = MetricsRegistry(max_label_sets=1024)
        with use_registry(registry):
            ds = make_dataset("covtype", run_rows=400, seed=3)
            trainer = MultiGpuGBDTTrainer(
                GBDTParams(n_trees=3, max_depth=4, seed=7),
                n_devices=self.K,
                row_scale=8.0,
            )
            model = trainer.fit(ds.X, ds.y)
        expected = self._analytic(ds, trainer, model)
        for op, want in expected.items():
            assert _counter_value(registry, "multigpu", op) == want, op

    def test_boost_round_spans_recorded(self):
        _, trainer, _, _, tracer = self._train()
        spans = [
            s for s in tracer.snapshot() if s["name"] == "boost_round"
        ]
        assert len(spans) == trainer.params.n_trees
        assert all(s["attrs"]["devices"] == self.K for s in spans)

    def test_single_device_moves_nothing(self):
        ds, trainer, _, registry, _ = self._train(k=1)
        for op in (
            "broadcast_gradients",
            "allreduce_best_splits",
            "broadcast_side_array",
        ):
            assert _counter_value(registry, "multigpu", op) == 0.0
            assert _ledger_bytes(trainer.devices, op) == 0.0


class TestOutOfCoreAccounting:
    def _train(self, work_scale=1.0):
        registry = MetricsRegistry(max_label_sets=1024)
        tracer = Tracer(enabled=True)
        with use_registry(registry), use_tracer(tracer):
            ds = make_dataset("covtype", run_rows=400, seed=3)
            per_col = int(np.diff(ds.X.to_csc().indptr).max()) * 8 * work_scale
            trainer = OutOfCoreGBDTTrainer(
                GBDTParams(n_trees=3, max_depth=4, seed=7),
                group_budget_bytes=int(per_col * 3) + 64,
                work_scale=work_scale,
            )
            model = trainer.fit(ds.X, ds.y)
        return ds, trainer, model, registry, tracer

    def test_counters_match_ledger(self):
        ds, trainer, model, registry, _ = self._train()
        assert trainer.n_groups_ > 1  # actually streaming
        for op in ("stream_group_in", "stream_group_out", "download_group_winners"):
            counted = _counter_value(registry, "outofcore", op)
            ledgered = _ledger_bytes([trainer.device], op)
            assert counted == ledgered > 0, (op, counted, ledgered)

    def test_counters_match_ledger_at_scale(self):
        # stream_group_{in,out} transfers are work_scale-extrapolated in
        # the ledger; the counters must say the same full-scale bytes
        # (download_group_winners is scale=False on both books)
        ds, trainer, model, registry, _ = self._train(work_scale=3.5)
        assert trainer.n_groups_ > 1
        for op in ("stream_group_in", "stream_group_out", "download_group_winners"):
            counted = _counter_value(registry, "outofcore", op)
            ledgered = _ledger_bytes([trainer.device], op)
            assert counted == ledgered > 0, (op, counted, ledgered)

    def test_winner_download_is_analytic(self):
        ds, trainer, model, registry, _ = self._train()
        want = 0.0
        for tree in model.trees:
            depths = np.asarray(tree.depth)
            for lvl in range(trainer.params.max_depth):
                n_active = int((depths == lvl).sum())
                if n_active == 0:
                    break
                want += n_active * 64 * trainer.n_groups_
        assert _counter_value(registry, "outofcore", "download_group_winners") == want

    def test_boost_round_spans_recorded(self):
        _, trainer, _, _, tracer = self._train()
        spans = [
            s for s in tracer.snapshot() if s["name"] == "boost_round"
        ]
        assert len(spans) == trainer.params.n_trees
        assert all(s["attrs"]["groups"] == trainer.n_groups_ for s in spans)
