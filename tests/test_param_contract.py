"""The parameter contract: every device trainer honours each ``GBDTParams``
field it accepts, or rejects it loudly.

For every trainer and field, changing the field from its value in a base
configuration must change the model (``to_json()``) or the modeled device
seconds, or else raise ``ValueError``.  Each field is changed where it can
act: ``goss_b`` only under GOSS (``goss_a < 1``), ``seed`` only under a
sampler.  The exact kernels' Fig. 9 switches are keywords of the exact
family's trainers, which must honour them; the histogram family has no
such keywords and fails to construct with one.
"""

import dataclasses

import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.cpu.gpu_xgboost import DenseGpuXgboostTrainer
from repro.data import make_dataset
from repro.dist import DistributedHistTrainer
from repro.ext import MultiGpuGBDTTrainer, OutOfCoreGBDTTrainer
from repro.gpusim.device import A100_80GB
from repro.gpusim.kernel import GpuDevice
from repro.stream import StreamingHistTrainer

TRAINERS = {
    "exact": lambda p: GPUGBDTTrainer(p),
    "multigpu": lambda p: MultiGpuGBDTTrainer(p, n_devices=2),
    "outofcore": lambda p: OutOfCoreGBDTTrainer(p),
    "dense": lambda p: DenseGpuXgboostTrainer(p),
    "histogram": lambda p: HistogramGBDTTrainer(p),
    "stream": lambda p: StreamingHistTrainer(p, block_rows=256),
    "dist": lambda p: DistributedHistTrainer(p, n_workers=2),
}

BASE = GBDTParams(n_trees=2, max_depth=3)

#: case id -> (field, base-configuration overrides, changed value)
FIELD_CASES = {
    "n_trees": ("n_trees", {}, 3),
    "max_depth": ("max_depth", {}, 2),
    "gamma": ("gamma", {}, 50.0),
    "lambda_": ("lambda_", {}, 10.0),
    "learning_rate": ("learning_rate", {}, 0.1),
    "loss": ("loss", {}, "logistic"),
    "subsample": ("subsample", {}, 0.7),
    "colsample_bytree": ("colsample_bytree", {}, 0.5),
    "goss_a": ("goss_a", {"goss_b": 0.2}, 0.2),
    "goss_b": ("goss_b", {"goss_a": 0.2}, 0.4),
    "use_smartgd": ("use_smartgd", {}, False),
    "seed-subsample": ("seed", {"subsample": 0.7}, 5),
    "seed-goss": ("seed", {"goss_a": 0.2, "goss_b": 0.2}, 5),
}


@pytest.fixture(scope="module")
def data():
    ds = make_dataset("covtype", run_rows=800, seed=1)
    return ds.X, ds.y


def _modeled_seconds(trainer) -> float:
    devices = (
        getattr(trainer, "devices_", None)
        or getattr(trainer, "devices", None)
        or [trainer.device]
    )
    return max(d.elapsed_seconds() for d in devices)


@pytest.fixture(scope="module")
def run(data):
    """``run(trainer name, params)``: ``(to_json, modeled seconds)`` of one
    fit, or ``"ValueError"``; each configuration is fitted once."""
    cache = {}

    def fit(name: str, params: GBDTParams):
        key = (name, tuple(sorted(params.to_config().items())))
        if key not in cache:
            try:
                trainer = TRAINERS[name](params)
                model = trainer.fit(*data)
                cache[key] = (model.to_json(), _modeled_seconds(trainer))
            except ValueError:
                cache[key] = "ValueError"
        return cache[key]

    return fit


def test_cases_cover_every_field():
    fields = {f.name for f in dataclasses.fields(GBDTParams)}
    assert {field for field, _, _ in FIELD_CASES.values()} == fields


@pytest.mark.parametrize("case", sorted(FIELD_CASES))
@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_every_field_is_honoured_or_rejected(run, name, case):
    field, shape, value = FIELD_CASES[case]
    base = BASE.replace(**shape)
    assert getattr(base, field) != value
    changed = run(name, base.replace(**{field: value}))
    if changed != "ValueError":
        assert changed != run(name, base), (
            f"{name} accepts {field}={value!r} but neither the model nor the "
            "modeled seconds move"
        )


#: scales at which SetKey (> #SM x C segments) and the IdxComp workload
#: (counters over 2^30 bytes) bind, on a device large enough to hold them
SCALES = dict(work_scale=2e5, seg_scale=1e3)
EXACT_FAMILY = {
    "exact": lambda p, **kw: GPUGBDTTrainer(p, GpuDevice(A100_80GB, **SCALES), **kw),
    "multigpu": lambda p, **kw: MultiGpuGBDTTrainer(p, 2, A100_80GB, **SCALES, **kw),
    "outofcore": lambda p, **kw: OutOfCoreGBDTTrainer(p, A100_80GB, **SCALES, **kw),
}

#: the exact kernels' switches, each off (covtype compresses under the
#: default RLE policy)
KERNEL_OPTIONS = {
    "rle_policy": "never",
    "use_direct_rle": False,
    "use_custom_setkey": False,
    "use_custom_workload": False,
}


@pytest.mark.parametrize("option", sorted(KERNEL_OPTIONS))
@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_exact_family_honours_kernel_options(data, name, option):
    X, y = data
    make = EXACT_FAMILY[name]
    runs = []
    for kw in ({}, {option: KERNEL_OPTIONS[option]}):
        trainer = make(BASE, **kw)
        runs.append((trainer.fit(X, y).to_json(), _modeled_seconds(trainer)))
    assert runs[0] != runs[1]


@pytest.mark.parametrize("name", sorted(EXACT_FAMILY))
def test_exact_family_rejects_unknown_rle_policy(name):
    with pytest.raises(ValueError, match="rle_policy"):
        EXACT_FAMILY[name](BASE, rle_policy="maybe")


@pytest.mark.parametrize("option", sorted(KERNEL_OPTIONS))
@pytest.mark.parametrize("name", ["histogram", "stream", "dist"])
def test_histogram_family_rejects_exact_kernel_options(name, option):
    make = {
        "histogram": HistogramGBDTTrainer,
        "stream": StreamingHistTrainer,
        "dist": DistributedHistTrainer,
    }[name]
    with pytest.raises(TypeError, match=option):
        make(BASE, **{option: KERNEL_OPTIONS[option]})
