"""Synthetic stand-ins for the paper's eight LibSVM datasets (Table II).

The paper trains on covtype, e2006, higgs, an insurance-claim set, log1p,
news20, real-sim and susy, downloaded from the LibSVM repository.  Those
files are not available offline, so each dataset is replaced by a generator
that matches the statistics its performance behaviour depends on:

* **cardinality / dimensionality** -- declared at full scale (driving the
  memory model, the SetKey segment counts, and work-scale extrapolation)
  while the functional run uses a reduced ``run_rows x run_cols`` sample;
* **density** -- what separates the dense (higgs, susy, insurance) from the
  sparse text datasets (news20, log1p, real-sim, e2006), and hence which
  ones the dense GPU baseline can hold in 12 GB;
* **value repetition** -- attributes draw from a configurable number of
  distinct levels; binary/categorical-heavy sets (covtype, insurance)
  compress well under RLE, continuous sets (higgs, susy) do not;
* **task type** -- binary {0,1} targets trained with MSE (as the paper
  does) or real-valued regression targets.

Targets are a sparse linear-plus-interaction function of a few signal
attributes with noise, so trees genuinely reduce training RMSE and test
error falls with the time budget (Fig. 10b).

Generation is byte-reproducible and never materializes an ``n x d`` array.
The bytes of ``X``, ``X_test``, ``y`` and ``y_test`` (pinned in
``tests/test_datasets.py``) depend on two things that must not change:

* **draw order** -- column by column: ``random(n)`` for the presence mask,
  one ``integers`` row if the column came out empty, then its values; then
  the signal columns, their weights, the target noise and the train/test
  permutation;
* **signal-block layout** -- the targets read the ``k <= 12`` signal columns
  into an F-ordered ``(n, k)`` block, the layout a dense column gather
  gives, because the BLAS mat-vec sums in a layout-dependent order (a
  C-ordered block moves ``y`` by about 1e-15).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from .matrix import CSRMatrix

__all__ = ["DatasetSpec", "Dataset", "TABLE2_SPECS", "TABLE2_NAMES", "make_dataset", "table1_example"]


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Full-scale statistics of one Table-II dataset plus generator knobs."""

    name: str
    n_full: int
    d_full: int
    density_full: float
    task: str  # "binary" | "regression"
    #: distinct values per attribute; 0 means continuous (no repetition)
    levels: int
    #: fraction of attributes that are binary indicators (levels = 2)
    binary_frac: float
    #: default reduced-scale run shape
    run_rows: int
    run_cols: int
    #: density used at run scale (kept >= density_full so reduced columns
    #: still contain enough entries to grow depth-6 trees)
    run_density: float

    def __post_init__(self) -> None:
        if self.task not in ("binary", "regression"):
            raise ValueError(f"bad task {self.task!r}")
        if not (0 < self.density_full <= 1 and 0 < self.run_density <= 1):
            raise ValueError("densities must be in (0, 1]")

    @property
    def nnz_full(self) -> int:
        """Estimated full-scale non-zero count."""
        return int(round(self.n_full * self.d_full * self.density_full))


#: Full-scale statistics follow the LibSVM repository's published numbers.
TABLE2_SPECS: Dict[str, DatasetSpec] = {
    "covtype": DatasetSpec(
        name="covtype", n_full=581_012, d_full=54, density_full=0.22, task="binary",
        levels=64, binary_frac=0.80, run_rows=3000, run_cols=54, run_density=0.22,
    ),
    "e2006": DatasetSpec(
        name="e2006", n_full=16_087, d_full=150_360, density_full=0.0081, task="regression",
        levels=0, binary_frac=0.0, run_rows=2500, run_cols=600, run_density=0.02,
    ),
    "higgs": DatasetSpec(
        name="higgs", n_full=11_000_000, d_full=28, density_full=0.92, task="binary",
        levels=0, binary_frac=0.0, run_rows=4000, run_cols=28, run_density=0.92,
    ),
    "insurance": DatasetSpec(
        name="insurance", n_full=13_184_290, d_full=35, density_full=1.0, task="regression",
        levels=8, binary_frac=0.40, run_rows=3000, run_cols=35, run_density=1.0,
    ),
    "log1p": DatasetSpec(
        name="log1p", n_full=16_087, d_full=4_272_227, density_full=0.0014, task="regression",
        levels=0, binary_frac=0.0, run_rows=2000, run_cols=900, run_density=0.018,
    ),
    "news20": DatasetSpec(
        name="news20", n_full=19_996, d_full=1_355_191, density_full=0.00034, task="binary",
        levels=24, binary_frac=0.30, run_rows=2500, run_cols=1000, run_density=0.012,
    ),
    "real-sim": DatasetSpec(
        name="real-sim", n_full=72_309, d_full=20_958, density_full=0.0024, task="binary",
        levels=24, binary_frac=0.30, run_rows=3000, run_cols=600, run_density=0.015,
    ),
    "susy": DatasetSpec(
        name="susy", n_full=5_000_000, d_full=18, density_full=0.98, task="binary",
        levels=0, binary_frac=0.0, run_rows=4000, run_cols=18, run_density=0.98,
    ),
}

TABLE2_NAMES = tuple(TABLE2_SPECS)


@dataclasses.dataclass
class Dataset:
    """A generated dataset plus its full-scale declaration.

    ``work_scale`` and ``seg_scale`` feed the simulator's extrapolation (see
    :mod:`repro.gpusim.kernel`): element-linear kernel work recorded on the
    reduced run is multiplied by ``work_scale`` and segment-count-driven
    grids by ``seg_scale``.
    """

    spec: DatasetSpec
    X: CSRMatrix
    y: np.ndarray
    X_test: CSRMatrix
    y_test: np.ndarray
    seed: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def task(self) -> str:
        return self.spec.task

    @property
    def work_scale(self) -> float:
        nnz_run = max(self.X.nnz, 1)
        return max(1.0, self.spec.nnz_full / nnz_run)

    @property
    def seg_scale(self) -> float:
        return max(1.0, self.spec.d_full / max(self.X.n_cols, 1))

    @property
    def row_scale(self) -> float:
        """Full rows per run row (for per-instance buffers such as g/h)."""
        return max(1.0, self.spec.n_full / max(self.X.n_rows, 1))

    def describe(self) -> str:
        """One-line run-scale vs full-scale summary."""
        return (
            f"{self.name}: run {self.X.n_rows}x{self.X.n_cols} (nnz={self.X.nnz}), "
            f"full {self.spec.n_full}x{self.spec.d_full} "
            f"(nnz~{self.spec.nnz_full:.3g}), task={self.task}"
        )


def _column_values(
    rng: np.random.Generator, count: int, j: int, spec: DatasetSpec
) -> np.ndarray:
    """Draw ``count`` present values for column ``j`` under the spec's
    repetition profile.  Binary columns emit the constant 1.0 (bag-of-words
    style); quantized columns draw from ``levels`` distinct values;
    continuous columns are uniform floats (no repetition)."""
    n_binary = int(round(spec.run_cols * spec.binary_frac))
    if j < n_binary:
        return np.ones(count)
    if spec.levels > 0:
        grid = np.round(np.linspace(0.1, 4.0, spec.levels), 6)
        return rng.choice(grid, size=count)
    return np.round(rng.uniform(0.0, 4.0, size=count), 9)


def _generate_matrix(rng: np.random.Generator, n: int, spec: DatasetSpec) -> CSRMatrix:
    rows_list = []
    vals_list = []
    for j in range(spec.run_cols):
        present = np.flatnonzero(rng.random(n) < spec.run_density)
        if present.size == 0:
            # keep every column non-empty so it is a real split candidate
            present = rng.integers(0, n, size=1)
        rows_list.append(present)
        vals_list.append(_column_values(rng, present.size, j, spec))
    rows = np.concatenate(rows_list)
    cols = np.repeat(np.arange(spec.run_cols, dtype=np.int64), [r.size for r in rows_list])
    # entries are column-major with rows ascending per column, so a stable
    # sort by row leaves each row's columns ascending: the CSR order
    order = np.argsort(rows.astype(np.min_scalar_type(n)), kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return CSRMatrix(indptr, cols[order], np.concatenate(vals_list)[order], n_cols=spec.run_cols)


def _make_targets(
    rng: np.random.Generator, X: CSRMatrix, spec: DatasetSpec
) -> np.ndarray:
    """Sparse linear + pairwise-interaction target with noise."""
    d = X.n_cols
    k = min(12, d)
    signal_cols = rng.choice(d, size=k, replace=False)
    weights = rng.normal(0.0, 1.0, size=k)
    # the (n, k) signal block, F-ordered as a dense column gather would
    # leave it: the mat-vec below sums in a layout-dependent order
    dense_signal = np.zeros((k, X.n_rows)).T
    slot = np.full(d, -1, dtype=np.int8)
    slot[signal_cols] = np.arange(k)
    entry_slot = slot[X.indices]
    hit = np.flatnonzero(entry_slot >= 0)
    row_of = np.searchsorted(X.indptr, hit, side="right") - 1
    dense_signal[row_of, entry_slot[hit]] = X.data[hit]
    score = dense_signal @ weights
    if k >= 2:
        score = score + 0.5 * dense_signal[:, 0] * dense_signal[:, 1]
    score = score + rng.normal(0.0, 0.25 * (np.std(score) + 1e-9), size=X.n_rows)
    if spec.task == "binary":
        return (score > np.median(score)).astype(np.float64)
    # normalized regression target (keeps RMSEs in the paper's 0.2-0.5 range)
    return (score - score.mean()) / (score.std() + 1e-12)


def make_dataset(
    name: str,
    *,
    run_rows: int | None = None,
    run_cols: int | None = None,
    test_fraction: float = 0.25,
    seed: int = 7,
) -> Dataset:
    """Generate a Table-II dataset stand-in at reduced scale.

    Parameters
    ----------
    name:
        One of :data:`TABLE2_NAMES`.
    run_rows, run_cols:
        Override the spec's default reduced shape (tests use tiny values).
    test_fraction:
        Rows held out for the Fig. 10b test-error-vs-budget experiment.
    seed:
        Generator seed; identical arguments reproduce identical datasets.
    """
    try:
        base = TABLE2_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {TABLE2_NAMES}") from None
    spec = dataclasses.replace(
        base,
        run_rows=run_rows if run_rows is not None else base.run_rows,
        run_cols=min(run_cols if run_cols is not None else base.run_cols, base.d_full),
    )
    if spec.run_rows < 8:
        raise ValueError("run_rows must be at least 8")
    rng = np.random.default_rng(seed)
    n_total = spec.run_rows
    X_all = _generate_matrix(rng, n_total, spec)
    y_all = _make_targets(rng, X_all, spec)
    n_test = int(round(n_total * test_fraction))
    perm = rng.permutation(n_total)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return Dataset(
        spec=spec,
        X=X_all.select_rows(np.sort(train_idx)),
        y=y_all[np.sort(train_idx)],
        X_test=X_all.select_rows(np.sort(test_idx)),
        y_test=y_all[np.sort(test_idx)],
        seed=seed,
    )


def table1_example() -> Tuple[CSRMatrix, np.ndarray]:
    """The paper's 4-instance worked example (Table I) with toy targets.

    >>> X, y = table1_example()
    >>> X.get(3, 2)   # a3 of x4 in the paper's 1-based notation
    2.0
    """
    X = CSRMatrix.from_rows(
        [
            [(2, 0.1)],
            [(0, 1.2), (2, 0.1), (3, 0.6)],
            [(0, 0.5), (1, 1.0)],
            [(0, 1.2), (2, 2.0)],
        ],
        n_cols=4,
    )
    y = np.array([0.0, 1.0, 0.0, 1.0])
    return X, y
