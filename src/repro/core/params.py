"""Training hyper-parameters every trainer honours.

Algorithm 1 of the paper is parameterized by the maximum depth ``d``, the
number of trees ``T``, the valid-split threshold ``gamma`` and the
regularization constant ``lambda`` of Eq. (2); the case study (Section IV-E)
adds the learning rate ``eta``.  :class:`GBDTParams` holds those, the loss,
the row samplers and the gradient switch -- the fields every trainer either
honours or rejects with a ``ValueError``:

==================================  =========================================
``subsample``, ``colsample_bytree``  uniform row/column draw (exact family)
``goss_a``, ``goss_b``              GOSS row sampling (histogram family)
``use_smartgd``                     gradients from intermediate results, no
                                    tree traversal (Section III-B)
==================================  =========================================

The switches of the exact kernels the Fig. 9 ablation turns off (RLE,
Directly-Split-RLE, customized SetKey, the IdxComp workload) are keywords
of :class:`~repro.core.trainer.GPUGBDTTrainer`, the trainer that runs those
kernels -- as ``max_bins``, ``grow_policy`` and ``use_subtraction`` are
keywords of the histogram trainer.
"""

from __future__ import annotations

import dataclasses

from ..losses import Loss, get_loss

__all__ = ["GBDTParams"]


@dataclasses.dataclass
class GBDTParams:
    """Hyper-parameters for every trainer in this package.

    Defaults follow the paper's main experimental setting: depth 6, 40
    trees, MSE loss, exact (non-approximate) split finding.
    """

    # -- Algorithm 1 inputs --------------------------------------------------
    n_trees: int = 40
    max_depth: int = 6
    gamma: float = 0.0  # minimum gain for a valid split (strict >)
    lambda_: float = 1.0  # L2 regularization of Eq. (2)
    learning_rate: float = 0.3  # eta (case study, Section IV-E)
    loss: str | Loss = "squared_error"
    #: stochastic GBM (off by default -- the paper trains deterministically)
    subsample: float = 1.0  # rows per tree
    colsample_bytree: float = 1.0  # attributes per tree
    #: gradient-based one-side sampling (GOSS; Ke et al. / Ou 2005.09148).
    #: ``goss_a`` keeps the top-a fraction of rows by |gradient| each round;
    #: the remaining low-|g| rows are sampled at rate ``goss_b`` and their
    #: gradient/hessian amplified by (1-a)/b so the histogram totals stay
    #: unbiased.  a=1 disables GOSS entirely (the default: exact training).
    #: The histogram trainers implement GOSS (both grow policies, in memory
    #: or streamed); every other trainer rejects ``goss_a < 1``.
    goss_a: float = 1.0
    goss_b: float = 0.1
    #: SmartGD (Section III-B) vs. tree-traversal gradients
    use_smartgd: bool = True

    # -- misc -----------------------------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be >= 0")
        if not (0 < self.learning_rate <= 1):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (0 < self.subsample <= 1):
            raise ValueError("subsample must be in (0, 1]")
        if not (0 < self.colsample_bytree <= 1):
            raise ValueError("colsample_bytree must be in (0, 1]")
        if not (0 < self.goss_a <= 1):
            raise ValueError("goss_a must be in (0, 1]")
        if self.goss_a < 1:
            if self.goss_b <= 0:
                raise ValueError("goss_b must be > 0 when goss_a < 1")
            if self.goss_a + self.goss_b > 1:
                raise ValueError("goss_a + goss_b must be <= 1")
        elif not (0 <= self.goss_b <= 1):
            raise ValueError("goss_b must be in [0, 1]")
        # resolve the loss eagerly so bad names fail at construction
        self.loss_fn: Loss = get_loss(self.loss)

    def replace(self, **kwargs) -> "GBDTParams":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **kwargs)

    def to_config(self) -> dict:
        """JSON-serializable view of every field, for digesting/persisting.

        The ``loss`` field is normalized to the resolved loss's registry
        name so ``"mse"`` and ``"squared_error"`` (and a passed-in instance)
        digest identically.
        """
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = self.loss_fn.name if f.name == "loss" else value
        return out
