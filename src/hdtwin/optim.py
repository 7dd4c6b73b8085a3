"""Parameter fitting: shuffled mini-batch Adam on the one-step MSE with
early stopping on full-validation loss.

The batching unit is the transition tuple (x, u, y).  Each epoch ends
with one pass over the complete validation set.  Epoch 0 makes no update
and only scores the initial parameters (with max_epochs = 0 that is the
whole fit, the zero-shot ablation); its snapshot is kept even at an
infinite loss, so the returned one is never worse than the initial
parameters.  A later epoch counts as an improvement only when the
validation loss drops by more than 1e-12, which keeps float noise from
resetting the patience window.
FitResult.usable is the one rule for using a fit: no fault, finite loss.

Adam's decay rates and denominator guard are the constants BETA1, BETA2
and EPS (Kingma & Ba's defaults); its learning rate is the one setting.
Parameters, gradients and the moments m and v share one flat layout
(engine.ParamVector): each mini-batch makes one adam_update call over the
whole array and writes it back in place, so the weight views stay valid.
Every mini-batch's gradient is written into one buffer that fit owns.
Each training epoch draws one permutation of the training rows and
gathers each mini-batch's rows on its own, so no copy of the whole
shuffled epoch is held.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from hdtwin.dsl import ModelSpec
from hdtwin.engine import (
    Dataset,
    EvaluationFault,
    Evaluator,
    ParamVector,
    per_component_mse,
    require_integers,
    require_numbers,
)

log = logging.getLogger(__name__)

IMPROVEMENT_EPS = 1e-12
BETA1 = 0.9    # Adam's first-moment decay
BETA2 = 0.999  # Adam's second-moment decay
EPS = 1e-8     # Adam's denominator guard


@dataclass
class OptimConfig:
    lr: float = 0.01
    batch_size: int = 1000
    max_epochs: int = 2000
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "batch_size", "max_epochs", "patience", "seed")
        # a non-finite lr makes every Adam step non-finite, and a fit would
        # report that as a fault of the model
        require_numbers(self, "lr")
        if min(self.lr, self.batch_size, self.patience) <= 0:
            raise ValueError("lr, batch_size and patience must be positive")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0 (got {self.max_epochs})")
        if 0 < self.max_epochs < self.patience:
            raise ValueError("patience cannot exceed max_epochs")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")


@dataclass
class FitResult:
    params: ParamVector
    val_loss: float                  # best validation loss (mean over components)
    component_losses: np.ndarray     # per-component validation MSE at the best epoch
    epochs_run: int
    train_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)  # [epoch 0, epoch 1, ...]
    faulted: bool = False

    @property
    def usable(self) -> bool:
        """The one rule for every caller of fit: no fault, finite val_loss."""
        return not self.faulted and math.isfinite(self.val_loss)


def adam_update(param, grad, m, v, step: int, cfg: OptimConfig):
    """One bias-corrected Adam update; works on scalars and arrays alike."""
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1 ** step)
    v_hat = v / (1.0 - BETA2 ** step)
    param = param - cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return param, m, v


def fit(spec: ModelSpec, init: ParamVector, train: Dataset, val: Dataset,
        cfg: OptimConfig | None = None) -> FitResult:
    """Fit a spec's parameters to training data, returning the snapshot
    with the best full-validation loss.

    The spec is compiled once: one Evaluator serves every mini-batch and
    every validation pass.  A spec that dsl.validate refuses for the
    training schema (one over dsl.PARAM_COUNT_CAP included), or init in
    another layout than the spec's, raises ValueError before any update.
    Each epoch from 1 on draws one permutation of the training rows and
    gathers each mini-batch's slice of it; epoch 0 only validates.

    A non-finite loss or gradient sets the fault flag and returns the best
    snapshot so far (validation loss +inf if none), which is not usable.
    """
    cfg = cfg or OptimConfig()
    ev = Evaluator(spec, train.schema)
    params = init.copy()
    batch_all = train.transitions()
    dt = train.schema.dt
    rng = np.random.default_rng(cfg.seed)
    m, v = np.zeros_like(params.values), np.zeros_like(params.values)
    grads = params.zeros_like()
    step = 0

    best_params, best_val, best_delta = params, float("inf"), np.full(train.schema.d_x, np.inf)
    val_curve: list[float] = []
    train_curve: list[float] = []
    since_improvement = 0
    faulted = False

    n = len(batch_all)
    for epoch in range(cfg.max_epochs + 1):
        epoch_losses = []
        try:
            if epoch:
                order = rng.permutation(n)
                for lo in range(0, n, cfg.batch_size):
                    batch = batch_all.take(order[lo:lo + cfg.batch_size])
                    loss, _ = ev.loss_and_grad(params, batch, dt, out=grads)
                    epoch_losses.append(loss)
                    step += 1
                    params.values[...], m, v = adam_update(params.values, grads.values, m, v,
                                                           step, cfg)
            delta, ups = per_component_mse(ev, params, val)
        except EvaluationFault as fault:
            log.warning("fit faulted at epoch %d: %s", epoch, fault)
            faulted = True
            break
        if epoch:
            train_curve.append(float(np.mean(epoch_losses)))
        val_curve.append(ups)
        if epoch == 0 or ups < best_val - IMPROVEMENT_EPS:  # epoch 0's snapshot even at inf
            best_val = ups
            best_delta = delta
            best_params = params.copy()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= cfg.patience:
                break

    return FitResult(best_params, best_val, best_delta, epoch,
                     train_curve, val_curve, faulted=faulted)
