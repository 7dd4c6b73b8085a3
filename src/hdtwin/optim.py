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

Each fit scores its epochs in a forked validation worker where one can
run beside training: os.fork exists, the process may run on two cores or
more, and it runs no other thread.  Another thread (numpy's BLAS pool at
its default size, a notebook kernel's) already takes the second core when
it runs, and a fork copies the process without its other threads, which
Python 3.12 warns about; so fit forks only from a single-threaded process.
Elsewhere the same loop scores each snapshot in-process when it is
submitted, as fit always did.

The worker is forked once the fit's Evaluator is built and holds a copy
of it and of the validation split.  Each end of its two pipes is a
buffered file, and both directions are pickles, which frame themselves:
a request is the pickled bytes of an epoch's parameter values, and an
answer is the pickled result of per_component_mse or its exception, each
flushed once written.  So epoch e+1 trains while epoch e is scored, and
the loop then applies the rules in epoch order: a validation fault
first, then improvement or patience, then a training fault.  The curves,
epochs_run, the best snapshot and the log lines are those of scoring
each epoch in turn, bit for bit.  The extra
work, with or without the worker: the epoch that trains while patience
runs out or while a faulting epoch is scored, which is discarded, and a
copy of the parameters at every epoch (not only at an improvement); with
the worker also one fork, kill and reap per fit.  The worker is killed
and reaped before fit returns or raises, and one that dies makes fit
raise RuntimeError with its exit status.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
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


def _worker_gets_a_core() -> bool:
    """Whether a forked validation worker can score beside training: the
    process may run on two cores or more and runs no other thread.  Where
    the process cannot tell (no sched_getaffinity, no /proc), it cannot."""
    try:
        return len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        return False


class _ValidationWorker:
    """Scores parameter snapshots of one fit with per_component_mse on its
    validation split: in a forked worker where one gets a core of its own,
    otherwise in-process at submit time.  result() answers the last
    submit, or raises what scoring it raised.  The fit writes pickled
    requests to one pipe and reads pickled answers from the other; a worker
    that dies shows as end-of-file, a truncated answer or a broken pipe."""

    def __init__(self, ev: Evaluator, val: Dataset, params: ParamVector):
        self.ev, self.val = ev, val
        self.pid, self._files = None, ()  # the worker's pid until it is reaped; the fit's pipe ends
        if not (hasattr(os, "fork") and _worker_gets_a_core()):
            return
        val.transitions()  # built once in the parent, so every worker inherits it
        requests, self._requests = os.pipe()
        self._answers, answers = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (requests, self._requests, self._answers, answers):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self._requests)
                os.close(self._answers)
                self._serve(open(requests, "rb"), open(answers, "wb"), params.copy())
                status = 0
            finally:
                os._exit(status)
        os.close(requests)
        os.close(answers)
        self._requests, self._answers = open(self._requests, "wb"), open(self._answers, "rb")
        self._files = (self._requests, self._answers)

    def _score(self, params: ParamVector):
        try:
            return per_component_mse(self.ev, params, self.val)
        except Exception as exc:
            return exc

    def _serve(self, requests, answers, params: ParamVector):
        while True:
            try:
                request = pickle.load(requests)
            except EOFError:  # the fit is over
                return
            params.values[...] = np.frombuffer(request)
            pickle.dump(self._score(params), answers)
            answers.flush()

    def submit(self, params: ParamVector):
        if self.pid is None:
            self._answer = self._score(params)
            return
        try:
            pickle.dump(params.values.tobytes(), self._requests)
            self._requests.flush()
        except BrokenPipeError:
            self._died()

    def result(self) -> tuple[np.ndarray, float]:
        if self.pid is not None:
            try:
                self._answer = pickle.load(self._answers)
            except (EOFError, pickle.UnpicklingError):
                self._died()
        if isinstance(self._answer, Exception):
            raise self._answer
        return self._answer

    def _died(self):
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        raise RuntimeError("the validation worker exited with status "
                           f"{os.waitstatus_to_exitcode(status)}")

    def close(self):
        for f in self._files:
            try:
                f.close()
            except BrokenPipeError:  # a request that a dead worker left unread
                pass
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def fit(spec: ModelSpec, init: ParamVector, train: Dataset, val: Dataset,
        cfg: OptimConfig | None = None) -> FitResult:
    """Fit a spec's parameters to training data, returning the snapshot
    with the best full-validation loss.

    The spec is compiled once: one Evaluator serves every mini-batch and
    every validation pass, the latter through the validation worker's copy
    where fit forks one (see the module docstring: only from a process on
    two cores or more that runs no other thread, so the fork is safe).  A spec that
    dsl.validate refuses for the training schema (one over
    dsl.PARAM_COUNT_CAP included), or init in another layout than the
    spec's, raises ValueError before any update.  Each epoch from 1 on
    draws one permutation of the training rows and gathers each
    mini-batch's slice of it; epoch 0 only validates.

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

    snapshot, losses = params.copy(), []  # the epoch being scored and its training losses
    best_params, best_val, best_delta = snapshot, float("inf"), np.full(train.schema.d_x, np.inf)
    val_curve: list[float] = []
    train_curve: list[float] = []
    since_improvement = 0
    faulted = False

    n = len(batch_all)
    epoch = 0
    worker = _ValidationWorker(ev, val, params)
    try:
        worker.submit(snapshot)
        while True:
            # train epoch + 1 while the worker scores epoch's snapshot
            next_losses, train_error = [], None
            if epoch < cfg.max_epochs:
                try:
                    order = rng.permutation(n)
                    for lo in range(0, n, cfg.batch_size):
                        batch = batch_all.take(order[lo:lo + cfg.batch_size])
                        loss, _ = ev.loss_and_grad(params, batch, dt, out=grads)
                        next_losses.append(loss)
                        step += 1
                        params.values[...], m, v = adam_update(params.values, grads.values,
                                                               m, v, step, cfg)
                except Exception as exc:  # raised only if epoch's score lets training go on
                    train_error = exc
            try:
                delta, ups = worker.result()
            except EvaluationFault as fault:
                log.warning("fit faulted at epoch %d: %s", epoch, fault)
                faulted = True
                break
            if epoch:
                train_curve.append(float(np.mean(losses)))
            val_curve.append(ups)
            if epoch == 0 or ups < best_val - IMPROVEMENT_EPS:  # epoch 0's snapshot even at inf
                best_val = ups
                best_delta = delta
                best_params = snapshot
                since_improvement = 0
            else:
                since_improvement += 1
                if since_improvement >= cfg.patience:
                    break
            if epoch == cfg.max_epochs:
                break
            epoch += 1
            if isinstance(train_error, EvaluationFault):
                log.warning("fit faulted at epoch %d: %s", epoch, train_error)
                faulted = True
                break
            if train_error is not None:
                raise train_error
            snapshot, losses = params.copy(), next_losses
            worker.submit(snapshot)
    finally:
        worker.close()

    return FitResult(best_params, best_val, best_delta, epoch,
                     train_curve, val_curve, faulted=faulted)
