"""Evaluation of hybrid models: derivatives, Euler rollouts, one-step
losses, and exact reverse-mode gradients of the training loss.

All math is float64 numpy, vectorized over a batch of transitions.
Guarded domains keep every expression total: log/sqrt clamp their
argument to >= 1e-8, division clamps |denominator| >= 1e-8 preserving
sign, and pow with a non-integer exponent clamps its base to >= 1e-8.
Anything that still produces a non-finite value raises EvaluationFault,
which callers treat as a model fault rather than a crash.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from hdtwin.dsl import (
    TIME_SYMBOL,
    Expr,
    MlpDecl,
    ModelSpec,
    SystemSchema,
    VarSpec,
    validate,
)

GUARD_EPS = 1e-8

Layer = tuple[np.ndarray, np.ndarray]  # (weight matrix, bias vector)


class EvaluationFault(Exception):
    """A model produced a non-finite value.

    Carries whichever of component index, rollout step, or parameter name
    localizes the fault.
    """

    def __init__(self, message: str, component: int | None = None,
                 step: int | None = None, param: str | None = None):
        self.component = component
        self.step = step
        self.param = param
        super().__init__(message)


@dataclass
class ParamVector:
    """Named scalar parameters plus per-network layer weights."""

    scalars: dict[str, float] = field(default_factory=dict)
    weights: dict[str, list[Layer]] = field(default_factory=dict)

    def copy(self) -> "ParamVector":
        return ParamVector(
            dict(self.scalars),
            {k: [(w.copy(), b.copy()) for w, b in layers] for k, layers in self.weights.items()},
        )

    def zeros_like(self) -> "ParamVector":
        return ParamVector(
            {k: 0.0 for k in self.scalars},
            {k: [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
             for k, layers in self.weights.items()},
        )


# Gradients mirror the parameter layout entry for entry.
Gradients = ParamVector


@dataclass
class Trajectory:
    """Uniformly sampled states and actions; actions[k] is taken at times[k]."""

    times: np.ndarray   # (T,)
    states: np.ndarray  # (T, d_x)
    actions: np.ndarray  # (T, d_u)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        self.states = states.reshape(-1, 1) if states.ndim == 1 else states
        actions = np.asarray(self.actions, dtype=float)
        self.actions = actions.reshape(-1, 1) if actions.ndim == 1 else actions
        if not (len(self.times) == len(self.states) == len(self.actions)):
            raise ValueError("times, states, actions must have equal length")
        if len(self.times) >= 2:
            gaps = np.diff(self.times)
            if np.any(gaps <= 0):
                raise ValueError("times must be strictly increasing")
            if np.max(np.abs(gaps - gaps[0])) > 1e-9 * max(1.0, abs(gaps[0])):
                raise ValueError("times must be uniformly spaced")

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class Dataset:
    trajectories: list[Trajectory]
    schema: SystemSchema
    split: str = "train"

    def n_transitions(self) -> int:
        return sum(max(0, len(tr) - 1) for tr in self.trajectories)

    def transitions(self) -> "TransitionBatch":
        return TransitionBatch.from_dataset(self)


@dataclass
class TransitionBatch:
    """Flattened (x, u, t, y) rows with y the next state at t + dt."""

    x: np.ndarray  # (M, d_x)
    u: np.ndarray  # (M, d_u)
    t: np.ndarray  # (M,)
    y: np.ndarray  # (M, d_x)

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "TransitionBatch":
        xs, us, ts, ys = [], [], [], []
        for tr in ds.trajectories:
            if len(tr) < 2:
                continue
            xs.append(tr.states[:-1])
            us.append(tr.actions[:-1])
            ts.append(tr.times[:-1])
            ys.append(tr.states[1:])
        if not xs:
            raise ValueError("dataset has no transitions")
        return cls(np.vstack(xs), np.vstack(us), np.concatenate(ts), np.vstack(ys))

    def take(self, idx: np.ndarray) -> "TransitionBatch":
        return TransitionBatch(self.x[idx], self.u[idx], self.t[idx], self.y[idx])

    def __len__(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# Compiled evaluation


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z > 0.0, z, 0.1 * z)
    return np.tanh(z)


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "leaky_relu":
        return np.where(z > 0.0, 1.0, 0.1)
    th = np.tanh(z)
    return 1.0 - th * th


def _mlp_forward(decl: MlpDecl, layers: list[Layer], z0: np.ndarray):
    caches = []
    a = z0
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        pre = a @ w + b
        caches.append((a, pre))
        a = pre if li == last else _act(decl.activation, pre)
    return a, caches


def _mlp_backward(decl: MlpDecl, layers: list[Layer], caches, g_out: np.ndarray) -> list[Layer]:
    grads: list[Layer] = []
    d_a = g_out
    for li in reversed(range(len(layers))):
        a_prev, pre = caches[li]
        dz = d_a if li == len(layers) - 1 else d_a * _act_grad(decl.activation, pre)
        grads.append((a_prev.T @ dz, dz.sum(axis=0)))
        d_a = dz @ layers[li][0].T
    grads.reverse()
    return grads


def _guard_div(b):
    return np.where(np.abs(b) >= GUARD_EPS, b, np.where(b >= 0.0, GUARD_EPS, -GUARD_EPS))


def _int_exponent(e: Expr) -> int | None:
    if e.kind == "const" and float(e.value).is_integer():
        return int(e.value)
    return None


class Evaluator:
    """A spec bound to a schema for repeated batched evaluation.

    Pure given (params, data); safe to share across threads.
    """

    def __init__(self, spec: ModelSpec, schema: SystemSchema):
        problems = validate(spec, schema)
        if problems:
            raise ValueError(
                "spec is not valid for this schema: " + "; ".join(str(v) for v in problems)
            )
        self.spec = spec
        self.schema = schema
        self._sidx = {n: i for i, n in enumerate(schema.state_names)}
        self._aidx = {n: i for i, n in enumerate(schema.action_names)}
        self._mlps = {m.name: m for m in spec.mlps}

    # -- parameter bookkeeping

    def check_params(self, params: ParamVector):
        for p in self.spec.params:
            if p.name not in params.scalars:
                raise ValueError(f"parameter vector is missing {p.name!r}")
        for decl in self.spec.mlps:
            layers = params.weights.get(decl.name)
            dims = decl.layer_dims()
            if layers is None or len(layers) != len(dims) - 1:
                raise ValueError(f"parameter vector has wrong layer count for {decl.name!r}")
            for li, (w, b) in enumerate(layers):
                if w.shape != (dims[li], dims[li + 1]) or b.shape != (dims[li + 1],):
                    raise ValueError(
                        f"{decl.name!r} layer {li} has shape {w.shape}/{b.shape},"
                        f" expected {(dims[li], dims[li + 1])}/{(dims[li + 1],)}"
                    )

    # -- forward

    def _col(self, name: str, x, u, t):
        if name == TIME_SYMBOL:
            return t
        i = self._sidx.get(name)
        if i is not None:
            return x[:, i]
        return u[:, self._aidx[name]]

    def _fwd(self, e: Expr, x, u, t, scalars):
        kind = e.kind
        if kind == "const":
            return e.value, ()
        if kind == "time":
            return t, ()
        if kind == "ref":
            i = self._sidx.get(e.name)
            if i is not None:
                return x[:, i], ()
            i = self._aidx.get(e.name)
            if i is not None:
                return u[:, i], ()
            return scalars[e.name], ()
        if kind == "unary":
            val, ctx = self._fwd(e.args[0], x, u, t, scalars)
            op = e.op
            if op == "neg":
                out = -val
            elif op == "log":
                out = np.log(np.maximum(val, GUARD_EPS))
            elif op == "exp":
                out = np.exp(val)
            elif op == "sin":
                out = np.sin(val)
            elif op == "cos":
                out = np.cos(val)
            elif op == "sqrt":
                out = np.sqrt(np.maximum(val, GUARD_EPS))
            elif op == "abs":
                out = np.abs(val)
            elif op == "sigmoid":
                out = expit(val)
            else:  # tanh
                out = np.tanh(val)
            return out, ((val, ctx),)
        # binary
        aval, actx = self._fwd(e.args[0], x, u, t, scalars)
        bval, bctx = self._fwd(e.args[1], x, u, t, scalars)
        op = e.op
        if op == "add":
            out = aval + bval
        elif op == "sub":
            out = aval - bval
        elif op == "mul":
            out = aval * bval
        elif op == "div":
            out = aval / _guard_div(bval)
        else:  # pow
            n = _int_exponent(e.args[1])
            if n is not None:
                out = aval ** n if n >= 0 else np.asarray(aval, dtype=float) ** n
            else:
                out = np.maximum(aval, GUARD_EPS) ** bval
        return out, ((aval, actx), (bval, bctx))

    def _bwd(self, e: Expr, ctx, adj, grads: Gradients):
        kind = e.kind
        if kind in ("const", "time"):
            return
        if kind == "ref":
            if e.name in self._sidx or e.name in self._aidx:
                return
            grads.scalars[e.name] += float(np.sum(adj))
            return
        if kind == "unary":
            (val, sub), = ctx
            op = e.op
            if op == "neg":
                d = -adj
            elif op == "log":
                d = adj / np.maximum(val, GUARD_EPS) * (val > GUARD_EPS)
            elif op == "exp":
                d = adj * np.exp(val)
            elif op == "sin":
                d = adj * np.cos(val)
            elif op == "cos":
                d = -adj * np.sin(val)
            elif op == "sqrt":
                d = adj / (2.0 * np.sqrt(np.maximum(val, GUARD_EPS))) * (val > GUARD_EPS)
            elif op == "abs":
                d = adj * np.sign(val)
            elif op == "sigmoid":
                s = expit(val)
                d = adj * s * (1.0 - s)
            else:  # tanh
                th = np.tanh(val)
                d = adj * (1.0 - th * th)
            self._bwd(e.args[0], sub, d, grads)
            return
        (aval, actx), (bval, bctx) = ctx
        op = e.op
        if op == "add":
            self._bwd(e.args[0], actx, adj, grads)
            self._bwd(e.args[1], bctx, adj, grads)
        elif op == "sub":
            self._bwd(e.args[0], actx, adj, grads)
            self._bwd(e.args[1], bctx, -adj, grads)
        elif op == "mul":
            self._bwd(e.args[0], actx, adj * bval, grads)
            self._bwd(e.args[1], bctx, adj * aval, grads)
        elif op == "div":
            bc = _guard_div(bval)
            self._bwd(e.args[0], actx, adj / bc, grads)
            self._bwd(e.args[1], bctx, adj * (-aval / (bc * bc)) * (np.abs(bval) >= GUARD_EPS), grads)
        else:  # pow
            n = _int_exponent(e.args[1])
            if n is not None:
                if n == 0:
                    d = np.zeros_like(adj)
                else:
                    d = adj * n * aval ** (n - 1)
                self._bwd(e.args[0], actx, d, grads)
            else:
                ac = np.maximum(aval, GUARD_EPS)
                self._bwd(e.args[0], actx, adj * bval * ac ** (bval - 1.0) * (aval > GUARD_EPS), grads)
                self._bwd(e.args[1], bctx, adj * (ac ** bval) * np.log(ac), grads)

    def derivatives(self, params: ParamVector, x, u, t, with_cache: bool = False):
        """Model dx/dt for a batch; x (M, d_x), u (M, d_u), t (M,).

        Overflow to inf/nan is allowed here and surfaced as an
        EvaluationFault by the callers that check finiteness.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            return self._derivatives(params, x, u, t, with_cache)

    def _derivatives(self, params: ParamVector, x, u, t, with_cache: bool = False):
        scalars = params.scalars
        mlp_out, mlp_caches = {}, {}
        m_rows = x.shape[0]
        for name, decl in self._mlps.items():
            z0 = np.stack(
                [np.broadcast_to(self._col(n, x, u, t), (m_rows,)) for n in decl.inputs], axis=1
            )
            out, caches = _mlp_forward(decl, params.weights[name], z0)
            mlp_out[name] = out
            mlp_caches[name] = caches
        f = np.empty((m_rows, self.schema.d_x))
        ectxs = []
        for j, comp in enumerate(self.spec.components):
            val, ctx = self._fwd(comp.expr, x, u, t, scalars)
            if comp.residual is not None:
                name, idx = comp.residual
                val = val + mlp_out[name][:, idx]
            f[:, j] = val
            ectxs.append(ctx)
        if with_cache:
            return f, (ectxs, mlp_out, mlp_caches)
        return f

    def derivative(self, params: ParamVector, state, action, time: float) -> np.ndarray:
        x = np.asarray(state, dtype=float).reshape(1, -1)
        u = np.asarray(action, dtype=float).reshape(1, -1)
        f = self.derivatives(params, x, u, np.array([float(time)]))
        for j in range(f.shape[1]):
            if not np.isfinite(f[0, j]):
                raise EvaluationFault(
                    f"non-finite derivative for component {j}"
                    f" ({self.spec.components[j].target})",
                    component=j,
                )
        return f[0]

    def loss_and_grad(self, params: ParamVector, batch: TransitionBatch, dt: float):
        """Batch one-step MSE and its exact reverse-mode gradient."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            return self._loss_and_grad(params, batch, dt)

    def _loss_and_grad(self, params: ParamVector, batch: TransitionBatch, dt: float):
        f, (ectxs, mlp_out, mlp_caches) = self.derivatives(
            params, batch.x, batch.u, batch.t, with_cache=True
        )
        m_rows = len(batch)
        resid = (batch.x + f * dt) - batch.y
        loss = float(np.sum(resid * resid)) / m_rows
        if not np.isfinite(loss):
            bad = int(np.argmax(~np.isfinite(resid).all(axis=0)))
            raise EvaluationFault(
                f"non-finite loss (component {self.spec.components[bad].target})", component=bad
            )
        grads = zero_gradients(self.spec)
        g_f = (2.0 * dt / m_rows) * resid
        out_adj = {name: np.zeros_like(out) for name, out in mlp_out.items()}
        for j, comp in enumerate(self.spec.components):
            self._bwd(comp.expr, ectxs[j], g_f[:, j], grads)
            if comp.residual is not None:
                name, idx = comp.residual
                out_adj[name][:, idx] += g_f[:, j]
        for name, decl in self._mlps.items():
            grads.weights[name] = _mlp_backward(
                decl, params.weights[name], mlp_caches[name], out_adj[name]
            )
        for name, g in grads.scalars.items():
            if not np.isfinite(g):
                raise EvaluationFault(f"non-finite gradient for parameter {name!r}", param=name)
        for name, layers in grads.weights.items():
            for w, b in layers:
                if not (np.isfinite(w).all() and np.isfinite(b).all()):
                    raise EvaluationFault(f"non-finite gradient in network {name!r}", param=name)
        return loss, grads


def zero_gradients(spec: ModelSpec) -> Gradients:
    g = ParamVector({p.name: 0.0 for p in spec.params}, {})
    for decl in spec.mlps:
        dims = decl.layer_dims()
        g.weights[decl.name] = [
            (np.zeros((dims[i], dims[i + 1])), np.zeros(dims[i + 1]))
            for i in range(len(dims) - 1)
        ]
    return g


# ---------------------------------------------------------------------------
# Parameter initialization


def mlp_init(decl: MlpDecl, seed: int) -> list[Layer]:
    """Xavier-uniform weights, zero biases; deterministic per (decl, seed)."""
    rng = np.random.default_rng([seed, zlib.crc32(decl.name.encode("utf-8"))])
    dims = decl.layer_dims()
    layers = []
    for i in range(len(dims) - 1):
        bound = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
        w = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
        layers.append((w, np.zeros(dims[i + 1])))
    return layers


def init_params(spec: ModelSpec, seed: int = 0) -> ParamVector:
    """Scalars from their declared inits, network weights from mlp_init."""
    return ParamVector(
        {p.name: float(p.init) for p in spec.params},
        {m.name: mlp_init(m, seed) for m in spec.mlps},
    )


# ---------------------------------------------------------------------------
# Public operations


def eval_derivative(spec: ModelSpec, params: ParamVector, state, action, time: float,
                    schema: SystemSchema) -> np.ndarray:
    ev = Evaluator(spec, schema)
    ev.check_params(params)
    return ev.derivative(params, state, action, time)


def euler_rollout(ev: Evaluator, x0, times: np.ndarray, dt: float, inputs):
    """The one explicit-Euler loop (rollout, rollout_mse, data generation);
    steps N trajectories together.  x0 (N, d_x); times (N, T+1), each row a
    trajectory's own time column; inputs(k, x) gives step k's (params,
    actions (N, d_u)) from the states x, and at k = T the terminal action.
    Returns states (N, T+1, d_x) and actions (N, T+1, d_u).  Raises
    EvaluationFault at the first step with a non-finite derivative."""
    by_step = np.ascontiguousarray(np.asarray(times, dtype=float).T)  # (T+1, N)
    steps, n = by_step.shape[0] - 1, by_step.shape[1]
    states = np.empty((n, steps + 1, ev.schema.d_x))
    actions = np.empty((n, steps + 1, ev.schema.d_u))
    x = np.array(x0, dtype=float).reshape(n, -1)
    states[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            params, u = inputs(k, x)
            actions[:, k] = u
            f = ev.derivatives(params, x, u, by_step[k])
            bad = ~np.isfinite(f)
            if bad.any():
                j = int(np.argmax(bad[np.argmax(bad.any(axis=1))]))
                target = ev.spec.components[j].target
                raise EvaluationFault(
                    f"non-finite derivative at step {k} (component {target})",
                    component=j, step=k,
                )
            x = x + f * dt
            states[:, k + 1] = x
    actions[:, steps] = inputs(steps, x)[1]
    return states, actions


def rollout(spec: ModelSpec, params: ParamVector, schema: SystemSchema, x0, actions,
            dt: float, t0: float = 0.0) -> Trajectory:
    """Explicit-Euler rollout; one step per action row.

    Returns a trajectory with len(actions) + 1 rows whose final action row
    is zero padding (no action is taken at the terminal state).
    """
    ev = Evaluator(spec, schema)
    ev.check_params(params)
    actions = np.asarray(actions, dtype=float)
    if actions.ndim != 2:
        if schema.d_u == 0:
            raise ValueError("for action-free systems pass actions with shape (steps, 0)")
        actions = actions.reshape(-1, schema.d_u)
    if actions.shape[1] != schema.d_u:
        raise ValueError(f"actions have {actions.shape[1]} columns, schema has {schema.d_u}")
    steps = actions.shape[0]
    padded = np.vstack([actions, np.zeros((1, actions.shape[1]))])
    times = t0 + np.arange(steps + 1) * dt
    states, _ = euler_rollout(ev, np.reshape(x0, (1, -1)), times[None], dt,
                              lambda k, x: (params, padded[k:k + 1]))
    return Trajectory(times, states[0], padded)


def one_step_mse(spec: ModelSpec, params: ParamVector, dataset: Dataset) -> float:
    """Teacher-forced mean over transitions of ||(x + f dt) - y||^2."""
    resid = _residuals(spec, params, dataset)
    return float(np.mean(np.sum(resid * resid, axis=1)))


def per_component_mse(spec: ModelSpec, params: ParamVector, dataset: Dataset):
    """Per-dimension one-step MSE delta and its mean upsilon."""
    resid = _residuals(spec, params, dataset)
    delta = np.mean(resid * resid, axis=0)
    return delta, float(np.mean(delta))


def _residuals(spec: ModelSpec, params: ParamVector, dataset: Dataset) -> np.ndarray:
    ev = Evaluator(spec, dataset.schema)
    ev.check_params(params)
    batch = dataset.transitions()
    f = ev.derivatives(params, batch.x, batch.u, batch.t)
    if not np.isfinite(f).all():
        bad = int(np.argmax(~np.isfinite(f).all(axis=0)))
        raise EvaluationFault(
            f"non-finite derivative (component {spec.components[bad].target})", component=bad
        )
    return (batch.x + f * dataset.schema.dt) - batch.y


def loss_gradient(spec: ModelSpec, params: ParamVector, schema: SystemSchema,
                  batch: TransitionBatch, dt: float):
    """(batch one-step MSE, exact gradients for every scalar and weight)."""
    ev = Evaluator(spec, schema)
    ev.check_params(params)
    return ev.loss_and_grad(params, batch, dt)


def rollout_mse(spec: ModelSpec, params: ParamVector, dataset: Dataset) -> float:
    """Full-trajectory MSE: roll the model from each x(0) with the stored
    actions and average ||predicted - true||^2 over every row.

    Non-finite rollouts return inf rather than raising (an exploding model
    is a bad model, not a crash).
    """
    ev = Evaluator(spec, dataset.schema)
    ev.check_params(params)
    total, count = 0.0, 0
    for length in sorted({len(tr) for tr in dataset.trajectories}):
        trs = [tr for tr in dataset.trajectories if len(tr) == length]
        if length < 2:
            continue
        truth = np.stack([tr.states for tr in trs])  # (N, T+1, d_x)
        stored = np.stack([tr.actions for tr in trs], axis=1)  # (T+1, N, d_u)
        times = np.stack([tr.times for tr in trs])
        try:
            predicted, _ = euler_rollout(ev, truth[:, 0], times, dataset.schema.dt,
                                         lambda k, x: (params, stored[k]))
        except EvaluationFault:
            return float("inf")
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sum((predicted[:, 1:] - truth[:, 1:]) ** 2, axis=2)
            err = np.cumsum(sq, axis=1)[:, -1]  # in step order; np.sum would add pairwise
        if not np.isfinite(err).all():
            return float("inf")
        total += float(np.sum(err))
        count += len(trs) * length  # rows incl. the exact step-0 match
    if count == 0:
        raise ValueError("dataset has no multi-step trajectories")
    return total / count


# ---------------------------------------------------------------------------
# Dataset and parameter serialization


def _fmt(v: float) -> str:
    return repr(float(v))


def save_dataset(ds: Dataset, out_dir: str | Path, seed: int | None = None,
                 notes: dict | None = None):
    """One CSV per trajectory plus a manifest; floats round-trip bit-exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sch = ds.schema
    header = ["t"] + [f"x_{i + 1}" for i in range(sch.d_x)] + [f"u_{i + 1}" for i in range(sch.d_u)]
    for i, tr in enumerate(ds.trajectories):
        with open(out / f"traj-{i:05d}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for k in range(len(tr)):
                row = [_fmt(tr.times[k])]
                row += [_fmt(v) for v in tr.states[k]]
                row += [_fmt(v) for v in tr.actions[k]]
                w.writerow(row)
    manifest = {
        "schema": {
            "states": [[v.name, v.low, v.high] for v in sch.states],
            "actions": [[v.name, v.low, v.high] for v in sch.actions],
            "time_units": sch.time_units,
            "dt": sch.dt,
        },
        "split": ds.split,
        "seed": seed,
        "n_trajectories": len(ds.trajectories),
        "columns": header + ["(x_i/u_i follow the schema state/action order)"],
        "notes": notes or {},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_saved_dataset(in_dir: str | Path) -> Dataset:
    src = Path(in_dir)
    with open(src / "manifest.json") as fh:
        manifest = json.load(fh)
    sch = manifest["schema"]
    schema = SystemSchema(
        states=tuple(VarSpec(n, lo, hi) for n, lo, hi in sch["states"]),
        actions=tuple(VarSpec(n, lo, hi) for n, lo, hi in sch["actions"]),
        time_units=sch["time_units"],
        dt=sch["dt"],
    )
    d_x, d_u = schema.d_x, schema.d_u
    trajectories = []
    for path in sorted(src.glob("traj-*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        trajectories.append(
            Trajectory(body[:, 0], body[:, 1:1 + d_x], body[:, 1 + d_x:1 + d_x + d_u])
        )
    return Dataset(trajectories, schema, manifest["split"])


def save_params(params: ParamVector, path: str | Path):
    doc = {
        "scalars": params.scalars,
        "weights": {
            name: [{"w": w.tolist(), "b": b.tolist()} for w, b in layers]
            for name, layers in params.weights.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path: str | Path) -> ParamVector:
    with open(path) as fh:
        doc = json.load(fh)
    return ParamVector(
        {k: float(v) for k, v in doc["scalars"].items()},
        {
            name: [(np.array(layer["w"], dtype=float), np.array(layer["b"], dtype=float))
                   for layer in layers]
            for name, layers in doc["weights"].items()
        },
    )
