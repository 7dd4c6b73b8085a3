"""Shared helpers: an independent naive interpreter used as the oracle
for loss values and finite-difference gradients, random generators
for specs, parameters, and transition batches, and stand-ins for fits
that no caller may use.

The naive interpreter deliberately shares no code with the engine: it is
scalar, recursive, pure-Python math so that engine results can be checked
against a second implementation.
"""

from __future__ import annotations

import math

import numpy as np

from hdtwin.dsl import (
    ComponentDef,
    Expr,
    MlpDecl,
    ModelSpec,
    ParamDecl,
    SystemSchema,
    VarSpec,
)
from hdtwin.engine import ParamVector, TransitionBatch, mlp_init
from hdtwin.optim import FitResult

GUARD = 1e-8


# ---------------------------------------------------------------------------
# Naive scalar interpreter (the oracle)


def naive_expr(e: Expr, env: dict[str, float]) -> float:
    if e.kind == "const":
        return e.value
    if e.kind == "time":
        return env["t"]
    if e.kind == "ref":
        return env[e.name]
    if e.kind == "unary":
        a = naive_expr(e.args[0], env)
        if e.op == "neg":
            return -a
        if e.op == "log":
            return math.log(max(a, GUARD))
        if e.op == "exp":
            return math.exp(a) if a < 700 else math.inf
        if e.op == "sin":
            return math.sin(a)
        if e.op == "cos":
            return math.cos(a)
        if e.op == "sqrt":
            return math.sqrt(max(a, GUARD))
        if e.op == "abs":
            return abs(a)
        if e.op == "sigmoid":
            return 1.0 / (1.0 + math.exp(-a)) if a > -700 else 0.0
        if e.op == "tanh":
            return math.tanh(a)
        raise ValueError(e.op)
    a = naive_expr(e.args[0], env)
    b = naive_expr(e.args[1], env)
    if e.op == "add":
        return a + b
    if e.op == "sub":
        return a - b
    if e.op == "mul":
        return a * b
    if e.op == "div":
        if abs(b) >= GUARD:
            return a / b
        return a / (GUARD if b >= 0 else -GUARD)
    if e.op == "pow":
        if e.args[1].kind == "const" and float(e.args[1].value).is_integer():
            return a ** int(e.args[1].value)
        return max(a, GUARD) ** b
    raise ValueError(e.op)


def naive_mlp(decl: MlpDecl, layers, inputs: list[float]) -> list[float]:
    act = inputs
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        fan_in, fan_out = w.shape
        pre = [sum(act[i] * w[i, j] for i in range(fan_in)) + b[j] for j in range(fan_out)]
        if li == last:
            act = pre
        elif decl.activation == "relu":
            act = [max(z, 0.0) for z in pre]
        elif decl.activation == "leaky_relu":
            act = [z if z > 0 else 0.1 * z for z in pre]
        else:
            act = [math.tanh(z) for z in pre]
    return act


def naive_derivative(spec: ModelSpec, schema: SystemSchema, params: ParamVector,
                     x_row, u_row, t: float) -> list[float]:
    env = dict(params.scalars)
    for name, v in zip(schema.state_names, x_row):
        env[name] = float(v)
    for name, v in zip(schema.action_names, u_row):
        env[name] = float(v)
    env["t"] = float(t)
    mlp_out = {}
    for decl in spec.mlps:
        mlp_out[decl.name] = naive_mlp(decl, params.weights[decl.name],
                                       [env[n] for n in decl.inputs])
    out = []
    for comp in spec.components:
        v = naive_expr(comp.expr, env)
        if comp.residual is not None:
            name, idx = comp.residual
            v += mlp_out[name][idx]
        out.append(v)
    return out


def naive_one_step_loss(spec: ModelSpec, schema: SystemSchema, params: ParamVector,
                        batch: TransitionBatch, dt: float) -> float:
    total = 0.0
    for r in range(len(batch)):
        f = naive_derivative(spec, schema, params, batch.x[r], batch.u[r], batch.t[r])
        for j in range(schema.d_x):
            err = (batch.x[r, j] + f[j] * dt) - batch.y[r, j]
            total += err * err
    return total / len(batch)


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle


def _param_entries(params: ParamVector):
    """Yield (label, getter, setter) for every scalar degree of freedom."""
    for name in params.scalars:
        yield (
            f"scalar:{name}",
            lambda n=name: params.scalars[n],
            lambda v, n=name: params.scalars.__setitem__(n, v),
        )
    for name, layers in params.weights.items():
        for li, (w, b) in enumerate(layers):
            for idx in np.ndindex(w.shape):
                yield (
                    f"{name}[{li}].w{idx}",
                    lambda w=w, idx=idx: float(w[idx]),
                    lambda v, w=w, idx=idx: w.__setitem__(idx, v),
                )
            for j in range(b.shape[0]):
                yield (
                    f"{name}[{li}].b{j}",
                    lambda b=b, j=j: float(b[j]),
                    lambda v, b=b, j=j: b.__setitem__(j, v),
                )


def finite_diff_gradients(spec: ModelSpec, schema: SystemSchema, params: ParamVector,
                          batch: TransitionBatch, dt: float, h_rel: float = 1e-5):
    """Central differences of the naive loss for every parameter entry."""
    work = params.copy()
    out = {}
    for label, get, set_ in _param_entries(work):
        v0 = get()
        h = h_rel * max(1.0, abs(v0))
        set_(v0 + h)
        up = naive_one_step_loss(spec, schema, work, batch, dt)
        set_(v0 - h)
        down = naive_one_step_loss(spec, schema, work, batch, dt)
        set_(v0)
        out[label] = (up - down) / (2.0 * h)
    return out


def flatten_gradients(grads: ParamVector):
    out = {}
    for name, v in grads.scalars.items():
        out[f"scalar:{name}"] = float(v)
    for name, layers in grads.weights.items():
        for li, (w, b) in enumerate(layers):
            for idx in np.ndindex(w.shape):
                out[f"{name}[{li}].w{idx}"] = float(w[idx])
            for j in range(b.shape[0]):
                out[f"{name}[{li}].b{j}"] = float(b[j])
    return out


# ---------------------------------------------------------------------------
# Random generators


def random_schema(rng: np.random.Generator) -> SystemSchema:
    d_x = int(rng.integers(1, 4))
    d_u = int(rng.integers(0, 3))
    return SystemSchema(
        states=tuple(VarSpec(f"s{i}", -10.0, 10.0) for i in range(d_x)),
        actions=tuple(VarSpec(f"a{i}", -10.0, 10.0) for i in range(d_u)),
        dt=1.0,
    )


def random_expr(rng: np.random.Generator, symbols: list[str], depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        if symbols and rng.random() < 0.7:
            return Expr.ref(str(rng.choice(symbols)))
        return Expr.const(round(float(rng.uniform(-2.0, 2.0)), 3))
    if rng.random() < 0.35:
        op = str(rng.choice(["neg", "log", "exp", "sin", "cos", "sqrt", "abs", "sigmoid", "tanh"]))
        arg = random_expr(rng, symbols, depth - 1)
        if op == "neg" and arg.kind == "const":
            return Expr.const(-arg.value)  # parser normal form folds these
        return Expr.unary(op, arg)
    op = str(rng.choice(["add", "sub", "mul", "div", "pow"]))
    left = random_expr(rng, symbols, depth - 1)
    if op == "pow":
        right = Expr.const(float(rng.choice([2.0, 3.0, 0.5, 1.5])))
    else:
        right = random_expr(rng, symbols, depth - 1)
    return Expr.binary(op, left, right)


def random_spec(rng: np.random.Generator, schema: SystemSchema,
                allow_mlp: bool = True) -> ModelSpec:
    n_params = int(rng.integers(1, 4))
    params = tuple(
        ParamDecl(f"p{i}", round(float(rng.uniform(-1.5, 1.5)), 3)) for i in range(n_params)
    )
    symbols = list(schema.state_names + schema.action_names) + [p.name for p in params] + ["t"]
    mlps: tuple[MlpDecl, ...] = ()
    if allow_mlp and rng.random() < 0.5:
        pool = list(schema.state_names + schema.action_names) + ["t"]
        k = int(rng.integers(1, len(pool) + 1))
        inputs = tuple(str(n) for n in rng.choice(pool, size=k, replace=False))
        hidden = tuple(int(w) for w in rng.choice([2, 3, 4], size=int(rng.integers(1, 3))))
        act = str(rng.choice(["relu", "leaky_relu", "tanh"]))
        mlps = (MlpDecl("net", inputs, hidden, act, int(rng.integers(1, 3))),)
    comps = []
    for j, name in enumerate(schema.state_names):
        residual = None
        if mlps and rng.random() < 0.6:
            residual = ("net", int(rng.integers(0, mlps[0].outputs)))
        comps.append(ComponentDef(name, random_expr(rng, symbols, 3), residual))
    return ModelSpec(tuple(comps), params, mlps)


def random_params(rng: np.random.Generator, spec: ModelSpec) -> ParamVector:
    params = ParamVector(
        {p.name: round(float(rng.uniform(-1.5, 1.5)), 3) for p in spec.params},
        {m.name: mlp_init(m, int(rng.integers(0, 2 ** 31))) for m in spec.mlps},
    )
    # zero biases sit exactly on the relu kink, where finite differences
    # straddle the non-differentiable point; jitter into generic position
    for layers in params.weights.values():
        for _, b in layers:
            b += rng.uniform(-0.3, 0.3, size=b.shape)  # in place: b is a view into values
    return params


def random_batch(rng: np.random.Generator, schema: SystemSchema, m: int) -> TransitionBatch:
    return TransitionBatch(
        x=rng.uniform(0.3, 2.0, size=(m, schema.d_x)),
        u=rng.uniform(0.3, 2.0, size=(m, schema.d_u)),
        t=rng.uniform(0.0, 3.0, size=m),
        y=rng.uniform(0.3, 2.0, size=(m, schema.d_x)),
    )


# ---------------------------------------------------------------------------
# Unusable fits

UNUSABLE_FITS = ("faulted-after-a-finite-epoch", "infinite-validation-loss")


def unusable_fit(kind: str):
    """A stand-in for optim.fit returning an unusable FitResult of `kind`."""
    def fake_fit(spec, init, train, val, cfg=None):
        d_x = train.schema.d_x
        if kind == "faulted-after-a-finite-epoch":
            return FitResult(init, 0.5, np.full(d_x, 0.5), 2, [1.0], [1.0, 0.5], faulted=True)
        return FitResult(init, math.inf, np.full(d_x, math.inf), 1, [1.0], [math.inf] * 2)
    return fake_fit
