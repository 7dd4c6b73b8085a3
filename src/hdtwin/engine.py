"""Evaluation of hybrid models: derivatives, Euler rollouts, one-step
losses, and exact reverse-mode gradients of the training loss.

All math is float64 numpy, vectorized over a batch of transitions.
Guarded domains keep every expression total: log/sqrt clamp their
argument to >= 1e-8, division clamps |denominator| >= 1e-8 preserving
sign, and pow with a non-integer exponent clamps its base to >= 1e-8.
Anything that still produces a non-finite value raises EvaluationFault,
a model fault rather than a crash; a non-finite derivative blames the
component of its first non-finite entry in row order (and rollout step).
The logistic function, of the "sigmoid" op and of the cancer dosing
policy, is sigmoid(z) = 1 / (1 + exp(-z)) with numpy's exp; so, like exp
and log, its last bit follows the SIMD level numpy dispatches to.

An Evaluator compiles its spec once into a flat tape (Griewank & Walther,
*Evaluating Derivatives*, 2008).  The tape lists the operator nodes of
every component expression in post order; it is tree-shaped: no subtree
is shared and no constant folded, so it computes exactly what a
recursive walk of the expressions would.  Values live in numbered
slots: time, the state and action columns, the referenced parameters and
the constants come first, then one slot per node.  The guarded domains
are nodes of their own ("clamp" before log, sqrt and a real power's base,
"guard" before a denominator).  A node is active when a parameter occurs
in its subtree.  The forward pass is one loop over the nodes; the
backward pass walks the active nodes in reverse and hands each operand
its adjoint.  Every occurrence of a parameter has its own adjoint slot,
so each parameter's gradient is summed over its occurrences in
left-to-right leaf order, component by component.  One op table
(`_OPS`) holds each op's forward and backward rule.

A node is row-varying when time, a state or an action occurs in its
subtree.  Nodes built only from parameters and constants stay numpy or
Python scalars; a row-varying node's forward rule writes its value into
a row of a (rows, M) float64 block through a ufunc `out=`.  The tape
numbers these rows twice.  loss_and_grad's backward pass reads every
node's value again, so there each row-varying node owns a row.  A pass
without a backward (squared_residuals, for validation and test scoring,
and euler_rollout, for rollouts and data generation) reads a node's
value once, when its parent is computed, as the tape is tree-shaped;
only a component root is read at the end.  So the second numbering
reuses a row once its one reader is on the tape, and never gives a node
its own operand's row (guard writes its row before it copies its operand
there).  The scripted evolution's hybrid tumor models need 37 rows with
a backward and 4 without.  With a backward, a network has one (M, width)
array per layer: a hidden layer's activation overwrites its
pre-activation in place, and each layer's input is all the backward pass
reads.  Without one, a network has two buffers: layer i writes the one
that layer i - 1 did not, and the network input and the last layer's
output are contiguous prefixes of them.  Each network keeps its own
pair, as every network's output is read after all of them have run.  The
block and the network arrays form the evaluator's workspace for M rows
and one pass kind.

Every workspace of an evaluator is a set of views of its one flat
float64 pool, which is sized for the largest workspace built so far.  A
fit's mini-batch passes with their backward, its last partial batch, its
validation passes and the rollouts thus share one block of memory, and
repeated passes reuse it instead of allocating and faulting in fresh
arrays.  A workspace is built the first time the evaluator sees its row
count and pass kind and kept until the pool has to grow; a growth drops
every cached workspace, and each is rebuilt on its next call.  The pool
is private scratch: no array an evaluator returns is a view of it.

The backward pass does no work the forward pass already did.  A backward
rule gets the node's own value with its operands, so exp, sqrt, sigmoid,
tanh and a real power's exponent rule read the value instead of
recomputing it with the same kernel.  The residual, and then the loss's
adjoint of the derivatives, is computed in place in the derivative
array.  In a network, each hidden layer's activation gradient scales the
fresh adjoint dz @ W.T in place, from the stored activation act alone:
relu and leaky_relu by a factor built from act > 0, which holds exactly
where pre > 0 does, tanh by 1 - act * act.  The tape is tree-shaped, so
each adjoint has one reader, and it is dropped once that rule has read it.

Parameters and gradients are ParamVectors, one flat float64 array each.
The gradient takes the parameters' layout: the backward pass writes each
network layer's gradients into its views.  The adjoints of every scalar
occurrence are copied into the rows of one block and summed in one call,
each row as a 1-D sum would be, and the totals are added into the
scalars from 0.0 in left-to-right occurrence order.  One finiteness
check covers the gradient, naming the first bad entry.

A bias gradient and the per-component means sum the columns of an
(M, w) array with _column_sums.  numpy's sum(axis=0) adds such an array
one row at a time; einsum("ij->j") adds its rows in the same order, so
gives the same bits, without the per-row loop.  A single column is
contiguous, so sum(axis=0) adds it pairwise, and an array that is not
C-contiguous is walked in another order: both keep sum(axis=0).

Besides derivatives and loss_and_grad, an Evaluator holds the one
explicit-Euler loop (euler_rollout), a single rollout, and a dataset's
squared one-step residuals; every pass goes through derivatives, which
checks x, u and t against the schema's shapes and the parameters against
the spec's layout (check_params, rerun only for another layout than the
last, gives the positions of the tape's scalars in the values).  The
scorers reduce those passes, by two conventions.  one_step_mse and
evaluate_test_metrics take a spec, compile it once and score it.
per_component_mse and rollout_mse take an evaluator the caller has
already compiled (fit's, for its validation passes) and reduce one pass
of it, which first checks its dataset's schema.  evaluate_test_metrics
makes one one-step pass, reduced as per_component_mse and one_step_mse
reduce theirs, and hands its evaluator to rollout_mse.  A faulting
one-step pass scores inf, as an exploding rollout does.  TestMetrics.doc
writes the test keys of every result.json; HEADLINE_METRICS names the
headline choices.

Every JSON file is read by read_json and written by write_json, and every
CSV table by write_table; dataset CSVs keep save_dataset's one-pass writer.
The dataset CSV layout ``t, x_1..x_dX, u_1..u_dU`` is this module's alone:
both loaders, load_saved_dataset for a save_dataset directory and
load_csv_dataset for one series split chronologically, build every
trajectory through _csv_trajectory, which names the file of a trajectory
whose times Trajectory refuses or whose step is not the schema's dt.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import itertools
import json
import math
import numbers
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


def require_integers(config, *names: str):
    """Raise ValueError naming the first of config's fields `names` that
    holds no integer: a float (2.0 too) or a bool.  numpy integers pass."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer (got {value!r})")


def require_numbers(config, *names: str):
    """Raise ValueError naming the first of config's fields `names` that
    holds no finite number: a bool, a string, nan, inf or an int beyond
    float range.  An int or a float passes, numpy's too."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number (got {value!r})")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # math converts an int to a float
            raise ValueError(f"{name} must be finite (got an int beyond float range)") from None
        if not finite:
            raise ValueError(f"{name} must be finite (got {value})")


class _Scalars(Mapping):
    """The write-through name -> float view of a ParamVector's scalars."""

    def __init__(self, values: np.ndarray, index: dict[str, int]):
        self._values, self._index = values, index

    def __getitem__(self, name: str) -> float:
        return float(self._values[self._index[name]])

    def __setitem__(self, name: str, value: float):
        self._values[self._index[name]] = value

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class ParamVector:
    """Named scalars and per-network layer weights in one float64 array,
    `values`: the scalars in the order given, then each network's layers,
    each weight matrix before its bias.  `scalars` is a write-through
    mapping over `values` with fixed keys (reads give floats, and
    `p.scalars[name] *= k` writes `values`); `weights` maps each network
    to a tuple of (w, b) views into `values`.  Never rebind `values`.
    """

    def __init__(self, scalars: Mapping[str, float] | None = None,
                 weights: Mapping[str, Sequence[Layer]] | None = None):
        scalars, weights = scalars or {}, weights or {}
        self._index = {name: i for i, name in enumerate(scalars)}  # the layout
        self._shapes = {name: tuple((np.shape(w), np.shape(b)) for w, b in layers)
                        for name, layers in weights.items()}
        self._bind(np.concatenate([np.array(list(scalars.values()), dtype=float)] + [
            np.ravel(a) for layers in weights.values() for layer in layers for a in layer
        ], dtype=float))

    def _bind(self, values: np.ndarray) -> "ParamVector":
        """Point scalars and weights at values, an array in this layout."""
        self.values, self.scalars, self.weights = values, _Scalars(values, self._index), {}
        at = len(self._index)
        for name, layers in self._shapes.items():
            views = []
            for shape in itertools.chain.from_iterable(layers):
                views.append(values[at:at + math.prod(shape)].reshape(shape))
                at += views[-1].size
            self.weights[name] = tuple(zip(views[::2], views[1::2]))
        return self

    def copy(self) -> "ParamVector":
        return copy.copy(self)._bind(self.values.copy())

    def zeros_like(self) -> "ParamVector":
        return copy.copy(self)._bind(np.zeros_like(self.values))

    def owner(self, i: int) -> str:
        """The name of the scalar or network that holds values[i]."""
        sizes = [1] * len(self._index) + [sum(a.size for layer in layers for a in layer)
                                          for layers in self.weights.values()]
        return [*self._index, *self.weights][int(np.searchsorted(np.cumsum(sizes), i, "right"))]


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
        if not np.isfinite(self.times).all():  # nan would pass both checks below
            raise ValueError("times must be finite")
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
    """Trajectories of one split.  Nothing mutates a dataset's trajectories
    after construction, so transitions() stacks them once and returns that
    same batch on every later call."""

    trajectories: list[Trajectory]
    schema: SystemSchema
    split: str = "train"
    _transitions: "TransitionBatch | None" = field(default=None, init=False, repr=False,
                                                   compare=False)

    def n_transitions(self) -> int:
        return sum(max(0, len(tr) - 1) for tr in self.trajectories)

    def transitions(self) -> "TransitionBatch":
        if self._transitions is None:
            self._transitions = TransitionBatch.from_dataset(self)
        return self._transitions


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
        """The rows idx, in that order, copied into new arrays."""
        return TransitionBatch(self.x.take(idx, axis=0), self.u.take(idx, axis=0),
                               self.t.take(idx), self.y.take(idx, axis=0))

    def __len__(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# Compiled evaluation


def _act(name: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The activation of z, written into out, which may be z itself."""
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "leaky_relu":  # max(z, 0.1 z) is z where z > 0, else 0.1 z
        return np.maximum(z, z * 0.1, out=out)
    return np.tanh(z, out=out)


def _act_backward(name: str, d_a: np.ndarray, act: np.ndarray):
    """Scale d_a in place by the activation's derivative, given only the
    activation act the forward pass stored.  act > 0 exactly where the
    pre-activation is > 0 (nan, +-0, +-inf and an underflow of 0.1 z to
    -0.0 included).  leaky_relu's factor is exactly 1.0 or 0.1, as
    0.9 + 0.1 == 1.0 in float64."""
    if name == "relu":
        np.multiply(d_a, act > 0.0, out=d_a)
    elif name == "leaky_relu":
        d_a *= (act > 0.0) * 0.9 + 0.1
    else:
        d_a *= 1.0 - act * act


def _column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each column's sum of the 2-D array a, its rows added in order: the
    bits of a.sum(axis=0), which numpy computes one row at a time."""
    if a.shape[1] >= 2 and a.flags.c_contiguous:
        return np.einsum("ij->j", a, out=out)
    return a.sum(axis=0, out=out)


def _residual(f: np.ndarray, batch: TransitionBatch, dt: float) -> np.ndarray:
    """The one-step residual (x + f dt) - y, written over the derivatives f."""
    f *= dt
    f += batch.x
    f -= batch.y
    return f


def _mlp_forward(decl: MlpDecl, layers: Sequence[Layer], z0: np.ndarray, buffers):
    """The network's output for inputs z0, computed in buffers, one (M,
    width) array per layer: a hidden layer's activation overwrites its
    pre-activation there.  The caches are each layer's input."""
    caches = []
    a = z0
    for li, ((w, b), out) in enumerate(zip(layers, buffers)):
        np.matmul(a, w, out=out)
        np.add(out, b, out=out)
        caches.append(a)
        a = out if li == len(layers) - 1 else _act(decl.activation, out, out)
    return a, caches


def _mlp_backward(decl: MlpDecl, layers: Sequence[Layer], caches, g_out: np.ndarray, grads):
    """Write each layer's weight and bias gradient into its views in grads."""
    dz = g_out
    for li in reversed(range(len(layers))):
        if li < len(layers) - 1:  # a hidden layer: dz is its d_a, its activation the next input
            _act_backward(decl.activation, dz, caches[li + 1])
        np.matmul(caches[li].T, dz, out=grads[li][0])
        _column_sums(dz, out=grads[li][1])
        if li:  # the network inputs need no adjoint
            dz = dz @ layers[li][0].T


def _int_exponent(e: Expr) -> int | None:
    if e.kind == "const" and float(e.value).is_integer():
        return int(e.value)
    return None


def _tape_op(e: Expr) -> str:
    """The op-table entry of an operator node: "pow_int" for a power with
    an integer constant exponent, which needs no clamped base."""
    if e.op == "pow" and _int_exponent(e.args[1]) is not None:
        return "pow_int"
    return e.op


def sigmoid(z, out=None):
    """The logistic function 1 / (1 + exp(-z)), elementwise.  Given out, an
    array that is not z, it is computed in place there (negate, exp, add
    1.0, divide), with the same bits as the expression."""
    if out is None:
        return 1.0 / (1.0 + np.exp(-z))
    np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


# The op table.  A forward rule maps the operand values a, b (a unary op
# ignores b), the node's constant k and its output row `out` to the node's
# value; `out` is None for a scalar node, which then returns a new scalar.
# A backward rule maps the node's adjoint g, with the same a, b, k and the
# node's own value y, to the adjoint of one operand; exp, sqrt, sigmoid,
# tanh and pow read y where they would recompute it with the same kernel.
# k is the exponent of "pow_int" (pow with an integer constant exponent)
# and None otherwise.  The guarded domains are nodes of their own: "clamp"
# (max(a, 1e-8)) feeds log, sqrt and pow's base, "guard" feeds the
# denominator of div.


def _guard_div(a, b, k, out):
    """a where |a| >= 1e-8, else 1e-8 where a >= 0 and -1e-8 where a < 0
    or a is nan.  A row with no such entry is copied as it is."""
    if out is None:
        return np.where(np.abs(a) >= GUARD_EPS, a, np.where(a >= 0.0, GUARD_EPS, -GUARD_EPS))
    if np.abs(a, out=out).min(initial=np.inf) >= GUARD_EPS:  # the min of a nan is nan
        np.copyto(out, a)
        return out
    np.copyto(out, np.where(a >= 0.0, GUARD_EPS, -GUARD_EPS))
    np.copyto(out, a, where=np.abs(a) >= GUARD_EPS)
    return out


def _power(a, b, k, out):
    """a ** b, or a ** k for "pow_int".  A scalar base is a numpy scalar
    (libm pow, as for a Python float, but overflow gives inf instead of
    raising OverflowError), or a 0-d array for a negative integer exponent.
    A row node copies a into out and raises it in place: ndarray picks the
    same kernel for out **= e as for a ** e (square for 2, sqrt for 0.5,
    ...), so the bits do not change."""
    e = b if k is None else k
    if out is None:
        return (np.asarray(a, dtype=float) if k is not None and k < 0 else np.float64(a)) ** e
    np.copyto(out, a)
    out **= e
    return out


def _pow_int_grad(g, a, b, k, y):
    return np.zeros_like(g) if k == 0 else g * k * a ** (k - 1)


_OPS = {  # op: (forward, backward to a, backward to b)
    "clamp": (lambda a, b, k, out: np.maximum(a, GUARD_EPS, out=out),
              lambda g, a, b, k, y: g * (a > GUARD_EPS), None),
    "guard": (_guard_div, lambda g, a, b, k, y: g * (np.abs(a) >= GUARD_EPS), None),
    "neg": (lambda a, b, k, out: np.negative(a, out=out), lambda g, a, b, k, y: -g, None),
    "log": (lambda a, b, k, out: np.log(a, out=out), lambda g, a, b, k, y: g / a, None),
    "exp": (lambda a, b, k, out: np.exp(a, out=out), lambda g, a, b, k, y: g * y, None),
    "sin": (lambda a, b, k, out: np.sin(a, out=out),
            lambda g, a, b, k, y: g * np.cos(a), None),
    "cos": (lambda a, b, k, out: np.cos(a, out=out),
            lambda g, a, b, k, y: -g * np.sin(a), None),
    "sqrt": (lambda a, b, k, out: np.sqrt(a, out=out),
             lambda g, a, b, k, y: g / (2.0 * y), None),
    "abs": (lambda a, b, k, out: np.abs(a, out=out),
            lambda g, a, b, k, y: g * np.sign(a), None),
    "sigmoid": (lambda a, b, k, out: sigmoid(a, out=out),
                lambda g, a, b, k, y: g * y * (1.0 - y), None),
    "tanh": (lambda a, b, k, out: np.tanh(a, out=out),
             lambda g, a, b, k, y: g * (1.0 - y * y), None),
    "add": (lambda a, b, k, out: np.add(a, b, out=out),
            lambda g, a, b, k, y: g, lambda g, a, b, k, y: g),
    "sub": (lambda a, b, k, out: np.subtract(a, b, out=out),
            lambda g, a, b, k, y: g, lambda g, a, b, k, y: -g),
    "mul": (lambda a, b, k, out: np.multiply(a, b, out=out),
            lambda g, a, b, k, y: g * b, lambda g, a, b, k, y: g * a),
    "div": (lambda a, b, k, out: np.divide(a, b, out=out), lambda g, a, b, k, y: g / b,
            lambda g, a, b, k, y: g * (-a / (b * b))),
    "pow_int": (_power, _pow_int_grad, None),
    "pow": (_power, lambda g, a, b, k, y: g * b * a ** (b - 1.0),
            lambda g, a, b, k, y: g * y * np.log(a)),
}

# the guard node each op puts on its operands
_GUARDS = {"log": ("clamp", None), "sqrt": ("clamp", None), "pow": ("clamp", None),
           "div": (None, "guard")}


class _Tape(NamedTuple):
    """A compiled spec (see the module docstring).  Adjoint slots number
    as the value slots, then one per parameter occurrence from n_values."""

    params: tuple[str, ...]    # the referenced parameters, in value-slot order
    consts: tuple[float, ...]  # one per constant leaf
    nodes: tuple               # (forward, a, b, k) per operator node
    rows: tuple                # each node's workspace row, None for a scalar node
    shared_rows: tuple         # the same for a pass without a backward: rows are reused
    roots: tuple[int, ...]     # each component's value slot
    seeds: tuple               # each component's adjoint slot, None if inactive
    backward: tuple            # (slot, a, b, k, rule, to, rule, to) per active node, reversed
    occurrences: tuple[str, ...]  # the parameter at each occurrence adjoint slot
    n_values: int
    mlp_inputs: dict[str, tuple[int, ...]]  # each network's input value slots


def _compile(spec: ModelSpec, schema: SystemSchema) -> _Tape:
    inputs = {TIME_SYMBOL: 0}
    for name in schema.state_names + schema.action_names:
        inputs[name] = len(inputs)
    params: dict[str, int] = {}
    n_consts = n_nodes = 0
    for comp in spec.components:
        for e in comp.expr.walk():
            if e.kind == "ref" and e.name not in inputs:
                params.setdefault(e.name, len(inputs) + len(params))
            n_consts += e.kind == "const"
            if e.kind in ("unary", "binary"):
                n_nodes += 1 + sum(g is not None for g in _GUARDS.get(_tape_op(e), ()))
    const_base = len(inputs) + len(params)
    n_values = const_base + n_consts + n_nodes
    consts: list[float] = []
    nodes: list[tuple] = []
    rows: list[int | None] = []
    shared_rows: list[int | None] = []
    varying = set(inputs.values())  # the row-varying value slots
    unread: dict[int, int] = {}  # a row-varying node's slot -> its shared row, until read
    free: list[int] = []         # shared rows whose one reader has been emitted
    backward: list[tuple] = []
    occurrences: list[str] = []

    def node(op, a, to_a, b=None, to_b=None, k=None) -> tuple[int, int | None]:
        """Append one operator node (a unary one reads its operand as b too)."""
        forward, rule_a, rule_b = _OPS[op]
        b = a if b is None else b
        slot = const_base + n_consts + len(nodes)
        row = shared = None
        if a in varying or b in varying:
            row = len(varying) - len(inputs)
            varying.add(slot)
            # a fresh row, never an operand's: _guard_div writes |a| to out, then copies a
            shared = unread[slot] = free.pop() if free else len(unread)
            free.extend(unread.pop(v) for v in dict.fromkeys((a, b)) if v in unread)
        nodes.append((forward, a, b, k))
        rows.append(row)
        shared_rows.append(shared)
        if to_a is None and to_b is None:
            return slot, None
        backward.append((slot, a, b, k, rule_a, to_a, rule_b, to_b))
        return slot, slot

    def emit(e: Expr) -> tuple[int, int | None]:
        """Append e's subtree; return its value slot and its adjoint slot
        (None when no parameter occurs in it)."""
        if e.kind == "const":
            consts.append(e.value)
            return const_base + len(consts) - 1, None
        if e.kind == "time":
            return 0, None
        if e.kind == "ref":
            if e.name in inputs:
                return inputs[e.name], None
            occurrences.append(e.name)
            return params[e.name], n_values + len(occurrences) - 1
        op = _tape_op(e)
        guard_a, guard_b = _GUARDS.get(op, (None, None))
        a = emit(e.args[0])
        if guard_a:
            a = node(guard_a, *a)
        if e.kind == "unary":
            return node(op, *a)
        b = emit(e.args[1])
        if guard_b:
            b = node(guard_b, *b)
        return node(op, *a, *b, k=_int_exponent(e.args[1]) if op == "pow_int" else None)

    roots, seeds = zip(*(emit(comp.expr) for comp in spec.components))
    backward.reverse()
    mlp_inputs = {m.name: tuple(inputs[n] for n in m.inputs) for m in spec.mlps}
    return _Tape(tuple(params), tuple(consts), tuple(nodes), tuple(rows), tuple(shared_rows),
                 roots, seeds, tuple(backward), tuple(occurrences), n_values, mlp_inputs)


class _Workspace(NamedTuple):
    """An evaluator's scratch arrays for one row count M and pass kind,
    all views of its pool."""

    outs: list   # each tape node's row of one (rows, M) block, None if scalar
    mlps: dict   # per network: its (M, inputs) input and one (M, width) output per layer


class Evaluator:
    """A spec compiled against a schema for repeated batched evaluation.

    Results depend only on (params, data).  The forward pass writes into
    the workspace for its row count and pass kind, views of the
    evaluator's one scratch pool: one row per tape node and one array per
    network layer for derivatives(with_cache=True), shared rows and two
    buffers per network without it (see the module docstring).  So an
    evaluator is not safe to share across threads; nothing in hdtwin
    shares one.  Returned derivatives and gradients never alias the pool;
    only the cache of derivatives(with_cache=True) does.  A
    gradient is new memory unless loss_and_grad is given out=, a
    ParamVector in the parameters' layout: the gradient is then out
    itself, overwritten by each call that is given it.  derivatives keeps
    the last layout check_params passed, so a fit checks its layout once.
    """

    def __init__(self, spec: ModelSpec, schema: SystemSchema):
        problems = validate(spec, schema)
        if problems:
            raise ValueError(
                "spec is not valid for this schema: " + "; ".join(str(v) for v in problems)
            )
        self.spec = spec
        self.schema = schema
        self._mlps = {m.name: m for m in spec.mlps}
        self._tape = _compile(spec, schema)
        self._pool = np.empty(0)
        self._workspaces: dict[tuple[int, bool], _Workspace] = {}
        self._layout = None, None, None, None  # the last checked layout and its positions

    def _workspace(self, m_rows: int, with_cache: bool) -> _Workspace:
        ws = self._workspaces.get((m_rows, with_cache))
        if ws is not None:
            return ws
        rows = self._tape.rows if with_cache else self._tape.shared_rows
        # the widths of the workspace's flat buffers: the tape block's rows,
        # then per network one buffer per layer input and output with a
        # backward, else two that the layers write in turn; homes holds
        # each network array's buffer
        homes, widths = [], [len(set(rows) - {None})]
        for decl in self._mlps.values():
            dims = decl.layer_dims()
            homes.append([len(widths) + (i if with_cache else i % 2) for i in range(len(dims))])
            widths += dims if with_cache else [max(dims[::2]), max(dims[1::2])]
        # whole 64-byte lines, so that every buffer starts as aligned as the pool
        sizes = [-(-w * m_rows // 8) * 8 for w in widths]
        if sum(sizes) > self._pool.size:
            self._workspaces.clear()  # their views would keep the old pool alive
            self._pool = np.empty(0)  # freed before the larger pool is allocated
            self._pool = np.empty(sum(sizes))
        starts = itertools.accumulate(sizes, initial=0)
        bufs = [self._pool[lo:lo + w * m_rows] for lo, w in zip(starts, widths)]
        block = bufs[0].reshape(widths[0], m_rows)
        mlps = {}
        for (name, decl), home in zip(self._mlps.items(), homes):
            z0, *outs = [bufs[h][:m_rows * d].reshape(m_rows, d)
                         for h, d in zip(home, decl.layer_dims())]
            mlps[name] = z0, outs
        ws = self._workspaces[m_rows, with_cache] = _Workspace(
            [None if r is None else block[r] for r in rows], mlps)
        return ws

    # -- parameter bookkeeping

    def check_params(self, params: ParamVector) -> tuple[np.ndarray, np.ndarray]:
        """Compare params' layout with the spec; extra scalars are allowed.
        Returns the positions in params.values of the tape's scalars and of
        its parameter occurrences.  derivatives, which every pass enters,
        calls it only for another layout than the last one it passed."""
        for p in self.spec.params:
            if p.name not in params.scalars:
                raise ValueError(f"parameter vector is missing {p.name!r}")
        for decl in self.spec.mlps:
            dims = decl.layer_dims()
            want = [((i, o), (o,)) for i, o in zip(dims, dims[1:])]
            got = params._shapes.get(decl.name, ())
            if len(got) != len(want):
                raise ValueError(f"parameter vector has wrong layer count for {decl.name!r}")
            for li, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    raise ValueError(f"{decl.name!r} layer {li} has shape {g[0]}/{g[1]},"
                                     f" expected {w[0]}/{w[1]}")
        return tuple(np.array([params._index[n] for n in names], dtype=np.intp)
                     for names in (self._tape.params, self._tape.occurrences))

    def _check_dataset(self, dataset: Dataset):
        """A scoring pass's dataset must have this evaluator's schema."""
        if dataset.schema != self.schema:
            raise ValueError("the dataset has another schema than the evaluator")

    # -- forward

    @np.errstate(all="ignore")
    def derivatives(self, params: ParamVector, x, u, t, with_cache: bool = False):
        """Model dx/dt for a batch; x (M, d_x), u (M, d_u), t (M,), else a
        ValueError naming both shapes, and params in the spec's layout, else
        check_params' ValueError.  Every pass of an evaluator comes here.

        Overflow to inf/nan is allowed here and surfaced as an
        EvaluationFault by the callers that check finiteness.  The cache
        (with_cache) holds workspace arrays, valid only until the
        evaluator's next call: loss_and_grad's backward pass reads it.
        """
        m = np.shape(x)[:1]
        want = (m + (self.schema.d_x,), m + (self.schema.d_u,), m)
        got = (np.shape(x), np.shape(u), np.shape(t))
        if got != want:
            raise ValueError(f"x, u, t have shapes {got}, expected {want}")
        if self._layout[:2] != (params._index, params._shapes):  # identical objects in a fit
            self._layout = (params._index, params._shapes, *self.check_params(params))
        tape = self._tape
        vals = [t, *x.T, *u.T, *params.values[self._layout[2]].tolist(), *tape.consts]
        m_rows = x.shape[0]
        ws = self._workspace(m_rows, with_cache)
        mlp_out, mlp_caches = {}, {}
        for name, decl in self._mlps.items():
            z0, buffers = ws.mlps[name]
            for j, i in enumerate(tape.mlp_inputs[name]):
                z0[:, j] = vals[i]
            mlp_out[name], mlp_caches[name] = _mlp_forward(decl, params.weights[name], z0,
                                                           buffers)
        for (forward, a, b, k), out in zip(tape.nodes, ws.outs):
            vals.append(forward(vals[a], vals[b], k, out))
        f = np.empty((m_rows, self.schema.d_x))
        for j, comp in enumerate(self.spec.components):
            if comp.residual is None:
                f[:, j] = vals[tape.roots[j]]
            else:
                name, idx = comp.residual
                np.add(vals[tape.roots[j]], mlp_out[name][:, idx], out=f[:, j])
        if with_cache:
            return f, (vals, mlp_out, mlp_caches)
        return f

    def derivative(self, params: ParamVector, state, action, time: float) -> np.ndarray:
        x = np.asarray(state, dtype=float).reshape(1, -1)
        u = np.asarray(action, dtype=float).reshape(1, -1)
        f = self.derivatives(params, x, u, np.array([float(time)]))[0]
        self._require_finite(f)
        return f

    def _require_finite(self, f: np.ndarray, step: int | None = None):
        """The one blame rule: raise EvaluationFault for the component of the
        first non-finite entry of f (rows by component) in row order."""
        if np.isfinite(f).all():
            return
        j = int(np.argmin(np.isfinite(f).reshape(-1))) % f.shape[-1]
        at = "" if step is None else f" at step {step}"
        raise EvaluationFault(f"non-finite derivative{at} (component"
                              f" {self.spec.components[j].target})", component=j, step=step)

    @np.errstate(all="ignore")
    def loss_and_grad(self, params: ParamVector, batch: TransitionBatch, dt: float,
                      out: ParamVector | None = None):
        """Batch one-step MSE and its exact reverse-mode gradient.

        The gradient is a new ParamVector in params' layout, or out if
        given: a ParamVector in that layout, which is zeroed, filled and
        returned.  After an EvaluationFault out holds no gradient.
        A non-finite derivative is blamed by _require_finite's one rule.
        """
        if out is not None and (out._index != params._index or out._shapes != params._shapes):
            raise ValueError("out has another layout than params")
        f, (vals, mlp_out, mlp_caches) = self.derivatives(params, batch.x, batch.u, batch.t,
                                                          with_cache=True)
        self._require_finite(f)  # the loss rule below is for a finite f's overflow
        m_rows = len(batch)
        r = _residual(f, batch, dt)  # scaled below into the loss's adjoint of each derivative
        sq = r * r
        loss = float(np.sum(sq)) / m_rows
        if not np.isfinite(loss):
            sums = np.sum(sq, axis=0)  # the first non-finite sum, else the largest
            finite = np.isfinite(sums)
            bad = int(np.argmax(sums) if finite.all() else np.argmin(finite))
            raise EvaluationFault(
                f"non-finite loss (component {self.spec.components[bad].target})", component=bad
            )
        r *= 2.0 * dt / m_rows
        tape = self._tape
        adj = [None] * (tape.n_values + len(tape.occurrences))
        out_adj = {name: np.zeros_like(net_out) for name, net_out in mlp_out.items()}
        for j, comp in enumerate(self.spec.components):
            if tape.seeds[j] is not None:
                adj[tape.seeds[j]] = r[:, j]
            if comp.residual is not None:
                name, idx = comp.residual
                out_adj[name][:, idx] += r[:, j]
        for slot, a, b, k, rule_a, to_a, rule_b, to_b in tape.backward:
            g, va, vb, y = adj[slot], vals[a], vals[b], vals[slot]
            adj[slot] = None  # the tape is tree-shaped: this rule is the adjoint's one reader
            if to_a is not None:
                adj[to_a] = rule_a(g, va, vb, k, y)
            if to_b is not None:
                adj[to_b] = rule_b(g, va, vb, k, y)
        grads = params.zeros_like() if out is None else out
        grads.values.fill(0.0)
        for name, decl in self._mlps.items():
            _mlp_backward(decl, params.weights[name], mlp_caches[name], out_adj[name],
                          grads.weights[name])
        if tape.occurrences:  # one row per occurrence, each summed as a 1-D array would be
            totals = np.array(adj[tape.n_values:]).sum(axis=1)
            np.add.at(grads.values, self._layout[3], totals)  # as derivatives bound params
        finite = np.isfinite(grads.values)
        if not finite.all():
            bad = int(np.argmin(finite))
            name = grads.owner(bad)
            kind = "for parameter" if bad < len(grads.scalars) else "in network"
            raise EvaluationFault(f"non-finite gradient {kind} {name!r}", param=name)
        return loss, grads

    # -- passes without a backward

    @np.errstate(all="ignore")
    def squared_residuals(self, params: ParamVector, dataset: Dataset) -> np.ndarray:
        """((x + f dt) - y)^2 per transition and component of a dataset of
        this evaluator's schema, computed in place in the derivative array."""
        self._check_dataset(dataset)
        batch = dataset.transitions()
        f = self.derivatives(params, batch.x, batch.u, batch.t)
        self._require_finite(f)  # a finite derivative's residual may overflow to inf
        r = _residual(f, batch, self.schema.dt)
        return np.multiply(r, r, out=r)

    @np.errstate(over="ignore", invalid="ignore")
    def euler_rollout(self, x0, times: np.ndarray, dt: float, inputs):
        """The one explicit-Euler loop (rollout, rollout_mse, data generation);
        steps N trajectories together.  x0 (N, d_x); times (N, T+1), each row a
        trajectory's own time column; inputs(k, x) gives step k's (params,
        actions (N, d_u)) from the states x, and at k = T the terminal action.
        Returns states (N, T+1, d_x) and actions (N, T+1, d_u).  Raises
        EvaluationFault at the first step with a non-finite derivative."""
        by_step = np.ascontiguousarray(np.asarray(times, dtype=float).T)  # (T+1, N)
        steps, n = by_step.shape[0] - 1, by_step.shape[1]
        x = np.array(x0, dtype=float)
        if x.shape != (n, self.schema.d_x):
            raise ValueError(f"x0 has shape {x.shape}, expected {(n, self.schema.d_x)}")
        states = np.empty((n, steps + 1, self.schema.d_x))
        actions = np.empty((n, steps + 1, self.schema.d_u))
        states[:, 0] = x
        for k in range(steps):
            params, u = inputs(k, x)
            actions[:, k] = u
            f = self.derivatives(params, x, u, by_step[k])
            self._require_finite(f, step=k)
            x = x + f * dt
            states[:, k + 1] = x
        actions[:, steps] = inputs(steps, x)[1]
        return states, actions

    def rollout(self, params: ParamVector, x0, actions, dt: float,
                t0: float = 0.0) -> Trajectory:
        """Explicit-Euler rollout; one step per action row.

        Returns a trajectory with len(actions) + 1 rows whose final action row
        is zero padding (no action is taken at the terminal state).
        """
        d_u = self.schema.d_u
        actions = np.asarray(actions, dtype=float)
        if actions.ndim != 2:
            if d_u == 0:
                raise ValueError("for action-free systems pass actions with shape (steps, 0)")
            actions = actions.reshape(-1, d_u)
        if actions.shape[1] != d_u:
            raise ValueError(f"actions have {actions.shape[1]} columns, schema has {d_u}")
        steps = actions.shape[0]
        padded = np.vstack([actions, np.zeros((1, d_u))])
        times = t0 + np.arange(steps + 1) * dt
        states, _ = self.euler_rollout(np.reshape(x0, (1, -1)), times[None], dt,
                                       lambda k, x: (params, padded[k:k + 1]))
        return Trajectory(times, states[0], padded)


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    return ParamVector(
        {p.name: float(p.init) for p in spec.params},
        {m.name: mlp_init(m, seed) for m in spec.mlps},
    )


# ---------------------------------------------------------------------------
# Public operations


def one_step_mse(spec: ModelSpec, params: ParamVector, dataset: Dataset) -> float:
    """Teacher-forced mean over transitions of ||(x + f dt) - y||^2."""
    return _mean_row_sum(Evaluator(spec, dataset.schema).squared_residuals(params, dataset))


def per_component_mse(ev: Evaluator, params: ParamVector, dataset: Dataset):
    """Per-dimension one-step MSE delta and its mean upsilon of the
    compiled evaluator ev under params."""
    return _component_means(ev.squared_residuals(params, dataset))


def _mean_row_sum(sq: np.ndarray) -> float:  # one_step_mse of the squared residuals sq
    return float(np.mean(np.sum(sq, axis=1)))


def _component_means(sq: np.ndarray) -> tuple[np.ndarray, float]:  # per_component_mse of sq
    delta = _column_sums(sq) / sq.shape[0]  # the bits of np.mean(sq, axis=0)
    return delta, float(np.mean(delta))


@np.errstate(over="ignore", invalid="ignore")
def rollout_mse(ev: Evaluator, params: ParamVector, dataset: Dataset) -> float:
    """Full-trajectory MSE of the compiled evaluator ev: roll the model
    from each x(0) with the stored actions and average
    ||predicted - true||^2 over every row.

    Non-finite rollouts return inf rather than raising (an exploding model
    is a bad model, not a crash).
    """
    ev._check_dataset(dataset)
    total, count = 0.0, 0
    for length in sorted({len(tr) for tr in dataset.trajectories if len(tr) >= 2}):
        trs = [tr for tr in dataset.trajectories if len(tr) == length]
        truth = np.stack([tr.states for tr in trs])  # (N, T+1, d_x)
        stored = np.stack([tr.actions for tr in trs], axis=1)  # (T+1, N, d_u)
        times = np.stack([tr.times for tr in trs])
        try:
            predicted, _ = ev.euler_rollout(truth[:, 0], times, dataset.schema.dt,
                                            lambda k, x: (params, stored[k]))
        except EvaluationFault:
            return float("inf")
        sq = np.sum((predicted[:, 1:] - truth[:, 1:]) ** 2, axis=2)
        err = np.cumsum(sq, axis=1)[:, -1]  # in step order; np.sum would add pairwise
        if not np.isfinite(err).all():
            return float("inf")
        total += float(np.sum(err))
        count += len(trs) * length  # rows incl. the exact step-0 match
    if count == 0:
        raise ValueError("dataset has no multi-step trajectories")
    return total / count


HEADLINE_METRICS = ("one-step", "rollout")  # what a headline test score can be; the default first


@dataclass
class TestMetrics:
    upsilon: float           # mean over components of the one-step MSE
    delta: np.ndarray        # per-component one-step MSE
    sum_mse: float           # summed-over-components one-step MSE
    rollout: float           # full-trajectory MSE

    def headline(self, name: str) -> float:  # upsilon for "one-step", rollout for "rollout"
        return (self.upsilon, self.rollout)[HEADLINE_METRICS.index(name)]

    def doc(self, headline: str) -> dict:
        """The test keys of a result.json, `headline` naming the headline."""
        return {"headline_metric": headline, "headline_value": self.headline(headline),
                "test_upsilon": self.upsilon, "test_delta": [float(v) for v in self.delta],
                "test_sum_mse": self.sum_mse, "test_rollout_mse": self.rollout}


def evaluate_test_metrics(spec: ModelSpec, params: ParamVector, test: Dataset) -> TestMetrics:
    """Test scores from one compiled evaluator and one one-step pass,
    reduced as per_component_mse and one_step_mse reduce it.  A faulting
    one-step pass scores inf, as an exploding rollout does in rollout_mse."""
    ev = Evaluator(spec, test.schema)
    try:
        sq = ev.squared_residuals(params, test)
    except EvaluationFault:
        sq = np.full((1, len(spec.components)), np.inf)
    delta, upsilon = _component_means(sq)
    return TestMetrics(upsilon, delta, _mean_row_sum(sq), rollout_mse(ev, params, test))


# ---------------------------------------------------------------------------
# Dataset and parameter serialization


_TRAJ_FILE = "traj-{:05d}.csv"


def _csv_header(sch: SystemSchema) -> list[str]:
    return ["t"] + [f"x_{i + 1}" for i in range(sch.d_x)] + [f"u_{i + 1}" for i in range(sch.d_u)]


def read_csv_rows(path: Path, width: int) -> tuple[list[str], np.ndarray]:
    """The header row and the (rows, width) float body of a CSV file.

    Raises ValueError naming the file and the row (the header is row 1)
    when there is no data row, a row has another width, or a field is
    not a number.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh.read().splitlines()))
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    body = rows[1:]
    for i, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {width}")
    try:
        data = np.array(list(map(float, itertools.chain.from_iterable(body))))
    except ValueError:
        for i, row in enumerate(body, start=2):
            try:
                list(map(float, row))
            except ValueError as err:
                raise ValueError(f"{path}: row {i}: {err}") from None
        raise
    return rows[0], data.reshape(len(body), width)


def _csv_trajectory(path: Path, rows: np.ndarray, schema: SystemSchema) -> Trajectory:
    """The trajectory of rows ``t, x_1..x_dX, u_1..u_dU`` read from the CSV
    file path; a ValueError for its times, or for a step that is not the
    schema's dt (within Trajectory's spacing tolerance), names the file."""
    try:
        tr = Trajectory(rows[:, 0], rows[:, 1:1 + schema.d_x], rows[:, 1 + schema.d_x:])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    # Trajectory holds every step to the first, so one step checks them all
    step = float(tr.times[1] - tr.times[0]) if len(tr) >= 2 else schema.dt
    if abs(step - schema.dt) > 1e-9 * max(1.0, abs(schema.dt)):
        raise ValueError(f"{path}: time step {step!r} is not the schema's dt {schema.dt!r}")
    return tr


def save_dataset(ds: Dataset, out_dir: str | Path, seed: int | None = None,
                 notes: dict | None = None):
    """One CSV per trajectory, ``traj-00000.csv`` upward, plus a manifest.

    Each row is ``t, x_1..x_dX, u_1..u_dU`` with every float written as
    its ``repr`` and every line, the header included, ended by ``\\r\\n``
    (what ``write_table`` writes; no field ever needs quoting), so floats
    round-trip bit-exactly and same-seed exports are byte-identical.
    Saving into a directory that holds a longer save deletes its
    ``traj-*.csv`` files past the new count; no other file is touched.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sch = ds.schema
    header = _csv_header(sch)
    head = ",".join(header) + "\r\n"
    for i, tr in enumerate(ds.trajectories):
        rows = np.column_stack((tr.times, tr.states, tr.actions)).tolist()
        text = head + "".join([",".join(map(repr, row)) + "\r\n" for row in rows])
        with open(out / _TRAJ_FILE.format(i), "w", newline="") as fh:
            fh.write(text)
    with contextlib.suppress(FileNotFoundError):  # what a longer earlier save left
        for i in itertools.count(len(ds.trajectories)):
            (out / _TRAJ_FILE.format(i)).unlink()
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
    write_json(manifest, out / "manifest.json")


def load_saved_dataset(in_dir: str | Path) -> Dataset:
    """Read a save_dataset directory back, bit-exactly.

    Reads exactly the manifest's ``n_trajectories`` files,
    ``traj-00000.csv`` upward; other files in the directory are ignored.
    A manifest that is not JSON or lacks a key, a missing file, or a CSV
    whose header or row width does not match the manifest schema, raises
    ValueError."""
    src = Path(in_dir)
    manifest = read_json(src / "manifest.json", "schema.states", "schema.actions",
                         "schema.time_units", "schema.dt", "n_trajectories", "split")
    sch = manifest["schema"]
    try:
        schema = SystemSchema(
            states=tuple(VarSpec(n, lo, hi) for n, lo, hi in sch["states"]),
            actions=tuple(VarSpec(n, lo, hi) for n, lo, hi in sch["actions"]),
            time_units=sch["time_units"],
            dt=sch["dt"],
        )
    except (TypeError, ValueError) as err:
        raise ValueError(f"{src / 'manifest.json'}: bad 'schema' ({err})") from None
    header = _csv_header(schema)
    n = manifest["n_trajectories"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"{src / 'manifest.json'}: 'n_trajectories' is not a count")
    trajectories = []
    for i in range(n):
        path = src / _TRAJ_FILE.format(i)
        try:
            names, body = read_csv_rows(path, len(header))
        except FileNotFoundError:
            raise ValueError(f"{path}: missing; the manifest lists {n} trajectories") from None
        if names != header:
            raise ValueError(f"{path}: row 1 has header {','.join(names)},"
                             f" expected {','.join(header)}")
        trajectories.append(_csv_trajectory(path, body, schema))
    return Dataset(trajectories, schema, manifest["split"])


def load_csv_dataset(path: str | Path, schema: SystemSchema,
                     splits: tuple = (0.7, 0.15, 0.15)) -> dict[str, Dataset]:
    """Chronological train/val/test split of a single-trajectory CSV.

    The file layout matches the generator export: header ``t, x_1..x_dX,
    u_1..u_dU`` with one row per time step.  `splits` is either three
    fractions (rows are divided floor-then-remainder, nothing dropped) or
    three absolute row counts (trailing rows beyond their sum are dropped,
    as for the 92-row hare-lynx and 102-row plankton files).  A negative
    entry, a fraction above 1, train plus val fractions above 1, or a
    split of fewer than 2 rows (no transition) raise ValueError naming the
    file.
    """
    path = Path(path)
    counts = all(isinstance(s, int) for s in splits)
    if not all(s >= 0 for s in splits):  # nan is not >= 0 either
        raise ValueError(f"{path}: split sizes {splits} must not be negative")
    if not counts and (max(splits) > 1 or splits[0] + splits[1] > 1):
        raise ValueError(f"{path}: split fractions {splits} must each be at most 1,"
                         " and train plus val too")
    _, data = read_csv_rows(path, 1 + schema.d_x + schema.d_u)
    times = data[:, 0]
    if np.any(np.diff(times) <= 0):
        raise ValueError(f"{path}: time column is not strictly increasing")

    n = len(data)
    if counts:
        n_train, n_val, n_test = splits
        if n_train + n_val + n_test > n:
            raise ValueError(f"{path}: split sizes {splits} exceed {n} rows")
    else:
        f_train, f_val, _ = splits
        n_train = int(n * f_train)
        n_val = int(n * f_val)
        n_test = n - n_train - n_val
    bounds = [0, n_train, n_train + n_val, n_train + n_val + n_test]
    out = {}
    for split, lo, hi in zip(("train", "val", "test"), bounds, bounds[1:]):
        if hi - lo < 2:
            raise ValueError(f"{path}: split {split} of {splits} has {hi - lo} of the {n} rows;"
                             " each split needs at least 2 for a transition")
        out[split] = Dataset([_csv_trajectory(path, data[lo:hi], schema)], schema, split)
    return out


def read_json(path: str | Path, *keys: str):
    """The JSON document at path; with keys, an object holding each of them,
    where "a.b" is key b of the object at key a.  Raises ValueError naming
    the file when it is not JSON or lacks a key."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path} is not JSON ({err})") from None
    for key in keys:
        node, parts = doc, key.split(".")
        for i, part in enumerate(parts):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"{path} has no {'.'.join(parts[:i + 1])!r}")
            node = node[part]
    return doc


def write_json(doc, path: str | Path):
    """doc as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(rows, path: str | Path):
    """rows as CSV with \\r\\n line ends: every float (numpy's too) as its
    repr, any other cell as csv writes it (None as an empty cell)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [[repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
             for row in rows])


def save_params(params: ParamVector, path: str | Path):
    write_json({
        "scalars": dict(params.scalars),
        "weights": {
            name: [{"w": w.tolist(), "b": b.tolist()} for w, b in layers]
            for name, layers in params.weights.items()
        },
    }, path)


def _floats(value, ndim: int) -> np.ndarray:
    """value as a float array of ndim dimensions; ValueError unless it is a
    number or a rectangular list of numbers (bools and strings are not)."""
    a = np.array(value)  # ragged lists raise ValueError
    if a.ndim != ndim or a.dtype.kind not in "iuf":
        raise ValueError(value)
    return a.astype(float)


def load_params(path: str | Path) -> ParamVector:
    """A save_params file.  Anything but an object of numbers under
    `scalars` and an object of lists of {"w": matrix, "b": vector} layers
    under `weights` raises ValueError naming the file and the key."""
    doc = read_json(path, "scalars", "weights")
    key = "scalars"
    try:
        scalars = {name: float(_floats(v, 0)) for name, v in doc[key].items()}
        key, weights = "weights", {}
        for name, layers in doc[key].items():
            key = f"weights.{name}"
            weights[name] = [(_floats(layer["w"], 2), _floats(layer["b"], 1))
                             for layer in layers]
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: {key!r} is not what save_params writes (scalars: numbers;"
                         ' weights: lists of {"w": matrix, "b": vector} layers)') from None
    return ParamVector(scalars, weights)
