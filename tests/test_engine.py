from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import replay_fixtures
from conftest import (
    finite_diff_gradients,
    flatten_gradients,
    naive_one_step_loss,
    random_batch,
    random_params,
    random_schema,
    random_spec,
)
from hdtwin import engine
from hdtwin.agents import DecodingConfig
from hdtwin.baselines import SindyConfig
from hdtwin.dsl import MlpDecl, SystemSchema, VarSpec, parse_model_spec
from hdtwin.engine import (
    Dataset,
    EvaluationFault,
    Evaluator,
    ParamVector,
    Trajectory,
    TransitionBatch,
    init_params,
    load_params,
    load_saved_dataset,
    mlp_init,
    one_step_mse,
    per_component_mse,
    rollout_mse,
    save_dataset,
    save_params,
)
from hdtwin.optim import OptimConfig, fit
from hdtwin.orchestrator import EvolveConfig
from hdtwin.systems import BUILTIN_IDS, GenConfig, builtin_system, generate_dataset

CANCER_SCHEMA = SystemSchema(
    states=(VarSpec("tumor_volume", 0.01433, 1170.861),
            VarSpec("chemotherapy_drug_concentration", 0.0, 9.9975)),
    actions=(VarSpec("chemotherapy_dosage", 0.0, 5.0),
             VarSpec("radiotherapy_dosage", 0.0, 2.0)),
    time_units="days",
    dt=1.0,
)

CANCER_TEXT = """
param rho = 7e-05
param kcap = 30.0
param beta_c = 0.028
param alpha_r = 0.0398
param beta_r = 0.00398
d(tumor_volume)/dt = (rho * log(kcap / tumor_volume) - beta_c * chemotherapy_drug_concentration - (alpha_r * radiotherapy_dosage + beta_r * radiotherapy_dosage ^ 2.0)) * tumor_volume
d(chemotherapy_drug_concentration)/dt = chemotherapy_dosage - 0.5 * chemotherapy_drug_concentration
"""


def cancer_model():
    spec = parse_model_spec(CANCER_TEXT)
    return spec, init_params(spec)


# ---------------------------------------------------------------------------
# Evaluator.derivative: one row


def test_tumor_growth_derivative_matches_hand_value():
    spec, params = cancer_model()
    f = Evaluator(spec, CANCER_SCHEMA).derivative(params, [100.0, 0.0], [0.0, 0.0], 0.0)
    expected = 7.00e-5 * math.log(30.0 / 100.0) * 100.0  # ~= -8.428e-3
    assert f[0] == pytest.approx(expected, rel=1e-12)
    assert f[0] == pytest.approx(-8.428e-3, rel=1e-3)


def test_full_treatment_derivative_matches_hand_value():
    spec, params = cancer_model()
    f = Evaluator(spec, CANCER_SCHEMA).derivative(params, [100.0, 2.0], [0.0, 2.0], 0.0)
    expected = (7.00e-5 * math.log(30.0 / 100.0) - 0.028 * 2.0
                - (0.0398 * 2.0 + 0.00398 * 4.0)) * 100.0  # ~= -15.2
    assert f[0] == pytest.approx(expected, rel=1e-12)


def test_chemo_decay_derivative():
    spec, params = cancer_model()
    f = Evaluator(spec, CANCER_SCHEMA).derivative(params, [100.0, 10.0], [0.0, 0.0], 0.0)
    assert f[1] == pytest.approx(-5.0, abs=1e-12)


def test_lotka_volterra_extinction_fixed_point():
    schema = SystemSchema(states=(VarSpec("prey", 0, 100), VarSpec("pred", 0, 100)))
    spec = parse_model_spec(
        "param a = 1.1\nparam b = 0.4\nparam c = 0.4\nparam d_ = 0.1\n"
        "d(prey)/dt = a * prey - b * prey * pred\n"
        "d(pred)/dt = d_ * prey * pred - c * pred\n"
    )
    f = Evaluator(spec, schema).derivative(init_params(spec), [0.0, 0.0], [], 0.0)
    assert f[0] == 0.0 and f[1] == 0.0


def test_eval_purity_bit_identical():
    spec, params = cancer_model()
    a = Evaluator(spec, CANCER_SCHEMA).derivative(params, [123.4, 3.2], [5.0, 2.0], 7.0)
    b = Evaluator(spec, CANCER_SCHEMA).derivative(params, [123.4, 3.2], [5.0, 2.0], 7.0)
    assert (a == b).all()


def test_non_finite_fault_carries_component():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("d(x)/dt = exp(x)")
    with pytest.raises(EvaluationFault) as err:
        Evaluator(spec, schema).derivative(init_params(spec), [1e6], [], 0.0)
    assert err.value.component == 0


def test_guarded_division_is_total():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param a = 0.0\nd(x)/dt = x / a")
    f = Evaluator(spec, schema).derivative(init_params(spec), [2.0], [], 0.0)
    assert f[0] == pytest.approx(2.0 / 1e-8)
    spec2 = parse_model_spec("d(x)/dt = log(x - 5.0)")
    f2 = Evaluator(spec2, schema).derivative(init_params(spec2), [2.0], [], 0.0)
    assert f2[0] == pytest.approx(math.log(1e-8))


SHAPE_SCHEMA = SystemSchema(states=(VarSpec("x", 0, 10), VarSpec("y", 0, 10)))
SHAPE_SPEC = parse_model_spec("param a = 0.5\nd(x)/dt = a * x\nd(y)/dt = a * y")
SHAPE_WANT = "expected ((1, 2), (1, 0), (1,))"


@pytest.mark.parametrize("state, got", [
    ([1.0, 2.0, 7.0], "((1, 3), (1, 0), (1,))"),  # the extra column was read as a parameter
    ([1.0], "((1, 1), (1, 0), (1,))"),             # an IndexError from inside the tape
], ids=["extra state column", "missing state column"])
def test_derivative_refuses_a_state_of_the_wrong_width(state, got):
    with pytest.raises(ValueError) as err:
        Evaluator(SHAPE_SPEC, SHAPE_SCHEMA).derivative(init_params(SHAPE_SPEC), state, [], 0.0)
    assert str(err.value) == f"x, u, t have shapes {got}, {SHAPE_WANT}"


@pytest.mark.parametrize("x, u, t", [
    (np.ones((1, 2)), np.full((1, 1), 9.0), np.zeros(1)),
    (np.ones((1, 2)), np.zeros((1, 0)), np.zeros((1, 1))),
    (np.ones((1, 2)), np.zeros((1, 0)), np.zeros(2)),
], ids=["extra action column", "time as a column", "more times than rows"])
def test_derivatives_refuse_inputs_of_the_wrong_shape(x, u, t):
    with pytest.raises(ValueError) as err:
        Evaluator(SHAPE_SPEC, SHAPE_SCHEMA).derivatives(init_params(SHAPE_SPEC), x, u, t)
    assert str(err.value) == f"x, u, t have shapes {(x.shape, u.shape, t.shape)}, {SHAPE_WANT}"


@pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0]], ids=["one value", "three values"])
def test_rollout_refuses_an_initial_state_of_the_wrong_width(x0):
    with pytest.raises(ValueError) as err:
        Evaluator(SHAPE_SPEC, SHAPE_SCHEMA).rollout(init_params(SHAPE_SPEC), x0, np.zeros((3, 0)),
                                                    dt=1.0)
    assert str(err.value) == f"x0 has shape (1, {len(x0)}), expected (1, 2)"


def test_scalar_power_overflow_is_a_fault():
    # a parameter-only power of a Python float init once escaped as OverflowError
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param p = 1e200\nd(x)/dt = p ^ 2 * x")
    with pytest.raises(EvaluationFault):
        Evaluator(spec, schema).derivative(init_params(spec), [1.0], [], 0.0)


# ---------------------------------------------------------------------------
# the evaluator's per-row-count workspace

WS_SCHEMA = SystemSchema(states=(VarSpec("x", -10.0, 10.0), VarSpec("y", -10.0, 10.0)),
                         actions=(VarSpec("u", 0.0, 5.0),))
WS_HYBRID = """
param a = 0.3
mlp net(x, u, t) hidden [5, 4] act {act} outputs 2
d(x)/dt = a * x - u + net[0]
d(y)/dt = -a * y * x + net[1]
"""
WS_SPECS = [WS_HYBRID.format(act=act) for act in ("relu", "leaky_relu", "tanh")] + [
    "param a = 0.7\nparam b = 1.5\n"
    "d(x)/dt = sigmoid(a * x) - x ^ b + y / (x - a)\n"
    "d(y)/dt = (a * t) ^ 1.5 - exp(-b) * y * u\n",
]
# sqrt, log, sigmoid, tanh, exp and a real power with a parameter
# exponent, each reached through a parameter of its own
BITS_SPEC = """
param a = 0.7
param b = 1.5
param c = 1.0
param d = 0.8
param e = 0.6
param f = 0.9
param g = 1.5
param h = 1.2
d(x)/dt = sqrt(a * x) + log(b * y) - sigmoid(d * u) * x + tanh(e * y) / (c * y)
d(y)/dt = exp(-f * x) * y + (0.1 * t) ^ g - (h * x) ^ 2.5
"""
GUARD_ROWS = np.array([0.0, -0.0, 5e-9, -5e-9, 1e-8, -1e-8])  # at and around the guards


def _ws_case(text, m, seed):
    spec = parse_model_spec(text)
    rng = np.random.default_rng(seed)
    return spec, random_params(rng, spec), TransitionBatch(
        rng.uniform(-2.0, 3.0, (m, 2)), rng.uniform(0.0, 5.0, (m, 1)),
        rng.uniform(0.0, 60.0, m), rng.uniform(-2.0, 3.0, (m, 2)))


def _same_grads(g1, g2) -> bool:
    return g1.scalars == g2.scalars and all(
        w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()
        for name in g1.weights for (w1, b1), (w2, b2) in zip(g1.weights[name], g2.weights[name]))


@pytest.mark.parametrize("text", WS_SPECS)
def test_reused_evaluator_matches_fresh_across_row_counts(text):
    """Passes with and without a backward on one evaluator, each with a
    fresh evaluator's bits.  First a mixed order: a small pass with a
    backward, a larger one without (the pool grows and drops the cached
    views), the small pass again and an odd partial batch.  Then, on the
    grown pool, the passes of rollouts and scoring: a one-trajectory
    rollout, a residual pass of M rows, a batched Euler loop of N
    trajectories, and the first rollout again."""
    spec = parse_model_spec(text)
    shared = Evaluator(spec, WS_SCHEMA)
    passes = [(100, True), (3000, False), (100, True), (37, True), (37, False)]
    passes += [(m, backward) for m in (1, 7, 1000, 6000, 1000) for backward in (False, True)]
    for i, (m, backward) in enumerate(passes):
        _, params, batch = _ws_case(text, m, seed=i)
        fresh = Evaluator(spec, WS_SCHEMA)
        if backward:
            loss, grads = shared.loss_and_grad(params, batch, 0.5)
            loss_fresh, grads_fresh = fresh.loss_and_grad(params, batch, 0.5)
            assert repr(loss) == repr(loss_fresh) and _same_grads(grads, grads_fresh), i
        else:
            f = shared.derivatives(params, batch.x, batch.u, batch.t)
            assert f.tobytes() == fresh.derivatives(params, batch.x, batch.u, batch.t).tobytes(), i
    _, params, _ = _ws_case(text, 1, seed=len(passes))
    rng = np.random.default_rng(7)
    actions, n = rng.uniform(0.0, 5.0, (30, 1)), 64
    data = Dataset([Trajectory(np.arange(401.0) * WS_SCHEMA.dt, rng.uniform(-2.0, 3.0, (401, 2)),
                               rng.uniform(0.0, 5.0, (401, 1)))], WS_SCHEMA)
    x0, times = rng.uniform(0.5, 2.0, (n, 2)), np.tile(np.arange(31) * 0.01, (n, 1))
    inputs = rng.uniform(0.0, 5.0, (31, n, 1))
    runs = [
        lambda ev: ev.rollout(params, [1.0, 0.5], actions, dt=0.01).states,
        lambda ev: ev.squared_residuals(params, data),
        lambda ev: ev.euler_rollout(x0, times, 0.01, lambda k, x: (params, inputs[k]))[0],
        lambda ev: ev.rollout(params, [1.0, 0.5], actions, dt=0.01).states,
    ]
    for i, run in enumerate(runs):
        assert run(shared).tobytes() == run(Evaluator(spec, WS_SCHEMA)).tobytes(), i


def _arrays(grads):
    return [a for layers in grads.weights.values() for pair in layers for a in pair]


@pytest.mark.parametrize("text", WS_SPECS)
def test_evaluator_results_share_no_memory(text):
    spec, params, batch = _ws_case(text, 50, seed=1)
    _, _, other = _ws_case(text, 50, seed=2)
    ev = Evaluator(spec, WS_SCHEMA)
    f1 = ev.derivatives(params, batch.x, batch.u, batch.t)
    row = ev.derivative(params, batch.x[0], batch.u[0], batch.t[0])
    kept_f, kept_row = f1.copy(), row.copy()
    _, g1 = ev.loss_and_grad(params, batch, 0.5)
    kept_g = [a.copy() for a in _arrays(g1)]
    f2 = ev.derivatives(params, other.x, other.u, other.t)
    ev.derivative(params, other.x[0], other.u[0], other.t[0])
    _, g2 = ev.loss_and_grad(params, other, 0.5)
    assert not np.shares_memory(f1, f2)
    assert all(not np.shares_memory(a, b) for a in _arrays(g1) for b in _arrays(g2))
    assert f1.tobytes() == kept_f.tobytes() and row.tobytes() == kept_row.tobytes()
    assert all(a.tobytes() == k.tobytes() for a, k in zip(_arrays(g1), kept_g))


def _two_pass_case(name):
    """(spec, schema, params) of a replay spec, a built-in system or BITS_SPEC."""
    if name.startswith("SPEC_"):
        spec = parse_model_spec(getattr(replay_fixtures, name))
        return spec, builtin_system("cancer-chemo-radio").schema, random_params(
            np.random.default_rng(int(name[5:])), spec)
    if name == "BITS_SPEC":
        spec = parse_model_spec(BITS_SPEC)
        return spec, WS_SCHEMA, init_params(spec)
    system = builtin_system(name)
    return system.spec, system.schema, system.true_params


@pytest.mark.parametrize("name", [*(f"SPEC_{i}" for i in range(1, 7)), *BUILTIN_IDS,
                                  "BITS_SPEC"])
def test_passes_with_and_without_a_backward_give_the_same_bits(name):
    """A pass without a backward reuses tape rows, one with it keeps a row
    per node; both, in turn on one evaluator, give the same derivatives.
    The first rows put every state at and around the guards."""
    spec, schema, params = _two_pass_case(name)
    ev = Evaluator(spec, schema)
    rng = np.random.default_rng(len(name))
    for m in (1, 7, 1000):
        x = rng.uniform([v.low for v in schema.states], [v.high for v in schema.states],
                        (m, schema.d_x))
        u = rng.uniform([v.low for v in schema.actions], [v.high for v in schema.actions],
                        (m, schema.d_u))
        t = rng.uniform(0.0, 60.0, m)
        x[:len(GUARD_ROWS)] = GUARD_ROWS[:m, None]
        plain = ev.derivatives(params, x, u, t)
        cached, _ = ev.derivatives(params, x, u, t, with_cache=True)
        again = ev.derivatives(params, x, u, t)
        assert plain.tobytes() == cached.tobytes() == again.tobytes(), m


def _chemo_radio_split(n_trajectories: int, split: str, seed: int) -> Dataset:
    """Random cancer-chemo-radio trajectories of 61 rows, their transitions
    stacked before any tracing starts."""
    schema = builtin_system("cancer-chemo-radio").schema
    rng = np.random.default_rng(seed)
    ds = Dataset([Trajectory(np.arange(61) * schema.dt,
                             rng.uniform(0.0, 10.0, (61, schema.d_x)),
                             rng.uniform(0.0, 2.0, (61, schema.d_u)))
                  for _ in range(n_trajectories)], schema, split)
    ds.transitions()
    return ds


def test_validation_pass_allocates_only_its_compact_workspace():
    """The first SPEC_5 validation pass at 6,000 rows on a fresh evaluator
    allocates its pool (the shared tape rows and the network's two
    buffers), f and sq, and no more."""
    spec = parse_model_spec(replay_fixtures.SPEC_5)
    params = random_params(np.random.default_rng(5), spec)
    val = _chemo_radio_split(100, "val", seed=5)
    m = len(val.transitions())
    ev = Evaluator(spec, val.schema)
    (decl,) = spec.mlps
    dims = decl.layer_dims()
    rows = len(set(ev._tape.shared_rows) - {None})
    workspace = 8 * m * (rows + max(dims[::2]) + max(dims[1::2]))
    f = sq = 8 * m * val.schema.d_x
    tracemalloc.start()
    try:
        per_component_mse(ev, params, val)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m == 6000 and rows <= 4
    assert peak <= workspace + f + sq, (peak, workspace)
    z0, buffers = ev._workspaces[m, False].mlps[decl.name]
    assert [b.shape for b in buffers] == [(m, d) for d in dims[1:]]
    # layer i writes the buffer layer i - 1 did not write
    assert np.shares_memory(z0, buffers[1]) and np.shares_memory(buffers[0], buffers[2])
    assert not np.shares_memory(z0, buffers[0]) and not np.shares_memory(buffers[1], buffers[2])


def test_a_fit_holds_its_pool_and_one_batch_but_no_epoch_copy():
    """At its peak a SPEC_5 fit on 6,000 training rows holds its
    evaluator's pool, one gathered mini-batch with its gradient pass, the
    epoch's row order and a few small objects, but no copy of the whole
    shuffled epoch (six batches)."""
    spec = parse_model_spec(replay_fixtures.SPEC_5)
    params = random_params(np.random.default_rng(5), spec)
    train, val = _chemo_radio_split(100, "train", seed=6), _chemo_radio_split(100, "val", seed=7)
    rows = train.transitions()
    n, dt = len(rows), train.schema.dt
    cfg = OptimConfig(batch_size=1000, max_epochs=2, patience=2)
    ev = Evaluator(spec, train.schema)  # the fit's own evaluator, laid out the same
    per_component_mse(ev, params, val)
    ev.loss_and_grad(params, rows.take(np.arange(cfg.batch_size)), dt)
    tracemalloc.start()
    try:
        ev.loss_and_grad(params, rows.take(np.arange(cfg.batch_size)), dt)
        _, one_batch = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fit(spec, params, train, val, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    order = 8 * n  # the epoch's permutation
    small = 64 * 1024  # the fit's compiled tape, parameter-sized arrays and curves
    epoch_copy = 8 * n * (2 * rows.x.shape[1] + rows.u.shape[1] + 1)
    assert n == 6000 and epoch_copy > 2 * (order + small)
    assert peak <= ev._pool.nbytes + one_batch + order + small, (peak, ev._pool.nbytes)


@pytest.mark.parametrize("text", WS_SPECS)
def test_fault_does_not_spoil_the_next_call(text):
    spec, params, batch = _ws_case(text, 20, seed=3)
    ev = Evaluator(spec, WS_SCHEMA)
    blown = TransitionBatch(batch.x * 1e300, batch.u, batch.t, batch.y)
    with pytest.raises(EvaluationFault):
        ev.loss_and_grad(params, blown, 0.5)
    loss, grads = ev.loss_and_grad(params, batch, 0.5)
    loss_fresh, grads_fresh = Evaluator(spec, WS_SCHEMA).loss_and_grad(params, batch, 0.5)
    assert repr(loss) == repr(loss_fresh)
    assert _same_grads(grads, grads_fresh)


@pytest.mark.parametrize("text", WS_SPECS)
def test_loss_and_grad_into_a_buffer(text):
    spec, params, batch = _ws_case(text, 50, seed=4)
    ev = Evaluator(spec, WS_SCHEMA)
    buf = params.zeros_like()
    buf.values[:] = np.nan
    loss, grads = ev.loss_and_grad(params, batch, 0.5, out=buf)
    loss_fresh, grads_fresh = Evaluator(spec, WS_SCHEMA).loss_and_grad(params, batch, 0.5)
    assert grads is buf
    assert repr(loss) == repr(loss_fresh)
    assert grads.values.tobytes() == grads_fresh.values.tobytes()
    _, other = ev.loss_and_grad(params, _ws_case(text, 50, seed=5)[2], 0.5, out=buf)
    assert other is buf and buf.values.tobytes() != grads_fresh.values.tobytes()


def test_loss_and_grad_refuses_a_buffer_in_another_layout():
    spec, params, batch = _ws_case(WS_SPECS[0], 5, seed=4)
    other = ParamVector({"a": 0.0, "b": 0.0}, dict(params.weights))
    with pytest.raises(ValueError, match="another layout"):
        Evaluator(spec, WS_SCHEMA).loss_and_grad(params, batch, 0.5, out=other)


def test_loss_overflow_names_the_component_that_overflowed():
    # every residual is finite, but y's square overflows
    spec = parse_model_spec("param a = 0.3\nd(x)/dt = a * x\nd(y)/dt = a * y")
    rows = np.array([[0.1, 1e200]])
    batch = TransitionBatch(rows, np.zeros((1, 1)), np.zeros(1), rows.copy())
    with pytest.raises(EvaluationFault) as err:
        Evaluator(spec, WS_SCHEMA).loss_and_grad(init_params(spec), batch, 0.5)
    assert err.value.component == 1
    assert str(err.value) == "non-finite loss (component y)"


def test_loss_overflow_of_finite_sums_names_the_largest():
    # each component's sum of squares is finite, their total is not
    spec = parse_model_spec("param a = 0.0\nd(x)/dt = a * x\nd(y)/dt = a * y")
    batch = TransitionBatch(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros(1),
                            np.array([[-1.2e154, -1.3e154]]))
    with pytest.raises(EvaluationFault) as err:
        Evaluator(spec, WS_SCHEMA).loss_and_grad(init_params(spec), batch, 0.5)
    assert err.value.component == 1


# ---------------------------------------------------------------------------
# the backward kernels, bit for bit against the formulas they replaced

GUARD_INPUTS = [0.0, -0.0, 5e-9, -5e-9, 1e-8, -1e-8, float(np.nextafter(1e-8, 0.0)),
                float("nan"), float("inf"), float("-inf"), 3.0, -1e300]


def _old_guard_div(a):
    keep = np.abs(a) >= 1e-8
    fill = np.where(a >= 0.0, 1e-8, -1e-8)
    return np.where(keep, a, fill)


@pytest.mark.parametrize("value", GUARD_INPUTS)
def test_guard_div_matches_the_old_formula(value):
    want = _old_guard_div(np.float64(value))
    got = engine._guard_div(np.float64(value), None, None, None)  # a scalar node
    assert type(got) is type(want) and got.tobytes() == want.tobytes()
    for row in (np.array([value]), np.array([3.0, value, -2.0]), np.full(9, value)):
        out = np.full(len(row), 7.0)
        assert engine._guard_div(row, None, None, out) is out
        assert out.tobytes() == _old_guard_div(row).tobytes()


@pytest.mark.parametrize("m", [1, 7, 1000])
def test_sigmoid_node_has_the_bits_of_the_expression(m):
    """The node computes 1 / (1 + exp(-x)) in place in its row; here the row
    is a view that starts 8 bytes into its block."""
    rng = np.random.default_rng(m)
    special = [800.0, -800.0, 40.0, -40.0, 0.0, -0.0, np.nan, np.inf, -np.inf]
    values = np.concatenate([special, rng.normal(0.0, 5.0, 1000)])
    forward = engine._OPS["sigmoid"][0]
    with np.errstate(over="ignore"):
        for lo in range(0, len(values) - m + 1, m):
            x = values[lo:lo + m]
            want = 1.0 / (1.0 + np.exp(-x))
            out = np.full((2, m + 1), 7.0)[1, 1:]
            assert forward(x, None, None, out) is out
            assert out.tobytes() == want.tobytes()
            assert engine.sigmoid(x).tobytes() == want.tobytes()


OLD_ACT_GRAD = {
    "relu": lambda d, z: d * (z > 0).astype(float),
    "leaky_relu": lambda d, z: d * np.where(z > 0, 1.0, 0.1),
    "tanh": lambda d, z: d * (1 - np.tanh(z) ** 2),
}


@pytest.mark.parametrize("act", sorted(OLD_ACT_GRAD))
def test_activation_backward_matches_the_old_formula(act):
    rng = np.random.default_rng(6)
    special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300, 20.0, -20.0,
               np.inf, -np.inf, np.nan]
    pre = np.concatenate([special, rng.normal(0.0, 3.0, 400)]).reshape(-1, 7)
    d = np.concatenate([rng.normal(size=pre.size - 4), [0.0, -0.0, 1e300, -1e-300]])
    d = rng.permutation(d).reshape(pre.shape)
    want = OLD_ACT_GRAD[act](d, pre)  # the oracle reads the pre-activation
    apart = engine._act(act, pre, np.empty_like(pre))
    stored = pre.copy()  # the forward pass writes the activation over pre
    assert engine._act(act, stored, out=stored) is stored
    assert stored.tobytes() == apart.tobytes()
    engine._act_backward(act, d, stored)
    assert d.tobytes() == want.tobytes()


def _column_sum_inputs(rng, m, width):
    """A (m, width) array with rows scaled across 1e-3..1e3, and copies of
    it with a column of -0.0, a nan, and an inf and -inf."""
    a = rng.normal(size=(m, width)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    zero, nan, inf = a.copy(), a.copy(), a.copy()
    zero[:, -1] = -0.0
    nan[m // 2, 0] = np.nan
    inf[0, width // 2] = np.inf
    inf[-1, -1] = -np.inf
    return [a, zero, nan, inf]


@pytest.mark.parametrize("width", [*range(1, 21), 64])
def test_column_sums_have_the_bits_of_numpy_sum_and_mean(width):
    """The bias gradient and the per-component means rest on this: a numpy
    whose einsum adds rows in another order fails here, not in a pin."""
    rng = np.random.default_rng(width)
    cases = [(m, a) for m in (1, 2, 7, 999, 1000, 6000)
             for a in _column_sum_inputs(rng, m, width)]
    with np.errstate(invalid="ignore"):  # inf + -inf
        for m, a in cases:
            got = engine._column_sums(a)
            assert got.tobytes() == a.sum(axis=0).tobytes(), (m, width)
            assert (got / m).tobytes() == np.mean(a, axis=0).tobytes(), (m, width)
            block = np.full(width + 2, 7.0)  # out= a view, as a bias gradient is
            engine._column_sums(a, out=block[1:-1])
            assert block[1:-1].tobytes() == got.tobytes() and block[0] == block[-1] == 7.0


def test_column_sums_fall_back_off_the_c_contiguous_path(monkeypatch):
    """One column, an F-ordered array and a strided view take sum(axis=0):
    einsum's loop would give other bits for them."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(999, 6)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(999, 1))
    cases = [a[:, :1].copy(), np.asfortranarray(a), a[:, ::2]]
    want = [c.sum(axis=0).tobytes() for c in cases]

    def no_einsum(*args, **kwargs):
        raise AssertionError("einsum called")

    monkeypatch.setattr(np, "einsum", no_einsum)
    assert [engine._column_sums(c).tobytes() for c in cases] == want


# ---------------------------------------------------------------------------
# rollout


def test_rollout_one_euler_step():
    schema = SystemSchema(states=(VarSpec("c", 0, 100),))
    spec = parse_model_spec("d(c)/dt = -0.5 * c")
    tr = Evaluator(spec, schema).rollout(init_params(spec), [10.0], np.zeros((1, 0)), dt=1.0)
    assert tr.states[1, 0] == pytest.approx(5.0, abs=0)
    assert list(tr.times) == [0.0, 1.0]


def test_rollout_linear_dynamics_exact():
    # one Euler step of dx/dt = a x is exactly x (1 + a dt)
    schema = SystemSchema(states=(VarSpec("x", -100, 100),))
    spec = parse_model_spec("param a = -0.37\nd(x)/dt = a * x")
    tr = Evaluator(spec, schema).rollout(init_params(spec), [3.0], np.zeros((1, 0)), dt=0.25)
    assert tr.states[1, 0] == 3.0 * (1.0 + -0.37 * 0.25)


def test_rollout_zero_dynamics_constant():
    schema = SystemSchema(states=(VarSpec("x", 0, 10), VarSpec("y", 0, 10)))
    spec = parse_model_spec("d(x)/dt = 0.0\nd(y)/dt = 0.0")
    tr = Evaluator(spec, schema).rollout(init_params(spec), [4.0, 5.0], np.zeros((7, 0)), dt=1.0)
    assert (tr.states == [4.0, 5.0]).all()
    assert len(tr) == 8


def test_rollout_fault_reports_step():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("d(x)/dt = x ^ 3.0")
    with pytest.raises(EvaluationFault) as err:
        Evaluator(spec, schema).rollout(init_params(spec), [5.0], np.zeros((80, 0)), dt=1.0)
    # x = 5, 130, ~2.2e6, ~1e19, ~1e57, ~1e171: the cube overflows at step 5
    assert err.value.step == 5
    assert err.value.component == 0


BLAME_SCHEMA = SystemSchema(states=(VarSpec("x", 0, 10), VarSpec("y", 0, 10)))
BLAME_SPEC = parse_model_spec("d(x)/dt = exp(x)\nd(y)/dt = exp(y)")

# row 0 overflows y only, row 1 overflows x only: x is the first column
# with a bad row, y holds the first bad entry in row order
BLAME_ROWS = np.array([[1.0, 1000.0], [1000.0, 1.0], [0.0, 0.0]])
BLAME_DATA = Dataset([Trajectory(np.arange(3.0), BLAME_ROWS, np.zeros((3, 0)))], BLAME_SCHEMA)


@pytest.mark.parametrize("run, step", [
    (lambda: Evaluator(BLAME_SPEC, BLAME_SCHEMA).derivative(
        init_params(BLAME_SPEC), [1.0, 1000.0], [], 0.0), None),
    (lambda: one_step_mse(BLAME_SPEC, init_params(BLAME_SPEC), BLAME_DATA), None),
    (lambda: Evaluator(BLAME_SPEC, BLAME_SCHEMA).loss_and_grad(
        init_params(BLAME_SPEC), BLAME_DATA.transitions(), 1.0), None),
    # y = 700, ~1e304, then exp overflows at step 1; x stays finite until step 3
    (lambda: Evaluator(BLAME_SPEC, BLAME_SCHEMA).rollout(
        init_params(BLAME_SPEC), [1.0, 700.0], np.zeros((5, 0)), dt=1.0), 1),
], ids=["derivative", "squared_residuals", "loss_and_grad", "rollout"])
def test_a_non_finite_derivative_blames_the_first_bad_entry_in_row_order(run, step):
    with pytest.raises(EvaluationFault) as err:
        run()
    assert (err.value.component, err.value.step) == (1, step)
    at = "" if step is None else f" at step {step}"
    assert str(err.value) == f"non-finite derivative{at} (component y)"


# ---------------------------------------------------------------------------
# losses


def _one_transition_dataset(schema, x, y, dt=1.0):
    sch = SystemSchema(states=schema.states, actions=schema.actions,
                       time_units=schema.time_units, dt=dt)
    tr = Trajectory(np.array([0.0, dt]), np.array([x, y], dtype=float),
                    np.zeros((2, sch.d_u)))
    return Dataset([tr], sch)


def test_one_step_mse_single_transition():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("d(x)/dt = 0.0")
    ds = _one_transition_dataset(schema, [1.0], [2.0])
    assert one_step_mse(spec, init_params(spec), ds) == 1.0


def test_squared_residuals_refuse_a_dataset_of_another_schema():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("d(x)/dt = 0.0")
    ds = _one_transition_dataset(schema, [1.0], [2.0], dt=0.5)  # the same states, another dt
    with pytest.raises(ValueError, match="the dataset has another schema than the evaluator"):
        Evaluator(spec, schema).squared_residuals(init_params(spec), ds)


def _hybrid_params(hidden: str) -> ParamVector:
    return init_params(parse_model_spec(WS_HYBRID.format(act="tanh").replace("[5, 4]", hidden)))


def _euler_rollout(ev, params, ds):
    tr = ds.trajectories[0]
    return ev.euler_rollout(tr.states[:1], tr.times[None], ds.schema.dt,
                            lambda k, x: (params, tr.actions[k:k + 1]))


# every pass of an evaluator, given the parameters and a one-trajectory dataset
PASSES = {
    "derivatives": lambda ev, params, ds: ev.derivatives(
        params, ds.transitions().x, ds.transitions().u, ds.transitions().t),
    "derivative": lambda ev, params, ds: ev.derivative(
        params, ds.trajectories[0].states[0], ds.trajectories[0].actions[0], 0.0),
    "loss_and_grad": lambda ev, params, ds: ev.loss_and_grad(params, ds.transitions(),
                                                             ds.schema.dt),
    "euler_rollout": _euler_rollout,
    "rollout": lambda ev, params, ds: ev.rollout(
        params, ds.trajectories[0].states[0], ds.trajectories[0].actions[:-1], ds.schema.dt),
    "squared_residuals": lambda ev, params, ds: ev.squared_residuals(params, ds),
    "per_component_mse": per_component_mse,
    "rollout_mse": rollout_mse,
}
# the passes that take a dataset, and so check its schema
DATASET_PASSES = ("squared_residuals", "per_component_mse", "rollout_mse")
BAD_INPUTS = {  # case: (params, schema, message)
    "another-schema": (_hybrid_params("[5, 4]"),
                       SystemSchema(states=WS_SCHEMA.states, actions=WS_SCHEMA.actions, dt=0.5),
                       "the dataset has another schema than the evaluator"),
    "missing-scalar": (ParamVector({}, _hybrid_params("[5, 4]").weights), WS_SCHEMA,
                       "parameter vector is missing 'a'"),
    "layer-count": (_hybrid_params("[5]"), WS_SCHEMA,
                    "parameter vector has wrong layer count for 'net'"),
    "layer-shape": (_hybrid_params("[5, 3]"), WS_SCHEMA,
                    "'net' layer 1 has shape (5, 3)/(3,), expected (5, 4)/(4,)"),
}


@pytest.mark.parametrize("case, name", [
    (case, name) for case in BAD_INPUTS for name in PASSES
    if case != "another-schema" or name in DATASET_PASSES
], ids=lambda v: v)
def test_scorers_refuse_another_schema_or_parameter_layout(case, name):
    """Each pass refuses bad inputs with check_params' (or the schema
    check's) message; one evaluator given good, bad and good inputs in turn
    refuses the bad ones, so the layout it last checked cannot mask them."""
    params, schema, message = BAD_INPUTS[case]
    ev = Evaluator(parse_model_spec(WS_HYBRID.format(act="tanh")), WS_SCHEMA)
    rng = np.random.default_rng(2)

    def dataset(schema):
        tr = Trajectory(np.arange(4.0) * schema.dt, rng.uniform(-2.0, 3.0, (4, 2)),
                        rng.uniform(0.0, 5.0, (4, 1)))
        return Dataset([tr], schema)

    good, run = _hybrid_params("[5, 4]"), PASSES[name]
    run(ev, good, dataset(WS_SCHEMA))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(ev, params, dataset(schema))
    run(ev, good, dataset(WS_SCHEMA))


def test_one_step_mse_self_consistency_zero():
    spec, params = cancer_model()
    ev = Evaluator(spec, CANCER_SCHEMA)
    rng = np.random.default_rng(3)
    trajectories = []
    for _ in range(5):
        x0 = [float(rng.uniform(1, 1100)), 0.0]
        actions = np.column_stack([
            rng.choice([0.0, 5.0], size=20), rng.choice([0.0, 2.0], size=20)
        ])
        trajectories.append(ev.rollout(params, x0, actions, dt=1.0))
    ds = Dataset(trajectories, CANCER_SCHEMA)
    assert one_step_mse(spec, params, ds) <= 1e-12


def test_per_component_mse_and_mean_identity():
    schema = SystemSchema(states=(VarSpec("x", 0, 10), VarSpec("y", 0, 10)))
    spec = parse_model_spec("d(x)/dt = 0.0\nd(y)/dt = 0.0")
    ds = _one_transition_dataset(schema, [1.0, 5.0], [3.0, 5.0])
    delta, ups = per_component_mse(Evaluator(spec, ds.schema), init_params(spec), ds)
    assert delta == pytest.approx([4.0, 0.0])
    assert ups == 2.0
    # and the sum-over-dimensions loss is d_x times the mean
    assert one_step_mse(spec, init_params(spec), ds) == pytest.approx(4.0)


def test_upsilon_equals_mean_delta_randomized():
    rng = np.random.default_rng(5)
    for _ in range(20)[:20]:
        schema = random_schema(rng)
        spec = random_spec(rng, schema, allow_mlp=False)
        params = random_params(rng, spec)
        rows = rng.uniform(0.3, 2.0, size=(6, schema.d_x))
        trs = [Trajectory(np.arange(6.0), rows, rng.uniform(0, 1, size=(6, schema.d_u)))]
        ds = Dataset(trs, schema)
        delta, ups = per_component_mse(Evaluator(spec, ds.schema), params, ds)
        assert ups == pytest.approx(float(np.mean(delta)), abs=1e-12)


def test_one_step_mse_matches_naive_double_loop():
    rng = np.random.default_rng(9)
    for _ in range(25):
        schema = random_schema(rng)
        spec = random_spec(rng, schema)
        params = random_params(rng, spec)
        batch = random_batch(rng, schema, 8)
        loss, _ = Evaluator(spec, schema).loss_and_grad(params, batch, dt=1.0)
        naive = naive_one_step_loss(spec, schema, params, batch, dt=1.0)
        assert loss == pytest.approx(naive, rel=1e-12, abs=1e-300)


def test_unfitted_hybrid_fixture_loss_matches_naive_double_loop():
    # the final evolved hybrid spec, unfitted, scored by the vectorized
    # engine and by the scalar per-transition oracle
    import replay_fixtures

    spec = parse_model_spec(replay_fixtures.SPEC_6)
    params = init_params(spec, seed=0)
    true_spec, true_params = cancer_model()
    true_ev = Evaluator(true_spec, CANCER_SCHEMA)
    rng = np.random.default_rng(12)
    trs = []
    for _ in range(3):
        actions = np.column_stack([
            rng.choice([0.0, 5.0], size=12), rng.choice([0.0, 2.0], size=12)
        ])
        trs.append(true_ev.rollout(true_params, [float(rng.uniform(1, 1000)), 0.0], actions,
                                   dt=1.0))
    ds = Dataset(trs, CANCER_SCHEMA)
    batch = ds.transitions()
    engine_loss = one_step_mse(spec, params, ds)
    naive = naive_one_step_loss(spec, CANCER_SCHEMA, params, batch, dt=1.0)
    assert engine_loss == pytest.approx(naive, rel=1e-12)


# ---------------------------------------------------------------------------
# gradients


def test_loss_gradient_hand_case():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param a = 0.5\nd(x)/dt = a * x")
    batch = TransitionBatch(
        x=np.array([[2.0]]), u=np.zeros((1, 0)), t=np.zeros(1), y=np.array([[2.0]])
    )
    loss, grads = Evaluator(spec, schema).loss_and_grad(init_params(spec), batch, dt=1.0)
    assert loss == pytest.approx(1.0)           # predicted 3, observed 2
    assert grads.scalars["a"] == pytest.approx(4.0)  # 2 * (3 - 2) * 2


def test_unreachable_parameter_gets_zero_gradient():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param a = 0.5\nparam unused = 3.0\nd(x)/dt = a * x")
    batch = TransitionBatch(np.array([[2.0]]), np.zeros((1, 0)), np.zeros(1), np.array([[5.0]]))
    _, grads = Evaluator(spec, schema).loss_and_grad(init_params(spec), batch, dt=1.0)
    assert grads.scalars["unused"] == 0.0


def test_gradient_matches_finite_differences_randomized():
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        schema = random_schema(rng)
        spec = random_spec(rng, schema)
        params = random_params(rng, spec)
        batch = random_batch(rng, schema, 6)
        try:
            loss, grads = Evaluator(spec, schema).loss_and_grad(params, batch, dt=0.5)
        except EvaluationFault:
            continue
        if loss > 1e4:
            # guard-clamped denominators can inflate the loss to ~1e14, where
            # central differences lose every significant digit to rounding;
            # the oracle is only meaningful on sanely conditioned cases
            continue
        fd = finite_diff_gradients(spec, schema, params, batch, dt=0.5)
        got = flatten_gradients(grads)
        assert set(got) == set(fd)
        for label, g in got.items():
            g_fd = fd[label]
            if abs(g) < 1e-8 and abs(g_fd) < 1e-8:
                continue
            rel = abs(g - g_fd) / max(abs(g), abs(g_fd))
            assert rel <= 1e-4, f"{label}: reverse {g} vs fd {g_fd} (rel {rel:.2e})"
        checked += 1
    assert checked == 100


def test_gradient_through_pow_with_parameter_exponent():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param p = 1.7\nd(x)/dt = x ^ p")
    params = init_params(spec)
    batch = TransitionBatch(np.array([[2.0]]), np.zeros((1, 0)), np.zeros(1), np.array([[2.0]]))
    _, grads = Evaluator(spec, schema).loss_and_grad(params, batch, dt=1.0)
    # d pred/dp = x^p ln x; residual = x^p
    expected = 2.0 * (2.0 ** 1.7) * (2.0 ** 1.7) * math.log(2.0)
    assert grads.scalars["p"] == pytest.approx(expected, rel=1e-12)


def test_gradient_fault_carries_param_name():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param a = 700.0\nd(x)/dt = exp(a) * x")
    batch = TransitionBatch(np.array([[2.0]]), np.zeros((1, 0)), np.zeros(1), np.array([[2.0]]))
    with pytest.raises(EvaluationFault):
        Evaluator(spec, schema).loss_and_grad(init_params(spec), batch, dt=1.0)


def test_gradient_overflow_with_finite_loss_names_the_scalar():
    # a * b is 1.0, so the loss is ~1e20, but d loss/d a = 2 r b overflows
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    spec = parse_model_spec("param c = 0.0\nparam b = 1e300\nparam a = 1e-300\n"
                            "d(x)/dt = a * b + c")
    batch = TransitionBatch(np.array([[1.0]]), np.zeros((1, 0)), np.zeros(1),
                            np.array([[-1e10]]))
    with pytest.raises(EvaluationFault) as err:
        Evaluator(spec, schema).loss_and_grad(init_params(spec), batch, dt=1.0)
    assert err.value.param == "a"
    assert str(err.value) == "non-finite gradient for parameter 'a'"


def test_gradient_overflow_with_finite_loss_names_the_network():
    # net's first weight scales the action 1e300 down to 1.0, so the loss is
    # ~1e20, but that weight's gradient overflows; it is the first entry
    # after the scalars, since params lists net before first
    schema = SystemSchema(states=(VarSpec("x", 0, 10), VarSpec("y", 0, 10)),
                          actions=(VarSpec("u", 0, 10),))
    spec = parse_model_spec(
        "param c = 0.0\n"
        "mlp first(x) hidden [2] act tanh outputs 1\n"
        "mlp net(u) hidden [1] act relu outputs 1\n"
        "d(x)/dt = c + first[0]\n"
        "d(y)/dt = c + net[0]\n")
    params = ParamVector({"c": 0.0}, {
        "net": [(np.array([[1e-300]]), np.zeros(1)), (np.array([[1.0]]), np.zeros(1))],
        "first": mlp_init(spec.mlps[0], 0),
    })
    batch = TransitionBatch(np.array([[1.0, 1.0]]), np.array([[1e300]]), np.zeros(1),
                            np.array([[1.0, -1e10]]))
    with pytest.raises(EvaluationFault) as err:
        Evaluator(spec, schema).loss_and_grad(params, batch, dt=1.0)
    assert err.value.param == "net"
    assert str(err.value) == "non-finite gradient in network 'net'"


def _check_message(spec, params) -> str:
    with pytest.raises(ValueError) as err:
        Evaluator(spec, WS_SCHEMA).check_params(params)
    return str(err.value)


def test_check_params_messages():
    spec = parse_model_spec(WS_HYBRID.format(act="relu"))  # net: 3 -> 5 -> 4 -> 2
    layers = init_params(spec).weights["net"]
    assert _check_message(spec, ParamVector({}, {"net": layers})) == \
        "parameter vector is missing 'a'"
    assert _check_message(spec, ParamVector({"a": 0.3}, {})) == \
        "parameter vector has wrong layer count for 'net'"
    assert _check_message(spec, ParamVector({"a": 0.3}, {"net": layers[:2]})) == \
        "parameter vector has wrong layer count for 'net'"
    bad = [layers[0], (np.zeros((5, 3)), np.zeros(4)), layers[2]]
    assert _check_message(spec, ParamVector({"a": 0.3}, {"net": bad})) == \
        "'net' layer 1 has shape (5, 3)/(4,), expected (5, 4)/(4,)"
    # extra scalars are accepted
    Evaluator(spec, WS_SCHEMA).check_params(ParamVector({"z": 1.0, "a": 0.3}, {"net": layers}))


# ---------------------------------------------------------------------------
# mlp_init


def test_mlp_init_xavier_bounds():
    decl = MlpDecl("net", tuple(f"i{k}" for k in range(4)), (16,), "relu", 2)
    layers = mlp_init(decl, seed=0)
    w0, b0 = layers[0]
    bound = math.sqrt(6.0 / (4 + 16))
    assert w0.shape == (4, 16)
    assert np.abs(w0).max() <= bound
    assert (b0 == 0.0).all()
    w1, b1 = layers[1]
    assert np.abs(w1).max() <= math.sqrt(6.0 / (16 + 2))
    assert (b1 == 0.0).all()


def test_mlp_init_deterministic():
    decl = MlpDecl("net", ("a", "b"), (8, 4), "tanh", 3)
    one = mlp_init(decl, seed=42)
    two = mlp_init(decl, seed=42)
    for (w1, b1), (w2, b2) in zip(one, two):
        assert (w1 == w2).all() and (b1 == b2).all()
    other = mlp_init(decl, seed=43)
    assert not (one[0][0] == other[0][0]).all()


@pytest.mark.parametrize("text", [
    "param a = 0.5\nd(x)/dt = a * x",
    "mlp net(x) hidden [3] act tanh outputs 1\nd(x)/dt = net[0]",
])
def test_init_params_rejects_a_negative_seed(text):
    # scalar-only specs draw nothing, but the seed is checked all the same
    with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
        init_params(parse_model_spec(text), seed=-1)


@pytest.mark.parametrize("cls, name, good", [
    (OptimConfig, "batch_size", 4), (OptimConfig, "max_epochs", 30),
    (OptimConfig, "patience", 5), (OptimConfig, "seed", 3),
    (EvolveConfig, "generations", 2), (EvolveConfig, "seed", 1),
    (GenConfig, "n", 3), (GenConfig, "seed", 1),
    (DecodingConfig, "max_tokens", 10), (DecodingConfig, "retries", 1),
    (SindyConfig, "degree", 2),
])
def test_config_integer_fields_reject_floats_and_bools(cls, name, good):
    # a float here used to construct and then fail in range() or rng.integers
    for bad in (2.5, float(good), True):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer \(got {bad!r}\)$"):
            cls(**{name: bad})
    assert getattr(cls(**{name: np.int64(good)}), name) == good


@pytest.mark.parametrize("cls, name", [
    (OptimConfig, "lr"), (DecodingConfig, "temperature"), (DecodingConfig, "timeout"),
    (DecodingConfig, "retry_wait"), (SindyConfig, "alpha"), (SindyConfig, "threshold"),
])
def test_config_number_fields_reject_bools_strings_and_non_finite_values(cls, name):
    # a bool used to construct as 1.0 or 0.0 ("lr": true fitted at lr 1.0),
    # and SindyConfig took a nan or inf alpha and threshold
    for bad in (True, False, "0.5"):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be a number \(got {re.escape(repr(bad))}\)$"):
            cls(**{name: bad})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^{name} must be finite \(got {bad}\)$"):
            cls(**{name: bad})
    assert getattr(cls(**{name: 1}), name) == 1
    assert getattr(cls(**{name: np.float64(0.5)}), name) == 0.5


# ---------------------------------------------------------------------------
# rollout_mse


def test_rollout_mse_zero_for_true_model():
    spec, params = cancer_model()
    ev = Evaluator(spec, CANCER_SCHEMA)
    rng = np.random.default_rng(1)
    trs = []
    for _ in range(4):
        actions = np.column_stack([
            rng.choice([0.0, 5.0], size=15), rng.choice([0.0, 2.0], size=15)
        ])
        trs.append(ev.rollout(params, [float(rng.uniform(1, 1000)), 0.0], actions, dt=1.0))
    ds = Dataset(trs, CANCER_SCHEMA)
    assert rollout_mse(ev, params, ds) <= 1e-18


def test_rollout_mse_inf_for_exploding_model():
    schema = SystemSchema(states=(VarSpec("x", 0, 10),))
    true = parse_model_spec("d(x)/dt = 0.0")
    tr = Evaluator(true, schema).rollout(init_params(true), [5.0], np.zeros((200, 0)), dt=1.0)
    bad = parse_model_spec("d(x)/dt = x ^ 3.0")
    ds = Dataset([tr], schema)
    assert rollout_mse(Evaluator(bad, schema), init_params(bad), ds) == float("inf")


# ---------------------------------------------------------------------------
# serialization


def test_dataset_round_trip_bit_exact(tmp_path):
    spec, params = cancer_model()
    ev = Evaluator(spec, CANCER_SCHEMA)
    rng = np.random.default_rng(8)
    trs = []
    for _ in range(3):
        actions = np.column_stack([
            rng.choice([0.0, 5.0], size=10), rng.choice([0.0, 2.0], size=10)
        ])
        trs.append(ev.rollout(params, [float(rng.uniform(1, 1000)), 0.0], actions, dt=1.0))
    ds = Dataset(trs, CANCER_SCHEMA, split="val")
    save_dataset(ds, tmp_path / "d", seed=8)
    back = load_saved_dataset(tmp_path / "d")
    assert back.split == "val"
    assert back.schema == CANCER_SCHEMA
    assert len(back.trajectories) == 3
    for a, b in zip(ds.trajectories, back.trajectories):
        assert (a.times == b.times).all()
        assert (a.states == b.states).all()
        assert (a.actions == b.actions).all()
    # byte-identical re-export
    save_dataset(back, tmp_path / "d2", seed=8)
    for f in sorted((tmp_path / "d").iterdir()):
        assert f.read_bytes() == (tmp_path / "d2" / f.name).read_bytes()


def test_load_saved_dataset_checks_csv_against_manifest(tmp_path):
    spec, params = cancer_model()
    tr = Evaluator(spec, CANCER_SCHEMA).rollout(params, [100.0, 0.0], np.zeros((5, 2)), dt=1.0)
    save_dataset(Dataset([tr, tr], CANCER_SCHEMA), tmp_path / "d")
    path = tmp_path / "d" / "traj-00001.csv"
    lines = path.read_text().splitlines()
    # a file missing its last column (radiotherapy_dosage)
    path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    with pytest.raises(ValueError, match=r"traj-00001\.csv: row 2 has 4 fields, expected 5"):
        load_saved_dataset(tmp_path / "d")
    # the right width under another header
    path.write_text("\n".join(["t,x_1,x_2,u_2,u_1"] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=r"traj-00001\.csv: row 1 has header t,x_1,x_2,u_2,u_1,"
                                         r" expected t,x_1,x_2,u_1,u_2"):
        load_saved_dataset(tmp_path / "d")


@pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [0.0, math.inf], [-math.inf, 0.0]])
def test_trajectory_rejects_non_finite_times(times):
    # every comparison with nan is false: nan passed the ordering and spacing checks
    with pytest.raises(ValueError, match=r"^times must be finite$"):
        Trajectory(times, np.zeros(len(times)), np.zeros((len(times), 0)))


@pytest.mark.parametrize("bad_time, message", [
    ("nan", "times must be finite"), ("0.5", "times must be strictly increasing")])
def test_load_saved_dataset_names_the_file_whose_times_are_rejected(tmp_path, bad_time,
                                                                   message):
    spec, params = cancer_model()
    tr = Evaluator(spec, CANCER_SCHEMA).rollout(params, [100.0, 0.0], np.zeros((5, 2)), dt=1.0)
    save_dataset(Dataset([tr, tr], CANCER_SCHEMA), tmp_path / "d")
    path = tmp_path / "d" / "traj-00001.csv"
    lines = path.read_text().splitlines()
    lines[3] = ",".join([bad_time] + lines[3].split(",")[1:])  # the row at t = 2
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"traj-00001\.csv: {message}$"):
        load_saved_dataset(tmp_path / "d")


def test_load_saved_dataset_reads_exactly_the_manifest_count(tmp_path):
    spec, params = cancer_model()
    ev = Evaluator(spec, CANCER_SCHEMA)
    trs = [ev.rollout(params, [float(10 * (k + 1)), 0.0], np.zeros((4, 2)), dt=1.0)
           for k in range(6)]
    d = tmp_path / "d"
    save_dataset(Dataset(trs, CANCER_SCHEMA), d)
    # re-saving three trajectories deletes the stale traj-00003..5
    save_dataset(Dataset(trs[3:], CANCER_SCHEMA), d)
    assert sorted(p.name for p in d.iterdir()) == [
        "manifest.json", "traj-00000.csv", "traj-00001.csv", "traj-00002.csv"]
    back = load_saved_dataset(d)
    assert len(back.trajectories) == 3
    assert [tr.states[0, 0] for tr in back.trajectories] == [40.0, 50.0, 60.0]
    (d / "traj-00001.csv").unlink()
    with pytest.raises(ValueError, match=r"traj-00001\.csv: missing; the manifest lists 3"):
        load_saved_dataset(d)


def test_load_saved_dataset_refuses_a_step_that_is_not_the_manifest_dt(tmp_path):
    # loaded silently before: the true model then scored a one-step MSE of
    # 218.79 on the 0.5 manifest, against 0.0 at the files' own step
    system = builtin_system("cancer-chemo-radio")
    d = tmp_path / "d"
    save_dataset(generate_dataset(system, GenConfig(n=50, seed=0))["test"], d)
    assert one_step_mse(system.spec, system.true_params, load_saved_dataset(d)) == 0.0
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["schema"]["dt"] = 0.5
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as err:
        load_saved_dataset(d)
    assert str(err.value) == f"{d / 'traj-00000.csv'}: time step 1.0 is not the schema's dt 0.5"


def test_param_vector_is_one_array_with_write_through_views():
    layers = mlp_init(MlpDecl("net", ("x",), (3,), "relu", 1), 5)
    other = mlp_init(MlpDecl("other", ("x",), (2,), "tanh", 1), 0)
    p = ParamVector({"b": 2.0, "a": -1.0}, {"net": layers, "other": other})
    (w0, b0), (w1, b1) = layers
    flat = [[2.0, -1.0], w0.ravel(), b0, w1.ravel(), b1] + [a.ravel() for l in other for a in l]
    assert p.values.tobytes() == np.concatenate(flat).tobytes()
    assert [p.owner(i) for i in range(p.values.size)] == ["b", "a"] + ["net"] * 10 + ["other"] * 7
    assert list(p.scalars) == ["b", "a"] and type(p.scalars["a"]) is float
    p.scalars["a"] *= 3.0
    assert p.values[1] == -3.0
    assert all(np.shares_memory(a, p.values) for l in p.weights["net"] for a in l)
    p.weights["net"][1][1][0] = 7.0
    assert p.values[11] == 7.0
    q = p.copy()
    q.scalars["b"] = 0.0
    q.weights["net"][0][0][...] = 0.0
    assert p.scalars["b"] == 2.0 and (p.weights["net"][0][0] == w0).all()
    assert not np.shares_memory(p.values, q.values)
    z = p.zeros_like()
    assert list(z.scalars) == ["b", "a"] and z.values.shape == p.values.shape
    assert not z.values.any()
    with pytest.raises(KeyError):
        p.scalars["new"] = 1.0


def test_params_round_trip(tmp_path):
    decl = MlpDecl("net", ("x",), (3,), "relu", 1)
    params = ParamVector({"a": 0.1234567890123456789, "b": -7e-5},
                         {"net": mlp_init(decl, 5)})
    save_params(params, tmp_path / "p.json")
    back = load_params(tmp_path / "p.json")
    assert back.scalars == params.scalars
    for (w1, b1), (w2, b2) in zip(params.weights["net"], back.weights["net"]):
        assert (w1 == w2).all() and (b1 == b2).all()
