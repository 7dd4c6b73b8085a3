"""Property tests.

Evaluation is total: on random specs, random parameters and inputs that
reach every guarded branch (negative, zero and near-zero values), the
engine either matches the naive scalar oracle of conftest or raises
EvaluationFault; no other exception may escape.  Its passes with and
without a backward give the same derivative bits.  The DSL's text forms
round-trip: format_expr output parses back to the same tree, and the
canonical text of a spec is a fixed point of parse + canonicalize.
population_insert keeps its invariants, and a modeling reply's object is
read out of any prose around it.  save_dataset writes the bytes
csv.writer writes for repr'd floats, and its files load back bit-exactly.
Examples are derandomized, so every run draws the same cases.
"""

from __future__ import annotations

import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    naive_derivative,
    naive_one_step_loss,
    random_params,
    random_schema,
    random_spec,
)
from hdtwin.agents import (
    POPULATION_CAPACITY,
    PopulationEntry,
    _extract_reply_fields,
    make_reply,
    population_insert,
)
from hdtwin.dsl import (
    BINARY_OPS,
    UNARY_FUNCS,
    Expr,
    SystemSchema,
    VarSpec,
    canonicalize,
    format_expr,
    parse_model_spec,
)
from hdtwin.engine import (
    Dataset,
    EvaluationFault,
    Evaluator,
    Trajectory,
    TransitionBatch,
    init_params,
    load_saved_dataset,
    save_dataset,
)

ROWS = 4
DT = 0.5

# values at and around the guards (1e-8) and the sign changes, plus a spread
guard_values = st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 5e-9, -5e-9, 1e-12])
inputs = st.one_of(guard_values, st.floats(-3.0, 3.0, allow_nan=False))


def _oracle(fn, *args):
    """The naive value, or None where Python float math refuses (an
    overflow in **, math.sin(inf), ...): the engine must then fault."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        return None


def _matches(got, want) -> bool:
    return want is not None and all(
        math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9)
        for g, w in zip(np.atleast_1d(got).tolist(), np.atleast_1d(want).tolist()))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), values=st.lists(inputs, min_size=40, max_size=40))
def test_evaluation_matches_oracle_or_faults(seed, values):
    rng = np.random.default_rng(seed)
    schema = random_schema(rng)
    spec = random_spec(rng, schema)
    params = random_params(rng, spec)
    pool = iter(values)

    def draw(*shape):
        return np.array([next(pool) for _ in range(int(np.prod(shape)))]).reshape(shape)

    batch = TransitionBatch(draw(ROWS, schema.d_x), draw(ROWS, schema.d_u), draw(ROWS),
                            draw(ROWS, schema.d_x))
    ev = Evaluator(spec, schema)
    # the pass without a backward shares tape rows; the one with it does not
    plain = ev.derivatives(params, batch.x, batch.u, batch.t)
    cached, _ = ev.derivatives(params, batch.x, batch.u, batch.t, with_cache=True)
    assert plain.tobytes() == cached.tobytes()
    for r in range(ROWS):
        try:
            got = ev.derivative(params, batch.x[r], batch.u[r], batch.t[r])
        except EvaluationFault:
            continue
        want = _oracle(naive_derivative, spec, schema, params, batch.x[r], batch.u[r], batch.t[r])
        assert _matches(got, want), (got, want)
    try:
        loss, grads = Evaluator(spec, schema).loss_and_grad(params, batch, DT)
    except EvaluationFault:
        return
    assert _matches(loss, _oracle(naive_one_step_loss, spec, schema, params, batch, DT))
    assert all(math.isfinite(g) for g in grads.scalars.values())
    assert all(np.isfinite(w).all() and np.isfinite(b).all()
               for layers in grads.weights.values() for w, b in layers)


@pytest.mark.parametrize("text", [
    "param a = 1.0\nd(x)/dt = log(a * x) + sqrt(-x) + x / (a - 1.0) + (a * x) ^ 1.5",
    "param a = 0.0\nd(x)/dt = a / x + x ^ a + sigmoid(a * x) * tanh(x / a)",
])
def test_guard_branches_are_total(text):
    # every guard at its boundary: zero, negative and -0.0 arguments
    schema = SystemSchema(states=(VarSpec("x", -10.0, 10.0),))
    spec = parse_model_spec(text)
    params = init_params(spec)
    x = np.array([[0.0], [-0.0], [-1.0], [1e-8], [2.0]])
    batch = TransitionBatch(x, np.zeros((5, 0)), np.zeros(5), np.zeros((5, 1)))
    try:
        loss, _ = Evaluator(spec, schema).loss_and_grad(params, batch, DT)
    except EvaluationFault:
        return
    assert _matches(loss, _oracle(naive_one_step_loss, spec, schema, params, batch, DT))


# ---------------------------------------------------------------------------
# text forms


def _leaf(v):
    return Expr.const(v) if isinstance(v, float) else Expr.ref(v)


def _unary(op, a):
    # the parser folds a negated constant into the constant
    return Expr.const(-a.value) if op == "neg" and a.kind == "const" else Expr.unary(op, a)


exprs = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["x", "p", "t"]))
    .map(_leaf),
    lambda inner: st.one_of(
        st.builds(_unary, st.sampled_from(("neg",) + tuple(UNARY_FUNCS)), inner),
        st.builds(Expr.binary, st.sampled_from(BINARY_OPS), inner, inner),
    ),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(e=exprs)
def test_format_expr_parses_back_to_the_same_tree(e):
    spec = parse_model_spec(f"d(x)/dt = {format_expr(e)}")
    assert spec.components[0].expr == e


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_canonical_text_is_a_fixed_point(seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, random_schema(rng))
    canon = canonicalize(spec)
    again = canonicalize(parse_model_spec(canon.text))
    assert again == canon
    assert canonicalize(parse_model_spec(again.text)) == canon


# ---------------------------------------------------------------------------
# population_insert

# more structures than the population holds, so that inserts evict
STRUCTURES = [parse_model_spec(f"param a = 1.0\nd(x)/dt = a * x ^ {k}.0")
              for k in range(1, POPULATION_CAPACITY + 3)]


def _entry(structure, upsilon):
    spec = STRUCTURES[structure]
    canon = canonicalize(spec)
    return PopulationEntry(spec, canon.text, canon.fingerprint, init_params(spec),
                           np.array([upsilon]), upsilon, 1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(inserts=st.lists(st.tuples(st.integers(0, len(STRUCTURES) - 1),
                                  st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e300])
                                  | st.floats(0.0, 2.0)),
                        min_size=2 * POPULATION_CAPACITY, max_size=80))
def test_population_insert_invariants(inserts):
    pop = ()
    for structure, upsilon in inserts:
        entry = _entry(structure, upsilon)
        new = population_insert(pop, entry)
        ups = [e.upsilon for e in new]
        assert ups == sorted(ups)
        assert len(new) <= POPULATION_CAPACITY
        assert len({e.fingerprint for e in new}) == len(new)
        assert set(map(id, new)) <= set(map(id, pop)) | {id(entry)}
        if any(e.fingerprint == entry.fingerprint for e in pop):
            assert new is pop
        else:
            # ties keep the incumbents ahead of the newcomer
            fits = len(pop) < POPULATION_CAPACITY or upsilon < pop[-1].upsilon
            assert any(e is entry for e in new) == fits
            assert len(new) == min(POPULATION_CAPACITY, len(pop) + 1)
        pop = new
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            population_insert(pop, _entry(0, bad))


# prose with braces but no double quote, so no object in it can carry a key
prose = st.text(alphabet="ab {}[]:,.\n`")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(before=prose, after=prose | st.text(), description=st.text())
def test_the_reply_object_is_read_out_of_any_prose_around_it(before, after, description):
    reply = before + make_reply("d(x)/dt = 0.0\n", description) + after
    assert _extract_reply_fields(reply) == ("d(x)/dt = 0.0\n", description)


# ---------------------------------------------------------------------------
# Dataset CSV export

# every float, nan, +-inf, -0.0 and subnormals included; nan is made the
# canonical one, the only nan whose bits survive the text round trip
csv_floats = st.floats().map(lambda v: math.nan if math.isnan(v) else v)


def _reference_csv(tr: Trajectory, header: list[str]) -> bytes:
    """The export written row by row through csv.writer, each float as repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for k in range(len(tr)):
        writer.writerow([repr(float(v)) for v in (tr.times[k], *tr.states[k], *tr.actions[k])])
    return buf.getvalue().encode()


@st.composite
def trajectories(draw):
    d_x, d_u, rows = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 80))
    t0 = draw(st.floats(-100.0, 100.0))
    dt = draw(st.floats(0.01, 10.0))
    states = draw(hnp.arrays(np.float64, (rows, d_x), elements=csv_floats))
    actions = draw(hnp.arrays(np.float64, (rows, d_u), elements=csv_floats))
    return Trajectory(t0 + dt * np.arange(rows), states, actions), dt


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=trajectories())
def test_save_dataset_bytes_match_csv_writer_and_reload_bit_exactly(case):
    tr, dt = case  # the loader holds a trajectory's step to the schema's dt
    d_x, d_u = tr.states.shape[1], tr.actions.shape[1]
    schema = SystemSchema(states=tuple(VarSpec(f"s{i}", 0, 1) for i in range(d_x)),
                          actions=tuple(VarSpec(f"a{i}", 0, 1) for i in range(d_u)), dt=dt)
    header = ["t"] + [f"x_{i + 1}" for i in range(d_x)] + [f"u_{i + 1}" for i in range(d_u)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        save_dataset(Dataset([tr, tr], schema), out)
        for name in ("traj-00000.csv", "traj-00001.csv"):
            assert (out / name).read_bytes() == _reference_csv(tr, header)
        back = load_saved_dataset(out)
    assert len(back.trajectories) == 2
    for got in back.trajectories:
        for a, b in ((tr.times, got.times), (tr.states, got.states), (tr.actions, got.actions)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
