from __future__ import annotations

import numpy as np
import pytest

from hdtwin.baselines import (
    SindyConfig,
    builtin_baseline_spec,
    finite_difference_derivatives,
    sindy_fit,
)
from hdtwin.dsl import parse_model_spec, validate
from hdtwin.engine import Dataset, Evaluator, Trajectory, init_params, one_step_mse
from hdtwin.systems import GenConfig, builtin_system, generate_dataset


# ---------------------------------------------------------------------------
# finite differences


def test_forward_differences_simple():
    tr = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [2.0]]),
                    np.zeros((3, 0)))
    assert (finite_difference_derivatives(tr) == [[1.0], [1.0]]).all()


def test_forward_differences_constant():
    tr = Trajectory(np.arange(5.0), np.full((5, 2), 3.3), np.zeros((5, 0)))
    assert (finite_difference_derivatives(tr) == 0.0).all()


def test_forward_differences_match_euler_generator_exactly():
    # Euler data satisfies (x[k+1] - x[k]) / dt == f(x[k]) identically
    from hdtwin.dsl import SystemSchema, VarSpec

    schema = SystemSchema(states=(VarSpec("x", 0, 10),), dt=0.5)
    spec = parse_model_spec("d(x)/dt = -0.5 * x")
    tr = Evaluator(spec, schema).rollout(init_params(spec), [8.0], np.zeros((12, 0)), dt=0.5)
    fd = finite_difference_derivatives(tr)
    assert np.max(np.abs(fd[:, 0] - (-0.5) * tr.states[:-1, 0])) == 0.0


def test_forward_differences_need_two_samples():
    tr = Trajectory(np.array([0.0]), np.array([[1.0]]), np.zeros((1, 0)))
    with pytest.raises(ValueError):
        finite_difference_derivatives(tr)


# ---------------------------------------------------------------------------
# sindy_fit


def _linear_decay_dataset(n_traj=8, steps=30):
    from hdtwin.dsl import SystemSchema, VarSpec

    schema = SystemSchema(states=(VarSpec("x", 0, 10),), dt=0.25)
    spec = parse_model_spec("d(x)/dt = -0.5 * x")
    rng = np.random.default_rng(0)
    ev = Evaluator(spec, schema)
    trs = [ev.rollout(init_params(spec), [float(rng.uniform(1, 9))], np.zeros((steps, 0)),
                      dt=0.25) for _ in range(n_traj)]
    return Dataset(trs, schema)


def test_sindy_recovers_linear_decay():
    # with negligible ridge strength the solve is plain least squares and
    # noiseless Euler data gives the coefficient exactly
    data = _linear_decay_dataset()
    res = sindy_fit(data, SindyConfig(alpha=1e-12))
    names = res.feature_names
    assert names == ["1", "x", "x*x"]
    coef = res.coefficients[0]
    assert coef[names.index("x")] == pytest.approx(-0.5, abs=1e-6)
    assert coef[names.index("1")] == 0.0
    assert coef[names.index("x*x")] == 0.0
    # the emitted spec evaluates through the shared engine
    mse = one_step_mse(res.spec, init_params(res.spec), _linear_decay_dataset())
    assert mse < 1e-12


def test_sindy_default_ridge_matches_closed_form_oracle():
    # with the default alpha the surviving coefficient equals the
    # closed-form ridge solution on the active column: c = S d / (S + a)
    data = _linear_decay_dataset()
    res = sindy_fit(data)
    x_cols, d_cols = [], []
    for tr in data.trajectories:
        x_cols.append(tr.states[:-1, 0])
        d_cols.append(np.diff(tr.states[:, 0]) / 0.25)
    x = np.concatenate(x_cols)
    d = np.concatenate(d_cols)
    s = float(x @ x)
    expected = float(x @ d) / (s + 0.5)
    got = res.coefficients[0][res.feature_names.index("x")]
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(-0.5, abs=1e-3)  # small ridge shrinkage remains


def test_sindy_zero_derivatives_all_pruned():
    from hdtwin.dsl import SystemSchema, VarSpec

    schema = SystemSchema(states=(VarSpec("x", 0, 10),), dt=1.0)
    trs = [Trajectory(np.arange(10.0), np.full((10, 1), v), np.zeros((10, 0)))
           for v in (1.0, 2.0, 3.0)]
    res = sindy_fit(Dataset(trs, schema))
    assert (res.coefficients == 0.0).all()
    assert res.spec.components[0].expr.kind == "const"


def test_sindy_support_recovery_lv2():
    system = builtin_system("lv2")
    data = generate_dataset(system, GenConfig(n=10, seed=0))
    res = sindy_fit(data["train"])
    names = res.feature_names
    idx = {n: k for k, n in enumerate(names)}
    support0 = set(np.nonzero(res.coefficients[0])[0])
    support1 = set(np.nonzero(res.coefficients[1])[0])
    cross = idx["hare_population*lynx_population"]
    assert support0 == {idx["hare_population"], cross}
    assert support1 == {idx["lynx_population"], cross}
    assert res.coefficients[0, idx["hare_population"]] == pytest.approx(1.1, rel=1e-3)
    assert res.coefficients[0, cross] == pytest.approx(-0.4, rel=1e-3)
    assert res.coefficients[1, cross] == pytest.approx(0.1, rel=1e-3)
    assert res.coefficients[1, idx["lynx_population"]] == pytest.approx(-0.4, rel=1e-3)


def test_sindy_support_recovery_lv3():
    system = builtin_system("lv3-plankton")
    data = generate_dataset(system, GenConfig(n=10, seed=0))
    res = sindy_fit(data["train"])
    idx = {n: k for k, n in enumerate(res.feature_names)}
    prey, mid, top = ("prey_population", "intermediate_population", "top_predators_population")
    assert set(np.nonzero(res.coefficients[0])[0]) == {
        idx[prey], idx[f"{prey}*{mid}"], idx[f"{prey}*{top}"]}
    assert set(np.nonzero(res.coefficients[1])[0]) == {idx[mid], idx[f"{prey}*{mid}"]}
    assert set(np.nonzero(res.coefficients[2])[0]) == {idx[top], idx[f"{prey}*{top}"]}


def test_sindy_library_includes_actions():
    system = builtin_system("cancer-chemo")
    data = generate_dataset(system, GenConfig(n=5, seed=1))
    res = sindy_fit(data["train"])
    assert "chemotherapy_dosage" in res.feature_names
    idx = {n: k for k, n in enumerate(res.feature_names)}
    # the concentration coefficient is identifiable; the dosage is binary so
    # u and u^2 are exactly collinear (u^2 = 5u) and only their combination
    # u + 5 u^2 is determined
    assert res.coefficients[1, idx["chemotherapy_drug_concentration"]] == pytest.approx(
        -0.5, abs=1e-3)
    combined = (res.coefficients[1, idx["chemotherapy_dosage"]]
                + 5.0 * res.coefficients[1, idx["chemotherapy_dosage*chemotherapy_dosage"]])
    assert combined == pytest.approx(1.0, abs=1e-3)
    # and the fitted model reproduces the concentration dynamics
    delta_mse = one_step_mse(res.spec, init_params(res.spec), data["test"])
    assert np.isfinite(delta_mse)


@pytest.mark.xfail(
    reason="S+E+I+R = 1 on every sample makes the polynomial library exactly"
           " collinear: infinitely many degree-2 forms produce identical"
           " predictions, so the true support is not identifiable from this data",
    strict=True,
)
def test_sindy_support_recovery_seir():
    system = builtin_system("seir-covid")
    data = generate_dataset(system, GenConfig(n=24, seed=0))
    res = sindy_fit(data["train"])
    idx = {n: k for k, n in enumerate(res.feature_names)}
    s, e, i = "susceptible", "exposed", "infected"
    assert set(np.nonzero(res.coefficients[0])[0]) == {idx[f"{s}*{i}"]}
    assert set(np.nonzero(res.coefficients[1])[0]) == {idx[f"{s}*{i}"], idx[e]}
    assert set(np.nonzero(res.coefficients[2])[0]) == {idx[e], idx[i]}
    assert set(np.nonzero(res.coefficients[3])[0]) == {idx[i]}


def test_sindy_idempotent_thresholding():
    data = _linear_decay_dataset()
    first = sindy_fit(data)
    second = sindy_fit(data)
    assert (first.coefficients == second.coefficients).all()
    # re-running the threshold pass on the surviving support changes nothing:
    # every kept coefficient is already above the threshold
    kept = first.coefficients[first.coefficients != 0.0]
    assert (np.abs(kept) >= SindyConfig().threshold).all()


def test_sindy_reports_condition_number():
    res = sindy_fit(_linear_decay_dataset())
    assert np.isfinite(res.condition_number) and res.condition_number >= 1.0


# ---------------------------------------------------------------------------
# builtin baseline specs


BASELINE_SYSTEM = {
    "logistic-tumor": "cancer",
    "logistic-tumor-chemo": "cancer-chemo",
    "logistic-tumor-chemo-radio": "cancer-chemo-radio",
    "lv2": "lv2",
    "lv3": "lv3-plankton",
    "seir": "seir-covid",
}


def test_baseline_specs_validate_against_their_schemas():
    for baseline_id, sys_id in BASELINE_SYSTEM.items():
        schema = builtin_system(sys_id).schema
        spec = builtin_baseline_spec(baseline_id, schema)
        assert validate(spec, schema) == [], baseline_id
    schema = builtin_system("cancer-chemo-radio").schema
    twin = builtin_baseline_spec("mlp-twin", schema)
    assert validate(twin, schema) == []


def test_seir_baseline_structure():
    spec = builtin_baseline_spec("seir")
    assert len(spec.components) == 4
    assert {p.name for p in spec.params} == {"beta", "sigma", "gamma", "delta"}


def test_mlp_twin_parameter_count():
    schema = builtin_system("cancer-chemo-radio").schema
    d_x, d_u = schema.d_x, schema.d_u
    twin = builtin_baseline_spec("mlp-twin", schema)
    expected = ((d_x + d_u) * 128 + 128) + 2 * (128 * 128 + 128) + (128 * d_x + d_x)
    assert twin.param_count() == expected
    assert twin.params == ()  # no mechanistic term at all
    with pytest.raises(ValueError):
        builtin_baseline_spec("mlp-twin")


def test_unknown_baseline_id():
    with pytest.raises(ValueError) as err:
        builtin_baseline_spec("transformer")
    assert str(err.value) == ("unknown baseline 'transformer'; available: logistic-tumor,"
                              " logistic-tumor-chemo, logistic-tumor-chemo-radio, lv2, lv3, seir,"
                              " mlp-twin")
