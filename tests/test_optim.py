from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import UNUSABLE_FITS, unusable_fit
from hdtwin.dsl import SystemSchema, VarSpec, parse_model_spec
from hdtwin import optim
from hdtwin.engine import (Dataset, Evaluator, init_params, load_params, per_component_mse,
                           save_params)
from hdtwin.optim import FitResult, OptimConfig, adam_update, fit
from hdtwin.systems import GenConfig, builtin_system, generate_dataset

SCHEMA = SystemSchema(states=(VarSpec("x", -100.0, 100.0),), dt=1.0)


def make_linear_dataset(a: float, n_traj: int, steps: int, seed: int, split: str) -> Dataset:
    spec = parse_model_spec(f"param a = {a}\nd(x)/dt = a * x")
    params, ev = init_params(spec), Evaluator(spec, SCHEMA)
    rng = np.random.default_rng(seed)
    trs = [
        ev.rollout(params, [float(rng.uniform(1.0, 5.0))], np.zeros((steps, 0)), dt=1.0)
        for _ in range(n_traj)
    ]
    return Dataset(trs, SCHEMA, split)


# ---------------------------------------------------------------------------
# adam_update against the hand-computed scalar reference


def test_adam_first_step_hand_value():
    cfg = OptimConfig(lr=0.01)
    p, m, v = adam_update(0.0, 1.0, 0.0, 0.0, step=1, cfg=cfg)
    # m_hat = v_hat = 1 after bias correction, so p = -lr / (1 + eps)
    assert p == pytest.approx(-0.009999999900000001, abs=1e-12)
    assert m == pytest.approx(0.1, abs=1e-15)
    assert v == pytest.approx(0.001, abs=1e-18)


def test_adam_two_steps_hand_reference():
    cfg = OptimConfig(lr=0.01)
    p, m, v = adam_update(0.0, 1.0, 0.0, 0.0, step=1, cfg=cfg)
    p, m, v = adam_update(p, 1.0, m, v, step=2, cfg=cfg)
    # hand reference: m2 = 0.19, v2 = 0.001999, both bias-correct to exactly 1
    m_hat = 0.19 / (1.0 - 0.9 ** 2)
    v_hat = 0.001999 / (1.0 - 0.999 ** 2)
    expected = -0.009999999900000001 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p == pytest.approx(expected, abs=1e-12)
    assert p == pytest.approx(-0.019999999800000003, abs=1e-12)


def test_adam_zero_gradient_is_identity():
    cfg = OptimConfig()
    p, m, v = adam_update(1.5, 0.0, 0.0, 0.0, step=1, cfg=cfg)
    assert p == 1.5 and m == 0.0 and v == 0.0


def test_adam_on_one_flat_array_matches_per_scalar_and_per_array_calls():
    # fit updates the whole ParamVector.values at once; + - * / and sqrt are
    # correctly rounded, so that must equal Python-float calls per scalar
    # and separate calls per weight array, bit for bit
    cfg = OptimConfig(lr=0.05)
    rng = np.random.default_rng(3)
    scalars, w = [0.3, -1.2], rng.normal(size=(3, 2))
    flat = np.concatenate([scalars, w.ravel()])
    m_s, v_s, m_w, v_w = [0.0, 0.0], [0.0, 0.0], np.zeros_like(w), np.zeros_like(w)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    for step in range(1, 201):
        g = rng.normal(size=flat.size) * 10.0 ** rng.integers(-30, 10, size=flat.size)
        flat, m, v = adam_update(flat, g, m, v, step, cfg)
        for i in range(2):
            scalars[i], m_s[i], v_s[i] = adam_update(scalars[i], float(g[i]), m_s[i], v_s[i],
                                                     step, cfg)
        w, m_w, v_w = adam_update(w, g[2:].reshape(w.shape), m_w, v_w, step, cfg)
    assert flat.tobytes() == np.concatenate([scalars, w.ravel()]).tobytes()


def test_adam_elementwise_on_arrays():
    cfg = OptimConfig(lr=0.1)
    w = np.array([[0.0, 1.0]])
    g = np.array([[1.0, 0.0]])
    w2, _, _ = adam_update(w, g, np.zeros_like(w), np.zeros_like(w), step=1, cfg=cfg)
    assert w2[0, 0] == pytest.approx(-0.1, rel=1e-6)
    assert w2[0, 1] == 1.0


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_linear_coefficient():
    train = make_linear_dataset(-0.5, 30, 20, seed=0, split="train")
    val = make_linear_dataset(-0.5, 10, 20, seed=1, split="val")
    spec = parse_model_spec("param a = 0.0\nd(x)/dt = a * x")
    result = fit(spec, init_params(spec), train, val,
                 OptimConfig(batch_size=200, max_epochs=500, patience=20, seed=0))
    assert not result.faulted
    assert -0.505 <= result.params.scalars["a"] <= -0.495
    assert result.train_curve[-1] < 1e-8


def test_fit_perfect_params_early_stop_budget():
    train = make_linear_dataset(-0.5, 10, 10, seed=2, split="train")
    val = make_linear_dataset(-0.5, 5, 10, seed=3, split="val")
    spec = parse_model_spec("param a = -0.5\nd(x)/dt = a * x")
    cfg = OptimConfig(batch_size=50, max_epochs=100, patience=20, seed=0)
    result = fit(spec, init_params(spec), train, val, cfg)
    # perfect params: zero gradient, no improvement ever; validation is
    # evaluated once up front and then once per epoch until patience runs out
    assert result.epochs_run == cfg.patience
    assert len(result.val_curve) == cfg.patience + 1
    assert result.params.scalars["a"] == -0.5
    assert result.val_loss <= 1e-24


def test_fit_zero_epochs_scores_the_initial_parameters():
    train = make_linear_dataset(-0.5, 10, 10, seed=2, split="train")
    val = make_linear_dataset(-0.5, 5, 10, seed=3, split="val")
    spec = parse_model_spec(
        "param a = -0.2\nmlp net(x) hidden [4] act tanh outputs 1\nd(x)/dt = a * x + net[0]"
    )
    init = init_params(spec, seed=3)
    result = fit(spec, init, train, val, OptimConfig(max_epochs=0))
    assert result.params.values.tobytes() == init.values.tobytes()
    assert result.params is not init
    assert (result.epochs_run, result.train_curve, result.faulted) == (0, [], False)
    delta, ups = per_component_mse(Evaluator(spec, val.schema), init, val)
    assert result.val_curve == [ups] and result.val_loss == ups
    assert result.component_losses.tobytes() == delta.tobytes()


def test_fit_keeps_epoch_0_when_its_validation_loss_is_infinite_without_a_fault():
    # 1e200 is a finite derivative, so no EvaluationFault: its squared
    # residual overflows to inf in the validation pass, quietly
    system = builtin_system("cancer-chemo-radio")
    data = generate_dataset(system, GenConfig(n=4, seed=3))
    spec = parse_model_spec("d(tumor_volume)/dt = 1e200\n"
                            "d(chemotherapy_drug_concentration)/dt ="
                            " -chemotherapy_drug_concentration")
    init = init_params(spec)
    for cfg, epochs, faulted in ((OptimConfig(max_epochs=0), 0, False),
                                 (OptimConfig(max_epochs=3, patience=3), 1, True)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit(spec, init, data["train"], data["val"], cfg)
        assert result.component_losses.tolist() == [np.inf, 17.08282367129907]
        assert result.val_loss == np.inf and result.val_curve == [np.inf]
        assert (result.epochs_run, result.faulted, result.usable) == (epochs, faulted, False)
        assert result.params.values.tobytes() == init.values.tobytes()


def test_fit_guarded_division_by_zero_init():
    train = make_linear_dataset(-0.5, 10, 10, seed=4, split="train")
    val = make_linear_dataset(-0.5, 5, 10, seed=5, split="val")
    spec = parse_model_spec("param a = 0.0\nd(x)/dt = x / a")
    result = fit(spec, init_params(spec), train, val,
                 OptimConfig(batch_size=50, max_epochs=5, patience=5, seed=0))
    assert not result.faulted
    assert np.isfinite(result.val_loss)


def test_fit_determinism():
    train = make_linear_dataset(-0.3, 10, 15, seed=6, split="train")
    val = make_linear_dataset(-0.3, 5, 15, seed=7, split="val")
    spec = parse_model_spec(
        "param a = 0.1\nmlp net(x) hidden [4] act tanh outputs 1\nd(x)/dt = a * x + net[0]"
    )
    cfg = OptimConfig(batch_size=64, max_epochs=30, patience=30, seed=9)
    r1 = fit(spec, init_params(spec, seed=1), train, val, cfg)
    r2 = fit(spec, init_params(spec, seed=1), train, val, cfg)
    assert r1.val_loss == r2.val_loss
    assert r1.val_curve == r2.val_curve
    assert r1.params.scalars == r2.params.scalars
    for (w1, _), (w2, _) in zip(r1.params.weights["net"], r2.params.weights["net"]):
        assert (w1 == w2).all()


def test_fit_one_adam_call_per_batch_in_any_layout_order(monkeypatch, tmp_path):
    train = make_linear_dataset(-0.3, 10, 15, seed=6, split="train")  # 140 transitions
    val = make_linear_dataset(-0.3, 5, 15, seed=7, split="val")
    spec = parse_model_spec("param z = 0.1\nparam a = 0.2\n"
                            "mlp net(x) hidden [4] act tanh outputs 1\n"
                            "d(x)/dt = a * x + z + net[0]")
    cfg = OptimConfig(batch_size=64, max_epochs=5, patience=5, seed=9)
    calls = []
    monkeypatch.setattr(optim, "adam_update", lambda *a: calls.append(1) or adam_update(*a))
    direct = fit(spec, init_params(spec, seed=1), train, val, cfg)
    assert len(calls) == direct.epochs_run * 3  # batches of 64, 64 and 12
    # a loaded vector holds its scalars in sorted-name order, not the spec's
    save_params(init_params(spec, seed=1), tmp_path / "p.json")
    loaded = load_params(tmp_path / "p.json")
    assert list(loaded.scalars) == ["a", "z"]
    again = fit(spec, loaded, train, val, cfg)
    assert again.val_curve == direct.val_curve
    assert dict(again.params.scalars) == dict(direct.params.scalars)
    for (w1, b1), (w2, b2) in zip(again.params.weights["net"], direct.params.weights["net"]):
        assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()


def test_fit_writes_every_gradient_into_one_buffer(monkeypatch):
    train = make_linear_dataset(-0.3, 10, 15, seed=6, split="train")  # 140 transitions
    val = make_linear_dataset(-0.3, 5, 15, seed=7, split="val")
    spec = parse_model_spec(
        "param a = 0.1\nmlp net(x) hidden [4] act tanh outputs 1\nd(x)/dt = a * x + net[0]"
    )
    cfg = OptimConfig(batch_size=64, max_epochs=4, patience=4, seed=9)
    buffers = []
    loss_and_grad = Evaluator.loss_and_grad

    def spy(self, params, batch, dt, out=None):
        buffers.append(out)
        return loss_and_grad(self, params, batch, dt, out=out)

    monkeypatch.setattr(Evaluator, "loss_and_grad", spy)
    result = fit(spec, init_params(spec, seed=1), train, val, cfg)
    assert len(buffers) == result.epochs_run * 3
    assert buffers[0] is not None and all(b is buffers[0] for b in buffers)
    assert not np.shares_memory(buffers[0].values, result.params.values)


def test_fit_best_is_monotone_and_snapshot_consistent():
    train = make_linear_dataset(-0.4, 20, 15, seed=8, split="train")
    val = make_linear_dataset(-0.4, 8, 15, seed=9, split="val")
    spec = parse_model_spec("param a = 0.3\nd(x)/dt = a * x")
    result = fit(spec, init_params(spec), train, val,
                 OptimConfig(batch_size=100, max_epochs=60, patience=60, seed=0))
    assert result.val_loss <= min(result.val_curve)
    delta, ups = per_component_mse(Evaluator(spec, val.schema), result.params, val)
    assert ups == pytest.approx(result.val_loss, abs=1e-12)
    assert np.allclose(delta, result.component_losses, atol=1e-12)


def test_fit_early_stop_contract():
    train = make_linear_dataset(-0.4, 20, 15, seed=10, split="train")
    val = make_linear_dataset(-0.4, 8, 15, seed=11, split="val")
    spec = parse_model_spec("param a = -0.35\nd(x)/dt = a * x")
    cfg = OptimConfig(batch_size=100, max_epochs=2000, patience=10, seed=0)
    result = fit(spec, init_params(spec), train, val, cfg)
    assert result.epochs_run <= cfg.max_epochs
    if result.epochs_run < cfg.max_epochs:
        best = result.val_loss
        tail = result.val_curve[-cfg.patience:]
        assert all(v >= best - 1e-12 for v in tail)


def test_fit_faulted_model_flags_and_returns():
    train = make_linear_dataset(-0.5, 5, 10, seed=12, split="train")
    val = make_linear_dataset(-0.5, 3, 10, seed=13, split="val")
    # exp(exp(x)) explodes as soon as the optimizer pushes p upward
    spec = parse_model_spec("param p = 3.0\nd(x)/dt = exp(exp(p * x))")
    result = fit(spec, init_params(spec), train, val,
                 OptimConfig(batch_size=50, max_epochs=10, patience=10, seed=0))
    assert result.faulted
    assert result.val_loss == float("inf") or np.isfinite(result.val_loss)


@pytest.mark.parametrize("kind", UNUSABLE_FITS)
def test_a_fit_is_usable_only_unfaulted_with_a_finite_validation_loss(kind):
    spec = parse_model_spec("param a = 0.5\nd(x)/dt = a * x")
    train = make_linear_dataset(-0.5, 2, 3, seed=12, split="train")
    assert not unusable_fit(kind)(spec, init_params(spec), train, train).usable
    assert FitResult(init_params(spec), 0.5, np.full(1, 0.5), 2).usable


def test_fit_rejects_over_cap_specs():
    spec = parse_model_spec(
        "mlp net(x) hidden [400, 400] act tanh outputs 1\nd(x)/dt = net[0]"
    )
    train = make_linear_dataset(-0.5, 2, 5, seed=0, split="train")
    with pytest.raises(ValueError, match="cap"):
        fit(spec, init_params(spec), train, train, OptimConfig(max_epochs=1, patience=1))


def test_evaluator_and_fit_refuse_an_over_cap_spec_with_the_cap_violation():
    # 3 * 33,333 + 1 network weights and one parameter: one over the cap
    spec = parse_model_spec("param a = 1.0\nmlp net(x) hidden [33333] act tanh outputs 1\n"
                            "d(x)/dt = a * x + net[0]")
    message = ("spec is not valid for this schema: [param-cap] the specification has 100001"
               " optimizable parameters, more than the allowed 100000; use smaller networks")
    with pytest.raises(ValueError) as err:
        Evaluator(spec, SCHEMA)
    assert str(err.value) == message
    train = make_linear_dataset(-0.5, 2, 5, seed=0, split="train")
    with pytest.raises(ValueError) as err:
        fit(spec, init_params(spec), train, train, OptimConfig(max_epochs=1, patience=1))
    assert str(err.value) == message


def test_optim_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(lr=0.0)
    with pytest.raises(ValueError):
        OptimConfig(patience=50, max_epochs=10)
    with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
        OptimConfig(seed=-1)
    with pytest.raises(ValueError, match=r"^max_epochs must be >= 0 \(got -1\)$"):
        OptimConfig(max_epochs=-1)
    with pytest.raises(ValueError, match="patience must be positive"):
        OptimConfig(patience=0)
    # zero epochs only scores the initial parameters; patience is moot
    assert OptimConfig(max_epochs=0).max_epochs == 0


@pytest.mark.parametrize("setting, message", [
    ({"lr": float("nan")}, "lr must be finite"),
    ({"lr": float("inf")}, "lr must be finite"),
])
def test_optim_config_rejects_impossible_adam_settings(setting, message):
    """Each of these made every fit fault at epoch 1 with a non-finite
    derivative, blamed on the model."""
    with pytest.raises(ValueError, match=message):
        OptimConfig(**setting)
