"""Acceptance suite: one test per exit criterion, each printing a
machine-readable ACCEPTANCE line (run with -s or -rA to see them all).

Two criteria are expected to fail with the literal tumor-model constants
and are asserted faithfully anyway; see notes in each test:
  4a  sparse-regression test MSE on the untreated tumor data lands near
      28 (trajectory mode), far below the stated [100, 1000] window
  7b  the out-of-distribution/in-distribution error ratio of the true
      structural fit sits near 56x, above the stated 10x
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import replay_fixtures
from conftest import (
    finite_diff_gradients,
    flatten_gradients,
    random_batch,
    random_params,
    random_schema,
    random_spec,
)
from hdtwin.agents import POPULATION_CAPACITY, ScriptedClient
from hdtwin.baselines import builtin_baseline_spec, sindy_fit
from hdtwin.dsl import parse_model_spec
from hdtwin.engine import (
    EvaluationFault,
    Evaluator,
    ParamVector,
    init_params,
    one_step_mse,
    per_component_mse,
    rollout_mse,
)
from hdtwin.optim import OptimConfig, adam_update, fit
from hdtwin.orchestrator import (
    EvolveConfig,
    confidence_interval,
    evolve,
    make_modeling_context,
    write_run_archive,
)
from hdtwin.systems import (
    INTERVENTION_DAY,
    INTERVENTION_SCALE,
    GenConfig,
    builtin_system,
    generate_dataset,
)

LOG_TUMOR_GROWTH = (
    "param log_rho = -8.5\n"
    "param log_kcap = 4.0\n"
    "d(tumor_volume)/dt = exp(log_rho) * log(exp(log_kcap) / tumor_volume) * tumor_volume\n"
)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def lung_cancer_data():
    return generate_dataset(builtin_system("cancer"), GenConfig(n=1000, seed=42))


@pytest.fixture(scope="module")
def chemo_radio_data():
    return generate_dataset(builtin_system("cancer-chemo-radio"), GenConfig(n=1000, seed=7))


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    """Reverse-mode gradients match central finite differences on >= 100
    randomized cases within 1e-4 relative error, in under a minute."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 100 and attempts < 500:
        attempts += 1
        schema = random_schema(rng)
        spec = random_spec(rng, schema)
        params = random_params(rng, spec)
        batch = random_batch(rng, schema, 6)
        try:
            loss, grads = Evaluator(spec, schema).loss_and_grad(params, batch, dt=0.5)
        except EvaluationFault:
            continue
        if loss > 1e4:  # guard-clamped denominators make finite differences meaningless
            continue
        fd = finite_diff_gradients(spec, schema, params, batch, dt=0.5)
        for label, g in flatten_gradients(grads).items():
            g_fd = fd[label]
            if abs(g) < 1e-8 and abs(g_fd) < 1e-8:
                continue
            rel = abs(g - g_fd) / max(abs(g), abs(g_fd))
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{label}: reverse {g} vs fd {g_fd}"
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 100 and worst <= 1e-4 and elapsed < 60.0
    report("1 gradient-correctness", ok,
           f"{checked} cases, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert checked >= 100
    assert elapsed < 60.0


def test_criterion_02_oracle_recovery(lung_cancer_data):
    """Fitting the true untreated tumor structure recovers the growth rate
    and carrying capacity within 5% and reaches test MSE < 1e-6 in < 3 min."""
    started = time.perf_counter()
    assert len(lung_cancer_data["train"].trajectories) == 1000
    assert all(len(tr) == 61 for tr in lung_cancer_data["train"].trajectories)
    spec = parse_model_spec(LOG_TUMOR_GROWTH)
    result = fit(spec, init_params(spec), lung_cancer_data["train"],
                 lung_cancer_data["val"], OptimConfig(seed=0))
    rho = math.exp(result.params.scalars["log_rho"])
    kcap = math.exp(result.params.scalars["log_kcap"])
    rho_err = abs(rho - 7.00e-5) / 7.00e-5
    k_err = abs(kcap - 30.0) / 30.0
    test_mse = one_step_mse(spec, result.params, lung_cancer_data["test"])
    elapsed = time.perf_counter() - started
    ok = rho_err <= 0.05 and k_err <= 0.05 and test_mse < 1e-6 and elapsed < 180.0
    report("2 oracle-recovery", ok,
           f"rho err {rho_err:.2%}, K err {k_err:.2%}, test MSE {test_mse:.2e},"
           f" {elapsed:.0f}s")
    assert rho_err <= 0.05
    assert k_err <= 0.05
    assert test_mse < 1e-6
    assert elapsed < 180.0


def test_criterion_03_replay_evolution(chemo_radio_data):
    """Scripted six-spec evolution: non-increasing best-by-validation curve
    and final one-step test MSE <= 1.0 in < 10 min."""
    started = time.perf_counter()
    system = builtin_system("cancer-chemo-radio")
    ctx = make_modeling_context(system, 6)
    client = ScriptedClient(replay_fixtures.evolution_replies())
    cfg = EvolveConfig(generations=6, optim=OptimConfig(seed=7), seed=7)
    result = evolve(ctx, system, chemo_radio_data, cfg, client)
    curve = np.array(result.best_curve)
    non_increasing = bool((np.diff(curve) <= 1e-15).all())
    test_mse = result.test.upsilon
    elapsed = time.perf_counter() - started
    ok = non_increasing and test_mse <= 1.0 and elapsed < 600.0
    report("3 replay-evolution", ok,
           f"curve {[f'{v:.3g}' for v in curve]}, test MSE {test_mse:.3g}, {elapsed:.0f}s")
    assert non_increasing
    assert test_mse <= 1.0
    assert elapsed < 600.0


def test_criterion_04a_sindy_cancer_window(lung_cancer_data):
    """Sparse regression on the untreated tumor data: the stated [100, 1000]
    test-MSE window.

    With the literal printed constants (growth 7e-5, capacity 30) every
    tumor shrinks slowly, sequential thresholding prunes the whole degree-2
    library, and even the all-zero model's trajectory MSE is ~28, so no
    sparse polynomial model can reach 100.  Expected to fail; kept faithful
    to the stated window rather than loosened.  The next test checks that
    cause.
    """
    started = time.perf_counter()
    res = sindy_fit(lung_cancer_data["train"])
    params = init_params(res.spec)
    one_step = one_step_mse(res.spec, params, lung_cancer_data["test"])
    trajectory = rollout_mse(Evaluator(res.spec, lung_cancer_data["test"].schema), params,
                             lung_cancer_data["test"])
    elapsed = time.perf_counter() - started
    ok = 100.0 <= trajectory <= 1000.0 and elapsed < 120.0
    kept = np.count_nonzero(res.coefficients)
    report("4a sindy-cancer-window", ok,
           f"one-step {one_step:.3g}, trajectory {trajectory:.3g},"
           f" window [100, 1000], {elapsed:.0f}s"
           f" ({'all-zero model' if kept == 0 else f'{kept} terms kept'})")
    assert elapsed < 120.0
    assert 100.0 <= trajectory <= 1000.0


def test_criterion_04a_cause_is_the_all_zero_model(lung_cancer_data):
    """Why 4a fails: sparse regression keeps no term of the library, and
    the all-zero model's trajectory MSE (28.2) lies below the window."""
    res = sindy_fit(lung_cancer_data["train"])
    assert np.all(res.coefficients == 0.0)
    test = lung_cancer_data["test"]
    assert rollout_mse(Evaluator(res.spec, test.schema), init_params(res.spec), test) < 100.0


def test_criterion_04b_sindy_support_recovery():
    """Sparse regression recovers the exact monomial support on noiseless
    two- and three-species predator-prey data."""
    started = time.perf_counter()
    lv2 = builtin_system("lv2")
    res2 = sindy_fit(generate_dataset(lv2, GenConfig(n=10, seed=0))["train"])
    idx2 = {n: k for k, n in enumerate(res2.feature_names)}
    cross = idx2["hare_population*lynx_population"]
    ok2 = (set(np.nonzero(res2.coefficients[0])[0]) == {idx2["hare_population"], cross}
           and set(np.nonzero(res2.coefficients[1])[0]) == {idx2["lynx_population"], cross})

    lv3 = builtin_system("lv3-plankton")
    res3 = sindy_fit(generate_dataset(lv3, GenConfig(n=10, seed=0))["train"])
    idx3 = {n: k for k, n in enumerate(res3.feature_names)}
    prey, mid, top = ("prey_population", "intermediate_population", "top_predators_population")
    ok3 = (
        set(np.nonzero(res3.coefficients[0])[0])
        == {idx3[prey], idx3[f"{prey}*{mid}"], idx3[f"{prey}*{top}"]}
        and set(np.nonzero(res3.coefficients[1])[0]) == {idx3[mid], idx3[f"{prey}*{mid}"]}
        and set(np.nonzero(res3.coefficients[2])[0]) == {idx3[top], idx3[f"{prey}*{top}"]}
    )
    elapsed = time.perf_counter() - started
    report("4b sindy-support-recovery", ok2 and ok3,
           f"two-species exact: {ok2}, three-species exact: {ok3}, {elapsed:.0f}s")
    assert ok2 and ok3
    assert elapsed < 120.0


def test_criterion_05_loss_identities():
    """upsilon = mean(delta) to 1e-12; a generating model scores 0 on its
    own data to 1e-12; epidemic trajectories conserve total population."""
    rng = np.random.default_rng(0)
    system = builtin_system("cancer-chemo-radio")
    data = generate_dataset(system, GenConfig(n=20, seed=1))
    worst_gap = 0.0
    for split in data.values():
        delta, ups = per_component_mse(Evaluator(system.spec, split.schema),
                                       system.true_params, split)
        worst_gap = max(worst_gap, abs(ups - float(np.mean(delta))))
    self_mse = one_step_mse(system.spec, system.true_params, data["train"])

    seir = builtin_system("seir-covid")
    seir_data = generate_dataset(seir, GenConfig(n=24, seed=2))
    conservation = max(
        float(np.abs(tr.states.sum(axis=1) - 1.0).max())
        for ds in seir_data.values() for tr in ds.trajectories
    )
    # identity also on randomized multi-dimensional specs
    for _ in range(10):
        schema = random_schema(rng)
        spec = random_spec(rng, schema, allow_mlp=False)
        params = random_params(rng, spec)
        from hdtwin.engine import Dataset, Trajectory
        rows = rng.uniform(0.3, 2.0, size=(8, schema.d_x))
        ds = Dataset([Trajectory(np.arange(8.0), rows,
                                 rng.uniform(0, 1, size=(8, schema.d_u)))], schema)
        delta, ups = per_component_mse(Evaluator(spec, ds.schema), params, ds)
        worst_gap = max(worst_gap, abs(ups - float(np.mean(delta))))

    ok = worst_gap <= 1e-12 and self_mse <= 1e-12 and conservation <= 1e-9
    report("5 loss-identities", ok,
           f"mean-identity gap {worst_gap:.1e}, self MSE {self_mse:.1e},"
           f" conservation {conservation:.1e}")
    assert worst_gap <= 1e-12
    assert self_mse <= 1e-12
    assert conservation <= 1e-9


def test_criterion_06_evolvability():
    """After fitting the epidemic baseline on pre-intervention data, scaling
    the transmission rate to 25% tracks the intervened ground truth from
    day 19 with <= 5% of the unscaled model's error, in under a minute."""
    started = time.perf_counter()
    system = builtin_system("seir-covid")
    data = generate_dataset(system, GenConfig(n=24, seed=11, intervention=True))
    spec = builtin_baseline_spec("seir")
    result = fit(spec, init_params(spec), data["train"], data["val"], OptimConfig(seed=0))
    assert not result.faulted
    scaled = result.params.copy()
    scaled.scalars["beta"] *= INTERVENTION_SCALE
    day = INTERVENTION_DAY
    evaluator = Evaluator(spec, system.schema)

    def post_intervention_mse(params: ParamVector) -> float:
        total, count = 0.0, 0
        for tr in data["test"].trajectories:
            steps = len(tr) - 1 - day
            out = evaluator.rollout(params, tr.states[day], np.zeros((steps, 0)),
                                    system.schema.dt, t0=float(day))
            total += float(np.sum((out.states - tr.states[day:]) ** 2))
            count += out.states.size
        return total / count

    unscaled_mse = post_intervention_mse(result.params)
    scaled_mse = post_intervention_mse(scaled)
    ratio = scaled_mse / unscaled_mse
    elapsed = time.perf_counter() - started
    ok = ratio <= 0.05 and elapsed < 60.0
    report("6 evolvability", ok,
           f"scaled {scaled_mse:.2e} vs unscaled {unscaled_mse:.2e}"
           f" (ratio {ratio:.2e}), {elapsed:.0f}s")
    assert ratio <= 0.05
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def ood_data():
    return generate_dataset(builtin_system("cancer"), GenConfig(n=1000, seed=5, ood=True))


def test_criterion_07a_ood_supports(ood_data):
    """The shifted-generator supports are [0, 574] vs [804, 1149] and the
    visited tumor-volume ranges never overlap across any trajectory."""
    train_vols = np.vstack([tr.states for tr in ood_data["train"].trajectories])[:, 0]
    test_vols = np.vstack([tr.states for tr in ood_data["test"].trajectories])[:, 0]
    train_starts = [tr.states[0, 0] for tr in ood_data["train"].trajectories]
    test_starts = [tr.states[0, 0] for tr in ood_data["test"].trajectories]
    in_support = (0.0 <= min(train_starts) and max(train_starts) <= 574.0
                  and 804.0 <= min(test_starts) and max(test_starts) <= 1149.0)
    gap = float(test_vols.min() - train_vols.max())
    ok = in_support and gap > 0.0
    report("7a ood-supports", ok,
           f"supports ok: {in_support}, visited-range gap {gap:.1f}")
    assert in_support
    assert gap > 0.0


@pytest.fixture(scope="module")
def ood_fit(ood_data):
    """The true-structure fit of 7b, shared with the test of its cause."""
    spec = parse_model_spec(LOG_TUMOR_GROWTH)
    result = fit(spec, init_params(spec), ood_data["train"], ood_data["val"],
                 OptimConfig(seed=0))
    mse_ood = one_step_mse(spec, result.params, ood_data["test"])
    mse_iid = one_step_mse(spec, result.params, ood_data["test_iid"])
    return result.params, mse_ood, mse_iid


def first_order_ood_ratio(ood_data, params: ParamVector) -> tuple[float, float]:
    """The direction of the fit's error and how much the shifted support
    amplifies it, to first order: with d the fitted log-parameters minus
    the true ones, the one-step error of exp(log_rho) * log(exp(log_kcap)
    / x) * x is proportional to x * (log(x) - c), c = log(kcap) +
    d(log_kcap) / d(log_rho).  Returns c and the OOD/IID ratio of the mean
    square of that direction over the test transitions."""
    true = builtin_system("cancer").true_params.scalars
    fitted = params.scalars
    c = math.log(true["kcap"]) + ((fitted["log_kcap"] - math.log(true["kcap"]))
                                  / (fitted["log_rho"] - math.log(true["rho"])))

    def mean_square(split: str) -> float:
        x = ood_data[split].transitions().x[:, 0]
        return float(np.mean((x * (np.log(x) - c)) ** 2))

    return c, mean_square("test") / mean_square("test_iid")


def test_criterion_07b_ood_generalization(ood_data, ood_fit):
    """The true-structure fit's out-of-distribution one-step test MSE within
    10x of its in-distribution test MSE.

    The fit's residual parameter error lies along the direction the
    training support constrains worst, x*(log(x) - c); on the shifted
    support that direction is amplified ~56x for any Adam-reachable
    optimum (measured stable across parametrizations, learning rates, and
    seeds; test_criterion_07b_cause_is_one_error_direction checks it at
    this fit).  Expected to fail; kept faithful to the stated 10x bound.
    """
    params, mse_ood, mse_iid = ood_fit
    ratio = mse_ood / mse_iid
    c, amplified = first_order_ood_ratio(ood_data, params)
    ok = ratio <= 10.0
    report("7b ood-generalization", ok,
           f"OOD {mse_ood:.2e} vs IID {mse_iid:.2e} (ratio {ratio:.1f}, bound 10)"
           f" (direction x*(log x - {c:.3f}) amplified {amplified:.1f}x)")
    assert ratio <= 10.0


def test_criterion_07b_cause_is_one_error_direction(ood_data, ood_fit):
    """Why 7b fails: the first-order amplification of the fit's error
    direction (56.76 at this fit) predicts the measured OOD/IID ratio
    (56.22) within 5%.  Taking c from the fitted log_kcap instead gives
    55.67, so first-order readings lie within 1% of the measurement; an
    error along any other direction would move the ratio much further."""
    params, mse_ood, mse_iid = ood_fit
    _, amplified = first_order_ood_ratio(ood_data, params)
    assert abs(amplified / (mse_ood / mse_iid) - 1.0) < 0.05


def test_criterion_08_population_and_determinism(tmp_path):
    """Randomized population insertion matches a brute-force oracle; two
    scripted runs with one seed produce byte-identical archives."""
    from test_agents import make_entry
    from hdtwin.agents import population_insert

    rng = np.random.default_rng(1)
    texts = [f"param a = 1.0\nd(x)/dt = a * x ^ {k}.0\n" for k in range(1, 30)]
    pop = ()
    oracle = []
    inserts_ok = True
    evictions = 0
    for _ in range(150):
        entry = make_entry(float(rng.uniform(0, 1)),
                           text=texts[int(rng.integers(0, len(texts)))])
        pop = population_insert(pop, entry)
        if entry.fingerprint not in {e.fingerprint for e in oracle}:
            oracle.append(entry)
            oracle.sort(key=lambda e: e.upsilon)
            evictions += len(oracle) > POPULATION_CAPACITY
            oracle = oracle[:POPULATION_CAPACITY]
        inserts_ok &= [e.fingerprint for e in pop] == [e.fingerprint for e in oracle]

    system = builtin_system("cancer-chemo-radio")
    datasets = generate_dataset(system, GenConfig(n=5, seed=3))
    cfg = EvolveConfig(generations=4,
                       optim=OptimConfig(batch_size=200, max_epochs=15, patience=8, seed=0),
                       seed=0)
    ctx = make_modeling_context(system, 4, n_trajectories=5)
    for name in ("a", "b"):
        client = ScriptedClient(replay_fixtures.evolution_replies())
        result = evolve(ctx, system, datasets, cfg, client)
        write_run_archive(tmp_path / name, result, "cancer-chemo-radio", "evolve", 0, cfg)
    files = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").rglob("*") if p.is_file())
    identical = all(
        (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for rel in files
    )
    ok = inserts_ok and evictions > 0 and identical and len(files) > 4
    report("8 population-and-determinism", ok,
           f"oracle match: {inserts_ok} over {evictions} evictions,"
           f" {len(files)} archive files byte-identical: {identical}")
    assert inserts_ok
    assert evictions > 0  # 29 structures against the capacity: inserts must evict
    assert identical


def test_criterion_09_adam_oracle():
    """adam_update matches the hand-computed two-step scalar reference."""
    cfg = OptimConfig(lr=0.01)
    p1, m1, v1 = adam_update(0.0, 1.0, 0.0, 0.0, step=1, cfg=cfg)
    p2, _, _ = adam_update(p1, 1.0, m1, v1, step=2, cfg=cfg)
    # step 1: m_hat = v_hat = 1 -> p = -0.01 / (1 + 1e-8)
    ref1 = -0.01 / (1.0 + 1e-8)
    # step 2: m = 0.19, v = 0.001999 bias-correct to exactly 1 again
    m_hat = 0.19 / (1.0 - 0.81)
    v_hat = 0.001999 / (1.0 - 0.998001)
    ref2 = ref1 - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
    ok = abs(p1 - ref1) <= 1e-12 and abs(p2 - ref2) <= 1e-12
    report("9 adam-oracle", ok, f"step1 {p1!r} vs {ref1!r}, step2 {p2!r} vs {ref2!r}")
    assert p1 == pytest.approx(ref1, abs=1e-12)
    assert p2 == pytest.approx(ref2, abs=1e-12)


def test_criterion_10_ci_aggregation():
    """Student-t aggregation matches the textbook oracle to 1e-3."""
    mean, half = confidence_interval([1.0, 2.0, 3.0])
    ok = mean == 2.0 and abs(half - 2.484) <= 1e-3
    report("10 ci-aggregation", ok, f"[1,2,3] -> {mean} +/- {half:.4f}")
    assert mean == 2.0
    assert half == pytest.approx(4.3027 * 1.0 / math.sqrt(3.0), abs=1e-3)
    assert half == pytest.approx(2.484, abs=1e-3)
    assert confidence_interval([5.0]) == (5.0, None)
    assert confidence_interval([2.0] * 10)[1] == 0.0


LIVE_URL_VAR = "HDTWIN_LLM_BASE_URL"


@pytest.mark.skipif("os.environ.get('HDTWIN_LLM_BASE_URL') is None",
                    reason="live endpoint smoke test; set HDTWIN_LLM_BASE_URL to enable")
def test_criterion_11_live_llm_smoke(tmp_path):
    """One live generation end to end against a configured endpoint."""
    import os

    from hdtwin.agents import DecodingConfig, HttpClient

    system = builtin_system("cancer-chemo-radio")
    datasets = generate_dataset(system, GenConfig(n=5, seed=0))
    cfg = EvolveConfig(
        generations=1,
        optim=OptimConfig(batch_size=200, max_epochs=50, patience=10, seed=0),
        decoding=DecodingConfig(model=os.environ.get("HDTWIN_LLM_MODEL", "gpt-4o-mini")),
        seed=0,
    )
    ctx = make_modeling_context(system, 1, n_trajectories=5)
    client = HttpClient(os.environ[LIVE_URL_VAR])
    result = evolve(ctx, system, datasets, cfg, client)
    write_run_archive(tmp_path, result, "cancer-chemo-radio", "evolve", 0, cfg)
    ok = np.isfinite(result.best.upsilon)
    report("11 live-llm-smoke", ok, f"val loss {result.best.upsilon:.3g}")
    assert ok
