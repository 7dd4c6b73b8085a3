from __future__ import annotations

import math
import re

import numpy as np
import pytest

from hdtwin.dsl import SystemSchema, VarSpec, validate
from hdtwin.engine import Evaluator, load_csv_dataset, read_csv_rows, save_dataset
from hdtwin.systems import (
    BUILTIN_IDS,
    CancerPolicyParams,
    GenConfig,
    builtin_system,
    cancer_dose_probabilities,
    generate_dataset,
    sample_cancer_actions,
    system_description,
    volume_to_diameter,
)


# ---------------------------------------------------------------------------
# builtin_system


def test_all_builtin_specs_validate():
    for sys_id in BUILTIN_IDS:
        system = builtin_system(sys_id)
        assert validate(system.spec, system.schema) == []


def test_unknown_system_id():
    for sys_id in ("lorenz", "synthetic-6"):
        with pytest.raises(ValueError) as err:
            builtin_system(sys_id)
        assert str(err.value) == (f"unknown system {sys_id!r};"
                                  f" available: {', '.join(BUILTIN_IDS)}")


def test_cancer_chemo_radio_derivative_hand_value():
    system = builtin_system("cancer-chemo-radio")
    f = Evaluator(system.spec, system.schema).derivative(system.true_params, [100.0, 2.0],
                                                         [0.0, 2.0], 0.0)
    expected = (7.00e-5 * math.log(30.0 / 100.0) - 0.028 * 2.0
                - (0.0398 * 2.0 + 0.00398 * 2.0 ** 2)) * 100.0
    assert f[0] == pytest.approx(expected, rel=1e-12)
    assert f[0] == pytest.approx(-15.2, rel=1e-2)


def test_seir_disease_free_equilibrium():
    system = builtin_system("seir-covid")
    f = Evaluator(system.spec, system.schema).derivative(system.true_params,
                                                         [1.0, 0.0, 0.0, 0.0], [], 0.0)
    assert (f == 0.0).all()


def test_synthetic_variants_differ_from_base():
    base = builtin_system("cancer-chemo-radio")
    state, action = [200.0, 3.0], [5.0, 2.0]
    f0 = Evaluator(base.spec, base.schema).derivative(base.true_params, state, action, 10.0)
    for k in range(1, 6):
        variant = builtin_system(f"synthetic-{k}")
        f = Evaluator(variant.spec, variant.schema).derivative(variant.true_params, state,
                                                               action, 10.0)
        assert f[0] != f0[0], f"synthetic-{k} matches the base tumor dynamics"
        assert f[1] == f0[1]


# ---------------------------------------------------------------------------
# treatment policy


def test_volume_to_diameter_sphere_relation():
    # a 13 cm sphere has volume pi d^3 / 6
    v = math.pi * 13.0 ** 3 / 6.0
    assert volume_to_diameter(v) == pytest.approx(13.0, rel=1e-12)


def test_dose_probability_at_half_max_diameter():
    policy = CancerPolicyParams()
    v_half = math.pi * 6.5 ** 3 / 6.0  # diameter = d_max / 2 = theta
    p_c, p_r = cancer_dose_probabilities(v_half, policy)
    assert p_c == pytest.approx(0.5, abs=1e-12)
    assert p_r == pytest.approx(0.5, abs=1e-12)


def test_dose_probability_at_zero_volume():
    p_c, _ = cancer_dose_probabilities(0.0, CancerPolicyParams())
    # sigmoid(2 * (0 - 6.5) / 13) = sigmoid(-1)
    assert p_c == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)
    assert p_c == pytest.approx(0.2689, abs=1e-4)


def test_sampled_actions_deterministic_and_quantized():
    policy = CancerPolicyParams()
    a = [sample_cancer_actions(500.0, policy, np.random.default_rng(3)) for _ in range(10)]
    b = [sample_cancer_actions(500.0, policy, np.random.default_rng(3)) for _ in range(10)]
    assert a == b
    for chemo, radio in a:
        assert chemo in (0.0, 5.0) and radio in (0.0, 2.0)


# ---------------------------------------------------------------------------
# generate_dataset


def test_cancer_dataset_shape():
    system = builtin_system("cancer")
    data = generate_dataset(system, GenConfig(n=5, seed=7))
    assert set(data) == {"train", "val", "test"}
    for split, ds in data.items():
        assert len(ds.trajectories) == 5
        assert all(len(tr) == 61 for tr in ds.trajectories)
        assert ds.split == split


def test_regeneration_fidelity_through_engine_rollout():
    # the generator and the engine share one Euler implementation, so a
    # rollout with the stored actions reproduces each trajectory exactly
    for sys_id in ("cancer-chemo-radio", "seir-covid", "lv2"):
        system = builtin_system(sys_id)
        data = generate_dataset(system, GenConfig(n=3, seed=11))
        ev = Evaluator(system.spec, system.schema)
        for tr in data["train"].trajectories:
            redone = ev.rollout(system.true_params, tr.states[0], tr.actions[:-1],
                                system.schema.dt)
            assert np.max(np.abs(redone.states - tr.states)) <= 1e-12
            assert np.max(np.abs(redone.times - tr.times)) == 0.0


def test_generator_matches_one_trajectory_at_a_time_reference():
    # the batched generator must equal a per-trajectory loop that draws from
    # the split's stream as it goes: x0 from rng.uniform, then the public
    # policy's (chemo, radio) draws at every state, terminal state included
    system = builtin_system("cancer-chemo-radio")
    ev = Evaluator(system.spec, system.schema)
    dt = system.schema.dt
    data = generate_dataset(system, GenConfig(n=20, seed=13))
    rng = np.random.default_rng(np.random.SeedSequence(13).spawn(3)[0])
    for tr in data["train"].trajectories:
        x = np.array([rng.uniform(0.0, 1149.0), 0.0])
        for k in range(system.horizon + 1):
            assert (tr.states[k] == x).all()
            u = sample_cancer_actions(float(x[0]), system.policy, rng)
            assert tuple(tr.actions[k]) == u
            x = x + ev.derivative(system.true_params, x, u, k * dt) * dt


def test_split_streams_are_disjoint():
    system = builtin_system("cancer")
    data = generate_dataset(system, GenConfig(n=4, seed=0))
    starts = {split: [tr.states[0, 0] for tr in ds.trajectories] for split, ds in data.items()}
    assert not (set(starts["train"]) & set(starts["val"]))
    assert not (set(starts["train"]) & set(starts["test"]))


def test_generation_deterministic_per_seed(tmp_path):
    system = builtin_system("cancer-chemo")
    a = generate_dataset(system, GenConfig(n=3, seed=5))
    b = generate_dataset(system, GenConfig(n=3, seed=5))
    save_dataset(a["train"], tmp_path / "a", seed=5)
    save_dataset(b["train"], tmp_path / "b", seed=5)
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    c = generate_dataset(system, GenConfig(n=3, seed=6))
    assert c["train"].trajectories[0].states[0, 0] != a["train"].trajectories[0].states[0, 0]


def test_cancer_range_sanity():
    # >= 99% of generated state values land inside the advertised ranges
    # (heavily dosed tumors can shrink below the low end late in a course)
    system = builtin_system("cancer-chemo-radio")
    data = generate_dataset(system, GenConfig(n=50, seed=1))
    lows = np.array([v.low for v in system.schema.states])
    highs = np.array([v.high for v in system.schema.states])
    values = np.vstack([tr.states for tr in data["train"].trajectories])
    inside = (values >= lows) & (values <= highs)
    assert inside.mean() >= 0.99


def test_seir_conservation():
    system = builtin_system("seir-covid")
    data = generate_dataset(system, GenConfig(n=24, seed=3))
    for ds in data.values():
        for tr in ds.trajectories:
            totals = tr.states.sum(axis=1)
            assert np.abs(totals - 1.0).max() <= 1e-9


def test_seir_default_trajectory_count():
    system = builtin_system("seir-covid")
    data = generate_dataset(system, GenConfig(seed=0))
    assert len(data["train"].trajectories) == 24


def test_ood_mode_supports_and_dt():
    # with the literal carrying capacity every tumor shrinks, so the treated
    # variants can shrink test trajectories back into the training range;
    # the untreated system keeps the visited supports disjoint
    system = builtin_system("cancer")
    data = generate_dataset(system, GenConfig(n=20, seed=2, ood=True))
    assert set(data) == {"train", "val", "test", "test_iid"}
    assert data["train"].schema.dt == pytest.approx(1.0 / 24.0)
    train_vols = np.vstack([tr.states for tr in data["train"].trajectories])[:, 0]
    test_vols = np.vstack([tr.states for tr in data["test"].trajectories])[:, 0]
    assert train_vols.max() < test_vols.min()  # visited ranges never overlap
    starts = [tr.states[0, 0] for tr in data["test"].trajectories]
    assert min(starts) >= 804.0 and max(starts) <= 1149.0


def test_intervention_mode_scales_test_split_only():
    system = builtin_system("seir-covid")
    plain = generate_dataset(system, GenConfig(n=4, seed=9))
    hit = generate_dataset(system, GenConfig(n=4, seed=9, intervention=True))
    for split in ("train", "val"):
        for a, b in zip(plain[split].trajectories, hit[split].trajectories):
            assert (a.states == b.states).all()
    for a, b in zip(plain["test"].trajectories, hit["test"].trajectories):
        day = 19
        assert (a.states[: day + 1] == b.states[: day + 1]).all()
        assert not (a.states[day + 1:] == b.states[day + 1:]).all()


def test_gen_config_rejects_a_negative_seed():
    # numpy's own error for it named no option
    with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
        GenConfig(seed=-1)


def test_mode_validation():
    with pytest.raises(ValueError):
        generate_dataset(builtin_system("seir-covid"), GenConfig(ood=True))
    with pytest.raises(ValueError):
        generate_dataset(builtin_system("cancer"), GenConfig(intervention=True))


# ---------------------------------------------------------------------------
# CSV loader


def _write_csv(path, n_rows, shuffle_time=False, step=1.0):
    times = [step * i for i in range(n_rows)]
    if shuffle_time:
        times[3], times[4] = times[4], times[3]
    with open(path, "w") as fh:
        fh.write("t,x_1,x_2\n")
        for i, t in enumerate(times):
            fh.write(f"{float(t)},{float(i)},{float(2 * i)}\n")


LOAD_SCHEMA = SystemSchema(
    states=(VarSpec("hare_population", 0, 200), VarSpec("lynx_population", 0, 100)),
    time_units="years", dt=1.0,
)


def test_load_csv_fraction_rule(tmp_path):
    path = tmp_path / "thirty.csv"
    _write_csv(path, 30)
    parts = load_csv_dataset(path, LOAD_SCHEMA, (0.7, 0.15, 0.15))
    sizes = [len(parts[s].trajectories[0]) for s in ("train", "val", "test")]
    assert sizes == [21, 4, 5]  # val's 4.5 rows floored, test takes the remainder
    # chronological: train covers the earliest block
    assert parts["train"].trajectories[0].times[0] == 0.0
    assert parts["test"].trajectories[0].times[-1] == 29.0


def test_load_csv_absolute_counts_drop_trailing(tmp_path):
    path = tmp_path / "plankton-like.csv"
    _write_csv(path, 102)
    parts = load_csv_dataset(path, LOAD_SCHEMA, (70, 15, 15))
    sizes = [len(parts[s].trajectories[0]) for s in ("train", "val", "test")]
    assert sizes == [70, 15, 15]
    assert parts["test"].trajectories[0].times[-1] == 99.0  # rows 100, 101 dropped


def test_load_csv_hare_lynx_defaults(tmp_path):
    path = tmp_path / "hare.csv"
    _write_csv(path, 92)
    parts = load_csv_dataset(path, LOAD_SCHEMA, (63, 14, 14))
    assert [len(parts[s].trajectories[0]) for s in ("train", "val", "test")] == [63, 14, 14]


@pytest.mark.parametrize("splits, message", [
    ((14, -2, 3), "must not be negative"),  # val would be empty and rows 12-13 in test too
    ((0.7, -0.1, 0.4), "must not be negative"),
    ((0.7, float("nan"), 0.15), "must not be negative"),
    ((0.7, 0.5, 0.15), "must each be at most 1"),  # test would be empty
    ((14, 0.2, 3), "must each be at most 1"),  # counts with a fraction among them
    ((0.7, 0.15, 1.5), "must each be at most 1"),
    # each leaves a split without a transition
    ((0.5, 0.5, 0.0), "test of .* has 0 of the 20 rows"),
    ((0.95, 0.05, 0.0), "val of .* has 1 of the 20 rows"),
    ((18, 1, 1), "val of .* has 1 of the 20 rows"),
])
def test_load_csv_rejects_splits_that_are_no_partition(tmp_path, splits, message):
    path = tmp_path / "twenty.csv"
    _write_csv(path, 20)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: split .*{message}"):
        load_csv_dataset(path, LOAD_SCHEMA, splits)


def test_load_csv_rejects_non_monotone_time(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, 10, shuffle_time=True)
    with pytest.raises(ValueError, match="strictly increasing"):
        load_csv_dataset(path, LOAD_SCHEMA)


def test_load_csv_refuses_a_step_that_is_not_the_schema_dt(tmp_path):
    # a 20-row file stepping 2.0 split silently into 14, 3 and 3 rows at dt 1.0
    path = tmp_path / "coarse.csv"
    _write_csv(path, 20, step=2.0)
    with pytest.raises(ValueError) as err:
        load_csv_dataset(path, LOAD_SCHEMA)
    assert str(err.value) == f"{path}: time step 2.0 is not the schema's dt 1.0"
    # within Trajectory's spacing tolerance, a step is the schema's dt
    _write_csv(path, 20, step=1.0 + 1e-10)
    assert len(load_csv_dataset(path, LOAD_SCHEMA)["train"].trajectories[0]) == 14


def test_load_csv_names_the_file_when_a_time_is_not_finite(tmp_path):
    path = tmp_path / "nan.csv"
    _write_csv(path, 10)
    lines = path.read_text().splitlines()
    lines[5] = "nan" + lines[5][lines[5].index(","):]  # every comparison with nan is false
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"nan\.csv: times must be finite$"):
        load_csv_dataset(path, LOAD_SCHEMA)


def test_load_csv_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad2.csv"
    with open(path, "w") as fh:
        fh.write("t,x_1,x_2\n0.0,1.0,2.0\n1.0,oops,2.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv_dataset(path, LOAD_SCHEMA)
    with open(path, "w") as fh:
        fh.write("t,x_1,x_2\n0.0,1.0\n")
    with pytest.raises(ValueError, match="fields"):
        load_csv_dataset(path, LOAD_SCHEMA)


def test_csv_reader_line_ends_quoting_and_errors(tmp_path):
    path = tmp_path / "lines.csv"
    rows = ["t,x_1,x_2", "0.0,1.0,2.0", "1.0,3.0,4.5", "2.0,-0.0,1e-320",
            "3.0,5e-324,-7.25", "4.0,1e300,0.1", "5.0,-2.5,3.0"]
    want = np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 4.5], [2.0, -0.0, 1e-320],
                     [3.0, 5e-324, -7.25], [4.0, 1e300, 0.1], [5.0, -2.5, 3.0]])
    # LF, CRLF, no final newline, a quoted header
    texts = ("\n".join(rows) + "\n", "\r\n".join(rows) + "\r\n", "\n".join(rows),
             '"t",x_1,"x_2"\n' + "\n".join(rows[1:]) + "\n")
    for text in texts:
        path.write_bytes(text.encode())
        header, data = read_csv_rows(path, 3)
        assert header == ["t", "x_1", "x_2"]
        assert data.tobytes() == want.tobytes()
        parts = load_csv_dataset(path, LOAD_SCHEMA, (2, 2, 2))
        got = np.vstack([parts[s].trajectories[0].states for s in ("train", "val", "test")])
        assert got.tobytes() == want[:, 1:].tobytes()
    path.write_text("t,x_1,x_2\n0.0,1.0,2.0\n\n2.0,1.0,2.0\n")
    with pytest.raises(ValueError) as err:
        read_csv_rows(path, 3)
    assert str(err.value) == f"{path}: row 3 has 0 fields, expected 3"
    path.write_text("t,x_1,x_2\n0.0,1.0,2.0\n1.0,oops,2.0\n")
    for load in (lambda: read_csv_rows(path, 3), lambda: load_csv_dataset(path, LOAD_SCHEMA)):
        with pytest.raises(ValueError) as err:
            load()
        assert str(err.value) == f"{path}: row 3: could not convert string to float: 'oops'"


def test_load_csv_feeds_the_fit_pipeline(tmp_path):
    # the documented real-data workflow: a single 92-row series, split
    # chronologically 63/14/14, fitted through the ordinary optimizer
    from hdtwin.baselines import builtin_baseline_spec
    from hdtwin.engine import init_params
    from hdtwin.optim import OptimConfig, fit

    system = builtin_system("lv2")
    tr = Evaluator(system.spec, system.schema).rollout(system.true_params, [2.0, 1.0],
                                                       np.zeros((91, 0)), system.schema.dt)
    path = tmp_path / "pelts.csv"
    with open(path, "w") as fh:
        fh.write("t,x_1,x_2\n")
        for k in range(len(tr)):
            fh.write(",".join(repr(float(v)) for v in
                              (tr.times[k], tr.states[k, 0], tr.states[k, 1])) + "\n")
    parts = load_csv_dataset(path, system.schema, (63, 14, 14))
    assert [len(parts[s].trajectories[0]) for s in ("train", "val", "test")] == [63, 14, 14]
    # validation and test blocks start mid-series, not at time zero
    assert parts["val"].trajectories[0].times[0] == pytest.approx(63 * 0.05)
    spec = builtin_baseline_spec("lv2")
    result = fit(spec, init_params(spec), parts["train"], parts["val"],
                 OptimConfig(batch_size=62, max_epochs=2000, patience=50, seed=0))
    assert not result.faulted
    assert result.val_loss < 1e-4  # the true structure fits an exact series well


# ---------------------------------------------------------------------------
# description text


def test_system_description_mentions_ranges_and_counts():
    system = builtin_system("cancer-chemo-radio")
    text = system_description(system)
    assert "tumor_volume: [0.01433, 1170.861]" in text
    assert "chemotherapy_dosage" in text
    assert "1000 patients" in text
    assert "60 days" in text
    seir = system_description(builtin_system("seir-covid"))
    assert "24 countries" in seir
