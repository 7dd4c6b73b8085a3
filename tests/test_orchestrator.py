from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import replay_fixtures
from conftest import UNUSABLE_FITS, unusable_fit
from hdtwin import orchestrator
from hdtwin.agents import (
    POPULATION_CAPACITY,
    DecodingConfig,
    ReplayExhausted,
    ScriptedClient,
    make_reply,
)
from hdtwin.dsl import canonicalize
from hdtwin.engine import Evaluator, init_params, one_step_mse, per_component_mse, rollout_mse
from hdtwin.optim import BETA1, BETA2, EPS, OptimConfig, fit
from hdtwin.orchestrator import (
    EvolveConfig,
    _mix_seed,
    RunFailure,
    confidence_interval,
    evaluate_test_metrics,
    evolve,
    make_modeling_context,
    run_experiment,
    t_quantile_975,
    write_run_archive,
)
from hdtwin.systems import GenConfig, builtin_system, generate_dataset

FAST_OPTIM = OptimConfig(batch_size=200, max_epochs=25, patience=8, seed=0)
FAST_DECODING = DecodingConfig(retries=2, retry_wait=0.0)


def small_cfg(generations=6):
    return EvolveConfig(generations=generations, optim=FAST_OPTIM,
                        decoding=FAST_DECODING, seed=0)


def ablation(method: str, cfg: EvolveConfig) -> EvolveConfig:
    """The config run_experiment runs an ablation's evolve with: one
    generation, and no fitting epoch for zero-shot (checked against
    run_experiment in test_run_experiment_ablations_prompt_and_record_one_generation)."""
    cfg = dataclasses.replace(cfg, generations=1)
    if method == "zero-shot":
        cfg = dataclasses.replace(cfg, optim=dataclasses.replace(cfg.optim, max_epochs=0))
    return cfg


@pytest.fixture(scope="module")
def cancer_datasets():
    system = builtin_system("cancer-chemo-radio")
    return system, generate_dataset(system, GenConfig(n=6, seed=3))


def run_fixture_evolution(system, datasets, generations=6):
    ctx = make_modeling_context(system, generations, n_trajectories=6)
    client = ScriptedClient(replay_fixtures.evolution_replies())
    return evolve(ctx, system, datasets, small_cfg(generations), client)


# ---------------------------------------------------------------------------
# evolve


def test_evolve_replay_progression(cancer_datasets):
    system, datasets = cancer_datasets
    result = run_fixture_evolution(system, datasets)
    assert len(result.best_curve) == 6
    curve = np.array(result.best_curve)
    assert (np.diff(curve) <= 1e-15).all(), "best-by-validation curve must be non-increasing"
    assert result.best.upsilon == min(result.best_curve)
    assert np.isfinite(result.test.upsilon)
    assert len(result.population) >= 1
    # every request/reply pair of the run is in the transcript
    assert len(result.transcript) == 11  # 6 proposals + 5 critiques


def test_evolve_best_metrics_rederivable(cancer_datasets):
    system, datasets = cancer_datasets
    result = run_fixture_evolution(system, datasets)
    ev = Evaluator(result.best.spec, system.schema)
    delta, ups = per_component_mse(ev, result.best.params, datasets["val"])
    assert ups == pytest.approx(result.best.upsilon, abs=1e-12)
    assert np.allclose(delta, result.best.delta, atol=1e-12)
    assert result.test.upsilon == pytest.approx(
        per_component_mse(ev, result.best.params, datasets["test"])[1], abs=1e-12)


def test_test_metrics_compile_once_and_match_the_separate_scores(cancer_datasets, monkeypatch):
    system, datasets = cancer_datasets
    test = datasets["test"]
    params = system.true_params.copy()
    for name in params.scalars:
        params.scalars[name] *= 1.2
    ev = Evaluator(system.spec, test.schema)
    delta, ups = per_component_mse(ev, params, test)
    separate = (ups, delta.tobytes(), one_step_mse(system.spec, params, test),
                rollout_mse(ev, params, test))
    builds = []
    init = Evaluator.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(Evaluator, "__init__", counted)
    m = evaluate_test_metrics(system.spec, params, test)
    assert len(builds) == 1
    assert (m.upsilon, m.delta.tobytes(), m.sum_mse, m.rollout) == separate


def test_evolve_failed_proposals_consume_generations(cancer_datasets):
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 3, n_trajectories=6)
    good = replay_fixtures.evolution_replies()[0]
    # generation 1 exhausts its proposal retries on junk, generations 2-3 work
    replies = ["junk"] * (FAST_DECODING.retries + 1) + [good, "feedback", good]
    result = evolve(ctx, system, datasets, small_cfg(3), ScriptedClient(replies))
    assert [r.status for r in result.records] == ["proposal-failed", "inserted", "duplicate"]
    assert len(result.population) == 1


def test_evolve_reflection_history_has_one_line_per_generation_with_a_best(cancer_datasets):
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 4, n_trajectories=6)
    good = replay_fixtures.evolution_replies()[0]
    replies = ["junk"] * (FAST_DECODING.retries + 1) + [good, "fb", good, "fb", good]
    result = evolve(ctx, system, datasets, small_cfg(4), ScriptedClient(replies))
    assert [r.status for r in result.records] == [
        "proposal-failed", "inserted", "duplicate", "duplicate"]
    reflections = [pair["request"][-1]["content"] for pair in result.transcript
                   if pair["request"][-1]["content"].startswith("You generated")]
    best = result.best
    two, three = (f"Iteration {g}. Best Val Loss: {best.upsilon!r}."
                  f" Model description: {best.description}" for g in (2, 3))
    # the failed generation 1 had no best, so it has no line
    assert [text.split("```")[1] for text in reflections] == [
        f"\n{two}\n", f"\n{two}\n{three}\n"]


def test_evolve_fit_fault_consumes_generation(cancer_datasets):
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 2, n_trajectories=6)
    exploding = make_reply(
        "param p = 5.0\n"
        "d(tumor_volume)/dt = exp(exp(p * tumor_volume))\n"
        "d(chemotherapy_drug_concentration)/dt = 0.0\n",
        "explodes",
    )
    good = replay_fixtures.evolution_replies()[0]
    result = evolve(ctx, system, datasets, small_cfg(2), ScriptedClient([exploding, good]))
    assert [r.status for r in result.records] == ["fit-faulted", "inserted"]


def test_an_entry_cut_at_capacity_is_reported_as_cut(cancer_datasets):
    """A 17th entry worse than a full population is not in it, so its row
    says cut, not inserted."""
    system, datasets = cancer_datasets
    generations = POPULATION_CAPACITY + 1
    # each generation's constant tumor growth is further from the data than the last's
    specs = [make_reply(f"d(tumor_volume)/dt = {100 * g}.0\n"
                        "d(chemotherapy_drug_concentration)/dt = -chemotherapy_drug_concentration",
                        f"constant growth {g}") for g in range(1, generations + 1)]
    replies = [reply for spec in specs for reply in (spec, "feedback")][:-1]
    ctx = make_modeling_context(system, generations, n_trajectories=6)
    cfg = dataclasses.replace(small_cfg(generations), optim=OptimConfig(max_epochs=0))
    result = evolve(ctx, system, datasets, cfg, ScriptedClient(replies))
    assert [r.status for r in result.records] == ["inserted"] * POPULATION_CAPACITY + ["cut"]
    assert [e.generation for e in result.population] == list(range(1, generations))
    assert result.records[-1].upsilon > result.population[-1].upsilon


@pytest.mark.parametrize("kind", UNUSABLE_FITS)
def test_evolve_and_baselines_refuse_an_unusable_fit(cancer_datasets, monkeypatch, kind):
    fits = []

    def first_fit_unusable(*args):
        fits.append(args)
        return (unusable_fit(kind) if len(fits) == 1 else fit)(*args)

    monkeypatch.setattr(orchestrator, "fit", first_fit_unusable)
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 2, n_trajectories=6)
    good = replay_fixtures.evolution_replies()[0]
    result = evolve(ctx, system, datasets, small_cfg(2), ScriptedClient([good, good]))
    assert [r.status for r in result.records] == ["fit-faulted", "inserted"]
    monkeypatch.setattr(orchestrator, "fit", unusable_fit(kind))
    report = run_experiment("lv2", "baseline:lv2", [0], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(1))
    (outcome,) = report.outcomes
    assert (outcome.error, outcome.metric) == ("baseline fit faulted", None)


def test_evolve_all_failures_is_run_failure(cancer_datasets):
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 2, n_trajectories=6)
    with pytest.raises(RunFailure) as err:
        evolve(ctx, system, datasets, small_cfg(2), ScriptedClient(["junk"] * 8))
    assert len(err.value.transcript) == 2 * (FAST_DECODING.retries + 1)


def test_evolve_deterministic_archives(cancer_datasets, tmp_path):
    system, datasets = cancer_datasets
    for name in ("a", "b"):
        result = run_fixture_evolution(system, datasets, generations=4)
        write_run_archive(tmp_path / name, result, "cancer-chemo-radio", "evolve", 0,
                          small_cfg(4))
    a, b = tmp_path / "a", tmp_path / "b"
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and len(files_a) > 4
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_archive_transcript_replays_to_identical_run(cancer_datasets, tmp_path):
    system, datasets = cancer_datasets
    result = run_fixture_evolution(system, datasets, generations=3)
    write_run_archive(tmp_path, result, "cancer-chemo-radio", "evolve", 0, small_cfg(3))
    client = ScriptedClient.from_file(tmp_path / "transcript" / "transcript.json")
    ctx = make_modeling_context(system, 3, n_trajectories=6)
    again = evolve(ctx, system, datasets, small_cfg(3), client)
    assert again.best_curve == result.best_curve
    assert again.best.fingerprint == result.best.fingerprint
    assert again.best.params.scalars == result.best.params.scalars


def test_evolve_g1_equals_zero_optim(cancer_datasets):
    system, datasets = cancer_datasets
    reply = replay_fixtures.evolution_replies()[0]
    ctx = make_modeling_context(system, 1, n_trajectories=6)
    via_evolve = evolve(ctx, system, datasets, small_cfg(1), ScriptedClient([reply]))
    via_ablation = evolve(ctx, system, datasets, ablation("zero-optim", small_cfg()),
                          ScriptedClient([reply]))
    assert via_evolve.best.upsilon == via_ablation.best.upsilon
    assert via_evolve.best.params.scalars == via_ablation.best.params.scalars
    assert via_evolve.test.upsilon == via_ablation.test.upsilon


# ---------------------------------------------------------------------------
# ablations


def test_zero_shot_true_structure_true_values(cancer_datasets):
    system, datasets = cancer_datasets
    reply = make_reply(canonicalize(system.spec).text, "the true structure")
    ctx = make_modeling_context(system, 1, n_trajectories=6)
    result = evolve(ctx, system, datasets, ablation("zero-shot", small_cfg()),
                    ScriptedClient([reply]))
    assert result.test.upsilon <= 1e-12
    assert result.test.rollout <= 1e-12


@pytest.mark.parametrize("method", ["zero-shot", "zero-optim"], ids=["zero_shot", "zero_optim"])
def test_ablation_failure_reads_like_evolve(cancer_datasets, method):
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 1, n_trajectories=6)
    with pytest.raises(RunFailure, match="^no generation produced a usable candidate$") as err:
        evolve(ctx, system, datasets, ablation(method, small_cfg(3)),
               ScriptedClient(["junk"] * 8))
    assert len(err.value.transcript) == FAST_DECODING.retries + 1  # one generation only


def test_zero_shot_whose_initial_parameters_fault(cancer_datasets, tmp_path):
    system, datasets = cancer_datasets
    reply = make_reply("param p = 1000.0\nd(tumor_volume)/dt = exp(p * tumor_volume)\n"
                       "d(chemotherapy_drug_concentration)/dt = -chemotherapy_drug_concentration",
                       "explosive growth")
    ctx = make_modeling_context(system, 1, n_trajectories=6)
    with pytest.raises(RunFailure, match="^no generation produced a usable candidate$") as err:
        evolve(ctx, system, datasets, ablation("zero-shot", small_cfg()),
               ScriptedClient([reply]))
    assert len(err.value.transcript) == 1
    report = run_experiment("cancer-chemo-radio", "zero-shot", [0], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(1),
                            client_factory=lambda seed: ScriptedClient([reply]),
                            out_dir=tmp_path)
    (outcome,) = report.outcomes
    assert outcome.error == "no generation produced a usable candidate"
    assert outcome.metric is None and not outcome.transport_failure


def test_zero_shot_is_a_zero_epoch_evolve(cancer_datasets):
    system, datasets = cancer_datasets
    reply = replay_fixtures.evolution_replies()[0]
    ctx = make_modeling_context(system, 1, n_trajectories=6)
    cfg = small_cfg(3)
    shot = evolve(ctx, system, datasets, ablation("zero-shot", cfg), ScriptedClient([reply]))
    zero_epochs = dataclasses.replace(cfg, generations=1,
                                      optim=dataclasses.replace(cfg.optim, max_epochs=0))
    explicit = evolve(ctx, system, datasets, zero_epochs, ScriptedClient([reply]))
    fields = ("generation", "status", "upsilon", "best_upsilon", "fingerprint", "description",
              "error")  # the report.csv columns; a record's best entry holds arrays
    assert ([[getattr(r, f) for f in fields] for r in shot.records]
            == [[getattr(r, f) for f in fields] for r in explicit.records])
    assert shot.transcript == explicit.transcript
    assert np.float64(shot.best.upsilon).tobytes() == np.float64(explicit.best.upsilon).tobytes()
    # the one fit ran no epoch: the entry holds the suggested inits and their score
    assert shot.fit_results[1].epochs_run == 0
    spec = shot.best.spec
    inits = init_params(spec, seed=_mix_seed(cfg.seed, 1))
    assert shot.best.params.values.tobytes() == inits.values.tobytes()
    val = datasets["val"]
    assert shot.best.upsilon == per_component_mse(Evaluator(spec, val.schema), inits, val)[1]


def test_zero_optim_no_worse_than_zero_shot(cancer_datasets):
    system, datasets = cancer_datasets
    reply = replay_fixtures.evolution_replies()[0]
    ctx = make_modeling_context(system, 1, n_trajectories=6)
    shot = evolve(ctx, system, datasets, ablation("zero-shot", small_cfg()),
                  ScriptedClient([reply]))
    optim = evolve(ctx, system, datasets, ablation("zero-optim", small_cfg()),
                   ScriptedClient([reply]))
    assert optim.best.upsilon <= shot.best.upsilon
    assert np.isfinite(shot.best.upsilon)


# ---------------------------------------------------------------------------
# run_experiment and aggregation


def test_confidence_interval_t_oracle():
    mean, half = confidence_interval([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert half == pytest.approx(4.302652729911275 / np.sqrt(3), abs=1e-9)
    assert half == pytest.approx(2.484, abs=1e-3)


# scipy 1.17.1's stats.t.ppf(0.975, df) at degrees of freedom past the table
T_975_SCIPY = {31: 2.039513446396408, 50: 2.008559112100761, 100: 1.9839715185235518,
               1000: 1.9623390808264083}


def test_t_quantile_table_and_expansion():
    assert repr(t_quantile_975(1)) == "12.706204736174694"  # scipy's bits, as recorded
    assert repr(t_quantile_975(2)) == "4.302652729749462"
    for df, want in T_975_SCIPY.items():
        assert abs(t_quantile_975(df) - want) <= 2e-8 * want, df
    # it decreases with df, across the table's df 30 / expansion's df 31 edge too
    quantiles = [t_quantile_975(df) for df in range(1, 200)]
    assert all(a > b for a, b in zip(quantiles, quantiles[1:]))
    assert t_quantile_975(30) > t_quantile_975(31)


def test_confidence_interval_edge_cases():
    mean, half = confidence_interval([5.0])
    assert mean == 5.0 and half is None
    mean, half = confidence_interval([2.0] * 10)
    assert mean == 2.0 and half == 0.0


def test_run_experiment_sindy_over_seeds(tmp_path):
    report = run_experiment("lv2", "sindy", [0, 1], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(1), out_dir=tmp_path)
    assert report.mean is not None
    assert all(o.error is None for o in report.outcomes)
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "seed-0000" / "result.json").exists()


def test_run_experiment_records_per_seed_failures(monkeypatch):
    monkeypatch.setattr(orchestrator, "fit", unusable_fit(UNUSABLE_FITS[0]))
    report = run_experiment("lv2", "baseline:lv2", [0, 1],
                            gen_cfg=GenConfig(n=2), evolve_cfg=small_cfg(1))
    assert [o.error for o in report.outcomes] == ["baseline fit faulted"] * 2
    assert report.mean is None


@pytest.mark.parametrize("system_id, method, message", [
    ("lv2", "baseline:not-real", "unknown baseline 'not-real'; available: "),
    ("cancer", "baseline:lv2", "baseline:lv2 is not valid for system 'cancer': "
                               "[component-count] spec defines 2 derivative component(s)"),
    ("lorenz", "sindy", "unknown system 'lorenz'; available: "),
], ids=["unknown-baseline", "another-systems-baseline", "unknown-system"])
def test_run_experiment_refuses_a_method_that_cannot_run_before_any_seed_runs(
        monkeypatch, tmp_path, system_id, method, message):
    generated = []
    monkeypatch.setattr(orchestrator, "generate_dataset", lambda *a: generated.append(a))
    with pytest.raises(ValueError) as err:
        run_experiment(system_id, method, [0, 1], out_dir=tmp_path / "run")
    assert str(err.value).startswith(message)
    assert generated == [] and not (tmp_path / "run").exists()


def test_run_experiment_refuses_bad_seeds_before_any_seed_runs(monkeypatch, tmp_path):
    generated = []
    monkeypatch.setattr(orchestrator, "generate_dataset", lambda *a: generated.append(a))
    for seeds in ([0, -1], [-1], [], (0, 1), 0, [0, 1.0], [0, True], [0, "1"]):
        with pytest.raises(ValueError, match=r"^seeds must be a non-empty list of"
                                             r" non-negative integers \(got "):
            run_experiment("lv2", "sindy", seeds, out_dir=tmp_path / "run")
    assert generated == [] and not (tmp_path / "run").exists()


def test_run_experiment_records_a_seed_whose_replies_nest_too_deeply_and_keeps_the_others():
    deep = make_reply("d(tumor_volume)/dt = " + "(" * 200 + "tumor_volume" + ")" * 200
                      + "\nd(chemotherapy_drug_concentration)/dt = 0.0", "deep")
    replies = {0: replay_fixtures.evolution_replies()[:1],
               1: [deep] * (FAST_DECODING.retries + 1)}
    report = run_experiment("cancer-chemo-radio", "zero-optim", [0, 1], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(1),
                            client_factory=lambda seed: ScriptedClient(replies[seed]))
    first, second = report.outcomes
    assert first.error is None and np.isfinite(first.metric)
    assert (second.error, second.metric) == ("no generation produced a usable candidate", None)
    assert report.mean == first.metric


def test_run_experiment_keeps_seeds_before_a_transport_failure(tmp_path):
    # one shared client with a single reply: seed 0 uses it, seed 1 finds
    # the replay exhausted; seed 0's outcome and the summary must survive
    system = builtin_system("lv2")
    client = ScriptedClient([make_reply(canonicalize(system.spec).text, "predator-prey")])
    report = run_experiment("lv2", "zero-shot", [0, 1], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(1), client_factory=lambda seed: client,
                            out_dir=tmp_path)
    first, second = report.outcomes
    assert first.error is None and first.metric is not None
    assert not first.transport_failure
    assert second.transport_failure and "replay exhausted" in second.error
    assert report.mean == first.metric
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("0,") and rows[2].startswith("1,,transport failure")


def test_run_experiment_archives_a_seed_whose_test_pass_faults(tmp_path):
    # finite on validation, but the derivative overflows on the larger
    # test-split volumes: the seed is archived with metric inf, not lost
    reply = make_reply("param p = 0.0008\nd(tumor_volume)/dt = exp(p * tumor_volume ^ 2.0)",
                       "super-exponential growth")
    report = run_experiment("cancer", "zero-shot", [0], gen_cfg=GenConfig(n=4, ood=True),
                            client_factory=lambda seed: ScriptedClient([reply]),
                            out_dir=tmp_path)
    (outcome,) = report.outcomes
    assert outcome.error is None and outcome.metric == float("inf")
    result = json.loads((tmp_path / "seed-0000" / "result.json").read_text())
    assert np.isfinite(result["best_upsilon"])
    assert result["test_upsilon"] == result["test_sum_mse"] == float("inf")
    assert result["test_delta"] == [float("inf")]


@pytest.mark.parametrize("method", ["zero-shot", "zero-optim"])
def test_run_experiment_ablations_prompt_and_record_one_generation(method, tmp_path,
                                                                   monkeypatch):
    # EvolveConfig's default is 20 generations; each ablation makes one proposal
    clients, configs = [], []

    def factory(seed):
        clients.append(ScriptedClient(replay_fixtures.evolution_replies()[:1]))
        return clients[-1]

    def spy(ctx, system, datasets, cfg, client):
        configs.append(cfg)
        return evolve(ctx, system, datasets, cfg, client)

    monkeypatch.setattr(orchestrator, "evolve", spy)
    report = run_experiment("cancer-chemo-radio", method, [0], gen_cfg=GenConfig(n=4),
                            evolve_cfg=EvolveConfig(), client_factory=factory,
                            out_dir=tmp_path)
    assert report.outcomes[0].error is None
    assert configs == [ablation(method, EvolveConfig())]  # seed 0 is the default seed
    request = json.dumps(clients[0].transcript[0]["request"])
    assert "called 1 times" in request and "called 20 times" not in request
    manifest = json.loads((tmp_path / "seed-0000" / "run.manifest").read_text())
    assert manifest["generations"] == 1
    # the manifest records the configured optim section, zero-shot's included,
    # and the fixed Adam constants and capacity under their former setting keys
    assert manifest["optim"] == {**dataclasses.asdict(OptimConfig()),
                                 "beta1": BETA1, "beta2": BETA2, "eps": EPS}
    assert manifest["capacity"] == POPULATION_CAPACITY


def test_run_experiment_validates_method():
    with pytest.raises(ValueError, match="unknown method"):
        run_experiment("lv2", "transformer", [0])
    with pytest.raises(ValueError, match="client"):
        run_experiment("lv2", "evolve", [0])


def test_run_experiment_baseline_fit(tmp_path):
    report = run_experiment("lv2", "baseline:lv2", [0], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(1), out_dir=tmp_path)
    (outcome,) = report.outcomes
    assert outcome.error is None
    assert outcome.metric is not None and np.isfinite(outcome.metric)


def test_evolve_keeps_finished_generations_on_transport_failure(cancer_datasets, tmp_path):
    # replies for two generations and one critique: generation 3's proposal
    # finds the replay exhausted
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 6, n_trajectories=6)
    client = ScriptedClient(replay_fixtures.evolution_replies()[:3])
    result = evolve(ctx, system, datasets, small_cfg(6), client)
    assert [r.status for r in result.records] == ["inserted", "inserted", "transport-failed"]
    assert "replay exhausted" in result.records[-1].error
    assert result.transport_error.startswith("generation 3: replay exhausted")
    assert len(result.best_curve) == 2 and result.best.generation in (1, 2)
    write_run_archive(tmp_path, result, "cancer-chemo-radio", "evolve", 0, small_cfg(6))
    assert sorted(p.name for p in (tmp_path / "population").iterdir()) == ["gen-001", "gen-002"]
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[3].startswith("3,transport-failed,") and "replay exhausted" in rows[3]
    assert "generation 3" in json.loads((tmp_path / "result.json").read_text())["transport_error"]


def test_evolve_transport_failure_before_any_generation_raises(cancer_datasets):
    system, datasets = cancer_datasets
    ctx = make_modeling_context(system, 2, n_trajectories=6)
    with pytest.raises(ReplayExhausted):
        evolve(ctx, system, datasets, small_cfg(2), ScriptedClient([]))


def test_run_experiment_archives_a_run_cut_short(tmp_path):
    replies = replay_fixtures.evolution_replies()[:3]
    report = run_experiment("cancer-chemo-radio", "evolve", [0], gen_cfg=GenConfig(n=4),
                            evolve_cfg=small_cfg(4),
                            client_factory=lambda seed: ScriptedClient(replies),
                            out_dir=tmp_path)
    (outcome,) = report.outcomes
    assert outcome.transport_failure and outcome.metric is None
    assert outcome.error.startswith("transport failure at generation 3")
    assert outcome.archive == str(tmp_path / "seed-0000")
    assert (tmp_path / "seed-0000" / "population" / "gen-002" / "params.json").exists()
    assert report.mean is None
