from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import replay_fixtures
from conftest import UNUSABLE_FITS, unusable_fit
from hdtwin import cli, engine, orchestrator
from hdtwin.agents import DecodingConfig
from hdtwin.baselines import BASELINE_IDS, SindyConfig
from hdtwin.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN, EXIT_TRANSPORT, build_parser, dispatch
from hdtwin.dsl import canonicalize, parse_model_spec
from hdtwin.engine import (
    Evaluator,
    init_params,
    load_params,
    load_saved_dataset,
    one_step_mse,
    per_component_mse,
    save_params,
    write_json,
)
from hdtwin.optim import OptimConfig
from hdtwin.orchestrator import EvolveConfig
from hdtwin.systems import BUILTIN_IDS, GenConfig, builtin_system


def last_metrics(capsys) -> dict:
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("METRICS ")]
    assert lines, "no METRICS line printed"
    return json.loads(lines[-1][len("METRICS "):])


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "cancer"
    code = dispatch(["gen-data", "--system", "cancer-chemo-radio", "--seed", "3",
                     "--n", "5", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_gen_data_layout(small_data, capsys):
    for split in ("train", "val", "test"):
        d = small_data / split
        assert (d / "manifest.json").exists()
        assert len(list(d.glob("traj-*.csv"))) == 5
    ds = load_saved_dataset(small_data / "train")
    assert len(ds.trajectories[0]) == 61


def test_gen_data_exposes_every_generation_flag(capsys, tmp_path):
    code = dispatch(["gen-data", "--system", "seir-covid", "--seed", "1", "--n", "2",
                     "--intervention", "--out", str(tmp_path / "x")])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["splits"] == ["test", "train", "val"]
    assert doc["generate_s"] >= 0 and doc["save_s"] >= 0


def test_fit_and_eval_round_trip(small_data, tmp_path, capsys):
    system = builtin_system("cancer-chemo-radio")
    spec_path = tmp_path / "true.hdt"
    spec_path.write_text(canonicalize(system.spec).text)
    out = tmp_path / "fitrun"
    code = dispatch(["fit", "--spec", str(spec_path), "--data", str(small_data),
                     "--out", str(out), "--max-epochs", "5", "--patience", "5",
                     "--batch-size", "200"])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["val_upsilon"] <= 1e-12  # true structure with true inits
    assert (out / "best-model.hdt").exists()
    assert (out / "best-params.json").exists()

    code = dispatch(["eval", "--spec", str(out / "best-model.hdt"),
                     "--params", str(out / "best-params.json"),
                     "--data", str(small_data / "test")])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    # the printed numbers match a direct library evaluation exactly
    spec = system.spec
    params = load_params(out / "best-params.json")
    test = load_saved_dataset(small_data / "test")
    delta, ups = per_component_mse(Evaluator(spec, test.schema), params, test)
    assert doc["command"] == "eval"
    assert (doc["headline_metric"], doc["headline_value"]) == ("one-step", doc["test_upsilon"])
    assert doc["test_upsilon"] == pytest.approx(ups, abs=1e-12)
    assert doc["test_delta"] == pytest.approx(list(delta), abs=1e-12)
    assert doc["test_sum_mse"] == pytest.approx(
        one_step_mse(spec, params, load_saved_dataset(small_data / "test")), abs=1e-12)
    assert np.isfinite(doc["test_rollout_mse"])


@pytest.mark.parametrize("kind", UNUSABLE_FITS)
def test_fit_refuses_an_unusable_fit(small_data, tmp_path, capsys, monkeypatch, kind):
    monkeypatch.setattr(cli, "fit", unusable_fit(kind))
    spec_path = tmp_path / "true.hdt"
    spec_path.write_text(canonicalize(builtin_system("cancer-chemo-radio").spec).text)
    code = dispatch(["fit", "--spec", str(spec_path), "--data", str(small_data),
                     "--out", str(tmp_path / "fitrun")])
    assert code == EXIT_RUN
    assert capsys.readouterr().err == (
        "run failed: fit faulted or its validation loss is not finite\n")
    assert not (tmp_path / "fitrun").exists()


def test_fit_rejects_a_negative_seed_before_loading_data(tmp_path, capsys):
    spec_path = tmp_path / "scalar.hdt"
    spec_path.write_text("param a = 0.5\nd(tumor_volume)/dt = a * tumor_volume\n")
    code = dispatch(["fit", "--spec", str(spec_path), "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "fitrun"), "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seed must be >= 0 (got -1)\n"
    assert not (tmp_path / "fitrun").exists()


def test_fit_refuses_an_over_cap_spec_before_drawing_a_weight(small_data, tmp_path, capsys,
                                                              monkeypatch):
    drawn = []
    real_mlp_init = engine.mlp_init
    monkeypatch.setattr(engine, "mlp_init",
                        lambda decl, seed: drawn.append(decl.name) or real_mlp_init(decl, seed))
    spec_path = tmp_path / "over-cap.hdt"
    # one network of 101,438 weights: just over the cap
    spec_path.write_text("mlp net(tumor_volume) hidden [316, 316] act tanh outputs 2\n"
                         "d(tumor_volume)/dt = net[0]\n"
                         "d(chemotherapy_drug_concentration)/dt = net[1]\n")
    code = dispatch(["fit", "--spec", str(spec_path), "--data", str(small_data),
                     "--out", str(tmp_path / "fitrun")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: spec is not valid for this schema: [param-cap] the specification has 101438"
        " optimizable parameters, more than the allowed 100000; use smaller networks\n")
    assert drawn == []
    assert not (tmp_path / "fitrun").exists()
    engine.init_params(parse_model_spec(spec_path.read_text()))
    assert drawn == ["net"]  # the spy sees the draws that init_params makes


def test_fit_refuses_a_too_deeply_nested_spec(small_data, tmp_path, capsys):
    spec_path = tmp_path / "deep.hdt"
    spec_path.write_text("d(tumor_volume)/dt = " + "(" * 200 + "tumor_volume" + ")" * 200
                         + "\nd(chemotherapy_drug_concentration)/dt = 0.0\n")
    code = dispatch(["fit", "--spec", str(spec_path), "--data", str(small_data),
                     "--out", str(tmp_path / "fitrun")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: line 1, col 122: expression nests deeper than the allowed 100 levels\n")
    assert not (tmp_path / "fitrun").exists()


def test_fit_zero_epochs_writes_the_initial_parameters(small_data, tmp_path, capsys):
    spec_path = tmp_path / "true.hdt"
    spec_path.write_text(canonicalize(builtin_system("cancer-chemo-radio").spec).text)
    spec = parse_model_spec(spec_path.read_text())
    out = tmp_path / "fitrun"
    code = dispatch(["fit", "--spec", str(spec_path), "--data", str(small_data),
                     "--out", str(out), "--max-epochs", "0"])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["epochs_run"] == 0 and "faulted" not in doc
    init = init_params(spec)
    assert load_params(out / "best-params.json").values.tobytes() == init.values.tobytes()
    val = load_saved_dataset(small_data / "val")
    delta, ups = per_component_mse(Evaluator(spec, val.schema), init, val)
    assert doc["val_upsilon"] == ups


def test_eval_reports_inf_when_the_test_pass_overflows(tmp_path, capsys):
    data = tmp_path / "ood"
    assert dispatch(["gen-data", "--system", "cancer", "--seed", "0", "--n", "4", "--ood",
                     "--out", str(data)]) == EXIT_OK
    spec = parse_model_spec("param p = 0.0008\nd(tumor_volume)/dt = exp(p * tumor_volume ^ 2.0)")
    (tmp_path / "model.hdt").write_text(canonicalize(spec).text)
    save_params(init_params(spec), tmp_path / "params.json")
    code = dispatch(["eval", "--spec", str(tmp_path / "model.hdt"),
                     "--params", str(tmp_path / "params.json"), "--data", str(data / "test")])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["test_upsilon"] == doc["test_sum_mse"] == doc["test_rollout_mse"] == float("inf")


def test_evolve_with_replay_config(tmp_path, capsys):
    replay = tmp_path / "replies.json"
    write_json(replay_fixtures.evolution_replies(), replay)
    out = tmp_path / "run"
    config = {
        "system": "cancer-chemo-radio",
        "method": "evolve",
        "seeds": [0],
        "out": str(out),
        "client": {"mode": "replay", "path": str(replay)},
        "evolve": {"generations": 6},
        "optim": {"batch_size": 200, "max_epochs": 20, "patience": 8},
        "gen": {"n": 5},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code = dispatch(["evolve", "--config", str(cfg_path)])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["mean"] is not None
    seed_dir = out / "seed-0000"
    for rel in ("run.manifest", "report.csv", "result.json", "best-model.hdt",
                "transcript/transcript.json"):
        assert (seed_dir / rel).exists(), rel
    assert (out / "summary.csv").exists()


def test_evolve_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": "cancer", "method": "evolve", "seeds": [0],
                               "client": {"mode": "replay", "path": "/nonexistent"}}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"system": "cancer", "seeds": [0]}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"system": "cancer", "method": "evolve", "seeds": [0],
                               "bogus_key": 1}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"system": "lv2", "method": "sindy", "seeds": [0],
                               "sindy": {"fd_order": 1}}))  # a removed key
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"system": "lv2", "method": "baseline:lv2", "seeds": [0],
                               "optim": {"max_epochs": 2.5, "patience": 2}}))
    capsys.readouterr()
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: bad optim config: max_epochs must be an integer (got 2.5)\n")
    assert dispatch(["evolve", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("config, message", [
    # run_experiment checks the seeds; sindy needs no client, whose check comes first
    ({"seeds": 3, "method": "sindy"},
     "seeds must be a non-empty list of non-negative integers (got 3)"),
    ({"seeds": [], "method": "sindy"},
     "seeds must be a non-empty list of non-negative integers (got [])"),
    ({"seeds": ["a"], "method": "sindy"},
     "seeds must be a non-empty list of non-negative integers (got ['a'])"),
    ({"seeds": [True], "method": "sindy"},
     "seeds must be a non-empty list of non-negative integers (got [True])"),
    ({"seeds": [0, -1], "method": "sindy"},
     "seeds must be a non-empty list of non-negative integers (got [0, -1])"),
    ({"system": 5}, "config 'system' must be a string"),
    ({"method": ["evolve"]}, "config 'method' must be a string"),
    ({"out": 5}, "config 'out' must be a string"),
    ({"evolve": [1]}, "config 'evolve' must be an object"),
    ({"client": "replay"}, "config 'client' must be an object"),
    ({"gen": None}, "config 'gen' must be an object"),
    ({"gen": {"seed": 99}}, "config 'gen' cannot set 'seed': 'seeds' sets every seed"),
    ({"optim": {"seed": 7}}, "config 'optim' cannot set 'seed': 'seeds' sets every seed"),
    ({"evolve": {"seed": 3}}, "config 'evolve' cannot set 'seed': 'seeds' sets every seed"),
    ({"evolve": {"optim": {"max_epochs": 2, "patience": 1}}},
     "config 'evolve' cannot set 'optim': use the 'optim' section"),
    ({"evolve": {"decoding": {"retries": 0}}},
     "config 'evolve' cannot set 'decoding': use the 'client' section"),
    ({"seeds": [0, 1, 0], "method": "sindy"}, "seed 0 is given more than once"),
    # settings that only ever held their default are constants now
    ({"optim": {"beta1": 0.9}}, "unknown optim config keys: beta1"),
    ({"optim": {"beta2": 0.999}}, "unknown optim config keys: beta2"),
    ({"optim": {"eps": 1e-8}}, "unknown optim config keys: eps"),
    ({"evolve": {"capacity": 16}}, "unknown evolve config keys: capacity"),
    ({"gen": {"intervention_day": 19}}, "unknown gen config keys: intervention_day"),
    ({"gen": {"intervention_scale": 0.25}}, "unknown gen config keys: intervention_scale"),
    # the message is the lookup's text, not the repr a KeyError would print
    ({"system": "nope", "method": "sindy"},
     f"unknown system 'nope'; available: {', '.join(BUILTIN_IDS)}"),
    # an int beyond float range, where math.isfinite raised OverflowError
    *(({section: {key: 10 ** 400}, "method": method},
       f"bad {section} config: {key} must be finite (got an int beyond float range)")
      for method, section, key in (("evolve", "optim", "lr"), ("evolve", "client", "timeout"),
                                   ("sindy", "sindy", "alpha"))),
])
def test_evolve_rejects_a_run_config_of_the_wrong_shape(tmp_path, capsys, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "cancer-chemo-radio", "method": "evolve",
                               "seeds": [0], "out": str(tmp_path / "run"), **config}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_evolve_rejects_a_run_config_that_is_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps([{"system": "cancer-chemo-radio"}]))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {cfg} has no 'system'\n"


def test_evolve_rejects_impossible_adam_settings(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "cancer-chemo-radio", "method": "evolve",
                               "seeds": [0], "optim": {"lr": float("nan")}}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: bad optim config: lr must be finite (got nan)\n"


def test_evolve_rejects_a_bool_learning_rate(tmp_path, capsys):
    # true used to be read as 1.0, and every seed fitted at lr 1.0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "cancer-chemo-radio", "method": "evolve", "seeds": [0],
                               "out": str(tmp_path / "run"), "optim": {"lr": True}}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: bad optim config: lr must be a number (got True)\n"
    assert not (tmp_path / "run").exists()


def test_readme_lists_the_keys_each_run_config_section_takes(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Each section takes its own keys only:\n", 1)[1].split("\n\n", 1)[0]
    listed = {m[1]: set(re.findall(r"`(\w+)`", m[2]))
              for m in re.finditer(r"^\* `(\w+)`: (.*?)(?=^\*|\Z)", block, re.M | re.S)}

    def refused(section, key):  # a field that _load_run_config sends elsewhere
        path = tmp_path / "probe.json"
        path.write_text(json.dumps({"system": "x", "method": "y", "seeds": [0],
                                    section: {key: 0}}))
        try:
            cli._load_run_config(str(path))
        except cli.ConfigError:
            return True
        return False

    sections = {"evolve": EvolveConfig, "optim": OptimConfig, "client": DecodingConfig,
                "gen": GenConfig, "sindy": SindyConfig}
    taken = {section: {f.name for f in dataclasses.fields(cls) if not refused(section, f.name)}
             for section, cls in sections.items()}
    taken["client"] |= cli.CLIENT_TRANSPORT_KEYS
    assert listed == taken


@pytest.mark.parametrize("client, message", [
    ({"temprature": 0.2}, "unknown client config keys: temprature"),
    ({"retries": -1}, "bad client config: retries must be >= 0"),
    ({"retry_wait": float("nan")}, "bad client config: retry_wait must be finite (got nan)"),
    ({"path": ["a"]}, "replay client needs a 'path' string"),
    ({"mode": "http", "base_url": 5}, "http client needs a 'base_url' string"),
])
def test_evolve_client_config_errors(tmp_path, capsys, client, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "cancer-chemo-radio", "method": "evolve",
                               "seeds": [0], "client": {"mode": "replay", **client}}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("body, message", [
    (None, "No such file or directory"),
    ('[{"reply": "ok"}', "is not JSON"),
    ('{"not": "a list"}', "replay file must be a JSON list"),
    ('[{"request": 1}]', "replay entry 0 is neither a string nor an object with a string"
                         " 'reply'"),
])
def test_evolve_rejects_a_bad_replay_file_at_launch(tmp_path, capsys, body, message):
    replay = tmp_path / "replies.json"
    if body is not None:
        replay.write_text(body)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "cancer-chemo-radio", "method": "evolve",
                               "seeds": [0, 1], "out": str(tmp_path / "run"),
                               "client": {"mode": "replay", "path": str(replay)}}))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: bad replay file: ") and str(replay) in err and message in err
    assert not (tmp_path / "run").exists()  # no seed started


def test_evolve_replay_exhaustion_is_transport_failure(tmp_path):
    replay = tmp_path / "replies.json"
    write_json(replay_fixtures.evolution_replies()[:1], replay)  # far too short
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "system": "cancer-chemo-radio", "method": "evolve", "seeds": [0],
        "client": {"mode": "replay", "path": str(replay)},
        "evolve": {"generations": 3},
        "optim": {"batch_size": 200, "max_epochs": 5, "patience": 5},
        "gen": {"n": 4},
    }))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_TRANSPORT


def test_evolve_transport_failure_keeps_the_finished_generations(tmp_path):
    replay = tmp_path / "replies.json"
    write_json(replay_fixtures.evolution_replies()[:3], replay)  # two generations
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "system": "cancer-chemo-radio", "method": "evolve", "seeds": [0],
        "out": str(tmp_path / "run"),
        "client": {"mode": "replay", "path": str(replay)},
        "evolve": {"generations": 4},
        "optim": {"batch_size": 200, "max_epochs": 5, "patience": 5},
        "gen": {"n": 4},
    }))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_TRANSPORT
    seed_dir = tmp_path / "run" / "seed-0000"
    assert (seed_dir / "population" / "gen-002" / "model.hdt").exists()
    assert "3,transport-failed," in (seed_dir / "report.csv").read_text()
    rows = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("0,,transport failure at generation 3")


def test_transport_failure_still_writes_summary(tmp_path):
    # every seed runs out of replies: each is recorded, the summary is
    # written, and the exit code still reports the transport failure
    replay = tmp_path / "replies.json"
    write_json(replay_fixtures.evolution_replies()[:1], replay)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "system": "cancer-chemo-radio", "method": "evolve", "seeds": [0, 1],
        "out": str(tmp_path / "run"),
        "client": {"mode": "replay", "path": str(replay)},
        "evolve": {"generations": 3},
        "optim": {"batch_size": 200, "max_epochs": 5, "patience": 5},
        "gen": {"n": 4},
    }))
    assert dispatch(["evolve", "--config", str(cfg)]) == EXIT_TRANSPORT
    rows = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:3]] == ["0", "1"]
    assert all("transport failure" in row for row in rows[1:3])


def test_baseline_sindy_subcommand(tmp_path, capsys):
    code = dispatch(["baseline", "--id", "sindy", "--system", "lv2", "--seeds", "0", "1",
                     "--n", "4", "--out", str(tmp_path / "s")])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["mean"] is not None and not doc["errors"]


def test_baseline_mechanistic_subcommand(tmp_path, capsys):
    code = dispatch(["baseline", "--id", "lv2", "--system", "lv2", "--seeds", "0",
                     "--n", "4", "--max-epochs", "10", "--patience", "5",
                     "--batch-size", "500", "--out", str(tmp_path / "b")])
    assert code == EXIT_OK
    assert np.isfinite(last_metrics(capsys)["mean"])


def test_baseline_has_no_seed_flag_the_run_seeds_set_every_seed(tmp_path, capsys):
    # flags are never abbreviated, so --seed is not read as --seeds
    code = dispatch(["baseline", "--id", "lv2", "--system", "lv2", "--seeds", "0",
                     "--seed", "5", "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_baseline_refuses_a_repeated_seed_before_any_seed_runs(tmp_path, capsys):
    # one seed fixes one deterministic run: three copies are not three samples
    code = dispatch(["baseline", "--id", "lv2", "--system", "lv2", "--seeds", "0", "0", "0",
                     "--n", "3", "--max-epochs", "3", "--patience", "1",
                     "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seed 0 is given more than once\n"
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("seeds", [["0", "-1"], ["-1"]])
def test_baseline_refuses_a_negative_seed_before_any_seed_runs(tmp_path, capsys, seeds):
    code = dispatch(["baseline", "--id", "lv2", "--system", "lv2", "--seeds", *seeds,
                     "--n", "3", "--max-epochs", "2", "--patience", "1",
                     "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: seeds must be a non-empty list of non-negative integers"
        f" (got [{', '.join(seeds)}])\n")
    assert not (tmp_path / "b").exists()


def test_baseline_run_failure_exit_code(monkeypatch):
    monkeypatch.setattr(orchestrator, "fit", unusable_fit(UNUSABLE_FITS[0]))
    code = dispatch(["baseline", "--id", "lv2", "--system", "lv2", "--seeds", "0",
                     "--n", "2", "--max-epochs", "5", "--patience", "5"])
    assert code == EXIT_RUN  # every seed failed


@pytest.mark.parametrize("baseline_id, system_id, message", [
    ("not-real", "lv2", f"unknown baseline 'not-real'; available: {', '.join(BASELINE_IDS)}\n"),
    ("lv2", "cancer", "baseline:lv2 is not valid for system 'cancer': [component-count] "),
], ids=["unknown-id", "another-systems-spec"])
def test_baseline_that_cannot_run_is_a_config_error_before_any_seed_runs(
        monkeypatch, tmp_path, capsys, baseline_id, system_id, message):
    generated = []
    monkeypatch.setattr(orchestrator, "generate_dataset", lambda *a: generated.append(a))
    code = dispatch(["baseline", "--id", baseline_id, "--system", system_id, "--seeds", "0", "1",
                     "--n", "2", "--max-epochs", "5", "--patience", "5",
                     "--out", str(tmp_path / "b")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert generated == [] and not (tmp_path / "b").exists()


@pytest.mark.parametrize("flag", ["--intervention-day", "--intervention-scale"])
def test_gen_data_has_no_flag_for_the_fixed_intervention(tmp_path, capsys, flag):
    code = dispatch(["gen-data", "--system", "seir-covid", "--intervention", flag, "19",
                     "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} 19" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_report_aggregates_archives(tmp_path, capsys):
    for k, value in enumerate([1.0, 2.0, 3.0]):
        d = tmp_path / f"run{k}"
        d.mkdir()
        (d / "result.json").write_text(json.dumps(
            {"headline_metric": "one-step", "headline_value": value}))
    out_csv = tmp_path / "summary.csv"
    code = dispatch(["report", "--runs", str(tmp_path / "run0"), str(tmp_path / "run1"),
                     str(tmp_path / "run2"), "--out", str(out_csv)])
    assert code == EXIT_OK
    doc = last_metrics(capsys)
    assert doc["mean"] == 2.0
    assert doc["half_width_95"] == pytest.approx(2.484, abs=1e-3)
    assert "half_width_95" in out_csv.read_text()
    assert dispatch(["report", "--runs", str(tmp_path / "nope")]) == EXIT_CONFIG
    (tmp_path / "run1" / "result.json").write_text(json.dumps({"val_upsilon": 1.0}))
    capsys.readouterr()
    assert dispatch(["report", "--runs", str(tmp_path / "run0"),
                     str(tmp_path / "run1")]) == EXIT_CONFIG
    result = tmp_path / "run1" / "result.json"
    assert capsys.readouterr().err == f"error: {result} has no 'headline_value'\n"


def test_report_out_csv_exact_text(tmp_path):
    runs = []
    for k, value in enumerate([1.0, 2, 3.0]):  # an integer headline reads as a float
        runs.append(tmp_path / f"run{k}")
        runs[-1].mkdir()
        (runs[-1] / "result.json").write_text(json.dumps(
            {"headline_metric": "rollout", "headline_value": value}))
    out_csv = tmp_path / "report.csv"
    assert dispatch(["report", "--runs", *map(str, runs), "--out", str(out_csv)]) == EXIT_OK
    assert out_csv.read_bytes().decode() == (
        "run,metric,value\r\n"
        f"{runs[0]},rollout,1.0\r\n"
        f"{runs[1]},rollout,2.0\r\n"
        f"{runs[2]},rollout,3.0\r\n"
        "\r\n"
        "mean,,2.0\r\n"
        "half_width_95,,2.4841377117503303\r\n")
    (runs[0] / "result.json").write_text(json.dumps({"headline_value": 0.1}))
    assert dispatch(["report", "--runs", str(runs[0]), "--out", str(out_csv)]) == EXIT_OK
    assert out_csv.read_bytes().decode() == (
        f"run,metric,value\r\n{runs[0]},one-step,0.1\r\n\r\nmean,,0.1\r\nhalf_width_95,,\r\n")


def test_report_refuses_runs_of_mixed_headline_metrics(tmp_path, capsys):
    runs = {}
    for name, doc in [("step", {"headline_metric": "one-step", "headline_value": 1.0}),
                      ("roll", {"headline_metric": "rollout", "headline_value": 3.0}),
                      ("old", {"headline_value": 2.0})]:  # no kind reads as one-step
        runs[name] = tmp_path / name
        runs[name].mkdir()
        (runs[name] / "result.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["report", "--runs", str(runs["step"]), str(runs["roll"])]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: runs mix headline metrics: one-step ({runs['step']}), rollout ({runs['roll']})\n")
    assert dispatch(["report", "--runs", str(runs["old"]), str(runs["roll"])]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: runs mix headline metrics: one-step ({runs['old']}), rollout ({runs['roll']})\n")
    assert dispatch(["report", "--runs", str(runs["step"]), str(runs["old"])]) == EXIT_OK
    assert last_metrics(capsys)["mean"] == 1.5


def test_report_reads_a_fit_run(small_data, tmp_path, capsys):
    spec_path = tmp_path / "true.hdt"
    spec_path.write_text(canonicalize(builtin_system("cancer-chemo-radio").spec).text)
    out = tmp_path / "fitrun"
    assert dispatch(["fit", "--spec", str(spec_path), "--data", str(small_data),
                     "--out", str(out), "--max-epochs", "0"]) == EXIT_OK
    fit_doc = last_metrics(capsys)
    result = json.loads((out / "result.json").read_text())
    test_keys = {"headline_metric", "headline_value", "test_upsilon", "test_delta",
                 "test_sum_mse", "test_rollout_mse"}
    assert test_keys <= set(result) and test_keys <= set(fit_doc)
    assert result["headline_metric"] == "one-step"
    assert result["headline_value"] == result["test_upsilon"] == fit_doc["test_upsilon"]
    assert dispatch(["report", "--runs", str(out)]) == EXIT_OK
    assert last_metrics(capsys)["mean"] == result["headline_value"]


@pytest.mark.parametrize("value", [None, "fast"])
def test_report_rejects_a_headline_value_that_is_not_a_number(tmp_path, capsys, value):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"headline_metric": "one-step", "headline_value": value}))
    assert dispatch(["report", "--runs", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {result} has a 'headline_value' that is not a number\n")


def test_report_reads_only_json_numbers(tmp_path, capsys):
    # float() took the string "1.5" and true, and these two runs reported mean 1.25
    runs = []
    for k, text in enumerate(['"1.5"', "true", "Infinity"]):
        runs.append(tmp_path / f"run{k}")
        runs[-1].mkdir()
        (runs[-1] / "result.json").write_text(f'{{"headline_value": {text}}}')
    for run in runs[:2]:
        assert dispatch(["report", "--runs", str(run), str(runs[2])]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {run / 'result.json'} has a 'headline_value' that is not a number\n")
    assert dispatch(["report", "--runs", str(runs[2])]) == EXIT_OK  # inf is a number
    assert last_metrics(capsys)["mean"] == math.inf


def test_report_refuses_an_int_beyond_float_range(tmp_path, capsys):
    # float() raised OverflowError, and report died with a traceback
    (tmp_path / "result.json").write_text(f'{{"headline_value": {10 ** 400}}}')
    assert dispatch(["report", "--runs", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'result.json'} has a 'headline_value' beyond float range\n")


SCALAR_SPEC = "param a = 0.5\nd(tumor_volume)/dt = a * tumor_volume\n"


@pytest.mark.parametrize("name, doc, message", [
    # doc None: the file is not JSON
    *((name, None, " is not JSON (") for name in ("params", "manifest", "result", "config",
                                                   "replay")),
    ("params", {"scalars": {}}, " has no 'weights'"),
    ("manifest", {"split": "test"}, " has no 'schema'"),
    ("result", {"headline_metric": "one-step"}, " has no 'headline_value'"),
    ("config", {"system": "cancer", "seeds": [0]}, " has no 'method'"),
    ("replay", [{"request": 1}], ": replay entry 0 is neither"),
    ("params", {"scalars": [1], "weights": {}}, ": 'scalars' is not what save_params writes"),
    ("params", {"scalars": {"a": "x"}, "weights": {}}, ": 'scalars' is not what save_params"),
    ("params", {"scalars": {"a": 0.5}, "weights": {"net": [{"w": 1}]}},
     ": 'weights.net' is not what save_params writes"),
    ("manifest", {"schema": {}, "n_trajectories": 1, "split": "x"}, " has no 'schema.states'"),
    ("manifest", {"schema": {"states": 5, "actions": [], "time_units": "days", "dt": 1.0},
                  "n_trajectories": 1, "split": "x"}, ": bad 'schema' ("),
    ("manifest", {"schema": {"states": [["x", 0, 1]], "actions": [], "time_units": "days",
                             "dt": 1.0}, "n_trajectories": "x", "split": "x"}, ": 'n_trajectories' is not a count"),
])
def test_a_malformed_input_file_is_a_config_error_naming_the_file(
        tmp_path, capsys, name, doc, message):
    spec, data, run = tmp_path / "model.hdt", tmp_path / "data", tmp_path / "run"
    spec.write_text(SCALAR_SPEC)
    data.mkdir()
    run.mkdir()
    paths = {"params": tmp_path / "params.json", "manifest": data / "manifest.json",
             "result": run / "result.json", "config": tmp_path / "run.json",
             "replay": tmp_path / "replies.json"}
    save_params(init_params(parse_model_spec(SCALAR_SPEC)), paths["params"])
    write_json(["unused"], paths["replay"])
    write_json({"system": "cancer", "method": "evolve", "seeds": [0],
                "client": {"mode": "replay", "path": str(paths["replay"])}}, paths["config"])
    argv = {"params": ["eval", "--spec", spec, "--params", paths["params"], "--data", data],
            "result": ["report", "--runs", run], "config": ["evolve", "--config", paths["config"]]}
    argv["manifest"], argv["replay"] = argv["params"], argv["config"]
    path = paths[name]
    if doc is None:
        path.write_text('{"scalars": ')
    else:
        write_json(doc, path)
    assert dispatch(list(map(str, argv[name]))) == EXIT_CONFIG
    assert f"{path}{message}" in capsys.readouterr().err


def test_a_directory_given_as_a_file_is_a_config_error(tmp_path, capsys):
    assert dispatch(["eval", "--spec", str(tmp_path), "--params", str(tmp_path / "p.json"),
                     "--data", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_unknown_subcommand_is_config_error(capsys):
    assert dispatch(["frobnicate"]) == EXIT_CONFIG
    assert dispatch(["gen-data", "--bogus-flag"]) == EXIT_CONFIG


def test_help_lists_defaults():
    parser = build_parser()
    help_text = parser.format_help()
    assert "gen-data" in help_text and "report" in help_text
    fit_help = subprocess.run(
        [sys.executable, "-m", "hdtwin.cli", "fit", "--help"],
        capture_output=True, text=True,
    )
    assert fit_help.returncode == 0
    assert "default: 0.01" in fit_help.stdout       # learning rate
    assert "default: 1000" in fit_help.stdout       # batch size
    assert "default: 2000" in fit_help.stdout       # max epochs
    assert "default: 20" in fit_help.stdout         # patience


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_states_each_default_once(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    options = capsys.readouterr().out.split("options:", 1)[1]
    entries = [" ".join(entry.split()) for entry in re.split(r"\n  -", options)]
    assert not [e for e in entries if "(default: None)" in e or e.count("(default:") > 1]
    # an optional flag left at None says in words what leaving it out means
    assert not [a.dest for a in subcommands()[command]._actions
                if a.default is None and not a.required and "(default:" not in a.help]


@pytest.mark.parametrize("command, opening", [
    ("gen-data", "`gen-data` takes "),
    ("fit", "`hdtwin fit` takes "),
    ("baseline", "`hdtwin baseline` takes "),
])
def test_readme_lists_every_flag_of_a_command(command, opening):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = readme.split(opening, 1)[1].split(".", 1)[0]
    flags = [flag for action in subcommands()[command]._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"]
    assert sorted(re.findall(r"`(--[\w-]+)`", sentence)) == sorted(flags)


def test_module_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hdtwin.cli", "gen-data", "--system", "lv2",
         "--seed", "0", "--n", "2", "--out", str(tmp_path / "d")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "METRICS " in proc.stdout
