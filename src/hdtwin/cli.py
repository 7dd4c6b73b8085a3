"""Command-line surface.

Subcommands: gen-data, fit, evolve, baseline, eval, report.  Every run
prints one machine-readable ``METRICS {...}`` JSON line on stdout and
writes only inside its --out directory.  Exit codes: 0 success, 2 config
error, 3 run failure, 4 transport failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from hdtwin.agents import DecodingConfig, HttpClient, ScriptedClient, TransportError
from hdtwin.baselines import BASELINE_IDS, SindyConfig
from hdtwin.dsl import DslError, canonicalize, parse_model_spec, validate
from hdtwin.engine import (
    HEADLINE_METRICS,
    EvaluationFault,
    evaluate_test_metrics,
    init_params,
    load_params,
    load_saved_dataset,
    read_json,
    save_dataset,
    write_table,
)
from hdtwin.optim import OptimConfig, fit
from hdtwin.orchestrator import (
    AGENT_METHODS,
    EvolveConfig,
    RunFailure,
    confidence_interval,
    run_experiment,
    write_model_dir,
)
from hdtwin.systems import BUILTIN_IDS, GenConfig, builtin_system, generate_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_TRANSPORT = 4


class ConfigError(Exception):
    pass


def _metrics_line(doc: dict):
    print("METRICS " + json.dumps(doc, sort_keys=True))


def _optim_flags(parser: argparse.ArgumentParser):
    d = OptimConfig()
    parser.add_argument("--lr", type=float, default=d.lr, help="Adam learning rate")
    parser.add_argument("--batch-size", type=int, default=d.batch_size,
                        help="transitions per mini-batch")
    parser.add_argument("--max-epochs", type=int, default=d.max_epochs,
                        help="training epoch budget; 0 only scores the initial parameters")
    parser.add_argument("--patience", type=int, default=d.patience,
                        help="epochs without validation improvement before stopping")


def _optim_from_args(args) -> OptimConfig:
    return OptimConfig(lr=args.lr, batch_size=args.batch_size, max_epochs=args.max_epochs,
                       patience=args.patience)


class _HelpFormatter(argparse.HelpFormatter):
    """States each flag's default once, after its help.  A switch is off
    unless given, and a flag whose default is None says in its own help
    what leaving it out means, so neither gets a default appended."""

    def _get_help_string(self, action):
        text = action.help or ""
        if action.default in (None, argparse.SUPPRESS) or action.default is False:
            return text
        return text + " (default: %(default)s)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdtwin",
        description="Hybrid digital-twin engine: data generation, model fitting,"
                    " evolutionary search, baselines, evaluation, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a flag that is a prefix of another (--seed of --seeds) never aliases it
    add = functools.partial(sub.add_parser, allow_abbrev=False,
                            formatter_class=_HelpFormatter)

    p = add("gen-data", help="generate train/val/test datasets for a built-in system")
    p.add_argument("--system", required=True, choices=BUILTIN_IDS)
    p.add_argument("--seed", type=int, default=GenConfig().seed, help="generation seed")
    p.add_argument("--n", type=int, default=None,
                   help="trajectories per split (default: the system's own)")
    p.add_argument("--ood", action="store_true",
                   help="disjoint train/test initial-volume supports at dt = 1/24")
    p.add_argument("--intervention", action="store_true",
                   help="scale the transmission rate on the test split")
    p.add_argument("--out", required=True, help="output directory")

    p = add("fit", help="fit one spec file to a generated dataset directory")
    p.add_argument("--spec", required=True, help="path to a .hdt model spec")
    p.add_argument("--data", required=True,
                   help="dataset directory holding train/ val/ (and optionally test/)")
    p.add_argument("--out", required=True, help="output directory")
    _optim_flags(p)
    p.add_argument("--seed", type=int, default=OptimConfig().seed,
                   help="network weight init and shuffling seed")

    p = add("eval", help="evaluate a spec + parameter table on a dataset directory")
    p.add_argument("--spec", required=True, help="path to a .hdt model spec")
    p.add_argument("--params", required=True, help="params.json as written by fit")
    p.add_argument("--data", required=True, help="one dataset split directory")

    p = add("evolve", help="run an evolution (or ablation) experiment from a config file")
    p.add_argument("--config", required=True, help="JSON run-config file")

    p = add("baseline", help="run a non-agentic baseline over seeds")
    p.add_argument("--id", required=True, dest="baseline_id",
                   help=f"sindy or one of: {', '.join(BASELINE_IDS)}")
    p.add_argument("--system", required=True, choices=BUILTIN_IDS)
    p.add_argument("--seeds", type=int, nargs="+", default=[0], help="run seeds")
    p.add_argument("--n", type=int, default=None,
                   help="trajectories per split (default: the system's own)")
    p.add_argument("--out", default=None, help="archive directory (default: no archive)")
    p.add_argument("--test-metric", choices=HEADLINE_METRICS, default=HEADLINE_METRICS[0],
                   help="headline test metric")
    p.add_argument("--degree", type=int, default=SindyConfig().degree,
                   help="sparse-regression polynomial degree")
    p.add_argument("--alpha", type=float, default=SindyConfig().alpha,
                   help="sparse-regression ridge strength")
    p.add_argument("--threshold", type=float, default=SindyConfig().threshold,
                   help="sparse-regression pruning threshold")
    _optim_flags(p)

    p = add("report", help="aggregate run archives into one summary")
    p.add_argument("--runs", nargs="+", required=True, help="run archive directories")
    p.add_argument("--out", default=None, help="CSV to write (default: none)")

    return parser


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_data(args) -> int:
    system = builtin_system(args.system)
    cfg = GenConfig(n=args.n, seed=args.seed, ood=args.ood, intervention=args.intervention)
    t0 = time.perf_counter()
    datasets = generate_dataset(system, cfg)
    t1 = time.perf_counter()
    out = Path(args.out)
    for name, ds in datasets.items():
        save_dataset(ds, out / name, seed=args.seed,
                     notes={"system": args.system, "mode": name})
    _metrics_line({"command": "gen-data", "system": args.system, "seed": args.seed,
                   "splits": sorted(datasets),
                   "trajectories_per_split": len(datasets["train"].trajectories),
                   "generate_s": t1 - t0, "save_s": time.perf_counter() - t1})
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = dataclasses.replace(_optim_from_args(args), seed=args.seed)
    spec = parse_model_spec(Path(args.spec).read_text())
    data_dir = Path(args.data)
    train = load_saved_dataset(data_dir / "train")
    val = load_saved_dataset(data_dir / "val")
    problems = validate(spec, train.schema)  # before init_params draws a weight
    if problems:
        raise ConfigError("spec is not valid for this schema: " + "; ".join(map(str, problems)))
    result = fit(spec, init_params(spec, seed=args.seed), train, val, cfg)
    if not result.usable:
        raise RunFailure("fit faulted or its validation loss is not finite", [])
    doc = {
        "command": "fit",
        "val_upsilon": result.val_loss,
        "val_delta": [float(v) for v in result.component_losses],
        "epochs_run": result.epochs_run,
    }
    if (data_dir / "test").exists():
        metrics = evaluate_test_metrics(spec, result.params, load_saved_dataset(data_dir / "test"))
        doc.update(metrics.doc(HEADLINE_METRICS[0]))
    write_model_dir(args.out, canonicalize(spec).text, result.params, doc)
    _metrics_line(doc)
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = parse_model_spec(Path(args.spec).read_text())
    params = load_params(args.params)
    ds = load_saved_dataset(args.data)
    metrics = evaluate_test_metrics(spec, params, ds)
    print(f"upsilon (mean over components): {metrics.upsilon!r}")
    for name, value in zip((c.target for c in spec.components), metrics.delta):
        print(f"delta[{name}]: {float(value)!r}")
    print(f"rollout mse: {metrics.rollout!r}")
    _metrics_line({"command": "eval", **metrics.doc(HEADLINE_METRICS[0])})
    return EXIT_OK


def _load_run_config(path: str) -> dict:
    doc = read_json(path, "system", "method", "seeds")
    known = {"system", "method", "seeds", "out", "client", "evolve", "optim", "gen", "sindy"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key in ("system", "method", "out"):
        if key in doc and not isinstance(doc[key], str):
            raise ConfigError(f"config {key!r} must be a string")
    by_seeds = "'seeds' sets every seed"  # run_experiment sets these from each seed
    elsewhere = {("evolve", "seed"): by_seeds, ("optim", "seed"): by_seeds,
                 ("gen", "seed"): by_seeds, ("evolve", "optim"): "use the 'optim' section",
                 ("evolve", "decoding"): "use the 'client' section"}
    for (section, key), instead in elsewhere.items():
        if isinstance(doc.get(section), dict) and key in doc[section]:
            raise ConfigError(f"config {section!r} cannot set {key!r}: {instead}")
    return doc


def _build_sub_config(cls, doc: dict, section: str, other_keys: frozenset = frozenset()):
    """Build `cls` from `doc[section]`; `other_keys` are the section's keys
    that belong to something else and are skipped, not rejected."""
    body = doc.get(section, {})
    if not isinstance(body, dict):
        raise ConfigError(f"config {section!r} must be an object")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(body) - fields - other_keys
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {', '.join(sorted(unknown))}")
    try:
        return cls(**{k: v for k, v in body.items() if k in fields})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad {section} config: {err}")


# the client section's keys that pick the transport; the rest are DecodingConfig fields
CLIENT_TRANSPORT_KEYS = frozenset({"mode", "path", "base_url"})


def _client_factory_from_config(doc: dict):
    client_doc = doc.get("client", {})
    mode = client_doc.get("mode", "replay")
    if mode == "replay":
        path = client_doc.get("path")
        if not path or not isinstance(path, str):
            raise ConfigError("replay client needs a 'path' string")
        try:  # read and checked once; every seed replays the same replies afresh
            replies = ScriptedClient.from_file(path).replies
        except (OSError, ValueError) as err:
            raise ConfigError(f"bad replay file: {err}")
        return lambda seed: ScriptedClient(replies)
    if mode == "http":
        base_url = client_doc.get("base_url")
        if not base_url or not isinstance(base_url, str):
            raise ConfigError("http client needs a 'base_url' string")
        return lambda seed: HttpClient(base_url)
    raise ConfigError(f"unknown client mode {mode!r} (use replay or http)")


def cmd_evolve(args) -> int:
    doc = _load_run_config(args.config)
    method = doc["method"]
    evolve_cfg = dataclasses.replace(
        _build_sub_config(EvolveConfig, doc, "evolve"),
        optim=_build_sub_config(OptimConfig, doc, "optim"),
        decoding=_build_sub_config(DecodingConfig, doc, "client", CLIENT_TRANSPORT_KEYS))
    gen_cfg = _build_sub_config(GenConfig, doc, "gen")
    sindy_cfg = _build_sub_config(SindyConfig, doc, "sindy")
    factory = _client_factory_from_config(doc) if method in AGENT_METHODS else None
    report = run_experiment(doc["system"], method, doc["seeds"], evolve_cfg=evolve_cfg,
                            gen_cfg=gen_cfg, sindy_cfg=sindy_cfg, client_factory=factory,
                            out_dir=doc.get("out"))
    return _finish_experiment(report)


def cmd_baseline(args) -> int:
    method = "sindy" if args.baseline_id == "sindy" else f"baseline:{args.baseline_id}"
    evolve_cfg = EvolveConfig(optim=_optim_from_args(args), test_metric=args.test_metric)
    sindy_cfg = SindyConfig(degree=args.degree, alpha=args.alpha, threshold=args.threshold)
    report = run_experiment(args.system, method, args.seeds, evolve_cfg=evolve_cfg,
                            gen_cfg=GenConfig(n=args.n), sindy_cfg=sindy_cfg,
                            out_dir=args.out)
    return _finish_experiment(report)


def _finish_experiment(report) -> int:
    doc = {
        "command": report.method,
        "system": report.system,
        "metric": report.metric_name,
        "per_seed": {str(o.seed): o.metric for o in report.outcomes},
        "errors": {str(o.seed): o.error for o in report.outcomes if o.error},
        "mean": report.mean,
        "half_width_95": report.half_width,
    }
    _metrics_line(doc)
    lost = [f"seed {o.seed}: {o.error}" for o in report.outcomes if o.transport_failure]
    if lost:
        print("\n".join(lost), file=sys.stderr)
        return EXIT_TRANSPORT
    if report.mean is None:
        raise RunFailure("every seed failed", [])
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for run_dir in args.runs:
        path = Path(run_dir) / "result.json"
        doc = read_json(path, "headline_value")
        value = doc["headline_value"]  # a JSON number: not a string, a bool or null
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} has a 'headline_value' that is not a number")
        try:
            value = float(value)
        except OverflowError:  # an int beyond float range
            raise ConfigError(f"{path} has a 'headline_value' beyond float range") from None
        rows.append([str(path.parent), doc.get("headline_metric", HEADLINE_METRICS[0]), value])
    first_run = {kind: run for run, kind, _ in reversed(rows)}  # of each headline kind
    if len(first_run) > 1:
        raise ConfigError("runs mix headline metrics: " + ", ".join(
            f"{kind} ({first_run[kind]})" for kind in sorted(first_run)))
    values = [v for _, _, v in rows]
    mean, half = confidence_interval(values)
    if args.out:
        write_table([["run", "metric", "value"], *rows, [],
                     ["mean", None, mean], ["half_width_95", None, half]], args.out)
    _metrics_line({"command": "report", "runs": len(rows), "mean": mean,
                   "half_width_95": half})
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "evolve": cmd_evolve,
    "baseline": cmd_baseline,
    "report": cmd_report,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, OSError, KeyError, ValueError, DslError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (RunFailure, EvaluationFault) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_RUN
    except TransportError as err:
        print(f"transport failure: {err}", file=sys.stderr)
        return EXIT_TRANSPORT


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
