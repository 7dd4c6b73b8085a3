"""End-to-end search runs.

evolve() iterates propose -> fit -> evaluate -> insert -> critique for a
fixed number of generations, keeps the top-K population, and scores the
best-by-validation candidate once on the test split with
engine.evaluate_test_metrics.  Its one per-generation log is a list of
GenerationRecords, each holding the population's best after its
generation; the evaluation agent's history of per-iteration bests, the
best-so-far curve and a lost endpoint are read off it.  The population
itself is a plain tuple of entries, best first.  run_experiment repeats
a method over seeds (regenerating the datasets per seed) and aggregates
the test metric as mean with a 95% Student-t half-width.  It runs both
ablations as settings of evolve: one generation, and for zero-shot a
zero-epoch fit, which scores the proposal's suggested inits; zero-optim
fits it once.

Each run can write a plain-text archive: the canonical spec, parameter
table, metrics, and loss curves per entry of the final population, the full
request/reply transcript (replayable through ScriptedClient), and a
per-generation report.  Archives contain no wall-clock data, so two runs
with the same seed and replay file are byte-identical on one numeric
platform (OpenBLAS kernel and numpy SIMD level).
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hdtwin.agents import (
    POPULATION_CAPACITY,
    DecodingConfig,
    ModelingContext,
    Population,
    PopulationEntry,
    ProposalFailure,
    TransportError,
    critique,
    population_insert,
    propose,
)
from hdtwin.dsl import canonicalize, dsl_skeleton, validate
from hdtwin.engine import (
    HEADLINE_METRICS,
    Dataset,
    EvaluationFault,
    ParamVector,
    TestMetrics,
    evaluate_test_metrics,
    init_params,
    require_integers,
    save_params,
    write_json,
    write_table,
)
from hdtwin.optim import BETA1, BETA2, EPS, FitResult, OptimConfig, fit
from hdtwin.systems import GenConfig, SystemDef, builtin_system, generate_dataset, system_description

log = logging.getLogger(__name__)


class RunFailure(Exception):
    """No generation produced a usable candidate."""

    def __init__(self, message: str, transcript: list[dict]):
        self.transcript = transcript
        super().__init__(message)


@dataclass
class EvolveConfig:
    generations: int = 20
    optim: OptimConfig = field(default_factory=OptimConfig)
    decoding: DecodingConfig = field(default_factory=DecodingConfig)
    seed: int = 0
    test_metric: str = HEADLINE_METRICS[0]  # the headline; every test score is archived

    def __post_init__(self):
        require_integers(self, "generations", "seed")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.test_metric not in HEADLINE_METRICS:
            raise ValueError(f"test_metric is {' or '.join(map(repr, HEADLINE_METRICS))}")


@dataclass
class GenerationRecord:
    generation: int
    status: str  # inserted | duplicate | proposal-failed | fit-faulted | transport-failed
    upsilon: float | None = None
    fingerprint: int | None = None
    description: str = ""
    error: str | None = None  # why a transport-failed generation ended the run
    best: PopulationEntry | None = None  # the population's best after this generation

    @property
    def best_upsilon(self) -> float | None:
        return None if self.best is None else self.best.upsilon


@dataclass
class RunResult:
    """One run; `records` (one per generation run) is its only per-generation state."""

    population: Population
    records: list[GenerationRecord]
    test: TestMetrics
    transcript: list[dict]
    fit_results: dict[int, FitResult]

    @property
    def best(self) -> PopulationEntry:
        return self.population[0]

    @property
    def best_curve(self) -> list[float]:  # best loss after each finished generation
        return [float("inf") if r.best_upsilon is None else r.best_upsilon
                for r in self.records if r.status != "transport-failed"]

    @property
    def transport_error(self) -> str | None:  # set when the endpoint gave out mid-run
        last = self.records[-1]
        failed = last.status == "transport-failed"
        return f"generation {last.generation}: {last.error}" if failed else None


def make_modeling_context(system: SystemDef, generations: int,
                          n_trajectories: int | None = None) -> ModelingContext:
    """Assemble the structured prompt for one of the built-in systems."""
    requirements = (
        f"* The specification generated should achieve the lowest possible validation loss,"
        f" of {system.target_loss} or less.\n"
        "* The specification generated should be interpretable, and fit the dataset as"
        " accurately as possible."
    )
    return ModelingContext(
        system_description=system_description(system, n_trajectories),
        requirements=requirements,
        skeleton=dsl_skeleton(system.schema),
        generations=generations,
    )


def _mix_seed(seed: int, generation: int) -> int:
    return (seed * 1_000_003 + generation) % (2 ** 31)


def evolve(ctx: ModelingContext, system: SystemDef, datasets: dict[str, Dataset],
           cfg: EvolveConfig, client) -> RunResult:
    """Run the full propose/fit/evaluate/insert/critique loop.

    Failed proposals and unusable fits (FitResult.usable) consume their
    generation without an insertion.  The best-by-validation entry is
    evaluated once on test.
    A TransportError while proposing ends the run at that generation: the
    finished generations are kept and the run's last record is
    transport-failed, which `RunResult.transport_error` reports (the
    error is raised if no generation finished).
    """
    train, val, test = datasets["train"], datasets["val"], datasets["test"]
    pop: Population = ()
    feedback = ""
    records: list[GenerationRecord] = []
    fit_results: dict[int, FitResult] = {}

    for g in range(1, cfg.generations + 1):
        try:
            spec, description = propose(client, ctx, system.schema, pop, feedback, g,
                                        cfg.decoding)
        except ProposalFailure as err:
            log.warning("generation %d: proposal failed (%s)", g, err)
            records.append(GenerationRecord(g, "proposal-failed"))
        except TransportError as err:
            if not pop:
                raise
            log.warning("generation %d: lost the LLM endpoint (%s)", g, err)
            records.append(GenerationRecord(g, "transport-failed", error=str(err)))
            break
        else:
            result = fit(spec, init_params(spec, seed=_mix_seed(cfg.seed, g)),
                         train, val, cfg.optim)
            fit_results[g] = result
            if not result.usable:
                log.warning("generation %d: fit faulted", g)
                records.append(GenerationRecord(g, "fit-faulted", description=description))
            else:
                canon = canonicalize(spec)
                entry = PopulationEntry(
                    spec=spec, canonical_text=canon.text, fingerprint=canon.fingerprint,
                    params=result.params, delta=result.component_losses,
                    upsilon=result.val_loss, generation=g, description=description,
                )
                before, pop = pop, population_insert(pop, entry)
                status = "duplicate" if pop is before else "inserted"
                records.append(GenerationRecord(
                    g, status, upsilon=entry.upsilon,
                    fingerprint=entry.fingerprint, description=description,
                ))
        records[-1].best = pop[0] if pop else None
        if g < cfg.generations and pop:
            history = [(r.generation, r.best.upsilon, r.best.description)
                       for r in records if r.best is not None]
            feedback = critique(client, ctx.requirements, pop, history, g + 1,
                                cfg.generations, cfg.decoding)

    if not pop:
        raise RunFailure("no generation produced a usable candidate", list(client.transcript))
    best = pop[0]
    test_metrics = evaluate_test_metrics(best.spec, best.params, test)
    return RunResult(pop, records, test_metrics, list(client.transcript), fit_results)


# the methods an LLM client drives: evolve and its two one-generation ablations
AGENT_METHODS = ("evolve", "zero-shot", "zero-optim")


# ---------------------------------------------------------------------------
# Multi-seed experiments


# the repr of scipy 1.17.1's stats.t.ppf(0.975, df) for df = 1..30
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with df >= 1 degrees of freedom.

    Up to df 30 it is read from a table of scipy's values, bit for bit.
    Above, it is the Cornish-Fisher expansion in the normal quantile z
    through df**-4 (Abramowitz & Stegun 26.7.5), within 1.3e-8 relative
    of scipy at df 31 and closer as df grows.
    """
    if df <= len(_T_975):
        return _T_975[df - 1]
    z = 1.959963984540054  # the normal distribution's 0.975 quantile
    x2 = z * z
    g = (z * (x2 + 1.0) / 4.0,
         z * ((5.0 * x2 + 16.0) * x2 + 3.0) / 96.0,
         z * (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0) / 384.0,
         z * ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0) / 92160.0)
    return z + sum(gk / df ** k for k, gk in enumerate(g, start=1))


def confidence_interval(values: list[float]) -> tuple[float, float | None]:
    """Mean and 95% two-sided Student-t half-width over seed outcomes;
    the half-width is None for a single value."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, None
    sem = float(arr.std(ddof=1)) / np.sqrt(len(arr))
    return mean, float(t_quantile_975(len(arr) - 1) * sem)


@dataclass
class SeedOutcome:
    seed: int
    metric: float | None = None
    error: str | None = None
    archive: str | None = None
    transport_failure: bool = False  # the LLM endpoint gave out during this seed


@dataclass
class AggregateReport:
    system: str
    method: str
    metric_name: str
    outcomes: list[SeedOutcome]
    mean: float | None
    half_width: float | None


def run_experiment(system_id: str, method: str, seeds: list[int], *,
                   evolve_cfg: EvolveConfig | None = None,
                   gen_cfg: GenConfig | None = None,
                   sindy_cfg=None,
                   client_factory=None,
                   out_dir=None) -> AggregateReport:
    """Run one method over several seeds, re-sampling the datasets per seed,
    and aggregate the headline test metric.

    `method` is one of evolve | zero-shot | zero-optim | sindy |
    baseline:<id>.  Agent methods need `client_factory(seed) -> client`.
    Seeds that are not a non-empty list of distinct non-negative integers,
    an unknown system or baseline, and a baseline spec that dsl.validate
    refuses for the system raise ValueError before any seed runs.  Per-seed
    failures, transport failures included, are recorded in the report
    and the summary, never silently dropped; later seeds still run.
    An evolve run cut short by a transport failure still writes its
    archive of the finished generations, but its metric is not aggregated.
    """
    from hdtwin.baselines import SindyConfig, builtin_baseline_spec, sindy_fit

    if not (isinstance(seeds, list) and seeds and all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds)):
        raise ValueError(f"seeds must be a non-empty list of non-negative integers (got {seeds!r})")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:  # a seed fixes its run: a repeat is no new sample
        raise ValueError(f"seed {repeated} is given more than once")
    if method not in (*AGENT_METHODS, "sindy") and not method.startswith("baseline:"):
        raise ValueError(f"unknown method {method!r}")
    if method in AGENT_METHODS and client_factory is None:
        raise ValueError(f"method {method!r} needs an LLM client")
    evolve_cfg = evolve_cfg or EvolveConfig()
    gen_cfg = gen_cfg or GenConfig()
    sindy_cfg = sindy_cfg or SindyConfig()
    system = builtin_system(system_id)
    if method.startswith("baseline:"):  # a spec that cannot run fails before any seed
        baseline = builtin_baseline_spec(method.split(":", 1)[1], system.schema)
        if problems := validate(baseline, system.schema):
            raise ValueError(f"{method} is not valid for system {system_id!r}: "
                             + "; ".join(map(str, problems)))
    outcomes: list[SeedOutcome] = []
    for seed in seeds:
        outcome = SeedOutcome(seed=seed)
        outcomes.append(outcome)
        seed_dir = Path(out_dir) / f"seed-{seed:04d}" if out_dir else None
        try:
            datasets = generate_dataset(system, dataclasses.replace(gen_cfg, seed=seed))
            cfg = dataclasses.replace(
                evolve_cfg, seed=seed,
                optim=dataclasses.replace(evolve_cfg.optim, seed=seed),
            )
            if method in AGENT_METHODS:
                if method != "evolve":  # one proposal: the prompt and manifest say so
                    cfg = dataclasses.replace(cfg, generations=1)
                run_cfg = cfg  # the manifest keeps the configured optim section
                if method == "zero-shot":  # scores the suggested inits
                    run_cfg = dataclasses.replace(
                        cfg, optim=dataclasses.replace(cfg.optim, max_epochs=0))
                client = client_factory(seed)
                ctx = make_modeling_context(system, cfg.generations, gen_cfg.n)
                result = evolve(ctx, system, datasets, run_cfg, client)
                if result.transport_error is None:
                    outcome.metric = result.test.headline(cfg.test_metric)
                else:  # a partial run: archived, but not aggregated
                    log.warning("seed %d lost the LLM endpoint at %s", seed,
                                result.transport_error)
                    outcome.error = f"transport failure at {result.transport_error}"
                    outcome.transport_failure = True
                if seed_dir:
                    write_run_archive(seed_dir, result, system_id, method, seed, cfg)
                    outcome.archive = str(seed_dir)
            else:  # sindy or baseline:<id>, scored through one tail
                if method == "sindy":
                    res = sindy_fit(datasets["train"], sindy_cfg)
                    spec, params = res.spec, init_params(res.spec)
                else:
                    spec = baseline
                    fitted = fit(spec, init_params(spec, seed=seed),
                                 datasets["train"], datasets["val"], cfg.optim)
                    if not fitted.usable:
                        raise RunFailure("baseline fit faulted", [])
                    params = fitted.params
                metrics = evaluate_test_metrics(spec, params, datasets["test"])
                outcome.metric = metrics.headline(cfg.test_metric)
                if seed_dir:
                    write_model_dir(seed_dir, canonicalize(spec).text, params,
                                    metrics.doc(cfg.test_metric))
                    outcome.archive = str(seed_dir)
        except (RunFailure, EvaluationFault, ValueError, KeyError) as err:
            log.warning("seed %d failed: %s", seed, err)
            outcome.error = str(err)
        except TransportError as err:
            log.warning("seed %d lost the LLM endpoint: %s", seed, err)
            outcome.error = f"transport failure: {err}"
            outcome.transport_failure = True
    values = [o.metric for o in outcomes if o.metric is not None]
    mean, half = confidence_interval(values) if values else (None, None)
    report = AggregateReport(system_id, method, evolve_cfg.test_metric, outcomes, mean, half)
    if out_dir:
        write_summary(Path(out_dir), report)
    return report


# ---------------------------------------------------------------------------
# Archives


def write_run_archive(out_dir, result: RunResult, system_id: str, method: str,
                      seed: int, cfg: EvolveConfig):
    """Write the documented run-archive layout (no wall-clock anywhere).

    A run cut short by a transport failure writes the same layout for its
    finished generations; its report row for the failed generation holds
    the error in the description column, and result.json gains a
    "transport_error" entry.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json({
        "system": system_id,
        "method": method,
        "seed": seed,
        "generations": cfg.generations,
        "capacity": POPULATION_CAPACITY,
        "test_metric": cfg.test_metric,
        "optim": {**dataclasses.asdict(cfg.optim), "beta1": BETA1, "beta2": BETA2, "eps": EPS},
        "decoding": dataclasses.asdict(cfg.decoding),
    }, out / "run.manifest")

    (out / "transcript").mkdir(exist_ok=True)
    write_json(result.transcript, out / "transcript" / "transcript.json")

    for entry in result.population:  # an evicted entry's metrics stay in report.csv
        g = entry.generation
        gen_dir = out / "population" / f"gen-{g:03d}"
        gen_dir.mkdir(parents=True, exist_ok=True)
        (gen_dir / "model.hdt").write_text(entry.canonical_text)
        save_params(entry.params, gen_dir / "params.json")
        write_json({
            "generation": g,
            "upsilon": entry.upsilon,
            "delta": [float(v) for v in entry.delta],
            "fingerprint": entry.fingerprint,
            "description": entry.description,
        }, gen_dir / "metrics.json")
        fit_result = result.fit_results[g]
        if fit_result.epochs_run:  # a zero-epoch fit (zero-shot) has no curve
            curve = enumerate(zip([None, *fit_result.train_curve], fit_result.val_curve))
            write_table([["epoch", "train_loss", "val_loss"],
                         *([i, train, val] for i, (train, val) in curve)], gen_dir / "curves.csv")

    write_table([["generation", "status", "upsilon", "best_upsilon", "fingerprint", "description"],
                 *([r.generation, r.status, r.upsilon, r.best_upsilon, r.fingerprint,
                    r.error or r.description] for r in result.records)],
                out / "report.csv")

    best = result.best
    doc = {
        "best_generation": best.generation,
        "best_upsilon": best.upsilon,
        "best_delta": [float(v) for v in best.delta],
        "best_fingerprint": best.fingerprint,
        "best_description": best.description,
    }
    doc.update(result.test.doc(cfg.test_metric))
    if result.transport_error is not None:
        doc["transport_error"] = result.transport_error
    write_model_dir(out, best.canonical_text, best.params, doc)


def write_model_dir(out_dir, canonical_text: str, params: ParamVector, doc: dict):
    """Write best-model.hdt, best-params.json and doc as result.json to out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "best-model.hdt").write_text(canonical_text)
    save_params(params, out / "best-params.json")
    write_json(doc, out / "result.json")


def write_summary(out_dir: Path, report: AggregateReport):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table([["seed", "metric", "error"],
                 *([o.seed, o.metric, o.error] for o in report.outcomes),
                 [],
                 ["mean", report.mean, None],
                 ["half_width_95", report.half_width, None]],
                out_dir / "summary.csv")
