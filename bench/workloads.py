"""The benchmark's three workloads.

Each workload class builds its inputs from the seed in its constructor
(the timed set-up), does one measured unit of work in `run`, and checks
that unit's outputs in `check`. Library functions are called through
their module (`optim.fit`, not an imported name), so the traced run's
wrappers see every call.

Sizes. At the measured ("full") size every fit runs a fixed number of
epochs (patience = max_epochs, so early stopping never ends a fit), which
makes the work of one unit the same for every seed: with early stopping
one fit's epoch count moved by up to a factor of five between data seeds
(163 to 888 epochs), and the evolve unit's wall time by 30%. The trajectory counts are scaled down from the
acceptance criteria (n=1000) so that one unit takes a few seconds and a
run repeats it several times. Batches keep 1000 rows, and the validation
pass stays the whole validation split, so each layer's share of the time
stays close to the n=1000 runs ("criterion" size, see NOTES.md).
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import replay_fixtures
from hdtwin import dsl, engine, optim, orchestrator, systems
from hdtwin.agents import ScriptedClient

SIZES = {
    "full": {
        "evolve-chemo-radio": {"n": 100, "epochs": 100},
        "fit-oracle-cancer": {"n": 200, "epochs": 1000},
        "gen-chemo-radio": {"n": 250},
    },
    # the acceptance-criteria sizes with the library's early stopping, to
    # compare with the ROADMAP figures; one evolve unit takes about a minute
    "criterion": {
        "evolve-chemo-radio": {"n": 1000, "epochs": None},
        "fit-oracle-cancer": {"n": 1000, "epochs": None},
        "gen-chemo-radio": {"n": 1000},
    },
    # for the harness self-check only: every code path, seconds of work
    "tiny": {
        "evolve-chemo-radio": {"n": 2, "epochs": 2},
        "fit-oracle-cancer": {"n": 2, "epochs": 2},
        "gen-chemo-radio": {"n": 2},
    },
}

GENERATIONS = 6

# The criterion-2 oracle: the true untreated tumor structure in log-parameters.
LOG_TUMOR_GROWTH = (
    "param log_rho = -8.5\n"
    "param log_kcap = 4.0\n"
    "d(tumor_volume)/dt = exp(log_rho) * log(exp(log_kcap) / tumor_volume) * tumor_volume\n"
)


def tree_sha256(root: Path) -> str:
    """Hash of every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _optim_config(seed: int, epochs: int | None) -> optim.OptimConfig:
    """A fixed number of epochs, or the default early stopping for None."""
    if epochs is None:
        return optim.OptimConfig(seed=seed)
    return optim.OptimConfig(seed=seed, max_epochs=epochs, patience=epochs)


def _report(checks: dict, ops_attempted: int, ops_failed: int, work: dict,
            quality: dict, hashes: dict) -> dict:
    """One unit's outcome: the output checks (name -> passed), operations
    attempted and failed (the checks count as operations), the work done
    (transitions, trajectories), and quality numbers and hashes, which are
    information, not gates."""
    failed_checks = sum(not ok for ok in checks.values())
    return dict(
        checks={k: bool(v) for k, v in checks.items()},
        attempted=ops_attempted + len(checks),
        failed=ops_failed + failed_checks,
        work=work, quality=quality, hashes=hashes,
    )


class EvolveChemoRadio:
    """The criterion-3 run: scripted six-generation evolve on replayed
    replies, then the run archive."""

    system_id = "cancer-chemo-radio"

    def __init__(self, seed: int, n: int, epochs: int | None):
        self.seed = seed
        self.system = systems.builtin_system(self.system_id)
        self.data = systems.generate_dataset(self.system, systems.GenConfig(n=n, seed=seed))
        self.ctx = orchestrator.make_modeling_context(self.system, GENERATIONS)
        self.replies = tuple(replay_fixtures.evolution_replies())
        self.cfg = orchestrator.EvolveConfig(
            generations=GENERATIONS, optim=_optim_config(seed, epochs), seed=seed)

    def run(self, out_dir: Path):
        result = orchestrator.evolve(self.ctx, self.system, self.data, self.cfg,
                                     ScriptedClient(list(self.replies)))
        orchestrator.write_run_archive(out_dir, result, self.system_id, "evolve",
                                       self.seed, self.cfg)
        return result

    def check(self, result, out_dir: Path) -> dict:
        curve = np.array(result.best_curve)
        faulted_fits = sum(r.faulted for r in result.fit_results.values())
        failed_proposals = sum(r.status == "proposal-failed" for r in result.records)
        checks = {
            "best_curve_non_increasing": bool((np.diff(curve) <= 1e-15).all()),
            "test_upsilon_le_1": result.test.upsilon <= 1.0,
            "no_generation_faults": all(r.status in ("inserted", "duplicate")
                                        for r in result.records),
        }
        epochs = sum(r.epochs_run for r in result.fit_results.values())
        train = self.data["train"]
        return _report(
            checks,
            ops_attempted=GENERATIONS + len(result.fit_results),
            ops_failed=failed_proposals + faulted_fits,
            work={"transitions": epochs * train.n_transitions(),
                  "trajectories": epochs * len(train.trajectories)},
            quality={"test_upsilon": result.test.upsilon,
                     "test_rollout_mse": result.test.rollout,
                     "best_val_upsilon": result.best.upsilon},
            hashes={"archive_sha256": tree_sha256(out_dir)},
        )


class FitOracleCancer:
    """The criterion-2 fit: the 2-parameter log-growth spec on untreated
    tumor data, then the one-step test MSE."""

    def __init__(self, seed: int, n: int, epochs: int | None):
        self.system = systems.builtin_system("cancer")
        self.data = systems.generate_dataset(self.system, systems.GenConfig(n=n, seed=seed))
        self.spec = dsl.parse_model_spec(LOG_TUMOR_GROWTH)
        self.init = engine.init_params(self.spec)
        self.cfg = _optim_config(seed, epochs)

    def run(self, out_dir: Path):
        result = optim.fit(self.spec, self.init, self.data["train"], self.data["val"], self.cfg)
        return result, engine.one_step_mse(self.spec, result.params, self.data["test"])

    def check(self, outcome, out_dir: Path) -> dict:
        result, test_mse = outcome
        truth = self.system.true_params.scalars
        rho_err = abs(math.exp(result.params.scalars["log_rho"]) - truth["rho"]) / truth["rho"]
        k_err = abs(math.exp(result.params.scalars["log_kcap"]) - truth["kcap"]) / truth["kcap"]
        train = self.data["train"]
        return _report(
            {"rho_within_5pct": rho_err <= 0.05, "kcap_within_5pct": k_err <= 0.05,
             "test_mse_lt_1e-6": test_mse < 1e-6},
            ops_attempted=1, ops_failed=int(result.faulted),
            work={"transitions": result.epochs_run * train.n_transitions(),
                  "trajectories": result.epochs_run * len(train.trajectories)},
            quality={"oracle_test_mse": test_mse, "oracle_param_rel_err": max(rho_err, k_err)},
            hashes={},
        )


class GenChemoRadio:
    """Dataset generation for the treated tumor system, exported per split
    and loaded back."""

    def __init__(self, seed: int, n: int):
        self.n = n
        self.system = systems.builtin_system("cancer-chemo-radio")
        self.cfg = systems.GenConfig(n=n, seed=seed)

    def run(self, out_dir: Path):
        data = systems.generate_dataset(self.system, self.cfg)
        loaded = {}
        for split, ds in data.items():
            engine.save_dataset(ds, out_dir / split, seed=self.cfg.seed)
            loaded[split] = engine.load_saved_dataset(out_dir / split)
        return data, loaded

    def check(self, outcome, out_dir: Path) -> dict:
        data, loaded = outcome
        rows = self.system.horizon + 1
        trajectories = [tr for ds in data.values() for tr in ds.trajectories]
        true_mse = engine.one_step_mse(self.system.spec, self.system.true_params, data["train"])
        checks = {
            "reload_bit_equal": all(_bit_equal(data[s], loaded[s]) for s in data),
            "true_model_train_mse_le_1e-12": true_mse <= 1e-12,
            "trajectory_count_and_rows": (len(trajectories) == 3 * self.n
                                          and all(len(tr) == rows for tr in trajectories)),
        }
        return _report(
            checks, ops_attempted=0, ops_failed=0,
            work={"transitions": sum(len(tr) - 1 for tr in trajectories),
                  "trajectories": len(trajectories)},
            quality={"true_model_train_mse": true_mse},
            hashes={"dataset_sha256": tree_sha256(out_dir)},
        )


def _bit_equal(a: engine.Dataset, b: engine.Dataset) -> bool:
    if len(a.trajectories) != len(b.trajectories) or a.schema != b.schema:
        return False
    for x, y in zip(a.trajectories, b.trajectories):
        for p, q in ((x.times, y.times), (x.states, y.states), (x.actions, y.actions)):
            if p.shape != q.shape or p.tobytes() != q.tobytes():
                return False
    return True


WORKLOADS = {
    "evolve-chemo-radio": EvolveChemoRadio,
    "fit-oracle-cancer": FitOracleCancer,
    "gen-chemo-radio": GenChemoRadio,
}
