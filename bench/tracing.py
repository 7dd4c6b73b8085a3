"""Span tracing for the benchmark's traced run, recorded from outside the
library.

`install` replaces the public functions of hdtwin's layers with wrappers
that open and close a span. A module-level function is replaced at every
hdtwin module attribute that holds it, because that is the name its
callers look up (`fit` calls `hdtwin.optim.per_component_mse`, `evolve`
calls `hdtwin.orchestrator.fit`); a method is replaced on its class.
Nothing under `src/` is edited, and the untraced run never imports this
module.

Spans are kept in compact columns (name id, start, end, parent index, run
id) instead of one object per span: one measured unit of the evolve
workload makes tens of thousands of spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


class SpanLog:
    """Spans in column arrays plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self.active = False
        self._open: list[int] = []

    def open(self, name: str, now: float) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self._open.append(idx)
        return idx

    def close(self, idx: int, now: float):
        self.end[idx] = now
        self._open.pop()

    def count(self, key: str, amount: float = 1.0):
        self.counters[key] += amount

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path: Path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.columns())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (the union of the children, clipped to the parent)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    own = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(np.asarray(parent)):
        if p >= 0:
            children[int(p)].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own


# ---------------------------------------------------------------------------
# Wrapping the library


def _wrap(log: SpanLog, span: str, fn, after=None, faults=()):
    """`faults` is the exception type counted as an engine fault, or ()."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.active:
            return fn(*args, **kwargs)
        idx = log.open(span, clock())
        try:
            result = fn(*args, **kwargs)
        except faults:
            log.count("engine.faults")
            raise
        finally:
            log.close(idx, clock())
        if after is not None:
            after(log, args, result)
        return result

    return wrapper


def _rows(log, args, result):
    log.count("engine.derivatives_rows", args[2].shape[0])


def _take_bytes(log, args, batch):
    log.count("engine.take_bytes", batch.x.nbytes + batch.u.nbytes + batch.t.nbytes + batch.y.nbytes)


def _saved_bytes(log, args, result):
    log.count("engine.save_dataset_bytes",
              sum(p.stat().st_size for p in Path(args[1]).rglob("*") if p.is_file()))


def _fit_outcome(log, args, result):
    log.count("optim.epochs", result.epochs_run)
    log.count("optim.faulted_fits", int(result.faulted))
    if np.isfinite(result.val_loss):
        log.count("optim.best_epochs", result.val_curve.index(result.val_loss))


def _trajectories(log, args, result):
    log.count("systems.trajectories", sum(len(ds.trajectories) for ds in result.values()))


def _accepted(log, args, result):
    log.count("agents.accepted")


def _inserts(log, args, result):
    log.count("orchestrator.generations", len(result.records))
    log.count("orchestrator.inserted", sum(r.status == "inserted" for r in result.records))


def install(log: SpanLog):
    """Wrap the public functions of dsl, engine, optim, systems, agents and
    orchestrator. Spans are recorded only while `log.active` is true."""
    from hdtwin import agents, dsl, engine, optim, orchestrator, systems

    fault = engine.EvaluationFault
    # (span, defining owner, attribute, after-hook, counts EvaluationFault)
    functions = [
        ("dsl.parse", dsl, "parse_model_spec", None, False),
        ("dsl.validate", dsl, "validate", None, False),
        ("dsl.canonicalize", dsl, "canonicalize", None, False),
        ("engine.one_step_mse", engine, "one_step_mse", None, True),
        ("engine.per_component_mse", engine, "per_component_mse", None, True),
        ("engine.rollout_mse", engine, "rollout_mse", None, False),
        ("engine.save_dataset", engine, "save_dataset", _saved_bytes, False),
        ("engine.load_saved_dataset", engine, "load_saved_dataset", None, False),
        ("optim.fit", optim, "fit", _fit_outcome, False),
        ("optim.adam_update", optim, "adam_update", None, False),
        ("systems.generate_dataset", systems, "generate_dataset", _trajectories, False),
        ("systems.policy", systems, "sample_cancer_actions", None, False),
        ("agents.propose", agents, "propose", _accepted, False),
        ("agents.critique", agents, "critique", None, False),
        ("agents.check_proposal", agents, "check_proposal", None, False),
        ("orchestrator.evolve", orchestrator, "evolve", _inserts, False),
        ("orchestrator.evaluate_test", orchestrator, "evaluate_test_metrics", None, False),
        ("orchestrator.write_archive", orchestrator, "write_run_archive", None, False),
    ]
    methods = [
        ("engine.evaluator_build", engine.Evaluator, "__init__", None, False),
        ("engine.derivatives", engine.Evaluator, "derivatives", _rows, False),
        ("engine.loss_and_grad", engine.Evaluator, "loss_and_grad", None, True),
        ("engine.transitions", engine.Dataset, "transitions", None, False),
        ("engine.take", engine.TransitionBatch, "take", _take_bytes, False),
    ]
    # `fit` looks the full-validation pass up as hdtwin.optim.per_component_mse;
    # that binding gets its own span so the pass is told apart from test scoring.
    renamed = {("hdtwin.optim", "per_component_mse"): "optim.validate_pass"}

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hdtwin" or name.startswith("hdtwin."))]
    for span, owner, attr, after, faults in functions:
        original = getattr(owner, attr)
        wrappers: dict[str, object] = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is not original:
                    continue
                name_span = renamed.get((module.__name__, name), span)
                if name_span not in wrappers:
                    wrappers[name_span] = _wrap(log, name_span, original, after,
                                                fault if faults else ())
                setattr(module, name, wrappers[name_span])
    for span, owner, attr, after, faults in methods:
        setattr(owner, attr, _wrap(log, span, owner.__dict__[attr], after,
                                   fault if faults else ()))


# ---------------------------------------------------------------------------
# Per-layer metrics

# The derivative forward pass, split by the span that called it.
_DERIVATIVE_PARENTS = {
    "engine.derivatives.in_loss_s": ("engine.loss_and_grad",),
    "engine.derivatives.in_validate_s": ("optim.validate_pass", "engine.per_component_mse",
                                         "engine.one_step_mse"),
    "engine.derivatives.in_generate_s": ("systems.generate_dataset",),
    "engine.derivatives.in_rollout_s": ("engine.rollout_mse",),
}

LAYER_UNITS = {
    "dsl.parse_calls": "count", "dsl.parse_s": "s",
    "dsl.validate_calls": "count", "dsl.validate_s": "s",
    "dsl.canonicalize_calls": "count", "dsl.canonicalize_s": "s",
    "engine.evaluator_builds": "count",
    "engine.derivatives_calls": "count", "engine.derivatives_rows": "rows",
    "engine.derivatives.in_loss_s": "s", "engine.derivatives.in_validate_s": "s",
    "engine.derivatives.in_generate_s": "s", "engine.derivatives.in_rollout_s": "s",
    "engine.loss_and_grad_calls": "count", "engine.loss_and_grad_self_s": "s",
    "engine.transitions_calls": "count", "engine.transitions_s": "s",
    "engine.take_calls": "count", "engine.take_s": "s", "engine.take_bytes": "B",
    "engine.rollout_mse_s": "s",
    "engine.save_dataset_s": "s", "engine.save_dataset_bytes": "B",
    "engine.load_saved_dataset_s": "s",
    "engine.faults": "count",
    "optim.fit_calls": "count", "optim.fit_self_s": "s",
    "optim.epochs": "count", "optim.batches": "count",
    "optim.validate_pass_calls": "count", "optim.validate_pass_self_s": "s",
    "optim.adam_update_calls": "count", "optim.adam_update_s": "s",
    "optim.faulted_fits": "count", "optim.useful_epoch_ratio": "ratio",
    "systems.generate_dataset_self_s": "s", "systems.trajectories": "count",
    "systems.policy_calls": "count", "systems.policy_s": "s",
    "agents.propose_calls": "count", "agents.propose_s": "s",
    "agents.critique_calls": "count", "agents.critique_s": "s",
    "agents.proposal_accept_ratio": "ratio",
    "orchestrator.evolve_self_s": "s", "orchestrator.evaluate_test_s": "s",
    "orchestrator.write_archive_s": "s", "orchestrator.insert_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog, units: int) -> dict[str, float]:
    """Per-layer metrics for one measured unit: span counts and times over
    runs 1.. divided by `units`, plus ratios. A `_s` metric is the
    inclusive time in the span, a `_self_s` metric its self time."""
    cols = log.columns()
    span_names = np.array(log.names + [""], dtype=object)[cols["name"]]
    parent_names = np.append(span_names, "")[cols["parent"]]  # a root's parent -1 reads ""
    duration = cols["end"] - cols["start"]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    counted = cols["run"] >= 1

    def pick(span):
        return counted & (span_names == span)

    def calls(span):
        return float(np.count_nonzero(pick(span))) / units

    def total(span):
        return float(duration[pick(span)].sum()) / units

    def self_s(span):
        return float(own[pick(span)].sum()) / units

    c = log.counters
    m = {
        "dsl.parse_calls": calls("dsl.parse"), "dsl.parse_s": total("dsl.parse"),
        "dsl.validate_calls": calls("dsl.validate"), "dsl.validate_s": total("dsl.validate"),
        "dsl.canonicalize_calls": calls("dsl.canonicalize"),
        "dsl.canonicalize_s": total("dsl.canonicalize"),
        "engine.evaluator_builds": calls("engine.evaluator_build"),
        "engine.derivatives_calls": calls("engine.derivatives"),
        "engine.derivatives_rows": c["engine.derivatives_rows"] / units,
        "engine.loss_and_grad_calls": calls("engine.loss_and_grad"),
        "engine.loss_and_grad_self_s": self_s("engine.loss_and_grad"),
        "engine.transitions_calls": calls("engine.transitions"),
        "engine.transitions_s": total("engine.transitions"),
        "engine.take_calls": calls("engine.take"), "engine.take_s": total("engine.take"),
        "engine.take_bytes": c["engine.take_bytes"] / units,
        "engine.rollout_mse_s": total("engine.rollout_mse"),
        "engine.save_dataset_s": total("engine.save_dataset"),
        "engine.save_dataset_bytes": c["engine.save_dataset_bytes"] / units,
        "engine.load_saved_dataset_s": total("engine.load_saved_dataset"),
        "engine.faults": c["engine.faults"] / units,
        "optim.fit_calls": calls("optim.fit"), "optim.fit_self_s": self_s("optim.fit"),
        "optim.epochs": c["optim.epochs"] / units,
        "optim.batches": float(np.count_nonzero(
            pick("engine.loss_and_grad") & (parent_names == "optim.fit"))) / units,
        "optim.validate_pass_calls": calls("optim.validate_pass"),
        "optim.validate_pass_self_s": self_s("optim.validate_pass"),
        "optim.adam_update_calls": calls("optim.adam_update"),
        "optim.adam_update_s": total("optim.adam_update"),
        "optim.faulted_fits": c["optim.faulted_fits"] / units,
        "optim.useful_epoch_ratio": _ratio(c["optim.best_epochs"], c["optim.epochs"]),
        "systems.generate_dataset_self_s": self_s("systems.generate_dataset"),
        "systems.trajectories": c["systems.trajectories"] / units,
        "systems.policy_calls": calls("systems.policy"), "systems.policy_s": total("systems.policy"),
        "agents.propose_calls": calls("agents.propose"), "agents.propose_s": total("agents.propose"),
        "agents.critique_calls": calls("agents.critique"),
        "agents.critique_s": total("agents.critique"),
        "agents.proposal_accept_ratio": _ratio(c["agents.accepted"] / units,
                                               calls("agents.check_proposal")),
        "orchestrator.evolve_self_s": self_s("orchestrator.evolve"),
        "orchestrator.evaluate_test_s": total("orchestrator.evaluate_test"),
        "orchestrator.write_archive_s": total("orchestrator.write_archive"),
        "orchestrator.insert_ratio": _ratio(c["orchestrator.inserted"],
                                            c["orchestrator.generations"]),
    }
    deriv = pick("engine.derivatives")
    for metric, parents in _DERIVATIVE_PARENTS.items():
        m[metric] = float(own[deriv & np.isin(parent_names, parents)].sum()) / units
    return m
