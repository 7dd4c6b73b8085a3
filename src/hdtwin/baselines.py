"""Non-agentic reference models.

A sparse-regression discoverer (sequential-threshold least squares over a
degree-2 polynomial library), hand-written mechanistic specs for the
benchmark domains, and a pure-MLP twin.  Everything is emitted as an
ordinary model spec so fitting and evaluation run through the same
pipeline as evolved models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from hdtwin.dsl import (
    ComponentDef,
    Expr,
    ModelSpec,
    ParamDecl,
    SystemSchema,
    parse_model_spec,
)
from hdtwin.engine import Dataset, Trajectory, require_integers, require_numbers


@dataclass
class SindyConfig:
    degree: int = 2
    alpha: float = 0.5        # ridge strength inside each least-squares solve
    threshold: float = 0.02   # coefficients below this are zeroed (1e-5 for the epidemic data)

    def __post_init__(self):
        require_integers(self, "degree")
        require_numbers(self, "alpha", "threshold")
        if self.degree < 1 or self.alpha < 0 or self.threshold < 0:
            raise ValueError("degree >= 1, alpha >= 0, threshold >= 0 required")


@dataclass
class SindyResult:
    spec: ModelSpec
    coefficients: np.ndarray      # (d_x, n_features), zeros where pruned
    feature_names: list[str]
    condition_number: float


def finite_difference_derivatives(traj: Trajectory) -> np.ndarray:
    """Forward first-order difference (x[k+1] - x[k]) / dt, aligned to step k."""
    if len(traj) < 2:
        raise ValueError("need at least two samples for finite differences")
    dt = traj.times[1] - traj.times[0]
    return np.diff(traj.states, axis=0) / dt


def _monomials(var_names: tuple[str, ...], degree: int):
    """All monomials of total degree <= degree, constant first."""
    out: list[tuple[str, ...]] = [()]
    for d in range(1, degree + 1):
        out.extend(itertools.combinations_with_replacement(var_names, d))
    return out


def _feature_name(mono: tuple[str, ...]) -> str:
    return "1" if not mono else "*".join(mono)


def _library_matrix(values: dict[str, np.ndarray], monos) -> np.ndarray:
    n = len(next(iter(values.values())))
    cols = []
    for mono in monos:
        col = np.ones(n)
        for name in mono:
            col = col * values[name]
        cols.append(col)
    return np.column_stack(cols)


def _stlsq(theta: np.ndarray, target: np.ndarray, cfg: SindyConfig):
    """Sequential-threshold ridge regression for one state dimension."""
    n_feat = theta.shape[1]
    active = np.ones(n_feat, dtype=bool)
    coef = np.zeros(n_feat)
    for _ in range(n_feat + 1):
        sub = theta[:, active]
        gram = sub.T @ sub + cfg.alpha * np.eye(sub.shape[1])
        coef_active = np.linalg.solve(gram, sub.T @ target)
        coef = np.zeros(n_feat)
        coef[active] = coef_active
        keep = np.abs(coef) >= cfg.threshold
        if keep.sum() == 0:
            return np.zeros(n_feat)
        if (keep == active).all():
            break
        active = keep
    return coef


def sindy_fit(dataset: Dataset, cfg: SindyConfig | None = None) -> SindyResult:
    """Discover polynomial dynamics from trajectories.

    Builds the degree-<=cfg.degree monomial library over states and
    actions (constant term included), regresses forward-difference
    derivative estimates per state dimension with ridge-regularized
    sequential-threshold least squares, and emits the surviving terms as
    a model spec with the fitted coefficients as parameter inits.
    """
    cfg = cfg or SindyConfig()
    schema = dataset.schema
    var_names = schema.state_names + schema.action_names
    monos = _monomials(var_names, cfg.degree)

    batch = dataset.transitions()  # the states and actions at every step k
    derivs = np.vstack([finite_difference_derivatives(tr) for tr in dataset.trajectories
                        if len(tr) >= 2])
    values = {n: batch.x[:, i] for i, n in enumerate(schema.state_names)}
    values.update({n: batch.u[:, i] for i, n in enumerate(schema.action_names)})
    theta = _library_matrix(values, monos)
    cond = float(np.linalg.cond(theta))

    coefficients = np.zeros((schema.d_x, len(monos)))
    for j in range(schema.d_x):
        coefficients[j] = _stlsq(theta, derivs[:, j], cfg)

    params: list[ParamDecl] = []
    components: list[ComponentDef] = []
    for j, state in enumerate(schema.state_names):
        terms: list[Expr] = []
        for k, mono in enumerate(monos):
            c = coefficients[j, k]
            if c == 0.0:
                continue
            pname = f"w{j}_{k}"
            params.append(ParamDecl(pname, float(c)))
            term: Expr = Expr.ref(pname)
            for name in mono:
                term = Expr.binary("mul", term, Expr.ref(name))
            terms.append(term)
        if not terms:
            expr: Expr = Expr.const(0.0)
        else:
            expr = terms[0]
            for t in terms[1:]:
                expr = Expr.binary("add", expr, t)
        components.append(ComponentDef(state, expr))
    spec = ModelSpec(tuple(components), tuple(params))
    return SindyResult(spec, coefficients, [_feature_name(m) for m in monos], cond)


# ---------------------------------------------------------------------------
# Domain-specific mechanistic baselines


_BASELINE_TEXT = {
    "logistic-tumor": """
param growth = 0.01
param capacity = 1000.0
d(tumor_volume)/dt = growth * tumor_volume * (1.0 - tumor_volume / capacity)
""",
    "logistic-tumor-chemo": """
param growth = 0.01
param capacity = 1000.0
param chemo_kill = 0.02
param decay = 0.4
d(tumor_volume)/dt = growth * tumor_volume * (1.0 - tumor_volume / capacity) - chemo_kill * chemotherapy_drug_concentration * tumor_volume
d(chemotherapy_drug_concentration)/dt = chemotherapy_dosage - decay * chemotherapy_drug_concentration
""",
    "logistic-tumor-chemo-radio": """
param growth = 0.01
param capacity = 1000.0
param chemo_kill = 0.02
param radio_kill = 0.03
param radio_kill_sq = 0.003
param decay = 0.4
d(tumor_volume)/dt = growth * tumor_volume * (1.0 - tumor_volume / capacity) - chemo_kill * chemotherapy_drug_concentration * tumor_volume - (radio_kill * radiotherapy_dosage + radio_kill_sq * radiotherapy_dosage ^ 2.0) * tumor_volume
d(chemotherapy_drug_concentration)/dt = chemotherapy_dosage - decay * chemotherapy_drug_concentration
""",
    "lv2": """
param alpha = 0.5
param beta = 0.1
param gamma = 0.5
param delta = 0.05
d(hare_population)/dt = alpha * hare_population - beta * hare_population * lynx_population
d(lynx_population)/dt = delta * hare_population * lynx_population - gamma * lynx_population
""",
    "lv3": """
param alpha = 0.5
param beta = 0.5
param delta = 0.3
param gamma = 0.3
param epsilon = 0.4
param mu = 0.2
param nu = 0.2
d(prey_population)/dt = prey_population * (alpha - beta * intermediate_population - delta * top_predators_population)
d(intermediate_population)/dt = intermediate_population * (epsilon * prey_population - gamma)
d(top_predators_population)/dt = top_predators_population * (nu * prey_population - mu)
""",
    "seir": """
param beta = 0.5
param sigma = 0.3
param gamma = 0.2
param delta = 0.01
d(susceptible)/dt = -beta * susceptible * infected
d(exposed)/dt = beta * susceptible * infected - sigma * exposed
d(infected)/dt = sigma * exposed - (gamma + delta) * infected
d(recovered)/dt = gamma * infected - delta * infected
""",
}

BASELINE_IDS = (*_BASELINE_TEXT, "mlp-twin")


def builtin_baseline_spec(baseline_id: str, schema: SystemSchema | None = None) -> ModelSpec:
    """A reference spec by id; `mlp-twin` needs the schema it will model."""
    if baseline_id == "mlp-twin":
        if schema is None:
            raise ValueError("mlp-twin needs the system schema")
        inputs = ", ".join(schema.state_names + schema.action_names)
        lines = [f"mlp net({inputs}) hidden [128, 128, 128] act tanh outputs {schema.d_x}"]
        lines += [f"d({name})/dt = net[{j}]" for j, name in enumerate(schema.state_names)]
        return parse_model_spec("\n".join(lines))
    text = _BASELINE_TEXT.get(baseline_id)
    if text is None:
        raise ValueError(f"unknown baseline {baseline_id!r}; available: {', '.join(BASELINE_IDS)}")
    return parse_model_spec(text)
