"""Ground-truth dynamical systems and seeded dataset generation.

Every built-in system carries its true dynamics as an ordinary model
spec.  A split draws all its uniforms up front, in per-trajectory stream
order, then steps its trajectories together through the engine's one
Euler loop (`Evaluator.euler_rollout`); `Evaluator.rollout` reproduces
them exactly.  This module reads and writes no file: the engine saves
and loads datasets, external single-series CSVs included.

Systems:
  cancer, cancer-chemo, cancer-chemo-radio
      Lung-tumor growth under optional chemotherapy/radiotherapy, with a
      tumor-size-dependent Bernoulli dosing policy.
  seir-covid
      A four-compartment epidemic surrogate on normalized populations.
  lv2, lv3-plankton
      Two- and three-species predator-prey systems.
  synthetic-1 .. synthetic-5
      Procedural variants of the treated tumor system with extra
      trigonometric, time, and interaction terms.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from hdtwin.dsl import ModelSpec, SystemSchema, VarSpec, parse_model_spec
from hdtwin.engine import (
    Dataset,
    Evaluator,
    ParamVector,
    Trajectory,
    init_params,
    require_integers,
    sigmoid,
)

@dataclass(frozen=True)
class CancerPolicyParams:
    """Dose-assignment policy: treatment probability rises with tumor size."""

    d_max: float = 13.0          # largest tumor diameter, cm
    theta_c: float = 13.0 / 2.0
    theta_r: float = 13.0 / 2.0
    gamma_c: float = 2.0
    gamma_r: float = 2.0
    chemo_quantum: float = 5.0   # mg/m^3 per administration
    radio_quantum: float = 2.0   # Gy per fraction


@dataclass(frozen=True)
class SystemDef:
    id: str
    schema: SystemSchema
    spec: ModelSpec              # true dynamics, engine-evaluable
    true_params: ParamVector
    horizon: int                 # steps per trajectory
    default_n: int               # trajectories per split
    family: str                  # "cancer" | "seir" | "lv"
    title: str
    var_notes: dict[str, str]
    policy: CancerPolicyParams | None = None
    target_loss: str = "1e-6"    # the validation loss the requirements prompt asks for


@dataclass
class GenConfig:
    n: int | None = None         # trajectories per split; None uses the system default
    seed: int = 0
    ood: bool = False            # disjoint train/test initial-volume supports, dt = 1/24
    intervention: bool = False   # seir: scale the test split's beta (INTERVENTION_DAY)

    def __post_init__(self):
        require_integers(self, *(() if self.n is None else ("n",)), "seed")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")


# ---------------------------------------------------------------------------
# Built-in definitions

_TUMOR_RANGE = VarSpec("tumor_volume", 0.01433, 1170.861)
_CONC_RANGE = VarSpec("chemotherapy_drug_concentration", 0.0, 9.9975)
_CHEMO_DOSE = VarSpec("chemotherapy_dosage", 0.0, 5.0)
_RADIO_DOSE = VarSpec("radiotherapy_dosage", 0.0, 2.0)
_TREATED_SCHEMA = SystemSchema(states=(_TUMOR_RANGE, _CONC_RANGE),
                               actions=(_CHEMO_DOSE, _RADIO_DOSE), time_units="days", dt=1.0)

_CANCER_PARAMS = """
param rho = 7e-05
param kcap = 30.0
"""
# alpha_r / beta_r = 10 by construction
_TREATED_PARAMS = (_CANCER_PARAMS + "param beta_c = 0.028\n"
                   "param alpha_r = 0.0398\nparam beta_r = 0.00398\n")
_DRUG_LINE = ("d(chemotherapy_drug_concentration)/dt = chemotherapy_dosage"
              " - 0.5 * chemotherapy_drug_concentration\n")


def _treated(params: str = "", extra: str = "", log_arg: str = "tumor_volume") -> str:
    """The chemo-and-radio tumor spec: its parameters, plus `params`, and a
    tumor line with `extra` added inside the growth bracket."""
    tumor = (f"d(tumor_volume)/dt = (rho * log(kcap / {log_arg})"
             " - beta_c * chemotherapy_drug_concentration"
             f" - (alpha_r * radiotherapy_dosage + beta_r * radiotherapy_dosage ^ 2.0){extra})"
             " * tumor_volume\n")
    return _TREATED_PARAMS + params + tumor + _DRUG_LINE


_CANCER_NOTES = {
    "tumor_volume": "Volume of the tumor with units cm^3",
    "chemotherapy_drug_concentration":
        "Concentration of the chemotherapy drug vinblastine with units mg/m^3",
    "chemotherapy_dosage": "Dosage of the chemotherapy drug vinblastine with units mg/m^3",
    "radiotherapy_dosage": "Dosage of the radiotherapy with units Gy",
}

_CANCER_TITLE = ("Prediction of Treatment Response for Combined Chemo and Radiation"
                 " Therapy for Non-Small Cell Lung Cancer Patients Using a"
                 " Bio-Mathematical Model")

# what every tumor system shares; the treated ones also share the schema
_CANCER = dict(horizon=60, default_n=1000, family="cancer", title=_CANCER_TITLE,
               var_notes=_CANCER_NOTES)
_TREATED = dict(_CANCER, schema=_TREATED_SCHEMA, policy=CancerPolicyParams())

# Every built-in system, by id: its spec text and the SystemDef fields
# besides id, spec and true_params.  Specs are parsed only when built.
_SYSTEMS = {
    "cancer": dict(
        _CANCER,
        schema=SystemSchema(states=(_TUMOR_RANGE,), actions=(), time_units="days", dt=1.0),
        text=_CANCER_PARAMS
        + "d(tumor_volume)/dt = rho * log(kcap / tumor_volume) * tumor_volume\n",
    ),
    "cancer-chemo": dict(
        _CANCER,
        schema=SystemSchema(states=(_TUMOR_RANGE, _CONC_RANGE), actions=(_CHEMO_DOSE,),
                            time_units="days", dt=1.0),
        policy=CancerPolicyParams(),
        text=_CANCER_PARAMS + "param beta_c = 0.028\n"
        + "d(tumor_volume)/dt = (rho * log(kcap / tumor_volume)"
          " - beta_c * chemotherapy_drug_concentration) * tumor_volume\n"
        + _DRUG_LINE,
    ),
    "cancer-chemo-radio": dict(_TREATED, text=_treated()),
    "seir-covid": dict(
        schema=SystemSchema(
            states=tuple(VarSpec(n, 0.0, 1.0)
                         for n in ("susceptible", "exposed", "infected", "recovered")),
            actions=(), time_units="days", dt=1.0,
        ),
        text="""
param beta = 0.3
param sigma = 0.2
param gamma = 0.1
d(susceptible)/dt = -beta * susceptible * infected
d(exposed)/dt = beta * susceptible * infected - sigma * exposed
d(infected)/dt = sigma * exposed - gamma * infected
d(recovered)/dt = gamma * infected
""",
        horizon=60, default_n=24, family="seir",
        title="Prediction model of COVID-19 Epidemic Dynamics",
        var_notes={
            "susceptible": "Ratio of the population that is susceptible to the virus.",
            "exposed": "Ratio of the population that is exposed to the virus, not yet infectious.",
            "infected":
                "Ratio of the population that is actively carrying and transmitting the virus.",
            "recovered": "Ratio of the population that have recovered from the virus,"
                         " including those who are deceased.",
        },
        target_loss="1e-10",
    ),
    "lv2": dict(
        schema=SystemSchema(
            states=(VarSpec("hare_population", 0.0, 30.0),
                    VarSpec("lynx_population", 0.0, 15.0)),
            actions=(), time_units="years", dt=0.05,
        ),
        text="""
param alpha = 1.1
param beta = 0.4
param gamma = 0.4
param delta = 0.1
d(hare_population)/dt = alpha * hare_population - beta * hare_population * lynx_population
d(lynx_population)/dt = delta * hare_population * lynx_population - gamma * lynx_population
""",
        horizon=160, default_n=20, family="lv",
        title="Modeling Di-Trophic Prey-Predator Dynamics in a Two-Species"
              " Ecological System",
        var_notes={
            "hare_population": "Annual count of hare pelts, a proxy for the hare"
                               " population size, in tens of thousands.",
            "lynx_population": "Annual count of lynx pelts, a proxy for the lynx"
                               " population size, in tens of thousands.",
        },
    ),
    "lv3-plankton": dict(
        schema=SystemSchema(
            states=(VarSpec("prey_population", 0.0, 5.0),
                    VarSpec("intermediate_population", 0.0, 5.0),
                    VarSpec("top_predators_population", 0.0, 5.0)),
            actions=(), time_units="days", dt=0.05,
        ),
        text="""
param alpha = 0.8
param beta = 0.9
param delta = 0.5
param gamma = 0.3
param epsilon = 0.6
param mu = 0.2
param nu = 0.3
d(prey_population)/dt = prey_population * (alpha - beta * intermediate_population - delta * top_predators_population)
d(intermediate_population)/dt = intermediate_population * (epsilon * prey_population - gamma)
d(top_predators_population)/dt = top_predators_population * (nu * prey_population - mu)
""",
        horizon=60, default_n=20, family="lv",
        title="Modeling Artificial Tri-Trophic Prey-Predator Oscillations in a"
              " Simplified Ecological System",
        var_notes={
            "prey_population": "Total count of algae, serving as the primary prey",
            "intermediate_population": "Total count of flagellates, acting as intermediate"
                                       " predators and prey",
            "top_predators_population": "Total count of rotifers, representing top predators",
        },
    ),
    "synthetic-1": dict(_TREATED, text=_treated("param gamma_s = 0.02\nparam omega_s = 0.3\n",
                                                " + gamma_s * sin(omega_s * t)")),
    "synthetic-2": dict(_TREATED, text=_treated("param delta_s = 0.005\n", " - delta_s * 10.0")),
    "synthetic-3": dict(_TREATED, text=_treated(log_arg="(tumor_volume + 10.0)")),
    "synthetic-4": dict(_TREATED, text=_treated("param eps_s = 0.02\nparam phi_s = 0.3\n",
                                                " + eps_s * cos(phi_s * t)")),
    "synthetic-5": dict(_TREATED, text=_treated(
        "param theta_s = 0.01\n",
        " - theta_s * chemotherapy_drug_concentration * radiotherapy_dosage")),
}

BUILTIN_IDS = tuple(_SYSTEMS)


def builtin_system(sys_id: str) -> SystemDef:
    """Fully parameterized definition for one of the built-in systems."""
    if sys_id not in _SYSTEMS:
        raise ValueError(f"unknown system {sys_id!r}; available: {', '.join(BUILTIN_IDS)}")
    fields = dict(_SYSTEMS[sys_id])
    spec = parse_model_spec(fields.pop("text"))
    return SystemDef(id=sys_id, spec=spec, true_params=init_params(spec), **fields)


# ---------------------------------------------------------------------------
# Treatment policy


def volume_to_diameter(volume):
    """Sphere relation D = (6 V / pi)^(1/3); elementwise on arrays."""
    return (6.0 * np.maximum(volume, 0.0) / math.pi) ** (1.0 / 3.0)


def cancer_dose_probabilities(volume, policy: CancerPolicyParams):
    """(p_chemo, p_radio) for a tumor volume; elementwise on arrays."""
    d_bar = volume_to_diameter(volume)
    p_c = sigmoid(policy.gamma_c / policy.d_max * (d_bar - policy.theta_c))
    p_r = sigmoid(policy.gamma_r / policy.d_max * (d_bar - policy.theta_r))
    return p_c, p_r


def sample_cancer_actions(volume: float, policy: CancerPolicyParams,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Bernoulli chemo/radio doses from the size-dependent policy."""
    p_c, p_r = cancer_dose_probabilities(volume, policy)
    chemo = policy.chemo_quantum if rng.random() < p_c else 0.0
    radio = policy.radio_quantum if rng.random() < p_r else 0.0
    return chemo, radio


# ---------------------------------------------------------------------------
# Dataset generation


def _draws_per_trajectory(system: SystemDef) -> int:
    """Uniforms one trajectory consumes, in stream order: its initial state,
    then under a dosing policy a (chemo, radio) pair at each of its
    horizon + 1 states; both are drawn even where only chemo is used."""
    if system.family == "lv":
        return system.schema.d_x
    return 1 + 2 * (system.horizon + 1) if system.policy is not None else 1


def _generate_split(system: SystemDef, ev: Evaluator, draws: np.ndarray,
                    volume_range: tuple[float, float], dt: float,
                    scaled: ParamVector | None) -> list[Trajectory]:
    """One trajectory per row of `draws`, using `scaled` parameters from
    INTERVENTION_DAY on.  lo + (hi - lo) * u is what Generator.uniform computes."""
    n, d_x, policy = draws.shape[0], system.schema.d_x, system.policy
    if system.family == "cancer":
        lo, hi = volume_range
        x0 = np.column_stack([lo + (hi - lo) * draws[:, 0], np.zeros((n, d_x - 1))])
    elif system.family == "seir":
        i0 = 0.01 + (0.1 - 0.01) * draws[:, 0]
        x0 = np.column_stack([1.0 - i0, np.zeros(n), i0, np.zeros(n)])
    else:  # lv: wide starts, so transients excite every interaction term
        x0 = 0.2 + (2.5 - 0.2) * draws[:, :d_x]
    times = np.tile(np.arange(system.horizon + 1) * dt, (n, 1))

    def inputs(k, x):
        switched = scaled is not None and times[0, k] >= INTERVENTION_DAY
        params = scaled if switched else system.true_params
        if policy is None:
            return params, np.zeros((n, system.schema.d_u))
        p_c, p_r = cancer_dose_probabilities(x[:, 0], policy)
        chemo = np.where(draws[:, 1 + 2 * k] < p_c, policy.chemo_quantum, 0.0)
        radio = np.where(draws[:, 2 + 2 * k] < p_r, policy.radio_quantum, 0.0)
        return params, np.column_stack([chemo, radio])[:, :system.schema.d_u]

    states, actions = ev.euler_rollout(x0, times, dt, inputs)
    return [Trajectory(times[i], states[i], actions[i]) for i in range(n)]


OOD_TRAIN_VOLUMES = (0.0, 574.0)
OOD_TEST_VOLUMES = (804.0, 1149.0)
IID_VOLUMES = (0.0, 1149.0)
INTERVENTION_DAY = 19      # the intervention's first day on the test split
INTERVENTION_SCALE = 0.25  # its factor on the transmission rate beta


def generate_dataset(system: SystemDef, cfg: GenConfig) -> dict[str, Dataset]:
    """Seeded train/val/test datasets (plus `test_iid` in OOD mode).

    The three splits draw from disjoint child streams of the config seed,
    so they share no trajectory and regeneration is byte-reproducible.
    """
    if cfg.ood and system.family != "cancer":
        raise ValueError("OOD mode is defined for the tumor systems only")
    if cfg.intervention and system.family != "seir":
        raise ValueError("intervention mode is defined for the epidemic system only")
    schema = system.schema
    if cfg.ood:
        schema = dataclasses.replace(schema, dt=1.0 / 24.0)
    ev = Evaluator(system.spec, system.schema)
    scaled = None
    if cfg.intervention:
        scaled = system.true_params.copy()
        scaled.scalars["beta"] *= INTERVENTION_SCALE

    n = cfg.n or system.default_n
    names = ["train", "val", "test", "test_iid"] if cfg.ood else ["train", "val", "test"]
    streams = np.random.SeedSequence(cfg.seed).spawn(len(names))
    out: dict[str, Dataset] = {}
    for name, stream in zip(names, streams):
        rng = np.random.default_rng(stream)
        if cfg.ood:
            volumes = OOD_TEST_VOLUMES if name == "test" else OOD_TRAIN_VOLUMES
        else:
            volumes = IID_VOLUMES
        draws = rng.random((n, _draws_per_trajectory(system)))
        use_scaled = scaled if (cfg.intervention and name == "test") else None
        trajectories = _generate_split(system, ev, draws, volumes, schema.dt, use_scaled)
        split = "test" if name == "test_iid" else name
        out[name] = Dataset(trajectories, schema, split)
    return out


# ---------------------------------------------------------------------------
# Modeling-context text


def system_description(system: SystemDef, n_trajectories: int | None = None) -> str:
    """The natural-language system description shown to the modeling agent."""
    sch = system.schema
    n = n_trajectories or system.default_n
    states = ", and ".join(sch.state_names) if sch.d_x > 1 else sch.state_names[0]
    if sch.d_u:
        acts = ", and ".join(sch.action_names) if sch.d_u > 1 else sch.action_names[0]
        second = f"Here you must model the state differential of {states}; with the input actions of {acts}."
    else:
        second = f"Here you must model the state differential of {states}; with no input actions."
    lines = [system.title, "", second, "", "Description of the variables:"]
    for v in list(sch.states) + list(sch.actions):
        note = system.var_notes.get(v.name, v.name.replace("_", " "))
        lines.append(f"* {v.name}: {note}")
    lines += ["", f"The time units is in {sch.time_units}.", "",
              "Additionally these variables have the ranges of:"]
    for v in list(sch.states) + list(sch.actions):
        lines.append(f"* {v.name}: [{v.low}, {v.high}]")
    unit = {"cancer": "patients", "seir": "countries"}.get(system.family, "trajectories")
    lines += ["", f"The training dataset consists of {n} {unit}, where each is observed"
                  f" for {system.horizon} {sch.time_units}."]
    return "\n".join(lines)
