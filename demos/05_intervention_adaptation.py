"""Adapt a fitted epidemic model to an unseen intervention by editing one
parameter.

A lockdown-style intervention scales the transmission rate by
INTERVENTION_SCALE from INTERVENTION_DAY on, but only the test data sees
it.  A mechanistic model fitted on pre-intervention data can be adapted
by scaling its own transmission parameter, with no new training data;
rolling out from the intervention day then tracks the changed system,
while the unadapted model keeps predicting the old dynamics.
"""

import numpy as np

from hdtwin.baselines import builtin_baseline_spec
from hdtwin.engine import Evaluator, init_params
from hdtwin.optim import OptimConfig, fit
from hdtwin.systems import (
    INTERVENTION_DAY,
    INTERVENTION_SCALE,
    GenConfig,
    builtin_system,
    generate_dataset,
)

system = builtin_system("seir-covid")
data = generate_dataset(system, GenConfig(n=24, seed=11, intervention=True))

spec = builtin_baseline_spec("seir")
fitted = fit(spec, init_params(spec), data["train"], data["val"], OptimConfig(seed=0))
print("fitted on pre-intervention data:",
      {k: round(v, 4) for k, v in fitted.params.scalars.items()})

adapted = fitted.params.copy()
adapted.scalars["beta"] *= INTERVENTION_SCALE
print("adapted transmission rate:", round(adapted.scalars["beta"], 4))


evaluator = Evaluator(spec, system.schema)  # compiled once, for every rollout below


def mse_from_day(params):
    total = count = 0
    for tr in data["test"].trajectories:
        steps = len(tr) - 1 - INTERVENTION_DAY
        out = evaluator.rollout(params, tr.states[INTERVENTION_DAY], np.zeros((steps, 0)),
                                system.schema.dt, t0=float(INTERVENTION_DAY))
        total += np.sum((out.states - tr.states[INTERVENTION_DAY:]) ** 2)
        count += out.states.size
    return total / count


stale = mse_from_day(fitted.params)
fresh = mse_from_day(adapted)
print(f"\nrollout MSE from day {INTERVENTION_DAY} against the intervened system:")
print(f"  unadapted model: {stale:.3e}")
print(f"  adapted model:   {fresh:.3e}  ({fresh / stale:.2e} of the unadapted error)")
