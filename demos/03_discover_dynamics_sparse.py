"""Discover governing equations with sparse polynomial regression.

On noiseless predator-prey trajectories, sequential-threshold least
squares over a degree-2 monomial library recovers exactly the terms of
the true equations; everything else is pruned to zero.
"""

from hdtwin.baselines import sindy_fit
from hdtwin.engine import init_params, one_step_mse
from hdtwin.systems import GenConfig, builtin_system, generate_dataset

system = builtin_system("lv2")
data = generate_dataset(system, GenConfig(n=10, seed=0))

result = sindy_fit(data["train"])
print("library features:", result.feature_names)
print("library condition number: %.1f" % result.condition_number)

print("\ndiscovered dynamics:")
for j, state in enumerate(system.schema.state_names):
    terms = [
        f"{coef:+.4f} * {name}" if name != "1" else f"{coef:+.4f}"
        for coef, name in zip(result.coefficients[j], result.feature_names)
        if coef != 0.0
    ]
    print(f"  d({state})/dt = {' '.join(terms)}")

print("\ntrue dynamics: 1.1 h - 0.4 h l  /  0.1 h l - 0.4 l")
mse = one_step_mse(result.spec, init_params(result.spec), data["test"])
print(f"held-out test MSE of the emitted spec: {mse:.3e}")
