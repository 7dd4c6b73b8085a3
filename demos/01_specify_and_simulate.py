"""Write a hybrid model in the spec language, validate it, and simulate it.

A model spec is a few lines of text: parameter declarations, optional
residual networks, and one derivative line per state variable.  This demo
builds a treated-tumor model, checks it against the system schema, and
rolls it forward with an explicit Euler solver.
"""

import numpy as np

from hdtwin import Evaluator, canonicalize, init_params, parse_model_spec, validate
from hdtwin.systems import builtin_system

system = builtin_system("cancer-chemo")

text = """
# Logistic tumor growth with a chemotherapy kill term.
param growth = 0.05
param capacity = 900.0
param kill = 0.03
param decay = 0.45
d(tumor_volume)/dt = growth * tumor_volume * (1 - tumor_volume / capacity) - kill * chemotherapy_drug_concentration * tumor_volume
d(chemotherapy_drug_concentration)/dt = chemotherapy_dosage - decay * chemotherapy_drug_concentration
"""

spec = parse_model_spec(text)
problems = validate(spec, system.schema)
print("validation problems:", problems or "none")

canon = canonicalize(spec)
print("\ncanonical form (fingerprint %x):" % canon.fingerprint)
print(canon.text)

# ten days of therapy: dose 5 mg/m^3 on even days
doses = np.array([[5.0 * (day % 2 == 0)] for day in range(10)])
trajectory = Evaluator(spec, system.schema).rollout(init_params(spec), x0=[450.0, 0.0],
                                                    actions=doses, dt=1.0)

print("day  tumor_volume  drug_concentration")
for t, (volume, conc) in zip(trajectory.times, trajectory.states):
    print(f"{t:3.0f}  {volume:12.3f}  {conc:18.3f}")
