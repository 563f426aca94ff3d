"""
Trading randomized responses for coordinate projections
=======================================================

A one-space model may answer through genuinely random per-site
conditionals over a hidden variable. Any such model, even with a
signed hidden-variable weight, can be rewritten so that the per-site
variables become plain coordinate projections on a larger space, with
all the randomness pushed into a single signed measure. The joint
tables do not move.
"""

from fractions import Fraction

import numpy as np

import lqhv as L

# Two sites, two settings each, binary outcomes. Start with an honest
# randomized model: three hidden points with positive weights, and a
# random-looking outcome distribution for every (site, setting, point).
scenario = L.Scenario((2, 2), (2, 2))
nu = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]

biased = [Fraction(1, 4), Fraction(3, 4)]
flat = [Fraction(1, 2), Fraction(1, 2)]
point0 = [Fraction(1), Fraction(0)]
point1 = [Fraction(0), Fraction(1)]

# conditionals[site][setting] maps each hidden point to an outcome
# distribution; rows must be genuine probabilities whatever nu does.
conditionals = [
    [  # site 1
        [point0, biased, point1],       # setting 1
        [flat, point1, biased],         # setting 2
    ],
    [  # site 2
        [biased, point0, flat],         # setting 1
        [point1, flat, point0],         # setting 2
    ],
]
model = L.StochasticLqHVModel(nu, conditionals)

print("hidden points:", model.omega_size)
print("joint table at settings (1, 2):")
print(model.joint_table((1, 2)))

# Determinization replaces the three-point hidden space by the joint
# coordinate space {0,1}^4 and integrates nu against all conditional
# rows at once. Tables are preserved tuple by tuple, exactly.
det = L.determinize(model, scenario)
print("\ndeterminized atom tensor shape:", det.measure.atoms.shape)
print("total mass:", det.measure.total_mass)
for t in scenario.setting_tuples():
    same = bool((model.joint_table(t) == det.measure.marginal(t)).all())
    print(f"  settings {t}: tables agree: {same}")

# On the determinized side each (site, setting) response is a
# coordinate projection; the value of site 1's second variable at a
# point of the joint space is the point's coordinate on that axis.
point = (0, 1, 1, 0)
print("variable (site 1, setting 2) at point", point, "=",
      point[scenario.axis_index(1, 2)])

# Now a signed hidden-variable weight. Take the PR box's constructed
# measure, use its 16 joint points as the hidden space with nu given
# by the signed atoms, and let every conditional deterministically
# read off the matching coordinate. The model's tables are genuine
# probability distributions even though nu is not.
pr = L.pr_box()
pr_measure = L.build_deterministic_measure(pr).measure
hidden = list(np.ndindex(*pr_measure.atoms.shape))
signed_nu = [pr_measure.atoms[pt] for pt in hidden]

coordinate_reader = [
    [
        [point1 if pt[scenario.axis_index(n, s)] else point0 for pt in hidden]
        for s in (1, 2)
    ]
    for n in (1, 2)
]
signed_model = L.StochasticLqHVModel(signed_nu, coordinate_reader)
print("\nsigned model: nu ranges over",
      sorted(set(signed_nu)), "with", len(hidden), "hidden points")
print("its table at settings (2, 2):")
print(signed_model.joint_table((2, 2)))

# Determinizing this model hands back exactly the measure we started
# from: the construction and the rewrite are consistent with each
# other.
again = L.determinize(signed_model, scenario)
print("round trip returns the original atoms:",
      bool((again.measure.atoms == pr_measure.atoms).all()))

# If the original model happens to be deterministic already (every
# conditional row a point mass), its determinization is supported on a
# single point of the joint space.
delta = L.StochasticLqHVModel([Fraction(1)], [
    [[point0], [point1]],
    [[point1], [point0]],
])
spike = L.determinize(delta, scenario)
support = [(pt, val) for pt, val in np.ndenumerate(spike.measure.atoms) if val != 0]
print("\npoint-mass model determinizes to:", support)
