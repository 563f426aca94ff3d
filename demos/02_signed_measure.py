"""
One signed measure behind every joint distribution
==================================================

A consistent scenario always admits a single normalized real-valued
measure on the product of per-(site, setting) outcome spaces whose
coordinate marginals reproduce every joint table. For genuinely
nonlocal families that measure must take negative values somewhere;
this script constructs it for the PR box and inspects the damage.
"""

from fractions import Fraction

import numpy as np

import lqhv as L
from lqhv import io, numeric

# Build the measure in exact rational arithmetic. The joint space for
# two sites with two settings and binary outcomes is {0,1}^4: one
# coordinate per (site, setting).
pr = L.pr_box()
model = L.build_deterministic_measure(pr)
measure = model.measure

print("joint space shape:", measure.atoms.shape)
print("normalization:", measure.total_mass)
print("smallest atom:", measure.min_atom)

# Every atom, labeled by the four coordinate values. Negative entries
# are what a plain probability distribution could never supply.
print("\natoms (a1, a2, b1, b2):")
for point in np.ndindex(*measure.atoms.shape):
    print(f"  {point}: {measure.atoms[point]}")

# The Jordan split separates the positive and negative parts; their
# combined mass is the total variation, which is 1 exactly when the
# measure is a probability distribution and grows with nonlocality.
jordan = L.jordan_decompose(measure)
print("\npositive mass:", jordan.positive_part.sum())
print("negative mass:", jordan.negative_part.sum())
print("total variation:", jordan.total_variation)

# Reproduction is exact: summing the measure over all coordinates
# except (1, s1) and (2, s2) returns the joint table of (s1, s2).
report = L.verify_marginals(model, pr)
print("\nlargest marginal error:", report.max_error)
print("marginal at settings (2, 2):")
print(" ", [numeric.format_scalar(v) for v in measure.marginal((2, 2)).flat])

# The construction is a signed inclusion-exclusion over site subsets.
# Its integer coefficients depend only on the setting counts. The empty
# and single-site terms are all proportional to the product of
# single-site marginals, so here they collapse to a single -3 in front
# of that product (1 - 2 - 2, each singleton weighted by its setting
# count).
print("\nsubset coefficients:", L.coefficient_table(pr.scenario))

# Everything round-trips through JSON.
io.save_measure(measure, "/tmp/pr_measure.json")
again = io.load_measure("/tmp/pr_measure.json")
print("\nJSON round trip is exact:", bool((again.atoms == measure.atoms).all()))

# Positivity of the measure is not guaranteed, but the induced family
# of an arbitrary normalized measure is always consistent, as long as
# the marginals are genuine distributions. A nudged uniform measure
# shows the reverse direction.
uniform = L.build_deterministic_measure(L.uniform_family(pr.scenario)).measure
bump = np.zeros(uniform.atoms.shape, dtype=object)
bump[0, 0, 0, 0] = Fraction(1, 32)
bump[1, 1, 1, 1] = Fraction(-1, 32)
nudged = L.SignedMeasure(pr.scenario, uniform.atoms + bump, uniform.mode)
induced = L.induced_family(nudged)
print("nudged measure still induces a consistent family:",
      L.check_nonsignaling(induced) is None)
