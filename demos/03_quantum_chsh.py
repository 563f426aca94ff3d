"""
From a quantum state to a classical-looking signed measure
==========================================================

Any finite quantum scenario (a density matrix plus per-site POVM
choices) induces a family of joint tables through the trace rule. That
family is always consistent, so the one-measure construction applies
to it unchanged. Here we run the pipeline on the singlet state with
the setting choices that maximize the CHSH combination.
"""

import numpy as np

import lqhv as L

# The two-qubit singlet and two projective measurement directions per
# site: site 1 measures z then x, site 2 the two diagonal directions.
# These are the choices that push CHSH to its quantum maximum.
q = L.chsh_optimal_scenario()
family = L.born_family(q)

print("tables are consistent:", L.check_nonsignaling(family) is None)

# Correlators via product expectations with the +1/-1 encoding of the
# binary outcomes. Three are +1/sqrt(2), the last is -1/sqrt(2).
pm = [[1.0, -1.0], [1.0, -1.0]]
for t in family.scenario.setting_tuples():
    value = L.product_expectation_family(family, t, pm)
    print(f"  correlator at settings {t}: {value:+.6f}")

chsh = L.chsh_value(family)
print(f"CHSH combination: {chsh:.9f}")
print(f"2*sqrt(2)       : {2 * np.sqrt(2):.9f}")

# The same construction that handled the PR box builds a signed
# measure for the quantum family. The violation of the local bound 2
# again forces negativity.
model = L.build_deterministic_measure(family)
measure = model.measure
jordan = L.jordan_decompose(measure)
print("\nsmallest atom:", measure.min_atom)
print("total variation:", jordan.total_variation)
print("largest marginal error:", L.verify_marginals(model, family).max_error)

# For contrast: the maximally mixed state with the same measurement
# directions gives uncorrelated fair coins, a plain product family,
# and the construction returns a genuine probability distribution.
mixed = L.QuantumScenario(L.maximally_mixed(4), q.povms)
flat_family = L.born_family(mixed)
flat = L.build_deterministic_measure(flat_family).measure
print("\nmaximally mixed state instead:")
print("  CHSH combination:", f"{L.chsh_value(flat_family):+.3f}")
print("  smallest atom:", flat.min_atom)
print("  total variation:", L.jordan_decompose(flat).total_variation)

# The measure-side expectation of any product observable agrees with
# the table-side value, which is the point of the representation.
t = (1, 2)
table_side = L.product_expectation_family(family, t, pm)
measure_side = L.product_expectation_model(model, t, pm)
print(f"\nexpectation routes at {t}: {table_side:.12f} vs {measure_side:.12f}")
