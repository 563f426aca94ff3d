"""
Checking a correlation scenario for consistency
===============================================

A correlation scenario is a family of joint probability tables, one per
choice of measurement setting at each site. Before any single hidden
space can describe the family, the marginals over any shared site
subset have to agree across all setting choices that coincide there.
This script builds a few families and runs that check.
"""

from fractions import Fraction

import lqhv as L
from lqhv import numeric

# The PR box: two sites, two settings each, binary outcomes. The
# outputs satisfy a XOR b = x AND y and look uniformly random on their
# own, which makes the family consistent despite being nonlocal.
pr = L.pr_box()
print("PR box tables:")
for t in pr.scenario.setting_tuples():
    print(f"  settings {t}: {[numeric.format_scalar(v) for v in pr.tables[t].flat]}")

witness = L.check_nonsignaling(pr)
print("PR box passes the consistency check:", witness is None)

# Marginals can be extracted per site subset. For the PR box every
# single-site marginal is the fair coin, whichever setting the other
# site picked.
marginals = L.extract_marginal_family(pr)
print("site-1 marginal at setting 1:",
      [numeric.format_scalar(v) for v in marginals.get((1,), (1,))])
print("site-2 marginal at setting 2:",
      [numeric.format_scalar(v) for v in marginals.get((2,), (2,))])

# A small counterexample: site 2 copies site 1's setting into its
# output. Then the site-2 marginal depends on what site 1 chose, and
# the check reports exactly where the disagreement happens and how big
# it is.
bad = L.signaling_example()
witness = L.check_nonsignaling(bad)
print("\nsignaling example is refused:")
print("  disagreeing site subset:", witness.site_subset)
print("  settings kept there:    ", witness.common_settings)
print("  full tuples compared:   ", witness.tuple_a, "vs", witness.tuple_b)
print("  largest discrepancy:    ", witness.max_discrepancy)

# Mixtures of consistent families stay consistent. Here is a noisy PR
# box, three quarters uniform noise.
noisy = L.mix_families([pr, L.uniform_family(pr.scenario)],
                       [Fraction(1, 4), Fraction(3, 4)])
print("\nnoisy PR box passes:", L.check_nonsignaling(noisy) is None)

# The stricter site-local reading asks for one marginal table per
# (site subset, local settings) pair, independent of the rest of the
# tuple. For consistent families the two readings carry the same
# content; compare_scenarios_epr reports any violation table by table.
report = L.compare_scenarios_epr(noisy, noisy)
print("self-comparison over proper site subsets passes:", report.passed)
