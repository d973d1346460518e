"""Rejecting the shared random bit in the triangle via source inflation.

In the triangle network every pair of parties shares a source, so no
factorisation constraint exists and the factorisation/scalar hierarchies
degenerate to the standard one, which accepts the shared random bit.
Duplicating every source (m = 2) changes that: the inflated moment
matrix must be symmetric under swapping copies and compatible with fresh
network copies, and already the smallest inflated matrix (n = 2, m = 2)
has no PSD completion.  The uniform product distribution, which the
triangle realises with no shared randomness at all, passes the same
relaxation: the solver returns a witness and its residual in every
constraint family.
"""

import time

import numpy as np

from netnpa import sdp
from netnpa.moment import build_inflation, pin_distribution
from netnpa.scenarios import Scenario, product_distribution, shared_random_bit

scenario = Scenario("triangle", outputs=(2, 2, 2), inputs=(1, 1, 1))
srb = shared_random_bit("triangle")

t0 = time.time()
problem = build_inflation(scenario, n=2, m=2)
print(f"inflated problem: {problem.dim} words, {problem.n_classes} equality "
      f"classes after the copy-symmetry merges ({time.time() - t0:.1f}s)")

pinned = pin_distribution(problem, srb)
print(f"compatibility pins: {len(pinned.pinned)} classes, e.g. the marginal")
print("of two letters on a shared fresh copy is a distribution marginal,")
print("while letters on disjoint copies are pinned to products of singles.")

t0 = time.time()
out = sdp.solve_feasibility(pinned)
print(f"\nverdict: {out.verdict.upper()}  (t* = {out.t_star:.4f}, "
      f"{time.time() - t0:.1f}s)")
print(f"evidence: {out.evidence}")
print("\nAmong the pinned words: perfect correlation of A with B (shared rho")
print("copy), of B with C (shared sigma copy), but forced independence of A")
print("and C on disjoint pi copies - three requirements no PSD matrix meets.")

uniform = product_distribution(scenario, [np.full((2, 1), 0.5)] * 3)
t0 = time.time()
out = sdp.solve_feasibility(pin_distribution(problem, uniform))
print(f"\nuniform product: {out.verdict.upper()}  (t* = {out.t_star:.3g}, "
      f"{time.time() - t0:.1f}s, {out.iterations} iterations)")
print(f"evidence: {out.evidence}")
print(out.residuals)
