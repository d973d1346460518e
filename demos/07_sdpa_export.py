"""Exporting a compiled problem for an external SDP solver.

The file uses the SDPA sparse format: the PSD block X is constrained by
<F_k, X> = b_k, and F_0 is the (maximised) objective.  Files round-trip
bit-exactly through the bundled parser, so external certificates can be
matched back to the in-repo problem.
"""

import os
import tempfile

from netnpa import factorisation, sdp
from netnpa.moment import build_factorisation_bilocal, pin_distribution
from netnpa.scenarios import Scenario, shared_random_bit

scenario = Scenario("bilocal", outputs=(2, 2, 2), inputs=(1, 1, 1))
problem = pin_distribution(build_factorisation_bilocal(scenario, 3),
                           shared_random_bit("bilocal"))
compiled = sdp.compile(factorisation.pin_linearize(problem))
print(f"compiled: {compiled.dim}x{compiled.dim} block, "
      f"{len(compiled.rows)} equality constraints")

with tempfile.NamedTemporaryFile("r", suffix=".dat-s", delete=False) as fh:
    path = fh.name
try:
    sdp.export_sdpa(compiled, path)
    with open(path) as fh:
        head = [next(fh) for _ in range(6)]
    print(f"\nfirst lines of {path}:")
    print("".join(head), end="")

    parsed = sdp.parse_sdpa(path)
finally:
    os.remove(path)
print(f"\nre-parse: dim {parsed.dim}, rows {len(parsed.rows)}, "
      f"identical: {parsed.rows == compiled.rows}")
