"""Handling of the bilinear factorisation families.

The source-independence constraint G[alpha, gamma] = G[alpha, 1] *
G[1, gamma] is bilinear, so it cannot enter an SDP directly.  Three
tools deal with it:

``pin_linearize``
    the rigorous pass: wherever both factors are already forced by the
    pins (directly or through linear propagation), the pair becomes an
    exact linear row.  An infeasibility found afterwards is a genuine
    certificate.

``solve_frozen``
    the feasibility-seeking pass for the remaining pairs: read the factor
    scalars from a witness of the problem without those pairs, freeze
    them, and solve once more with every pair checked.  It reports
    infeasible only when the problem without those pairs is (frozen
    scalars restrict the problem), and a feasible verdict passes the
    solver's residual gate, the factorisation family included.

``verify_factorisation``
    the exact check, max over pairs of |G_prod - G_row*G_col|.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from .moment import (
    FactorConstraint,
    FlatRows,
    MomentAssignment,
    MomentProblem,
    factor_classes,
    product_residual,
)
from . import sdp as _sdp


def pin_linearize(problem: MomentProblem) -> MomentProblem:
    """Turn every factor pair with both factors determined into a linear row.

    Determination includes values reached by propagating the pins through
    the completeness rows (e.g. orthogonality zeros), not only literal
    pins; a pair with one nonzero factor s known becomes the
    half-linearized row G_prod - s * G_other = 0.  Remaining pairs are left
    attached and flagged as bilinear.  A problem that already holds its
    linearization (rows or flagged pairs) is returned as is.
    """
    pairs = problem.factor_pairs + problem.factor_triples
    if not pairs or problem.linearized:
        return problem
    known, _contradiction = _sdp.propagated_values(problem)
    # a contradiction among pins alone is legitimate output: the linearized
    # problem will expose it to the solver
    prod, row, col = factor_classes(pairs).T
    lhs, rhs = known[row], known[col]
    has_lhs, has_rhs = ~np.isnan(lhs), ~np.isnan(rhs)
    both = has_lhs & has_rhs
    scale = np.where(has_lhs, lhs, rhs)
    single = both | (scale == 0.0)
    other = np.where(single, -1, np.where(has_lhs, col, row))
    linear = has_lhs | has_rhs
    families = np.where(single, "factorisation (linearized)",
                        "factorisation (half-linearized)")
    rows = FlatRows.padded(
        np.stack([prod, other], axis=1)[linear],
        np.stack([np.ones(len(pairs)), -scale], axis=1)[linear],
        np.where(both, lhs * rhs, 0.0)[linear], families[linear].tolist())
    return problem.derive(
        linear_factor_rows=rows,
        flagged_bilinear=tuple(itertools.compress(pairs, ~linear)))


def verify_factorisation(assignment: MomentAssignment) -> float:
    """Max residual |G_prod - G_row * G_col| over the factor families."""
    problem = assignment.problem
    return product_residual(assignment.class_values(), factor_classes(
        problem.factor_pairs + problem.factor_triples))


def _frozen_rows(pairs: tuple[FactorConstraint, ...],
                 class_vals: np.ndarray) -> FlatRows:
    """Single-entry rows freezing ``pairs`` at ``class_vals``: G_c = s_c
    for every factor class c, in class order, then G_prod = s_row * s_col
    for every pair, in pair order."""
    prod, row, col = factor_classes(pairs).T
    scalars = np.unique(np.concatenate([row, col]))
    classes = np.concatenate([scalars, prod])
    return FlatRows.padded(
        classes[:, None], np.ones((len(classes), 1)),
        np.concatenate([class_vals[scalars], class_vals[row] * class_vals[col]]),
        ("factorisation (frozen)",) * len(classes))


def solve_frozen(problem: MomentProblem, *, tol: float = _sdp.DEFAULT_TOL,
                 infeasibility_margin: float = _sdp.DEFAULT_MARGIN
                 ) -> _sdp.FeasibilityOutcome:
    """Feasibility with the flagged pairs' factor scalars frozen.

    The warm start solves :func:`pin_linearize`'s problem without its
    flagged pairs; its INFEASIBLE verdict is rigorous and is returned as
    is, and any other verdict short of FEASIBLE is INCONCLUSIVE.
    Otherwise the witness's class values s_c, unclipped, are frozen: one
    row G_c = s_c for every factor class c of a flagged pair and one row
    G_prod = s_row * s_col for every flagged pair, which stays among the
    factor families.  One more solve then decides, its residual gate
    checking every factor family; a verdict short of FEASIBLE there is
    INCONCLUSIVE, since the frozen scalars restrict the problem.  Both
    solves run :func:`netnpa.sdp.solve_feasibility` with ``tol`` and
    ``infeasibility_margin``.
    """
    settings = dict(tol=tol, infeasibility_margin=infeasibility_margin)
    lp = pin_linearize(problem)
    flagged = set(lp.flagged_bilinear)
    base = lp.derive(flagged_bilinear=(),
                     factor_pairs=tuple(fc for fc in lp.factor_pairs
                                        if fc not in flagged),
                     factor_triples=tuple(fc for fc in lp.factor_triples
                                          if fc not in flagged))
    out = _sdp.solve_feasibility(base, **settings)
    if out.verdict == "infeasible" or not flagged:
        return out
    if out.verdict != "feasible":
        return replace(out, evidence=f"warm start: {out.evidence}")
    vals = MomentAssignment(base, out.witness).class_values()
    trial = lp.derive(linear_factor_rows=lp.linear_factor_rows
                      + _frozen_rows(lp.flagged_bilinear, vals),
                      flagged_bilinear=())
    inner = _sdp.solve_feasibility(trial, **settings)
    if inner.verdict == "feasible":
        return replace(inner, evidence=f"frozen factor scalars: {inner.evidence}")
    return replace(inner, verdict="inconclusive",
                   evidence=f"frozen factor scalars: solve {inner.verdict} "
                            f"({inner.evidence})")
