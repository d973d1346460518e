"""Handling of the bilinear factorisation families.

The source-independence constraint G[alpha, gamma] = G[alpha, 1] *
G[1, gamma] is bilinear, so it cannot enter an SDP directly.  Three
tools deal with it:

``pin_linearize``
    the rigorous pass: wherever both factors are already forced by the
    pins (directly or through linear propagation), the pair becomes an
    exact linear row.  An infeasibility found afterwards is a genuine
    certificate.

``seesaw``
    the feasibility-seeking heuristic for the remaining pairs: freeze
    the factor scalars, solve the linearized SDP, re-read the scalars
    from the witness, repeat.  It never reports infeasible on its own
    (a stalled bilinear search proves nothing); a feasible verdict is
    only returned when the final witness passes the exact verifier.

``verify_factorisation``
    the exact check, max over pairs of |G_prod - G_row*G_col|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .moment import (
    FlatRows,
    MomentAssignment,
    MomentProblem,
    factor_classes,
    factor_residual,
)
from . import sdp as _sdp


@dataclass
class SeesawState:
    """Scalar estimates for the unpinned factor cells plus history."""

    scalars: dict[int, float]          # class id -> current estimate
    rounds: int = 0
    history: list[float] = None        # per-round max factor residual

    def __post_init__(self):
        if self.history is None:
            self.history = []

    def dump(self) -> str:
        lines = [f"seesaw rounds: {self.rounds}"]
        lines += [f"  round {i}: max factor residual {r:.3e}"
                  for i, r in enumerate(self.history, 1)]
        return "\n".join(lines)


def pin_linearize(problem: MomentProblem) -> MomentProblem:
    """Turn every factor pair with both factors determined into a linear row.

    Determination includes values reached by propagating the pins through
    the completeness rows (e.g. orthogonality zeros), not only literal
    pins; a pair with one nonzero factor s known becomes the
    half-linearized row G_prod - s * G_other = 0.  Remaining pairs are left
    attached and flagged as bilinear.
    """
    pairs = problem.factor_pairs + problem.factor_triples
    if not pairs:
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
        linear_factor_rows=problem.linear_factor_rows + rows,
        flagged_bilinear=tuple(itertools.compress(pairs, ~linear)))


def verify_factorisation(assignment: MomentAssignment) -> float:
    """Max residual |G_prod - G_row * G_col| over the factor families."""
    problem = assignment.problem
    return factor_residual(assignment.class_values(),
                           problem.factor_pairs + problem.factor_triples)


def _scalar_rows(problem: MomentProblem, scalars: dict[int, float]) -> FlatRows:
    """The see-saw rows of the flagged pairs under frozen ``scalars``, per
    pair: G_prod = s_row * G_col and G_prod = s_col * G_row, each when its
    scalar is frozen (G_prod = 0 when it is zero), then G_prod = s_row *
    s_col when both are."""
    prod, row, col = factor_classes(problem.flagged_bilinear).T
    pairs = list(zip(row.tolist(), col.tolist()))
    frozen = np.array([[c in scalars for c in pair] for pair in pairs],
                      dtype=bool).reshape(-1, 2)
    s = np.array([[scalars.get(c, 0.0) for c in pair] for pair in pairs],
                 dtype=float).reshape(-1, 2)
    # three candidate rows per pair: the two ties, then the product
    made = np.column_stack([frozen, frozen.all(axis=1)])
    scale = np.column_stack([s, np.zeros(len(s))])
    other = np.where(scale == 0.0, -1, np.column_stack([col, row, row]))
    rhs = np.column_stack([np.zeros((len(s), 2)), s.prod(axis=1)])
    classes = np.stack([np.broadcast_to(prod[:, None], other.shape), other], axis=2)
    coeffs = np.stack([np.ones(scale.shape), -scale], axis=2)
    return FlatRows.padded(classes[made], coeffs[made], rhs[made],
                           ("seesaw",) * int(made.sum()))


def seesaw(problem: MomentProblem, init: dict[int, float] | None = None,
           rounds: int = 25, drift_tol: float = 1e-8,
           verify_tol: float = 1e-6, *, tol: float = _sdp.DEFAULT_TOL,
           max_iter: int = _sdp.DEFAULT_MAX_ITER,
           infeasibility_margin: float = _sdp.DEFAULT_MARGIN
           ) -> tuple[_sdp.FeasibilityOutcome, SeesawState]:
    """Alternating scalar-freeze heuristic for unresolved factor pairs.

    ``init`` maps factor-cell class ids to starting scalars; without it
    the scalars are read from a witness of the problem *without* the
    bilinear pairs (the standard-relaxation warm start), falling back to
    0.5.  The search stops at a fixed point once no scalar moves by
    ``drift_tol`` in a round.  Feasible is returned only when the final
    witness passes :func:`verify_factorisation` at ``verify_tol``;
    infeasible only when the rigorous linearized subproblem already is.
    Every SDP solve runs :func:`netnpa.sdp.solve_feasibility` with
    ``tol``, ``max_iter`` and ``infeasibility_margin``, and the size of
    the problem picks its engine.
    """
    settings = dict(tol=tol, max_iter=max_iter,
                    infeasibility_margin=infeasibility_margin)
    lp = pin_linearize(problem)
    # the SDP imposes the linearized pairs only, so its residual gate sees
    # those; the flagged pairs are checked here, by verify_factorisation
    flagged = set(lp.flagged_bilinear)
    base = lp.derive(flagged_bilinear=(),
                     factor_pairs=tuple(fc for fc in lp.factor_pairs
                                        if fc not in flagged),
                     factor_triples=tuple(fc for fc in lp.factor_triples
                                          if fc not in flagged))
    out = _sdp.solve_feasibility(base, **settings)
    if out.verdict == "infeasible":
        # rigorous: inherited from the pinned-linearized subproblem
        return out, SeesawState(scalars={}, rounds=0)
    if not lp.flagged_bilinear:
        if out.verdict == "feasible":
            resid = verify_factorisation(
                MomentAssignment(problem, out.witness))
            if resid <= verify_tol:
                return out, SeesawState(scalars={}, rounds=0)
            return replace(out, verdict="inconclusive",
                           evidence=f"witness violates factorisation by "
                                    f"{resid:.3e}"), SeesawState({}, 0)
        return out, SeesawState(scalars={}, rounds=0)

    scalar_classes = sorted({c for fc in lp.flagged_bilinear
                             for c in (fc.cls_row, fc.cls_col)})
    scalars: dict[int, float] = {c: 0.5 for c in scalar_classes}
    if out.verdict == "feasible" and out.witness is not None:
        vals = MomentAssignment(problem, out.witness).class_values()
        scalars = {c: float(np.clip(vals[c], 0.0, 1.0)) for c in scalar_classes}
    if init:
        scalars.update(init)
    state = SeesawState(scalars=scalars)
    last = None
    for rnd in range(1, rounds + 1):
        state.rounds = rnd
        trial = base.derive(linear_factor_rows=lp.linear_factor_rows
                            + _scalar_rows(lp, scalars))
        inner = _sdp.solve_feasibility(trial, **settings)
        if inner.verdict != "feasible":
            return _sdp.FeasibilityOutcome(
                "inconclusive", t_star=inner.t_star,
                evidence=f"see-saw round {rnd}: inner solve "
                         f"{inner.verdict} ({inner.evidence})"), state
        assignment = MomentAssignment(problem, inner.witness)
        resid = verify_factorisation(assignment)
        state.history.append(resid)
        if resid <= verify_tol:
            return replace(inner, evidence=f"see-saw converged in {rnd} "
                                           f"round(s)"), state
        vals = assignment.class_values()
        new_scalars = {c: float(np.clip(vals[c], 0.0, 1.0))
                       for c in scalar_classes}
        drift = max(abs(new_scalars[c] - scalars[c]) for c in scalar_classes)
        scalars = new_scalars
        if last is not None and drift < drift_tol:
            return _sdp.FeasibilityOutcome(
                "inconclusive", t_star=inner.t_star,
                evidence=f"see-saw fixed point after {rnd} rounds with "
                         f"factorisation residual {resid:.3e}"), state
        last = scalars
    return _sdp.FeasibilityOutcome(
        "inconclusive", t_star=0.0,
        evidence=f"see-saw round cap ({rounds}) reached; last residual "
                 f"{state.history[-1]:.3e}"), state
