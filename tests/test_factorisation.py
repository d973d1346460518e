"""Pinned linearization, the frozen-scalar solve, and the exact verifier."""

import numpy as np
import pytest

from netnpa import factorisation as F
from netnpa.moment import (
    MomentAssignment,
    build_factorisation_bilocal,
    check_assignment,
    oracle_assignment,
    pin_distribution,
)
from netnpa.scenarios import (
    Distribution,
    MomentOracle,
    Scenario,
    mixed_counterexample,
    product_distribution,
    random_strategy,
    shared_random_bit,
    star_product_strategy,
)
from netnpa.sdp import FeasibilityOutcome, propagated_values, solve_feasibility

from helpers import (
    BILOCAL_111,
    cached_problem,
    loop_pin_linearize,
    loop_rows,
)

BILOCAL = Scenario(*BILOCAL_111)


def test_pin_linearize_srb_conflict():
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                         shared_random_bit("bilocal"))
    lp = F.pin_linearize(p)
    assert not lp.flagged_bilinear
    # the (A0, C0) pair linearizes to G = 1/4
    assert (lp.linear_factor_rows.rhs == 0.25).any()
    out = solve_feasibility(lp)
    assert out.verdict == "infeasible"


def test_pin_linearize_product_distribution_consistent():
    singles = [np.array([[0.3], [0.7]]), np.array([[0.5], [0.5]]),
               np.array([[0.9], [0.1]])]
    dist = product_distribution(BILOCAL, singles)
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3), dist)
    lp = F.pin_linearize(p)
    assert not lp.flagged_bilinear
    out = solve_feasibility(lp)
    assert out.verdict == "feasible"
    assert F.verify_factorisation(MomentAssignment(p, out.witness)) < 1e-8


def test_pin_linearize_flags_genuinely_bilinear_pairs():
    sc = Scenario("bilocal", (2, 2, 2), (2, 1, 2))
    st = random_strategy(sc, (2, 2, 2, 2), 5)
    p = pin_distribution(build_factorisation_bilocal(sc, 2),
                         MomentOracle(st).born())
    lp = F.pin_linearize(p)
    assert lp.flagged_bilinear
    known, _ = propagated_values(p)
    for fc in lp.flagged_bilinear:
        assert np.isnan(known[fc.cls_row]) and np.isnan(known[fc.cls_col])
        assert len(fc.row_word) >= 2 and len(fc.col_word) >= 2


def test_pin_linearize_rows_hold_on_oracle():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 37)
    orc = MomentOracle(st)
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                         orc.born())
    lp = F.pin_linearize(p)
    vals = oracle_assignment(p, orc).class_values()
    for classes, coeffs, rhs, _family in loop_rows(lp.linear_factor_rows):
        s = sum(c * vals[k] for k, c in zip(classes, coeffs))
        assert abs(s - rhs) < 1e-9


STAR_1111 = ("star4", (2, 2, 2, 2), (1, 1, 1, 1))
BILOCAL_212 = ("bilocal", (2, 2, 2), (2, 1, 2))


def _linearize_case(case):
    """A factorisation problem pinned to one of SRB, the uniform product,
    a quantum Born table and an SRB/uniform mixture."""
    kind, topology, n, label = case
    sc = Scenario(*topology)
    uniform = product_distribution(
        sc, [np.full((k, x), 1.0 / k) for k, x in zip(sc.outputs, sc.inputs)])
    if label == "born":
        strategy = (star_product_strategy(11) if kind == "star"
                    else random_strategy(sc, (2, 2, 2, 2), 5))
        dist = MomentOracle(strategy).born()
    elif label == "uniform":
        dist = uniform
    else:
        srb = shared_random_bit(sc.topology)
        dist = srb if label == "srb" else Distribution(
            sc, 0.3 * srb.table + 0.7 * uniform.table)
    return pin_distribution(cached_problem(kind, *topology, n), dist)


LINEARIZE_CASES = [
    (kind, topology, n, label)
    for kind, topology, n in (("factorisation", BILOCAL_111, 2),
                              ("factorisation", BILOCAL_111, 3),
                              ("star", STAR_1111, 4))
    for label in ("srb", "uniform", "born", "mixture")
] + [("factorisation", BILOCAL_212, 2, label) for label in ("uniform", "born")]


@pytest.mark.parametrize("case", LINEARIZE_CASES,
                         ids=lambda c: f"{c[0]}-{c[1][0]}{''.join(map(str, c[1][2]))}"
                                       f"-n{c[2]}-{c[3]}")
def test_pin_linearize_matches_the_loop_reference(case):
    p = _linearize_case(case)
    lp, ref = F.pin_linearize(p), loop_pin_linearize(p)
    # order, classes, coefficients, right-hand sides, families and dtypes
    assert lp.linear_factor_rows == ref.linear_factor_rows
    assert lp.flagged_bilinear == ref.flagged_bilinear
    if case[1] == BILOCAL_212:
        # A and C with two inputs leave pairs half-linearized and flagged
        assert "factorisation (half-linearized)" in lp.linear_factor_rows.families
        assert lp.flagged_bilinear


def test_pin_linearize_twice_adds_no_rows():
    lp = F.pin_linearize(_linearize_case(("factorisation", BILOCAL_212, 2, "born")))
    again = F.pin_linearize(lp)
    assert len(lp.linear_factor_rows) == 192
    assert again.linear_factor_rows == lp.linear_factor_rows
    assert again.flagged_bilinear == lp.flagged_bilinear


def _born_212(n, seed=5):
    """The factorisation problem on bilocal inputs (2, 1, 2) at level n,
    pinned to a Born table, with its oracle."""
    orc = MomentOracle(random_strategy(Scenario(*BILOCAL_212), (2, 2, 2, 2), seed))
    return pin_distribution(cached_problem("factorisation", *BILOCAL_212, n),
                            orc.born()), orc


def test_seesaw_rows_hold_on_oracle():
    p, orc = _born_212(2)
    lp = F.pin_linearize(p)
    vals = oracle_assignment(p, orc).class_values()
    rows = F._frozen_rows(lp.flagged_bilinear, vals)
    assert len(rows) == 72 and set(np.diff(rows.starts)) == {1}
    lhs = np.bincount(rows.row, weights=rows.coeffs * vals[rows.classes],
                      minlength=len(rows))
    assert np.abs(lhs - rows.rhs).max() <= 1e-12


def test_verify_factorisation_oracle_and_counterexample():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 41)
    orc = MomentOracle(st)
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                         orc.born())
    assert F.verify_factorisation(oracle_assignment(p, orc)) < 1e-9
    mx = MomentOracle(mixed_counterexample())
    pmx = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                           mx.born())
    resid = F.verify_factorisation(oracle_assignment(pmx, mx))
    assert abs(resid - 0.25) < 1e-9


def test_verify_factorisation_zero_offcorner():
    p = cached_problem("factorisation", *BILOCAL_111, 3)
    X = np.zeros((p.dim, p.dim))
    X[0, 0] = 1.0
    assert F.verify_factorisation(MomentAssignment(p, X)) == 0.0


def _count_solves(monkeypatch, second=None):
    """Record the problems ``solve_frozen`` solves; the second solve
    returns ``second`` when one is given."""
    solved = []

    def record(problem, **kwargs):
        solved.append(problem)
        if len(solved) == 2 and second is not None:
            return second
        return solve_feasibility(problem, **kwargs)

    monkeypatch.setattr(F._sdp, "solve_feasibility", record)
    return solved


def test_seesaw_srb_inherits_infeasible(monkeypatch):
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                         shared_random_bit("bilocal"))
    solved = _count_solves(monkeypatch)
    out = F.solve_frozen(p)
    assert out.verdict == "infeasible"
    assert "linearized" in out.evidence
    assert len(solved) == 1


def test_seesaw_failed_frozen_solve_is_inconclusive(monkeypatch):
    # freezing the scalars restricts the problem, so its infeasibility
    # proves nothing about the problem itself
    p, _orc = _born_212(2)
    stub = FeasibilityOutcome("infeasible", t_star=-0.5, evidence="stub")
    solved = _count_solves(monkeypatch, stub)
    out = F.solve_frozen(p)
    assert len(solved) == 2
    assert out.verdict == "inconclusive"
    assert out.t_star == -0.5
    assert "solve infeasible (stub)" in out.evidence


FROZEN_CASES = ([(BILOCAL_212, 2, seed) for seed in range(6)]
                + [(BILOCAL_212, 3, 0),
                   # every pair resolves rigorously when B and C have one input
                   (("bilocal", (2, 2, 2), (2, 1, 1)), 3, 7)])


@pytest.mark.parametrize("topology, n, seed", FROZEN_CASES,
                         ids=[f"{''.join(map(str, t[2]))}-n{n}-seed{seed}"
                              for t, n, seed in FROZEN_CASES])
def test_seesaw_feasible_implies_verified(topology, n, seed):
    # Born tables are realisable, so the frozen solve finds them FEASIBLE,
    # with a witness of the problem before linearization
    sc = Scenario(*topology)
    p = pin_distribution(cached_problem("factorisation", *topology, n),
                         MomentOracle(random_strategy(sc, (2, 2, 2, 2), seed)).born())
    out = F.solve_frozen(p)
    assert out.verdict == "feasible", out.evidence
    rep = check_assignment(p, MomentAssignment(p, out.witness))
    assert rep.max_residual() <= 1e-6


def test_star_triple_equals_pairwise_times_third():
    st = star_product_strategy(11)
    orc = MomentOracle(st)
    p = pin_distribution(
        cached_problem("star", "star4", (2, 2, 2, 2), (1, 1, 1, 1), 4),
        orc.born())
    a = oracle_assignment(p, orc)
    assert F.verify_factorisation(a) < 1e-9
    vals = a.class_values()
    for fc in p.factor_triples:
        lhs = vals[fc.cls_prod]
        rhs = vals[fc.cls_row] * vals[fc.cls_col]
        assert abs(lhs - rhs) < 1e-9
