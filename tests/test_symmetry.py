"""Output-flip stabilisers: the restricted problem decides as the full one."""

import dataclasses
import functools
import re

import numpy as np
import pytest

from netnpa import symmetry, words
from netnpa.moment import (
    MomentAssignment,
    build_factorisation_bilocal,
    build_inflation,
    build_standard,
    check_assignment,
    pin_distribution,
)
from netnpa.scenarios import (
    Distribution,
    MomentOracle,
    Scenario,
    product_distribution,
    random_strategy,
    shared_random_bit,
)
from netnpa.sdp import DEFAULT_TOL, _ClassSystem, _interior_phase1, solve_feasibility
from netnpa.words import enumerate_words

from helpers import plain_flip_permutations

TRIANGLE = Scenario("triangle", (2, 2, 2), (1, 1, 1))
BILOCAL = Scenario("bilocal", (2, 2, 2), (1, 1, 1))
BELL = Scenario("bell3", (2, 2, 1), (2, 2, 1))


@functools.lru_cache(maxsize=None)
def _inflation(sc):
    return build_inflation(sc, 2, 2)


def _uniform(sc):
    return product_distribution(
        sc, [np.full((k, x), 1.0 / k) for k, x in zip(sc.outputs, sc.inputs)])


def _band(v):
    return Distribution(TRIANGLE, v * shared_random_bit("triangle").table
                        + (1 - v) * _uniform(TRIANGLE).table)


def _noisy_pr_box(v):
    t = np.zeros((2, 2, 1, 2, 2, 1))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        t[a, b, 0, x, y, 0] = v * (0.5 if (a ^ b) == (x & y) else 0.0) + (1 - v) / 4
    return Distribution(BELL, t)


def _symmetric(name):
    if name == "triangle-uniform":
        return pin_distribution(_inflation(TRIANGLE), _uniform(TRIANGLE))
    if name == "triangle-band-0.47":
        return pin_distribution(_inflation(TRIANGLE), _band(0.47))
    if name == "bilocal-uniform":
        return pin_distribution(_inflation(BILOCAL), _uniform(BILOCAL))
    return pin_distribution(build_standard(BELL, 2), _noisy_pr_box(0.725))


@pytest.mark.parametrize("name, order, verdict", [
    ("triangle-uniform", 8, "feasible"), ("triangle-band-0.47", 2, "infeasible"),
    ("bilocal-uniform", 8, "feasible"), ("chsh-0.725", 2, "infeasible")])
def test_a_symmetric_table_gets_the_same_verdict_on_its_stabiliser(
        name, order, verdict):
    p = _symmetric(name)
    restriction, q = symmetry.restrict(p)
    assert restriction.order == order
    out = solve_feasibility(p)
    assert out.symmetry is restriction
    # a copy that carries no table takes the full path
    full = solve_feasibility(p.derive(pinned=p.pinned))
    assert full.symmetry is None
    assert out.verdict == full.verdict == verdict
    assert out.route.p < full.route.p
    assert out.route.squares < full.route.squares
    if verdict == "infeasible":
        # both converge to the one phase-1 optimum
        assert abs(out.t_star - full.t_star) <= 1e-6
    else:
        assert abs(out.t_star - np.linalg.eigvalsh(out.witness)[0]) <= 1e-12
    # the restricted problem's converged witness is a moment matrix of the
    # full index, and its blocks give its min eigenvalue
    cs = _ClassSystem(q)
    assert cs.factor_rows() == (True, "")
    y, _ = _interior_phase1(cs, DEFAULT_TOL)
    X = y[q.cell_class]
    lam = check_assignment(q, MomentAssignment(q, X)).min_eigenvalue
    assert abs(lam - np.linalg.eigvalsh(X)[0]) <= 1e-12
    # and it satisfies the full problem's rows and pins
    rep = check_assignment(p, MomentAssignment(p, X))
    assert max(rep.completeness, rep.pins, rep.merges, rep.hankel) <= 1e-9


def test_the_shared_random_bit_is_fixed_by_the_all_party_flip_alone():
    p = pin_distribution(_inflation(TRIANGLE), shared_random_bit("triangle"))
    restriction, _ = symmetry.restrict(p)
    assert restriction.order == 2
    assert restriction.generators == ("A[0]B[0]C[0]",)
    # no single flip fixes the table: only their product does
    tables = symmetry._flip_tables(TRIANGLE)
    t = p.table.reshape(-1)
    for e in (1, 2, 4):
        assert not np.array_equal(t[tables.sources[e]], t)
    assert np.array_equal(t[tables.sources[7]], t)


def test_a_table_off_by_one_ulp_has_the_trivial_stabiliser():
    table = _uniform(TRIANGLE).table.copy()
    table.flat[3] = np.nextafter(table.flat[3], 1.0)
    p = pin_distribution(_inflation(TRIANGLE), Distribution(TRIANGLE, table))
    assert symmetry.restrict(p) is None
    out = solve_feasibility(p)
    assert out.verdict == "feasible" and out.symmetry is None
    assert out.route.p == 180


def test_born_tables_and_factorisation_families_keep_the_trivial_group():
    born = MomentOracle(random_strategy(BILOCAL, (2, 2, 2, 2), 0)).born()
    assert symmetry.restrict(pin_distribution(_inflation(BILOCAL), born)) is None
    fac = pin_distribution(build_factorisation_bilocal(BILOCAL, 2), _uniform(BILOCAL))
    assert symmetry.restrict(fac) is None
    # an index the flips do not map onto itself: the outputs 0 alone
    words = [w for w in enumerate_words(TRIANGLE.inflated_alphabet(2), 1)
             if all(l.output == 0 for l in w.letters)]
    short = build_inflation(TRIANGLE, 2, 2, index_words=words)
    assert symmetry._flip_actions(short, symmetry._flip_tables(TRIANGLE)) is None
    assert symmetry.restrict(pin_distribution(short, _uniform(TRIANGLE))) is None
    # pins the flips do not fix: the group is trivial
    p = pin_distribution(_inflation(TRIANGLE), _uniform(TRIANGLE))
    restriction, _ = symmetry.restrict(p)
    cls = next(c for c in range(p.n_classes)
               if c not in p.pinned and np.sum(restriction.orbit == restriction.orbit[c]) > 1)
    assert symmetry.restrict(p.derive(pinned={**p.pinned, cls: 0.125},
                                      table=p.table)) is None


def test_one_restricted_problem_serves_every_table_of_a_stabiliser():
    p = _inflation(TRIANGLE)
    (r1, q1), (r2, q2) = (symmetry.restrict(pin_distribution(p, _band(v)))
                          for v in (0.3, 0.6))
    assert r1 is r2 and q1._structures is q2._structures
    assert q1.pinned != q2.pinned


def test_the_gate_skips_index_blocks_without_columns():
    p = pin_distribution(_inflation(TRIANGLE), _uniform(TRIANGLE))
    _, q = symmetry.restrict(p)
    blocks = q.index_blocks
    assert len(blocks.columns) == 64
    assert any(c.stop == c.start for c in blocks.columns)
    # a matrix constant on the orbits: invariant under every swap and flip
    X = np.random.default_rng(3).standard_normal(q.n_classes)[q.cell_class]
    lam = check_assignment(q, MomentAssignment(q, X)).min_eigenvalue
    assert abs(lam - np.linalg.eigvalsh(X)[0]) <= 1e-10


def test_restricted_rows_are_the_rows_on_invariant_values():
    p = pin_distribution(_inflation(TRIANGLE), _band(0.2))
    restriction, q = symmetry.restrict(p)
    y = np.random.default_rng(4).standard_normal(q.n_classes)
    lhs = {}
    for rows, values in ((p.rows, y[restriction.orbit]), (q.rows, y)):
        out = np.bincount(rows.row, weights=rows.coeffs * values[rows.classes],
                          minlength=len(rows))
        lhs[rows is q.rows] = np.unique(np.round(out, 9))
    # each restricted row is a full row on invariant values, and back
    assert np.array_equal(lhs[True], lhs[False])
    assert len(q.rows) < len(p.rows)


def test_check_products_are_fixed_at_build_and_restricted_once():
    p = pin_distribution(_inflation(TRIANGLE), _uniform(TRIANGLE))
    with pytest.raises(ValueError, match="check_products"):
        p.derive(check_products=())
    r1, q1 = symmetry.restrict(p)
    assert len(q1.check_products)
    # two pinned copies of one problem share its one restriction
    r2, q2 = symmetry.restrict(p.derive(pinned=p.pinned, table=p.table))
    assert r2 is r1 and np.array_equal(q2.check_products, q1.check_products)


@pytest.mark.parametrize("name", ["triangle-inflation", "bilocal-inflation",
                                  "bilocal-standard"])
def test_flip_permutations_match_the_plain_relabelling(name):
    p = {"triangle-inflation": lambda: _inflation(TRIANGLE),
         "bilocal-inflation": lambda: _inflation(BILOCAL),
         "bilocal-standard": lambda: build_standard(BILOCAL, 2)}[name]()
    tables = symmetry._flip_tables(p.scenario)
    got = symmetry._flip_actions(p, tables)
    want = plain_flip_permutations(p.index, p.scenario)
    assert len(got) == len(want) == len(tables.flips) == 3
    for pi, plain in zip(got, want):
        assert pi.dtype == np.intp and np.array_equal(pi, plain)
        assert not np.array_equal(pi, np.arange(p.dim))


def test_the_flips_read_the_index_codes_the_build_kept(monkeypatch):
    p = _inflation(TRIANGLE)
    assert p.index_codes == tuple(words._LETTERS.encode(w.letters)
                                  for w in p.index)
    encode, calls = words._LETTERS.encode, []

    def counted(letters):
        calls.append(letters)
        return encode(letters)

    monkeypatch.setattr(words._LETTERS, "encode", counted)
    tables = symmetry._flip_tables(p.scenario)
    symmetry._flip_actions(p, tables)
    # one call per flip, for the images of the letters, and none per word
    assert len(calls) == len(tables.flips)


def test_a_restriction_shares_the_cells_of_each_hankel_group():
    p = pin_distribution(_inflation(TRIANGLE), _uniform(TRIANGLE))
    restriction, q = symmetry.restrict(p)
    for problem in (restriction.base, q):
        assert problem.group_layout is p.group_layout
        assert problem.group_first is p.group_first
    assert np.array_equal(q.cell_group, p.cell_group)


def test_a_flip_that_splits_a_class_raises():
    p = pin_distribution(_inflation(TRIANGLE), _uniform(TRIANGLE))
    pi = symmetry._flip_actions(p, symmetry._flip_tables(TRIANGLE))[0]
    # move one cell that the flip A[0] moves to another cell, and its
    # mirror, to the class of G[1, 1]: the flip then sends the cells of its
    # image's class to two classes
    moved = np.flatnonzero(pi != np.arange(p.dim)).tolist()
    i = moved[0]
    j = next(k for k in moved if k not in (i, pi[i]))
    cell_class = p.cell_class.copy()
    cell_class[i, j] = cell_class[j, i] = cell_class[0, 0]
    edited = dataclasses.replace(p, cell_class=cell_class)
    with pytest.raises(RuntimeError, match=re.escape(
            "the flip A[0] maps the cells of one class to several classes")):
        symmetry.restrict(edited)
    # the problem as built is restricted
    assert symmetry.restrict(p)[0].generators == ("A[0]", "B[0]", "C[0]")
