"""SDP compilation, solving, and SDPA export."""

import dataclasses
import os
import re

import numpy as np
import pytest

from netnpa import factorisation, interior, moment, sdp, symmetry, words
from netnpa.moment import (
    FlatRows,
    build_factorisation_bilocal,
    build_inflation,
    build_standard,
    oracle_assignment,
    pin_distribution,
)
from netnpa.scenarios import (
    Distribution,
    MomentOracle,
    Scenario,
    point_distribution,
    product_distribution,
    random_strategy,
    shared_random_bit,
)
from netnpa.sdp import (
    DEFAULT_TOL,
    LINEAR_TOL,
    AffineSdp,
    SdpRow,
    SdpStructureError,
    compile,
    export_sdpa,
    maximize_linear,
    parse_sdpa,
    propagated_values,
    solve_feasibility,
    _ClassSystem,
    _interior_phase1,
    _reduce,
    _verdict,
)
from netnpa.words import EMPTY_WORD, Letter, concat, word

from helpers import (
    BILOCAL_111,
    TRIANGLE_111,
    block_list,
    cached_problem,
    dense_bases,
    dense_congruence,
    dense_rows,
    dense_solve_lmi,
    gram_range,
    loop_class_rep_cells,
    loop_compile_rows,
    loop_phase1_rows,
    loop_propagate,
    loop_reduced_rows,
    loop_submatrix_words,
    meas,
    packed_stacks,
    relation_complement,
    round_propagate,
    single_block_phase1,
)

BILOCAL = Scenario(*BILOCAL_111)


# --- compile -----------------------------------------------------------------

def test_compile_counts_bell3_n1():
    p = cached_problem("standard", "bell3", (2, 2, 2), (1, 1, 1), 1)
    s = compile(p)
    # hand count on the 7-word index: 28 upper cells collapse into 22
    # classes (6 tie rows), one pin, 18 deduplicated completeness rows
    n_upper = 7 * 8 // 2
    assert len(s.rows) == (n_upper - p.n_classes) + 1 + len(p.rows)
    assert len(s.rows) == 6 + 1 + 18


def test_compile_rejects_bilinear():
    p = cached_problem("factorisation", *BILOCAL_111, 3)
    with pytest.raises(SdpStructureError, match="linearize"):
        compile(p)


def test_compile_linearized_factorisation():
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                         shared_random_bit("bilocal"))
    lp = factorisation.pin_linearize(p)
    s = compile(lp)  # all pairs resolved; compiles fine
    assert s.dim == p.dim


def test_compile_scalar_extension_is_linear():
    p = cached_problem("scalar", *BILOCAL_111, 2)
    s = compile(p)
    assert s.dim == p.dim


# --- feasibility ----------------------------------------------------------------

def test_feasible_oracle_pinned_problem():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 31)
    orc = MomentOracle(st)
    p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), orc.born())
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.residuals.max_residual() < 1e-7


def test_srb_standard_feasible_vs_factorisation_infeasible():
    srb = shared_random_bit("bilocal")
    std = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), srb)
    out_std = solve_feasibility(std)
    assert out_std.verdict == "feasible"
    fac = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3), srb)
    out_fac = solve_feasibility(factorisation.pin_linearize(fac))
    assert out_fac.verdict == "infeasible"
    assert out_fac.t_star <= -0.05


def test_infeasibility_monotone_in_level():
    srb = shared_random_bit("bilocal")
    for n in (3, 4):
        p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, n), srb)
        out = solve_feasibility(factorisation.pin_linearize(p))
        assert out.verdict == "infeasible"


def test_engines_agree_on_multi_input_instance():
    sc = Scenario("bilocal", (2, 2, 2), (2, 1, 1))
    st = random_strategy(sc, (2, 2, 2, 2), 5)
    p = pin_distribution(build_standard(sc, 2), MomentOracle(st).born())
    out = solve_feasibility(p)
    assert out.verdict == "feasible" and out.route.interior
    assert out.residuals.max_residual() < 1e-6


def test_solver_deterministic():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 31)
    p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3),
                         MomentOracle(st).born())
    out1 = solve_feasibility(p)
    out2 = solve_feasibility(p)
    assert out1.verdict == out2.verdict
    assert out1.t_star == out2.t_star
    assert np.array_equal(out1.witness, out2.witness)


def test_propagated_values_match_oracle():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 3)
    orc = MomentOracle(st)
    p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), orc.born())
    known, contradiction = propagated_values(p)
    assert contradiction is None
    vals = oracle_assignment(p, orc).class_values()
    mask = ~np.isnan(known)
    assert np.abs(known[mask] - vals[mask]).max() < 1e-10


# --- CHSH -----------------------------------------------------------------------

def chsh_problem_and_objective(level=2):
    sc = Scenario("bell3", (2, 2, 1), (2, 2, 1))
    p = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), level)
    obj: dict[int, float] = {}
    for x in range(2):
        for y in range(2):
            sign = -1.0 if x == 1 and y == 1 else 1.0
            for a in range(2):
                for b in range(2):
                    w = concat(word([Letter("measurement", "A", a, x)]),
                               word([Letter("measurement", "B", b, y)]))
                    cls = p.class_of_cell(EMPTY_WORD, w)
                    obj[cls] = obj.get(cls, 0.0) + sign * (-1.0) ** (a + b)
    return p, obj


def test_chsh_tsirelson_level2():
    p, obj = chsh_problem_and_objective()
    value, X = maximize_linear(p, obj)
    assert abs(value - 2 * np.sqrt(2)) < 1e-6


def test_maximize_linear_refuses_a_problem_too_large_for_the_interior_point(
        monkeypatch):
    p, obj = chsh_problem_and_objective()
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    with pytest.raises(SdpStructureError, match="too large"):
        maximize_linear(p, obj)


def test_maximize_linear_refuses_what_compile_refuses():
    # unpinned, the 16 A-C factor pairs are bilinear, and after
    # pin_linearize 4 of them still are: the optimum without them (1.0
    # for G[A0, C0]) is not the problem's, so neither is answered
    p = cached_problem("factorisation", *BILOCAL_111, 2)
    a0c0 = {p.class_of_cell(word([meas("A")]), word([meas("C")])): 1.0}
    lp = factorisation.pin_linearize(p)
    assert len(lp.flagged_bilinear) == 4
    for problem, message in ((p, "linearize them"), (lp, "still bilinear")):
        for call in (compile, lambda q: maximize_linear(q, a0c0)):
            with pytest.raises(SdpStructureError, match=message):
                call(problem)


def test_a_problem_linearized_with_every_pair_flagged_is_solved():
    # unpinned at level 1, pin_linearize finds no factor determined: no
    # linear row and 4 flagged pairs, which the solve checks on its witness
    lp = factorisation.pin_linearize(build_factorisation_bilocal(BILOCAL, 1))
    assert len(lp.linear_factor_rows) == 0 and len(lp.flagged_bilinear) == 4
    assert lp.linearized and factorisation.pin_linearize(lp) is lp
    with pytest.raises(SdpStructureError, match="still bilinear"):
        compile(lp)
    out = solve_feasibility(lp)
    assert out.verdict == "feasible"
    assert out.residuals.factorisation <= 10 * DEFAULT_TOL


def _one_matrix_problem(n, alice=(0.3, 0.7)):
    # one input per party and every class pinned or propagated: the affine
    # set is one matrix, and dim ker R = 0
    sc = Scenario("bell3", (2, 2, 1), (1, 1, 1))
    dist = product_distribution(sc, [np.array(alice)[:, None],
                                     np.array([[0.6], [0.4]]),
                                     np.array([[1.0]])])
    return pin_distribution(cached_problem("standard", "bell3", (2, 2, 1),
                                           (1, 1, 1), n), dist)


@pytest.mark.parametrize("n", [2, 3])
def test_maximize_linear_over_one_matrix_returns_it(n):
    p = _one_matrix_problem(n)
    objective = {int(p.cell_class[0, 1]): 1.0}
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "") and cs.N.shape[1] == 0
    value, X = maximize_linear(p, objective)
    assert abs(value - 0.3) <= 1e-12
    assert np.array_equal(X, cs.assemble(cs.y0))
    # 2 p - q for a second table q keeps every linear row, and its
    # G[A0] = 2*0.3 - 1 < 0 makes the one matrix indefinite
    q = _one_matrix_problem(n, alice=(1.0, 0.0))
    bad = p.derive(pinned={k: 2 * v - q.pinned[k] for k, v in p.pinned.items()})
    with pytest.raises(SdpStructureError, match="min eigenvalue -"):
        maximize_linear(bad, objective)


def noisy_pr_box(v):
    # v * PR box + (1 - v) * white noise; quantum iff v <= 1/sqrt(2)
    sc = Scenario("bell3", (2, 2, 1), (2, 2, 1))
    t = np.zeros((2, 2, 1, 2, 2, 1))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        pr = 0.5 if (a ^ b) == (x & y) else 0.0
        t[a, b, 0, x, y, 0] = v * pr + (1 - v) * 0.25
    return Distribution(sc, t)


def test_interior_point_decides_noisy_pr_box_at_tsirelson():
    p = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2)
    inside = solve_feasibility(pin_distribution(p, noisy_pr_box(0.70)))
    assert inside.verdict == "feasible"
    assert inside.residuals.max_residual() < 1e-7
    outside = solve_feasibility(pin_distribution(p, noisy_pr_box(0.725)))
    assert outside.verdict == "infeasible"
    assert "interior point" in outside.evidence
    # the optimum, max over completions of the min eigenvalue, is negative
    assert outside.t_star < -0.01


@pytest.mark.parametrize("seed", range(6))
def test_bilocal_inflation_is_decided_by_the_interior_point(seed):
    p = pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                         MomentOracle(random_strategy(
                             BILOCAL, (2, 2, 2, 2), seed)).born())
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.evidence.startswith("interior point")
    assert out.route.interior


def _band_problem(name):
    if name == "bell3-333":
        sc = Scenario("bell3", (2, 2, 2), (3, 3, 3))
        p = pin_distribution(build_standard(sc, 2), product_distribution(
            sc, [np.full((2, 3), 0.5)] * 3))
        # the full problem: a copy that carries no table is solved on no
        # stabiliser (the uniform product's would shrink it to 730 entries)
        return p.derive(pinned=p.pinned)
    sc = Scenario("bilocal", (2, 2, 2), (2, 2, 2))
    return pin_distribution(build_standard(sc, 3), MomentOracle(
        random_strategy(sc, (2, 2, 2, 2), 2)).born())


@pytest.mark.parametrize("name, entries", [("bell3-333", 1_282_600),
                                           ("bilocal-222", 1_109_313)],
                         ids=["bell3-333", "bilocal-222"])
def test_problems_of_over_a_million_entries_are_decided_by_the_interior_point(
        name, entries):
    # (p + 1) sum_b r_b^2, a structural constant of each problem
    out = solve_feasibility(_band_problem(name))
    assert out.route.entries == entries
    assert out.route.interior
    assert out.verdict == "feasible"
    assert out.evidence.startswith("interior point")
    assert max(out.residuals.families().values()) <= 1e-6


# --- the interior point's range ---------------------------------------------------

def _born(seed):
    return MomentOracle(random_strategy(BILOCAL, (2, 2, 2, 2), seed)).born()


def _range_problem(name):
    kind, _, label = name.partition(":")
    if kind == "bilocal-inflation":
        return pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                                _born(int(label)))
    if kind == "chsh":
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(float(label)))
    if kind == "scalar":
        return pin_distribution(cached_problem("scalar", *BILOCAL_111, 2), _born(7))
    return pin_distribution(build_standard(BILOCAL, 2, completeness=False),
                            _born(7))


@pytest.mark.parametrize("name", [f"bilocal-inflation:{seed}" for seed in range(6)]
                         + ["chsh:0.70", "chsh:0.725", "scalar", "literal-standard"])
def test_column_range_spans_the_gram_reference(name):
    p = _range_problem(name)
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "")
    V, V_gram = relation_complement(p), gram_range(cs)
    assert V.shape == V_gram.shape
    if name == "literal-standard":
        # no completeness relations, and the affine set has no common kernel
        assert len(p.column_relations) == 0 and V.shape == (p.dim, p.dim)
    else:
        assert V.shape[1] < p.dim
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-12
    assert np.linalg.norm(V_gram - V @ (V.T @ V_gram)) <= 1e-8


def test_reduce_runs_no_eigendecomposition(monkeypatch):
    # a copy made by replace builds its own copy blocks, inside _reduce
    p = pin_distribution(
        dataclasses.replace(cached_problem("inflation", *BILOCAL_111, 2, 2)),
        _born(0))
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "")
    V_gram = gram_range(cs)

    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran in _reduce")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    C = _reduce(cs)
    out = solve_feasibility(p)
    monkeypatch.undo()
    assert out.verdict == "feasible" and out.evidence.startswith("interior point")
    # the same LMI as on the Gram range, up to a rotation into the blocks
    X0 = cs.assemble(cs.y0)
    blocked = np.sort(np.concatenate([np.linalg.eigvalsh(Cg).ravel() for Cg in C]))
    assert np.allclose(blocked, np.linalg.eigvalsh(V_gram.T @ X0 @ V_gram),
                       atol=1e-10)


def test_distributions_pinned_on_one_problem_share_one_range():
    base = dataclasses.replace(cached_problem("inflation", *BILOCAL_111, 2, 2))
    pinned = [pin_distribution(base, _born(seed)) for seed in (0, 1)]
    for p in pinned:
        assert solve_feasibility(p).verdict == "feasible"
    assert pinned[0].copy_blocks is pinned[1].copy_blocks
    assert base.copy_blocks is pinned[0].copy_blocks


# --- copy-symmetry blocks -----------------------------------------------------------

def _mixture(v):
    sc = Scenario(*TRIANGLE_111)
    return Distribution(sc, v * shared_random_bit("triangle").table
                        + (1 - v) * uniform_product(sc).table)


@pytest.mark.parametrize("topology, sizes", [
    ((TRIANGLE_111, 2), [19, 12, 12, 10, 12, 10, 10, 6]),
    ((BILOCAL_111, 2), [14, 9, 9, 9]),
    ((BILOCAL_111, 3), [54, 32, 32, 21])])
def test_copy_blocks_split_the_range(topology, sizes, monkeypatch):
    scenario, m = topology
    # a copy made by dataclasses.replace has no structure built yet
    p = dataclasses.replace(cached_problem("inflation", *scenario, 2, m))
    complement = moment._relation_complement
    widths = []

    def spy(relations, Q):
        widths.append(Q.shape[1])
        return complement(relations, Q)

    monkeypatch.setattr(moment, "_relation_complement", spy)
    blocks = p.copy_blocks
    monkeypatch.undo()
    # in the order of the characters, as the CLI prints them
    assert blocks.sizes == tuple(sizes)
    # the index blocks restricted to the range, with no global SVD
    assert len(widths) == len(p.index_blocks.columns)
    assert max(widths) < p.dim
    assert blocks.sums is p.index_blocks.sums
    V = relation_complement(p)
    assert sum(blocks.sizes) == V.shape[1]
    U = np.hstack(dense_bases(blocks))
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-12
    # the blocks span the range of the column relations
    assert np.abs(U - V @ (V.T @ U)).max() <= 1e-12


def _off_block(blocks, M):
    """The largest entry of U' M U outside the diagonal blocks, and the
    diagonal blocks."""
    U = np.hstack(dense_bases(blocks))
    G = U.T @ M @ U
    bounds = np.cumsum([0, *blocks.sizes])
    diag = [G[a:e, a:e].copy() for a, e in zip(bounds, bounds[1:])]
    for a, e in zip(bounds, bounds[1:]):
        G[a:e, a:e] = 0.0
    return np.abs(G).max(), diag


@pytest.mark.parametrize("name", ["triangle:0", "triangle:0.47", "bilocal:0"])
def test_copy_blocks_block_diagonalise_c_and_every_direction(name):
    kind, _, label = name.partition(":")
    if kind == "triangle":
        p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                             _mixture(float(label)))
    else:
        p = pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                             _born(int(label)))
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "")
    blocks = p.copy_blocks
    rows = block_list(blocks, packed_stacks(cs.plan.phase1_rows(p), blocks))
    off, diag = _off_block(blocks, cs.assemble(cs.y0))
    assert off <= 1e-10
    # the blocks from one word per orbit are the diagonal blocks
    C = block_list(blocks, _reduce(cs))
    assert all(np.abs(Cb - G).max() <= 1e-10 for Cb, G in zip(C, diag))
    y = np.zeros(cs.problem.n_classes)
    for j in range(cs.N.shape[1]):
        y[cs.free] = cs.N[:, j]
        off, diag = _off_block(blocks, y[cs.cell_class])
        assert off <= 1e-10
        assert all(np.abs(-A[j] - G).max() <= 1e-10 for A, G in zip(rows, diag))


@pytest.mark.parametrize("name, order", [
    ("triangle-uniform", 8), ("triangle:0.47", 2), ("bilocal-inflation:0", None),
    ("bilocal-standard", None)])
def test_phase1_rows_match_a_dense_loop_over_the_directions(name, order):
    if name == "triangle-uniform":
        p = _accept_problem(name)
    elif name == "triangle:0.47":
        p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                             _mixture(0.47))
    elif name == "bilocal-standard":
        # two inputs per party leave kernel directions at n = 2
        sc = ("bilocal", (2, 2, 2), (2, 2, 2))
        p = pin_distribution(cached_problem("standard", *sc, 2), MomentOracle(
            random_strategy(Scenario(*sc), (2, 2, 2, 2), 0)).born())
    else:
        p = _range_problem(name)
    # the problem the interior point runs on
    restricted = symmetry.restrict(p)
    assert (None if restricted is None else restricted[0].order) == order
    q = p if restricted is None else restricted[1]
    assert (q.index_blocks.sums is None) == (name == "bilocal-standard")
    cs = _ClassSystem(q)
    assert cs.factor_rows() == (True, "")
    blocks = q.copy_blocks
    if name == "triangle:0.47":
        assert min(blocks.sizes) == 1 and 2 in blocks.sizes
    rows = block_list(blocks, packed_stacks(cs.plan.phase1_rows(q), blocks))
    ref = loop_phase1_rows(cs)
    assert cs.factor.p > 0
    for A, B in zip(rows, ref):
        assert np.abs(-A[:-1] - B).max() <= 1e-13
        assert np.array_equal(A[-1], np.eye(len(B[0])))


def test_blocks_of_one_size_share_one_stack_whatever_their_shape():
    p = pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2), _born(3))
    assert symmetry.restrict(p) is None
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "")
    blocks = p.copy_blocks
    assert blocks.sizes == (14, 9, 9, 9)
    # r = 9 comes from two shapes, k = 38 (blocks 1 and 2) and k = 35
    # (block 3): one stack, the k = 38 blocks first, as they appear first
    assert [(group, k, r, at) for group, _, k, _, r, at in blocks.stacks] == [
        ([1, 2], 38, 9, slice(0, 2)), ([3], 35, 9, slice(2, 3)),
        ([0], 50, 14, slice(0, 1))]
    C = _reduce(cs)
    assert [G.shape for G in C] == [(3, 9, 9), (1, 14, 14)]
    ref = dense_congruence(blocks, cs.assemble(cs.y0))
    assert all(np.abs(G - R).max() <= 1e-10 for G, R in zip(block_list(blocks, C), ref))
    # the interior point reads the same stacks: 3 * 9^2 + 14^2 columns
    assert cs.plan.phase1_rows(p).shape == (cs.factor.p + 1, 439)


@pytest.mark.parametrize("name", ["standard", "scalar", "restricted-inflation"])
def test_one_block_without_copy_merges(name):
    if name == "standard":
        p = cached_problem("standard", *BILOCAL_111, 3)
    elif name == "scalar":
        p = cached_problem("scalar", *BILOCAL_111, 2)
    else:
        # a restricted index need not be closed under the copy swaps
        p = build_inflation(BILOCAL, 2, 2, index_words=[
            word([meas("A", copies=(1,))]), word([meas("C", copies=(2,))])])
    # one index block, Q = I
    index = p.index_blocks
    assert index.sizes == (p.dim,) and index.sums is None
    # and one copy block: the complement on the whole index, bit for bit
    blocks = p.copy_blocks
    assert len(blocks.complements) == 1
    assert blocks.complements[0].tobytes() == relation_complement(p).tobytes()
    assert blocks.sums is None
    # the gate's eigenvalue is that of the whole matrix, bit for bit
    X = np.random.default_rng(8).standard_normal(p.n_classes)[p.cell_class]
    got = moment.check_assignment(p, moment.MomentAssignment(p, X)).min_eigenvalue
    assert got == np.linalg.eigvalsh((X + X.T) / 2).min()


@pytest.mark.parametrize("topology, sizes", [
    (TRIANGLE_111, [19, 12, 12, 10, 12, 10, 10, 6]),
    (BILOCAL_111, [14, 9, 9, 9])], ids=["triangle", "bilocal"])
def test_copy_blocks_relabel_no_word_after_the_build(topology, sizes, monkeypatch):
    relabel = words.relabel_codes
    calls = []

    def counting(*args):
        calls.append(args[2])
        return relabel(*args)

    def refuse(*args):
        raise AssertionError("a word was relabelled after the build")

    monkeypatch.setattr(moment, "relabel_codes", counting)
    p = build_inflation(Scenario(*topology), 2, 2)
    # one relabelling of the index per generator: the swap of each source
    assert len(calls) == len(p.alphabet.sources()) == len(p.generators)
    for module in (moment, words):
        monkeypatch.setattr(module, "relabel_codes", refuse)
    # a copy made by dataclasses.replace has no structure built yet
    blocks = dataclasses.replace(p).copy_blocks
    assert blocks.sizes == tuple(sizes)


def test_copy_blocks_raise_when_a_swap_moves_a_class():
    p = cached_problem("inflation", *BILOCAL_111, 2, 2)
    # give the cell (A_1, A_1) of copy 1, and its mirror, a class of its own;
    # its image under the swap of the source copies keeps the old class
    i = p.pos(word([meas("A", copies=(1,))]))
    broken = p.cell_class.copy()
    broken[i, i] = p.n_classes
    q = dataclasses.replace(p, cell_class=broken)
    with pytest.raises(RuntimeError, match="moves a cell to another class"):
        q.copy_blocks


def test_copy_blocks_raise_when_the_swaps_do_not_keep_the_relations():
    p = cached_problem("inflation", *BILOCAL_111, 2, 2)
    # drop sum_b B^{1,1}_b = 1, which the swap of either source moves; its
    # image under each swap stays, with no preimage left
    b = p.pos(word([meas("B", copies=(1, 1))]))
    relations = p.column_relations
    k = np.flatnonzero((relations[:, 0] == b) & (relations[:, -1] == 0))[0]
    q = dataclasses.replace(p, column_relations=np.delete(relations, k, axis=0))
    with pytest.raises(RuntimeError, match="does not map the column relations"):
        q.copy_blocks


def _phase1_problem(name):
    kind, _, label = name.partition(":")
    if kind == "chsh":
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(float(label)))
    return pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                            _born(int(label)))


@pytest.mark.parametrize("name", ["chsh:0.70", "chsh:0.725"]
                         + [f"bilocal:{seed}" for seed in range(6)])
def test_blocked_phase1_matches_the_single_block_reference(name):
    cs = _ClassSystem(_phase1_problem(name))
    assert cs.factor_rows() == (True, "")
    _y, res = _interior_phase1(cs, 1e-7)
    _status, t_ref, _infeas = single_block_phase1(cs, 1e-7)
    assert abs(res.primal_obj - t_ref) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_born_tables_have_an_interior_and_converge(seed):
    # with the right column relations the range holds no face that every
    # feasible X lies in: the phase-1 optimum is positive, and the converged
    # solve reaches it
    cs = _ClassSystem(_phase1_problem(f"bilocal:{seed}"))
    assert cs.factor_rows() == (True, "")
    _y, res = _interior_phase1(cs, 1e-7)
    assert res.status == "optimal"
    assert res.primal_obj > 1e-3


@pytest.mark.parametrize("name, count", [("bilocal:0", 8), ("chsh:0.6", 4)])
def test_maximize_linear_reaches_the_optimum_on_pinned_problems(name, count):
    p = _phase1_problem(name)
    cs = _ClassSystem(p)
    for cls in cs.free[:count].tolist():
        hi, X_hi = maximize_linear(p, {cls: 1.0})
        lo, X_lo = maximize_linear(p, {cls: -1.0})
        assert -lo <= hi + 1e-7
        for value, X in ((hi, X_hi), (-lo, X_lo)):
            assert abs(p.class_average(X)[cls] - value) <= 1e-7
            assert np.linalg.eigvalsh(X)[0] >= -1e-7


def test_maximize_linear_reaches_the_optimum_on_a_problem_without_interior():
    # a deterministic table leaves the feasible set no interior point: the
    # phase-1 optimum is zero.  An objective's solve, whose dual matrix is
    # X(z) itself, then has no strictly dual feasible start, the phase-1
    # point included, and maximize_linear needs the interior point's
    # infeasible start (start=None)
    sc = ("bilocal", (2, 2, 2), (2, 2, 2))
    p = pin_distribution(cached_problem("standard", *sc, 2),
                         point_distribution(Scenario(*sc), (0, 0, 0)))
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "")
    assert cs.factor.p == 66
    _y, res = _interior_phase1(cs, DEFAULT_TOL)
    assert res.status == "optimal"
    assert max(abs(res.dual_obj), abs(res.primal_obj)) <= 1e-9
    c = np.zeros(len(cs.free))
    c[0] = 1.0
    with pytest.raises(ValueError, match="not positive definite"):
        interior.solve_lmi(_reduce(cs), cs.plan.phase1_rows(p)[:-1], cs.N.T @ c,
                           start=res.y[:-1])
    for cls, value in zip(cs.free[:4].tolist(), (1.0, 0.0, 0.0, 0.0)):
        hi, X_hi = maximize_linear(p, {cls: 1.0})
        lo, X_lo = maximize_linear(p, {cls: -1.0})
        assert abs(hi + lo) <= 1e-12
        assert abs(hi - value) <= 1e-9
        for X in (X_hi, X_lo):
            assert np.linalg.eigvalsh(X)[0] >= -1e-7


def _mixed_block_lmi(sizes, m=6, seed=3):
    """A primal-dual pair on blocks of the given sizes, strictly feasible,
    with a strictly complementary optimum: per block X* = x q q' and
    S* = Q diag(s) Q' on the complement of q, C = S* + A'(y*), b = A(X*)."""
    rng = np.random.default_rng(seed)
    y_opt = rng.standard_normal(m)
    blocks, b = [], np.zeros(m)
    for k in sizes:
        A = rng.standard_normal((m, k, k)) / k
        A = A + A.transpose(0, 2, 1)
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        X_opt = rng.uniform(1, 2) * np.outer(Q[:, 0], Q[:, 0])
        S_opt = (Q[:, 1:] * rng.uniform(1, 2, k - 1)) @ Q[:, 1:].T
        blocks.append((S_opt + np.tensordot(y_opt, A, 1), A))
        b += np.tensordot(A, X_opt, 2)
    return blocks, b


def _solve_blocks(blocks, b, **kwargs):
    """``interior.solve_lmi`` on (C_b, A_b) pairs, stacked by size,
    sizes ascending and each size's pairs in the order given, the A_b
    packed stack after stack."""
    stacks = [[pair for pair in blocks if len(pair[0]) == k]
              for k in sorted({len(Cb) for Cb, _ in blocks})]
    C = [np.stack([Cb for Cb, _ in pairs]) for pairs in stacks]
    A = np.concatenate([np.stack([Ab for _, Ab in pairs], axis=1).reshape(len(b), -1)
                        for pairs in stacks], axis=1)
    return interior.solve_lmi(C, A, b, **kwargs)


def _block_diagonal(blocks):
    r = sum(len(C) for C, _ in blocks)
    m = len(blocks[0][1])
    C, A = np.zeros((r, r)), np.zeros((m, r, r))
    at = 0
    for Cb, Ab in blocks:
        k = len(Cb)
        C[at:at + k, at:at + k] = Cb
        A[:, at:at + k, at:at + k] = Ab
        at += k
    return C, A


def test_stacked_blocks_match_the_dense_solve_in_any_order():
    blocks, b = _mixed_block_lmi([3, 5, 3, 2, 5])
    res = _solve_blocks(blocks, b)
    status, _y, p_obj, _infeas = dense_solve_lmi(*_block_diagonal(blocks), b)
    assert res.status == status == "optimal"
    assert abs(res.primal_obj - p_obj) <= 1e-8
    # interleaved otherwise, equal sizes in the same order: the same stacks
    for order in ([3, 1, 0, 4, 2], [0, 2, 3, 1, 4]):
        permuted = _solve_blocks([blocks[i] for i in order], b)
        assert np.abs(permuted.y - res.y).max() <= 1e-10
    # equal sizes reordered: the sums run in another order, and y, which the
    # stopping rule fixes only to about 1e-6 here, moves with the rounding
    for order in ([4, 2, 0, 3, 1], [2, 4, 3, 0, 1]):
        permuted = _solve_blocks([blocks[i] for i in order], b)
        assert permuted.status == "optimal"
        assert abs(permuted.primal_obj - res.primal_obj) <= 1e-8


def test_small_blocks_are_factored_as_lapack_factors_them():
    from scipy.linalg import lapack

    rng = np.random.default_rng(7)
    for k in (1, 2):
        M = rng.standard_normal((6, k, k))
        stack = M @ M.transpose(0, 2, 1) + 1e-3 * np.eye(k)
        [(L, L_inv)] = interior._cholesky([stack], lapack)
        for S, Lb, Lb_inv in zip(stack, L, L_inv):
            F, _ = lapack.dpotrf(S, lower=1)
            F_inv, _ = lapack.dtrtri(F, lower=1)
            # every block size takes the same LAPACK calls
            assert np.array_equal(Lb, F) and np.array_equal(Lb_inv, F_inv)
        # one matrix that is not positive definite refuses the stack
        stack[3] = -stack[3] if k == 1 else np.diag([1.0, -1.0])
        assert interior._cholesky([stack], lapack) is None


def test_a_start_outside_the_dual_cone_is_refused():
    blocks, b = _mixed_block_lmi([3, 5, 3, 2, 5])
    # S = C - t*1 with t above the least eigenvalue of C
    start = np.zeros(len(b) + 1)
    start[-1] = min(np.linalg.eigvalsh(Cb)[0] for Cb, _ in blocks) + 1e-3
    with_t = [(Cb, np.concatenate([Ab, np.eye(len(Cb))[None]])) for Cb, Ab in blocks]
    with pytest.raises(ValueError, match="not positive definite"):
        _solve_blocks(with_t, np.append(b, 1.0), start=start)


def test_a_dual_start_reaches_the_cold_start_optimum():
    cs = _ClassSystem(_phase1_problem("chsh:0.725"))
    assert cs.factor_rows() == (True, "")
    C, A = _reduce(cs), cs.plan.phase1_rows(cs.problem)
    b = np.zeros(cs.N.shape[1] + 1)
    b[-1] = 1.0
    cold = interior.solve_lmi(C, A, b, tol=1e-9)
    start = b * (moment.least_eigenvalue(C) - 1.0)
    warm = interior.solve_lmi(C, A, b, tol=1e-9, start=start)
    assert abs(cold.primal_obj - (-0.05061)) <= 1e-5
    assert abs(warm.primal_obj - cold.primal_obj) <= 1e-8


@pytest.mark.parametrize("v, verdict", [(0.5, "infeasible"), (0.47, "infeasible"),
                                        (0.465, "feasible"), (0.40, "feasible"),
                                        (0.2, "feasible")])
def test_triangle_band_is_decided_by_the_interior_point(v, verdict):
    p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                         _mixture(v))
    out = solve_feasibility(p)
    assert out.verdict == verdict
    assert "interior point" in out.evidence
    assert out.route.interior


def _accept_problem(name):
    if name == "triangle-uniform":
        return pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                                uniform_product(Scenario(*TRIANGLE_111)))
    return _phase1_problem(name)


def _first_passing_iterate(cs, tol, monkeypatch):
    """The first iterate k of the phase-1 solve run to convergence whose
    witness has min eigenvalue >= -tol/2, and its y; so iterate k - 1
    fails.  Iterate k is where a solve limited to k iterations ends, the
    start z = 0 being iterate 0, and its witness on each block is C -
    sum_j y_j A_j over the rows A_j before the t row, read by
    ``eigvalsh``."""
    C, A = _reduce(cs), cs.plan.phase1_rows(cs.problem)
    views = packed_stacks(A[:-1], cs.problem.copy_blocks)
    b = np.zeros(len(A))
    b[-1] = 1.0
    start = b * (moment.least_eigenvalue(C) - 1.0)
    for k in range(interior.MAX_ITER + 1):
        with monkeypatch.context() as m:
            m.setattr(interior, "MAX_ITER", k)
            res = interior.solve_lmi(C, A, b, tol=tol * 1e-2, start=start)
        assert (res.status, res.iterations) == ("max_iter", k)
        z = res.y[:-1]
        low = min(np.linalg.eigvalsh(Cg - np.tensordot(z, V, 1))[:, 0].min()
                  for Cg, V in zip(C, views))
        if low >= -tol / 2:
            return k, res.y
    raise AssertionError("no iterate passes")


def test_an_accept_stops_at_the_first_deciding_iterate(monkeypatch):
    tol = DEFAULT_TOL
    names = [f"bilocal:{seed}" for seed in range(6)] + ["triangle-uniform"]
    # with the right column relations every feasible set has an interior:
    # the stopped solves take at most a few iterates, and the start of the
    # uniform product's already passes.  A run to convergence may move
    # with rounding in the phase-1 data, so its count is only bounded below
    for name in names:
        p = _accept_problem(name)
        # the uniform product is solved on its stabiliser's problem
        restricted = symmetry.restrict(p)
        cs = _ClassSystem(p if restricted is None else restricted[1])
        assert cs.factor_rows() == (True, "")
        _y, converged = _interior_phase1(cs, tol)
        _y, stopped = _interior_phase1(cs, tol, stop=-tol / 2)
        count, y = _first_passing_iterate(cs, tol, monkeypatch)
        assert stopped.status == "target", name
        assert stopped.iterations == count, name
        assert np.array_equal(stopped.y[:-1], y[:-1]), name
        assert stopped.dual_obj >= -tol / 2
        assert stopped.iterations <= converged.iterations, name
        assert converged.status == "optimal", name
        assert converged.iterations > stopped.iterations, name
        out = solve_feasibility(p)
        assert out.verdict == "feasible", name
        assert out.iterations == stopped.iterations
        assert out.residuals.families()["psd"] <= tol / 2
        assert out.t_star >= -tol / 2
        assert (count == 0) == (name == "triangle-uniform"), name


def test_a_start_that_passes_the_gate_runs_no_solve(monkeypatch):
    calls, built = [], []
    monkeypatch.setattr(interior, "solve_lmi",
                        lambda *args, **kwargs: calls.append(args))
    phase1_rows = sdp._PropagationPlan.phase1_rows

    def rows(plan, problem):
        built.append(plan)
        return phase1_rows(plan, problem)

    monkeypatch.setattr(sdp._PropagationPlan, "phase1_rows", rows)
    p = _accept_problem("triangle-uniform")
    out = solve_feasibility(p)
    assert calls == [] and built == []
    assert out.verdict == "feasible" and out.iterations == 0
    assert out.evidence == ("interior point witness (min eigenvalue >= -tol, "
                            "every residual family <= 10*tol)")
    assert out.symmetry is not None and out.route.interior
    # the witness passes the gate on the full index, not only on the
    # stabiliser's problem
    rep = moment.check_assignment(p, moment.MomentAssignment(p, out.witness))
    assert rep.min_eigenvalue >= -DEFAULT_TOL
    assert max(rep.families().values()) <= 10 * DEFAULT_TOL


@pytest.mark.parametrize("v", [0.47, 0.5])
def test_a_reject_never_reaches_the_stop_and_keeps_the_converged_t(v):
    p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                         _mixture(v))
    # the mixtures are solved on the all-party flip's problem
    cs = _ClassSystem(symmetry.restrict(p)[1])
    assert cs.factor_rows() == (True, "")
    _y, converged = _interior_phase1(cs, DEFAULT_TOL)
    out = solve_feasibility(p)
    assert out.verdict == "infeasible"
    assert out.t_star == converged.primal_obj
    assert out.iterations == converged.iterations


def test_a_stop_the_solve_never_reaches_changes_nothing():
    cs = _ClassSystem(_phase1_problem("chsh:0.725"))
    assert cs.factor_rows() == (True, "")
    C, A = _reduce(cs), cs.plan.phase1_rows(cs.problem)
    b = np.zeros(cs.N.shape[1] + 1)
    b[-1] = 1.0
    start = b * (moment.least_eigenvalue(C) - 1.0)
    plain = interior.solve_lmi(C, A, b, tol=1e-9, start=start)
    # the optimum is about -0.0506, so the dual objective stays below 0
    high = interior.solve_lmi(C, A, b, tol=1e-9, start=start, stop=0.0)
    assert (high.status, high.iterations) == (plain.status, plain.iterations)
    assert np.array_equal(high.y, plain.y)
    # a stop below the optimum ends the solve at the first iterate past it
    low = interior.solve_lmi(C, A, b, tol=1e-9, start=start, stop=-0.06)
    assert low.status == "target"
    # the stop raises t to the witness's eigenvalue, a dual feasible point,
    # so weak duality bounds it by any primal objective
    assert -0.06 <= low.dual_obj <= plain.primal_obj
    assert low.iterations < plain.iterations


def test_a_stalled_interior_point_is_inconclusive_and_runs_no_projection(
        monkeypatch):
    def stalled(C, A, b, tol=1e-9, start=None, stop=None):
        return interior.LmiResult("stalled", np.zeros(len(b)), primal_obj=-0.5,
                                  dual_obj=-1.0, primal_infeas=1.0,
                                  dual_infeas=1.0, iterations=3)

    monkeypatch.setattr(interior, "solve_lmi", stalled)
    out = solve_feasibility(_phase1_problem("chsh:0.725"))
    # t = -0.5 is no upper bound on the optimum while the primal
    # infeasibility is 1, so it proves nothing
    assert out.verdict == "inconclusive"
    assert "stalled" in out.evidence and "-0.5" in out.evidence
    assert out.iterations == 3
    assert out.route.interior


def test_an_unpinned_problem_is_inconclusive_on_its_check_products():
    # only G[1, 1] is pinned; the interior point finds a witness, but the
    # check products are checked, not imposed, and the witness fails them
    p = build_inflation(BILOCAL, 2, 2)
    assert list(p.pinned) == [int(p.cell_class[0, 0])]
    out = solve_feasibility(p)
    assert out.verdict == "inconclusive"
    assert "extended_products" in out.evidence
    assert out.residuals.extended_products > 1e-3


def test_outcomes_carry_the_route_of_the_engine_that_ran(monkeypatch):
    p = _phase1_problem("chsh:0.70")
    # the noisy PR box is solved on the problem of its stabiliser
    q = symmetry.restrict(p)[1]
    cs = _ClassSystem(q)
    assert cs.factor_rows() == (True, "")
    route = solve_feasibility(p).route
    assert route == sdp.EngineRoute(cs.N.shape[1], q.copy_blocks.sizes)
    assert route.interior
    # over the budget, no engine runs: the outcome names the gate quantity
    def refuse(*_args, **_kwargs):
        raise AssertionError("the interior point ran over its budget")

    monkeypatch.setattr(interior, "solve_lmi", refuse)
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    out = solve_feasibility(p)
    assert out.route == route and not out.route.interior
    assert (out.verdict, out.iterations) == ("inconclusive", 0)
    assert np.isnan(out.t_star) and out.witness is None
    assert out.evidence == ("too large for the interior point: (p + 1)*sum "
                            f"r_b^2 = {route.entries} > 0")
    # decided before any engine: by the presolve, by the interlacing bound
    srb = shared_random_bit("bilocal")
    fac = factorisation.pin_linearize(pin_distribution(
        cached_problem("factorisation", *BILOCAL_111, 3), srb))
    assert solve_feasibility(fac).route is None
    tri = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                           shared_random_bit("triangle"))
    out = solve_feasibility(tri)
    assert "interlacing" in out.evidence and out.route is None


def test_a_problem_over_the_gate_builds_no_kernel_basis(monkeypatch):
    """p = dim ker R comes from the pivots, so a problem the interior point
    does not take is answered without N, its QR or the minimum-norm y0."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a kernel basis was built over the gate")

    p = pin_distribution(cached_problem("scalar", *BILOCAL_111, 3),
                         shared_random_bit("bilocal"))
    # copy_blocks takes a QR of the column relations, so it is built first
    assert p.copy_blocks.sizes == (190,)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(sdp._RowFactor, "N", property(refuse), raising=False)
    out = solve_feasibility(p)
    assert (out.verdict, out.iterations) == ("inconclusive", 0)
    assert out.route == sdp.EngineRoute(3004, (190,))
    assert out.evidence == ("too large for the interior point: (p + 1)*sum "
                            "r_b^2 = 108480500 > 33554432")
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    with pytest.raises(SdpStructureError, match="too large"):
        maximize_linear(p, {1: 1.0})


# --- linear presolve -------------------------------------------------------------

def flip_outputs(dist, parties):
    """Relabel the outputs 0 <-> 1 of the parties at the given positions."""
    table = dist.table
    for axis in parties:
        table = np.flip(table, axis=axis)
    return Distribution(dist.scenario, table)


def _presolve_problem(name):
    kind, _, label = name.partition(":")
    if kind == "triangle":
        sc = Scenario(*TRIANGLE_111)
        dist = (uniform_product(sc) if label == "uniform" else
                flip_outputs(shared_random_bit("triangle"),
                             [int(c) for c in label[len("srb"):]]))
        return pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                                dist)
    if kind == "bilocal-inflation":
        return pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                                MomentOracle(random_strategy(
                                    BILOCAL, (2, 2, 2, 2), int(label))).born())
    if kind == "chsh":
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(0.7))
    srb = shared_random_bit("bilocal")
    dist = {"srb": srb,
            "mixture": Distribution(BILOCAL, 0.3 * srb.table
                                    + 0.7 * uniform_product(BILOCAL).table),
            "born": MomentOracle(random_strategy(BILOCAL, (2, 2, 2, 2), 4)).born(),
            }[label]
    p = pin_distribution(cached_problem(kind, *BILOCAL_111, 3), dist)
    return factorisation.pin_linearize(p) if kind == "factorisation" else p


PRESOLVE_CASES = ["triangle:srb", "triangle:srb0", "triangle:srb02",
                  "triangle:uniform", "bilocal-inflation:0",
                  "bilocal-inflation:1", "bilocal-inflation:2",
                  "standard:srb", "standard:mixture", "standard:born",
                  "factorisation:srb", "factorisation:mixture",
                  "factorisation:born", "chsh"]


@pytest.mark.parametrize("name", PRESOLVE_CASES)
def test_presolve_matches_the_loop_reference(name):
    p = _presolve_problem(name)
    cs = _ClassSystem(p)
    known, pending, contradiction = loop_propagate(p)
    assert cs.contradiction == contradiction
    if contradiction is not None:
        # the presolve stops at the contradiction, so the values set by
        # then depend on the order of the work; the evidence does not
        return
    assert np.array_equal(cs.known, known, equal_nan=True)
    assert cs._pending.tolist() == pending
    R, b = cs.plan.R, cs.plan.reduce(cs.rows, cs.known)
    R_ref, b_ref = loop_reduced_rows(p, known, pending)
    for got, want in zip(R, R_ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(b, b_ref)
    assert cs.known_submatrix_bound()[1] == loop_submatrix_words(known, p.cell_class)


@pytest.mark.parametrize("label", ["srb", "mixture"])
def test_presolve_evidence_on_factorisation_is_the_loops(label):
    p = _presolve_problem(f"factorisation:{label}")
    evidence = _ClassSystem(p).contradiction
    assert evidence is not None
    assert evidence.startswith("violated factorisation (linearized) row")
    assert evidence == loop_propagate(p)[2]


def _with_rows(rows):
    """The CHSH problem pinned to a noisy PR box, with ``rows`` added, a
    pinned class and two classes the presolve leaves free."""
    p = _presolve_problem("chsh")
    one = p.class_of_cell(EMPTY_WORD, EMPTY_WORD)
    x, y = (int(c) for c in _ClassSystem(p).free[:2])
    return dataclasses.replace(p, linear_factor_rows=rows(one, x, y)), x, y


@pytest.mark.parametrize("rhs", [1.0, 2.0], ids=["consistent", "inconsistent"])
def test_presolve_zero_coefficient_on_the_single_unknown(rhs):
    p, x, y = _with_rows(lambda one, x, y: FlatRows.padded(
        [[one, x]], [[1.0, 0.0]], [rhs], ["added"]))
    # the explicit zero coefficient is kept
    assert p.linear_factor_rows.coeffs.tolist() == [1.0, 0.0]
    cs = _ClassSystem(p)
    known, pending, contradiction = loop_propagate(p)
    assert cs.contradiction == contradiction
    if rhs == 1.0:
        assert contradiction is None
        # the row is checked and dropped; it sets nothing
        assert np.isnan(cs.known[x])
        assert len(p.active_rows) - 1 not in cs._pending.tolist()
        assert np.array_equal(cs.known, known, equal_nan=True)
    else:
        assert contradiction.startswith("violated added row")
        assert "(residual -1.000e+00)" in contradiction


@pytest.mark.parametrize("second", [0.25, 0.5], ids=["agree", "disagree"])
def test_presolve_two_rows_solving_one_class(second):
    p, x, y = _with_rows(lambda one, x, y: FlatRows.padded(
        [[x], [x]], [[1.0], [1.0]], [0.25, second], ["added", "added"]))
    cs = _ClassSystem(p)
    _known, _pending, contradiction = loop_propagate(p)
    assert cs.contradiction == contradiction
    if second == 0.25:
        assert contradiction is None
        assert cs.known[x] == 0.25
    else:
        # the first row in row order sets the class, the second is checked
        assert contradiction.endswith("(=0.25) = 0.5 (residual -2.500e-01)")


# --- propagation plan ---------------------------------------------------------

def _frozen_problem(seed):
    """The problem of the frozen solve of ``factorisation.solve_frozen``
    on a bilocal inputs (2, 1, 2) Born table: the linearized rows followed
    by the rows freezing the flagged pairs' factor scalars."""
    sc = Scenario("bilocal", (2, 2, 2), (2, 1, 2))
    p = pin_distribution(cached_problem("factorisation", "bilocal", (2, 2, 2),
                                        (2, 1, 2), 2),
                         MomentOracle(random_strategy(sc, (2, 2, 2, 2), seed)).born())
    seen, solve = [], sdp.solve_feasibility
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve_feasibility",
                   lambda q, **kw: seen.append(q) or solve(q, **kw))
        factorisation.solve_frozen(p)
    assert len(seen) == 2
    return seen[1]


def _plan_problem(name):
    kind, _, label = name.partition(":")
    if kind == "frozen":
        return _frozen_problem(int(label))
    if kind == "unpinned":
        hierarchy, n, m = {"standard": ("standard", 3, None),
                           "scalar": ("scalar", 2, None),
                           "factorisation": ("factorisation", 3, None),
                           "inflation": ("inflation", 2, 2)}[label]
        p = cached_problem(hierarchy, *BILOCAL_111, n, m)
        return factorisation.pin_linearize(p) if p.factor_pairs else p
    if kind == "chsh" and label:
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(float(label)))
    if kind in ("scalar", "factorisation-base"):
        dist = shared_random_bit("bilocal") if label == "srb" else _born(int(label))
        hierarchy, n = ("scalar", 2) if kind == "scalar" else ("factorisation", 3)
        return pin_distribution(cached_problem(hierarchy, *BILOCAL_111, n), dist)
    return _presolve_problem(name)


PLAN_CASES = PRESOLVE_CASES + [
    "chsh:0.5", "chsh:0.95", "scalar:srb", "scalar:3", "factorisation-base:srb",
    "factorisation-base:5", "frozen:0", "frozen:1", "unpinned:standard",
    "unpinned:scalar", "unpinned:factorisation", "unpinned:inflation"]


@pytest.mark.parametrize("name", PLAN_CASES)
def test_plan_replay_is_the_round_loop_bit_for_bit(name):
    p = _plan_problem(name)
    known, active, contradiction = round_propagate(p)
    # a plan made for this problem, then one kept from an earlier use
    for q in (dataclasses.replace(p), p, p):
        cs = _ClassSystem(q)
        assert cs.known.tobytes() == known.tobytes()
        assert cs._pending.dtype == active.dtype
        assert np.array_equal(cs._pending, active)
        assert cs.contradiction == contradiction


def _count_plans(monkeypatch):
    """Count the propagation plans made from here on."""
    calls = []
    plan = sdp._PropagationPlan

    def counted(*args):
        calls.append(1)
        return plan(*args)

    monkeypatch.setattr(sdp, "_PropagationPlan", counted)
    return calls


def _n3_stream(count):
    """Born tables and SRB-uniform mixtures, in turn."""
    rng = np.random.default_rng(5)
    srb = shared_random_bit("bilocal").table
    for k in range(count):
        if k % 2:
            yield _born(int(rng.integers(2 ** 31)))
        else:
            v = rng.uniform(0.05, 1.0)
            yield Distribution(BILOCAL, v * srb + (1 - v) * uniform_product(BILOCAL).table)


@pytest.mark.parametrize("hierarchy,plans", [("standard", 1), ("factorisation", 2)])
def test_one_plan_per_row_structure_over_a_stream(monkeypatch, hierarchy, plans):
    base = dataclasses.replace(cached_problem(hierarchy, *BILOCAL_111, 3))
    calls = _count_plans(monkeypatch)
    verdicts = set()
    for dist in _n3_stream(50):
        p = pin_distribution(base, dist)
        if p.factor_pairs:
            p = factorisation.pin_linearize(p)
        verdicts.add(solve_feasibility(p).verdict)
    # a factorisation problem keeps one plan for the rows pin_linearize
    # propagates and one for those rows with the linearized ones after them
    assert len(calls) == plans
    want = {"standard": {"propagation"},
            "factorisation": {"propagation", "propagation_linearized"}}[hierarchy]
    assert want <= set(base._structures)
    assert verdicts == ({"feasible", "infeasible"} if hierarchy == "factorisation"
                        else {"feasible"})


def test_a_changed_mask_or_zero_pattern_makes_a_new_plan(monkeypatch):
    p, _obj = chsh_problem_and_objective()
    p = dataclasses.replace(p)
    x, y = (int(c) for c in _ClassSystem(p).free[:2])
    calls = _count_plans(monkeypatch)

    def check(q, made):
        cs = _ClassSystem(q)
        assert len(calls) == made
        known, active, contradiction = round_propagate(q)
        assert cs.known.tobytes() == known.tobytes()
        assert np.array_equal(cs._pending, active)
        assert cs.contradiction == contradiction
        return cs.plan

    kept = check(p, 0)
    # another pin changes the mask
    pinned = check(p.derive(pinned={**p.pinned, x: 0.25}), 1)
    assert pinned is not kept and p._structures["propagation"] is pinned
    # the rows of a linearized copy have a plan of their own
    rows = FlatRows.padded([[x, y]], [[1.0, 0.0]], [0.5], ["added"])
    first = check(p.derive(linear_factor_rows=rows), 2)
    assert p._structures["propagation"] is pinned
    # the same rows with another rhs keep it ...
    assert check(p.derive(linear_factor_rows=FlatRows.padded(
        [[x, y]], [[1.0, 0.0]], [0.75], ["added"])), 2) is first
    # ... while other coefficients, even with the same zeros, another zero
    # pattern or other classes make a new one: one plan holds one R
    scaled = check(p.derive(linear_factor_rows=FlatRows.padded(
        [[x, y]], [[3.0, 0.0]], [0.75], ["added"])), 3)
    assert scaled is not first
    nonzero = check(p.derive(linear_factor_rows=FlatRows.padded(
        [[x, y]], [[1.0, 2.0]], [0.5], ["added"])), 4)
    assert nonzero is not scaled
    other = check(p.derive(linear_factor_rows=FlatRows.padded(
        [[y, x]], [[1.0, 0.0]], [0.5], ["added"])), 5)
    assert p._structures["propagation_linearized"] is other


# --- affine layer ---------------------------------------------------------------

def test_interlacing_bound_runs_before_any_factorisation(monkeypatch):
    p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                         shared_random_bit("triangle"))

    def refuse(*args, **kwargs):
        raise AssertionError("the rows were factored before the interlacing bound")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(_ClassSystem, "factor_rows", refuse)
    monkeypatch.setattr(sdp._PropagationPlan, "reduce", refuse)
    out = solve_feasibility(p)
    assert out.verdict == "infeasible"
    assert "interlacing" in out.evidence


@pytest.mark.parametrize("hierarchy", ["standard", "factorisation"])
def test_fully_determined_n3_solve_takes_one_eigendecomposition(monkeypatch,
                                                               hierarchy):
    p = pin_distribution(cached_problem(hierarchy, *BILOCAL_111, 3),
                         uniform_product(BILOCAL))
    if p.factor_pairs:
        p = factorisation.pin_linearize(p)
    assert len(_ClassSystem(p).free) == 0
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: calls.append(M.shape) or eigvalsh(M))
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.evidence == "fully determined by the linear constraints"
    assert calls == [(1, p.dim, p.dim)]


def uniform_product(sc):
    return product_distribution(
        sc, [np.full((k, x), 1.0 / k) for k, x in zip(sc.outputs, sc.inputs)])


def test_triangle_inflation_accepts_the_uniform_product_without_svd(monkeypatch):
    p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                         uniform_product(Scenario(*TRIANGLE_111)))
    # the copy blocks are structure of the problem, found once (one SVD of
    # the relations in each index block), and so are those of the problem
    # restricted to the table's stabiliser; the rows are not
    p.copy_blocks
    symmetry.restrict(p)[1].copy_blocks

    def refuse(*args, **kwargs):
        raise AssertionError("the rows were factored by an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.evidence == ("interior point witness (min eigenvalue >= -tol, "
                            "every residual family <= 10*tol)")
    assert max(out.residuals.families().values()) <= 1e-6


def _factor_rows_problem(name):
    if name == "chsh":
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(0.7))
    if name == "bilocal-inflation":
        return pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                                MomentOracle(random_strategy(
                                    BILOCAL, (2, 2, 2, 2), 0)).born())
    if name == "factorisation-n3":
        # B and C with one input: every pair linearizes, some with a float
        # coefficient (half-linearized rows)
        sc = Scenario("bilocal", (2, 2, 2), (2, 1, 1))
        p = pin_distribution(build_factorisation_bilocal(sc, 3),
                             MomentOracle(random_strategy(sc, (2, 2, 2, 2), 7)).born())
        return factorisation.pin_linearize(p)
    return pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                            uniform_product(Scenario(*TRIANGLE_111)))


@pytest.mark.parametrize("name", ["chsh", "bilocal-inflation",
                                  "factorisation-n3", "triangle-uniform"])
def test_factor_rows_match_an_svd_reference(name):
    cs = _ClassSystem(_factor_rows_problem(name))
    assert cs.factor_rows() == (True, "")
    R, b = dense_rows(cs), cs.b
    if name == "factorisation-n3":
        assert np.any(R != np.round(R))
    u, s, vt = np.linalg.svd(R, full_matrices=False)
    rank = int((s > s[0] * max(R.shape) * np.finfo(float).eps).sum())
    y_ref = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    assert cs.N.shape == (len(cs.free), len(cs.free) - rank)
    assert np.abs(cs.y0 - y_ref).max() <= 1e-10
    assert np.abs(R @ cs.N).max() <= 1e-12
    assert np.abs(cs.N.T @ cs.N - np.eye(cs.N.shape[1])).max() <= 1e-12


def test_inconsistent_rows_are_an_infeasibility_certificate():
    p, _obj = chsh_problem_and_objective()
    x, y = (int(c) for c in _ClassSystem(p).free[:2])
    rows = FlatRows.padded([[x, y], [x, y]], [[1.0, 1.0], [1.0, 1.0]],
                           [1.0, 2.0], ["added", "added"])
    out = solve_feasibility(dataclasses.replace(p, linear_factor_rows=rows))
    assert out.verdict == "infeasible"
    # x + y = 1 pivots; the second row keeps the residual 1 - 2
    assert out.evidence == ("linear system inconsistent: added row residual "
                            "-1.000e+00 after elimination")


def _count_eliminations(monkeypatch):
    """Count the calls of ``sdp._eliminate`` from here on."""
    calls = []
    eliminate = sdp._eliminate

    def counted(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(sdp, "_eliminate", counted)
    return calls


def _x_plus_y_rows(p, x, y, coeffs, rhs):
    return p.derive(linear_factor_rows=FlatRows.padded(
        [[x, y], [x, y]], coeffs, rhs, ["added", "added"]))


def test_factorisation_is_kept_until_the_rows_change(monkeypatch):
    p, _obj = chsh_problem_and_objective()
    p = dataclasses.replace(p)
    x, y = (int(c) for c in _ClassSystem(p).free[:2])
    calls = _count_eliminations(monkeypatch)
    first = _ClassSystem(_x_plus_y_rows(p, x, y, [[1.0, 1.0], [1.0, 1.0]],
                                        [1.0, 1.0]))
    assert first.factor_rows() == (True, "")
    assert len(calls) == 1
    # the same rows with another rhs reuse the kept factorisation, and the
    # residual of the dependent row still shows
    rhs_only = _x_plus_y_rows(p, x, y, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    out = solve_feasibility(rhs_only)
    assert len(calls) == 1
    assert out.verdict == "infeasible"
    assert out.evidence == ("linear system inconsistent: added row residual "
                            "-1.000e+00 after elimination")
    # a changed coefficient factors again, and the new entry replaces the old
    changed = _ClassSystem(_x_plus_y_rows(p, x, y, [[1.0, 1.0], [1.0, 2.0]],
                                          [1.0, 2.0]))
    assert changed.factor_rows() == (True, "")
    assert len(calls) == 2
    assert changed.factor is not first.factor
    assert p._structures["propagation_linearized"].factor is changed.factor


def test_distributions_pinned_on_one_problem_share_one_factorisation(monkeypatch):
    base = dataclasses.replace(cached_problem("inflation", *BILOCAL_111, 2, 2))
    calls = _count_eliminations(monkeypatch)
    systems = [_ClassSystem(pin_distribution(base, _born(seed))) for seed in (0, 1)]
    for cs in systems:
        assert cs.factor_rows() == (True, "")
        assert solve_feasibility(cs.problem).verdict == "feasible"
    assert len(calls) == 1
    assert systems[0].factor is systems[1].factor
    # the interior point's constraint rows are built once per plan
    assert systems[0].plan.phase1_rows(systems[0].problem) \
        is systems[1].plan.phase1_rows(systems[1].problem)


def test_the_interior_point_reads_one_packed_array_per_problem(monkeypatch):
    solve_lmi, seen = interior.solve_lmi, []

    def capture(C, A, b, **kwargs):
        seen.append(A)
        return solve_lmi(C, A, b, **kwargs)

    monkeypatch.setattr(interior, "solve_lmi", capture)
    base = dataclasses.replace(cached_problem("inflation", *BILOCAL_111, 2, 2))
    for seed in (0, 1):
        out = solve_feasibility(pin_distribution(base, _born(seed)))
        assert out.verdict == "feasible" and out.route.interior
    assert len(seen) == 2 and seen[0] is seen[1]
    # an objective's solve reads the first p of the phase-1 rows in place
    # (the feasibility solve of this table accepts at its start, with no
    # solve)
    p, obj = chsh_problem_and_objective()
    p = dataclasses.replace(p)
    assert solve_feasibility(p).route.interior
    maximize_linear(p, obj)
    assert len(seen) == 3
    rows = _ClassSystem(p).plan.phase1_rows(p)
    assert len(seen[2]) == len(rows) - 1
    assert np.shares_memory(seen[2], rows)


def test_interlacing_words_are_kept_until_the_known_mask_changes(monkeypatch):
    base = dataclasses.replace(cached_problem("inflation", *BILOCAL_111, 2, 2))
    calls = _count_plans(monkeypatch)
    first = _ClassSystem(pin_distribution(base, _born(0)))
    first_bound = first.known_submatrix_bound()
    kept = base._structures["propagation"]
    words = kept.interlacing
    # another distribution leaves the same mask and reuses the plan, and
    # with it the choice of words
    _ClassSystem(pin_distribution(base, _born(1))).known_submatrix_bound()
    assert len(calls) == 1 and base._structures["propagation"] is kept
    assert kept.interlacing is words
    # a second pin that makes one more class known chooses again
    extra = first.problem.derive(
        pinned={**first.problem.pinned, int(first.free[0]): 0.25})
    cs = _ClassSystem(extra)
    got = cs.known_submatrix_bound()
    assert len(calls) == 2 and base._structures["propagation"] is not kept
    assert got[1] != first_bound[1]
    assert got[1] == loop_submatrix_words(cs.known, extra.cell_class)
    # the same bound as a problem with no structures built
    fresh = dataclasses.replace(extra)
    assert "propagation" not in fresh._structures
    assert _ClassSystem(fresh).known_submatrix_bound() == got


def _cache_problems(name):
    """A problem with a factorisation kept from another distribution, and
    the problem pinned to the distribution ``name``."""
    kind, _, label = name.partition(":")
    if kind == "bilocal-inflation":
        base = cached_problem("inflation", *BILOCAL_111, 2, 2)
        return pin_distribution(base, _born(9)), pin_distribution(base, _born(int(label)))
    if kind == "chsh":
        base = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2)
        return (pin_distribution(base, noisy_pr_box(0.5)),
                pin_distribution(base, noisy_pr_box(float(label))))
    sc = Scenario(*TRIANGLE_111)
    base = cached_problem("inflation", *TRIANGLE_111, 2, 2)

    def mix(v):
        return Distribution(sc, v * shared_random_bit("triangle").table
                            + (1 - v) * uniform_product(sc).table)

    return pin_distribution(base, mix(0.1)), pin_distribution(base, mix(float(label)))


CACHE_CASES = ([f"bilocal-inflation:{seed}" for seed in range(6)]
               + ["triangle:0", "triangle:0.2", "chsh:0.70", "chsh:0.725"])


@pytest.mark.parametrize("name", CACHE_CASES)
def test_cached_factorisation_matches_a_fresh_one(name):
    warm, p = _cache_problems(name)
    assert _ClassSystem(warm).factor_rows() == (True, "")
    cached, fresh = _ClassSystem(p), _ClassSystem(dataclasses.replace(p))
    assert cached.factor_rows() == (True, "") and fresh.factor_rows() == (True, "")
    assert cached.factor is p._structures["propagation"].factor \
        is warm._structures["propagation"].factor
    assert fresh.factor is not cached.factor
    assert np.abs(cached.y0 - fresh.y0).max() <= 1e-12
    assert cached.N.shape == fresh.N.shape
    assert np.abs(cached.N - fresh.N @ (fresh.N.T @ cached.N)).max() <= 1e-10
    got, want = solve_feasibility(p), solve_feasibility(dataclasses.replace(p))
    assert (got.verdict, got.evidence) == (want.verdict, want.evidence)
    assert abs(got.t_star - want.t_star) <= 1e-9


def test_the_plan_owns_one_factorisation_in_the_elimination_order(monkeypatch):
    base = dataclasses.replace(cached_problem("inflation", *BILOCAL_111, 2, 2))
    calls = _count_eliminations(monkeypatch)
    for seed in range(20):
        cs = _ClassSystem(pin_distribution(base, _born(seed)))
        assert cs.factor_rows() == (True, "")
        assert cs.factor is cs.plan.factor is base._structures["propagation"].factor
    assert len(calls) == 1
    for name in CACHE_CASES:
        cs = _ClassSystem(_cache_problems(name)[1])
        assert cs.factor_rows() == (True, "")
        # the LU keeps the elimination's column order
        lu = cs.factor.lu
        assert np.array_equal(lu.perm_c, np.arange(lu.shape[1]))
        starts, cols, vals = cs.plan.R
        m = len(cs.b)
        resid = np.bincount(np.repeat(np.arange(m), np.diff(starts)),
                            weights=vals * cs._pivot_solution[cols], minlength=m)
        assert np.abs(resid - cs.b).max(initial=0.0) <= LINEAR_TOL * 1e-3


def test_feasible_requires_every_residual_family_within_the_gate():
    p = pin_distribution(cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
                         noisy_pr_box(0.7))
    good = solve_feasibility(p)
    assert good.verdict == "feasible"
    y = good.witness.reshape(-1)[p.class_first]
    assert _verdict(p, y, good.t_star, False, 0, 1e-7, 1e-4,
                    accept="x").verdict == "feasible"
    # scale every class value by 1 + 1e-3: X stays a candidate (min
    # eigenvalue >= -tol), while the pins, G[1, 1] = 1 among them, move
    out = _verdict(p, y * (1 + 1e-3), good.t_star, False, 0, 1e-7, 1e-4,
                   accept="interior point")
    assert out.verdict == "inconclusive"
    assert out.witness is None
    family, worst = max(out.residuals.families().items(), key=lambda kv: kv[1])
    assert worst > 1e-6
    assert f"{family} residual {worst:.3e}" in out.evidence


def _gate_problem(name):
    if name == "standard3":
        # a Born table that the presolve determines fully at n = 3
        return pin_distribution(cached_problem("standard", *BILOCAL_111, 3), _born(3))
    return _accept_problem(name)


@pytest.mark.parametrize("name", ["triangle-uniform", "bilocal:0", "bilocal:1",
                                  "bilocal:2", "standard3"])
def test_the_gate_reports_what_check_assignment_reads_from_the_witness(name):
    p = _gate_problem(name)
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    if name == "triangle-uniform":
        assert out.symmetry.order == 8
    if name == "standard3":
        assert out.evidence == "fully determined by the linear constraints"
    # the problem that was solved: the restricted one, when a stabiliser applies
    q = p if out.symmetry is None else symmetry.restrict(p)[1]
    rep = moment.check_assignment(q, moment.MomentAssignment(q, out.witness))
    for field in dataclasses.fields(rep):
        assert getattr(out.residuals, field.name) == getattr(rep, field.name), \
            field.name


# --- SDPA export ------------------------------------------------------------------

@pytest.mark.parametrize("entry, message", [
    ("0 1 0 5 nan", "cell (-1,4) outside dimension"),
    ("0 1 0 5 1.0", "cell (-1,4) outside dimension"),
    ("0 1 1 6 1.0", "cell (0,5) outside dimension"),
    ("0 1 2 1 1.0", "cell (1,0) outside dimension"),
    ("0 1 1 1 nan", "non-finite coefficient"),
    ("0 1 1 2 inf", "non-finite coefficient"),
])
def test_parse_sdpa_checks_objective_cells_as_rows(tmp_path, entry, message):
    path = tmp_path / "bad.dat-s"
    path.write_text(f"1\n1\n5\n1.0\n{entry}\n1 1 1 1 1.0\n")
    with pytest.raises(SdpStructureError, match=re.escape(message)):
        parse_sdpa(str(path))
    # the same entry on a constraint row
    path.write_text(f"1\n1\n5\n1.0\n1{entry[1:]}\n")
    with pytest.raises(SdpStructureError, match=re.escape(message)):
        parse_sdpa(str(path))


def test_sdpa_golden_minimal_file(tmp_path):
    s = AffineSdp(dim=1, rows=(SdpRow(((0, 0),), (1.0,), 1.0),))
    path = tmp_path / "one.dat-s"
    export_sdpa(s, str(path))
    golden = os.path.join(os.path.dirname(__file__), "golden", "one_by_one.dat-s")
    with open(golden) as fh:
        assert path.read_text() == fh.read()


def test_sdpa_roundtrip_without_constraint_rows(tmp_path):
    # the RHS line of such a file is blank; the first entry line follows it
    s = AffineSdp(dim=2, rows=(), objective_cells=((0, 0), (0, 1)),
                  objective_coeffs=(1.0, 0.5))
    path = tmp_path / "empty.dat-s"
    export_sdpa(s, str(path))
    assert path.read_text().splitlines()[3] == ""
    parsed = parse_sdpa(str(path))
    assert parsed.dim == 2 and parsed.rows == ()
    assert parsed.objective_cells == s.objective_cells
    assert parsed.objective_coeffs == s.objective_coeffs


SDPA_FIXTURES = ["standard-bell3", "factorisation-srb", "scalar", "inflation",
                 "chsh"]


def compile_fixture(name):
    """The problem and objective of a named compile fixture."""
    if name == "standard-bell3":
        return cached_problem("standard", "bell3", (2, 2, 2), (1, 1, 1), 2), None
    if name == "factorisation-srb":
        p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                             shared_random_bit("bilocal"))
        return factorisation.pin_linearize(p), None
    if name == "scalar":
        return cached_problem("scalar", *BILOCAL_111, 2), None
    if name == "inflation":
        return cached_problem("inflation", *BILOCAL_111, 2, 2), None
    if name == "triangle-inflation":
        return cached_problem("inflation", *TRIANGLE_111, 2, 2), None
    return chsh_problem_and_objective()


@pytest.mark.parametrize("fixture", SDPA_FIXTURES)
def test_sdpa_roundtrip_byte_exact(tmp_path, fixture):
    problem, objective = compile_fixture(fixture)
    s = compile(problem, objective=objective)
    path1 = tmp_path / "a.dat-s"
    path2 = tmp_path / "b.dat-s"
    export_sdpa(s, str(path1))
    parsed = parse_sdpa(str(path1))
    assert parsed.dim == s.dim
    assert parsed.rows == s.rows
    assert parsed.objective_cells == s.objective_cells
    assert parsed.objective_coeffs == s.objective_coeffs
    export_sdpa(parsed, str(path2))
    assert path1.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("fixture", SDPA_FIXTURES + ["triangle-inflation"])
def test_compile_matches_the_loop_reference(fixture):
    problem, objective = compile_fixture(fixture)
    s = compile(problem, objective=objective)
    assert s.rows == loop_compile_rows(problem)
    reps = loop_class_rep_cells(problem)
    assert s.objective_cells == tuple(reps[c] for c in sorted(objective or ()))
