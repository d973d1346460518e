"""Moment-problem compilation: classes, pins, factor families, orbits."""

import dataclasses
import itertools
import os
import re

import numpy as np
import pytest

from netnpa import factorisation, words
from netnpa.moment import (
    NO_ROWS,
    BudgetError,
    FlatRows,
    MomentAssignment,
    PinConflictError,
    _build_groups,
    _components,
    _copy_merges,
    _min_key,
    _Products,
    build_factorisation_bilocal,
    build_inflation,
    build_standard,
    build_star_factorisation,
    check_assignment,
    inflation_to_scalar_extension,
    oracle_assignment,
    pin_distribution,
    required_inflation_words,
    scalar_key_image,
)
from netnpa.scenarios import (
    Distribution,
    InflatedBilocalOracle,
    MomentOracle,
    Scenario,
    SignallingError,
    mixed_counterexample,
    point_distribution,
    product_distribution,
    random_strategy,
    shared_random_bit,
)
from netnpa.words import (
    EMPTY_WORD,
    act_permutation,
    concat,
    enumerate_words,
    scalar_letter,
    word,
)

from helpers import (
    BILOCAL_111,
    TRIANGLE_111,
    all_sequences,
    cached_problem,
    loop_cells,
    loop_check_assignment,
    loop_flat_rows,
    loop_pin_distribution,
    loop_rows,
    loop_structure,
    meas,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

BILOCAL = Scenario(*BILOCAL_111)
TRIANGLE = Scenario(*TRIANGLE_111)
BELL3 = Scenario("bell3", (2, 2, 2), (1, 1, 1))

A0 = word([meas("A", 0, 0)])
A1 = word([meas("A", 1, 0)])
B0 = word([meas("B", 0, 0)])
C0 = word([meas("C", 0, 0)])


def test_standard_bell3_n1_index_size():
    p = cached_problem("standard", *("bell3", (2, 2, 2), (1, 1, 1)), 1)
    assert p.dim == 7
    assert p.index[0] == EMPTY_WORD


def test_standard_class_merge_example():
    p = cached_problem("standard", *("bell3", (2, 2, 2), (1, 1, 1)), 2)
    assert p.class_of_cell(A0, B0) == p.class_of_cell(EMPTY_WORD, concat(A0, B0))


def test_empty_word_pinned_to_one():
    p = cached_problem("standard", *("bell3", (2, 2, 2), (1, 1, 1)), 1)
    assert p.pinned[p.class_of_cell(EMPTY_WORD, EMPTY_WORD)] == 1.0


def test_problem_dump_golden():
    p = build_standard(BELL3, 1)
    with open(os.path.join(GOLDEN, "bell3_n1_dump.txt")) as fh:
        assert p.describe() + "\n" == fh.read()


def test_pin_distribution_shared_random_bit():
    p = cached_problem("standard", *BILOCAL_111, 3)
    pp = pin_distribution(p, shared_random_bit("bilocal"))
    assert pp.pinned[pp.class_of_cell(EMPTY_WORD, A0)] == 0.5
    assert pp.pinned[pp.class_of_cell(EMPTY_WORD, C0)] == 0.5
    assert pp.pinned[pp.class_of_cell(A0, C0)] == 0.5
    full = concat(A0, concat(B0, C0))
    assert pp.pinned[pp.class_of_cell(EMPTY_WORD, full)] == 0.5


def test_pin_point_distribution():
    p = cached_problem("standard", *BILOCAL_111, 3)
    pp = pin_distribution(p, point_distribution(BILOCAL, (0, 0, 0)))
    full = concat(A0, concat(B0, C0))
    assert pp.pinned[pp.class_of_cell(EMPTY_WORD, full)] == 1.0


def test_pin_signalling_rejected():
    sc = Scenario("bilocal", (2, 2, 2), (1, 2, 1))
    table = np.zeros((2, 2, 2, 1, 2, 1))
    for y, pa in ((0, 0.5), (1, 0.9)):
        table[0, 0, 0, 0, y, 0] = pa
        table[1, 0, 0, 0, y, 0] = 1 - pa
    dist = Distribution(sc, table)
    p = build_standard(sc, 3)
    with pytest.raises(SignallingError):
        pin_distribution(p, dist)


def _relabeled(dist, rng):
    table = dist.table
    for axis, k in enumerate(dist.scenario.outputs):
        table = np.take(table, rng.permutation(k), axis=axis)
    return Distribution(dist.scenario, table)


def _pin_cases():
    srb = shared_random_bit("triangle")
    for k in range(3):
        yield pytest.param(
            ("inflation", *TRIANGLE_111, 2, 2),
            lambda k=k: _relabeled(srb, np.random.default_rng(k)),
            id=f"triangle-srb-{k}")
    yield pytest.param(
        ("inflation", *TRIANGLE_111, 2, 2),
        lambda: product_distribution(TRIANGLE, [np.full((2, 1), 0.5)] * 3),
        id="triangle-uniform")
    for seed in (0, 1, 2):
        yield pytest.param(
            ("inflation", *BILOCAL_111, 2, 2),
            lambda seed=seed: MomentOracle(random_strategy(
                BILOCAL, (2, 2, 2, 2), seed)).born(),
            id=f"bilocal-inflation-{seed}")
    mixture = Distribution(BILOCAL, 0.3 * shared_random_bit("bilocal").table
                           + 0.7 * np.full((2, 2, 2, 1, 1, 1), 0.125))
    born = MomentOracle(random_strategy(BILOCAL, (2, 2, 2, 2), 4)).born()
    for name in ("standard", "factorisation"):
        for label, dist in (("srb", shared_random_bit("bilocal")),
                            ("mixture", mixture), ("born", born)):
            yield pytest.param((name, *BILOCAL_111, 3), lambda dist=dist: dist,
                               id=f"{name}-{label}")


@pytest.mark.parametrize("problem,dist", _pin_cases())
def test_pin_plan_matches_the_loop_reference(problem, dist):
    p = cached_problem(*problem)
    d = dist()
    # equal values, not close ones: the plan multiplies the same factors in
    # the same order as the loop
    assert pin_distribution(p, d).pinned == loop_pin_distribution(p, d).pinned


@pytest.mark.parametrize("merge,held", [(True, False), (False, True),
                                        (True, True), ("late", True)],
                         ids=["spread", "held", "spread-first", "held-first"])
def test_pin_conflicts_name_the_first_class_as_the_loop_does(merge, held):
    p = cached_problem("standard", *("bell3", (2, 2, 2), (1, 1, 1)), 2)
    dist = point_distribution(BELL3, (0, 0, 0))
    a0, a1, b0, c0, c1 = (p.class_of_cell(EMPTY_WORD, w) for w in (
        A0, A1, B0, C0, word([meas("C", 1, 0)])))
    changes = {}
    if merge:
        # a class holding keys that pin to 1 (A0 or C0) and to 0 (A1 or C1)
        keep, drop = (c0, c1) if merge == "late" else (a0, a1)
        changes["group_class"] = np.where(p.group_class == drop, keep,
                                          p.group_class)
        changes["cell_class"] = np.where(p.cell_class == drop, keep, p.cell_class)
    if held:
        # a class already pinned to a value other than the one it pins to
        changes["pinned"] = {**p.pinned, (b0 if merge is True else a0): 0.25}
    assert a0 < b0 < c0
    q = dataclasses.replace(p, **changes)
    with pytest.raises(PinConflictError) as ref:
        loop_pin_distribution(q, dist)
    with pytest.raises(PinConflictError) as got:
        pin_distribution(q, dist)
    assert str(got.value) == str(ref.value)
    assert ("of one class pin to" in str(got.value)) == (merge is True)


def test_factor_pairs_enumeration():
    p = cached_problem("factorisation", *BILOCAL_111, 3)
    # brute force: nonempty A-words x nonempty C-words in the index
    a_words = [w for w in p.index if len(w) >= 1
               and all(l.party == "A" for l in w.letters)]
    c_words = [w for w in p.index if len(w) >= 1
               and all(l.party == "C" for l in w.letters)]
    assert len(p.factor_pairs) == len(a_words) * len(c_words) == 36
    pairs = {(fc.row_word, fc.col_word) for fc in p.factor_pairs}
    assert (A0, C0) in pairs
    assert all(len(a) >= 1 and len(c) >= 1 for a, c in pairs)


def test_factor_pair_transpose_symmetry():
    p = cached_problem("factorisation", *BILOCAL_111, 3)
    assert p.class_of_cell(A0, C0) == p.class_of_cell(C0, A0)


def test_star_families():
    p = cached_problem("star", "star4", (2, 2, 2, 2), (1, 1, 1, 1), 4)
    party_pairs = {tuple(sorted({l.party for l in fc.row_word.letters}
                                | {l.party for l in fc.col_word.letters}))
                   for fc in p.factor_pairs}
    assert party_pairs == {("A", "C"), ("A", "D"), ("C", "D")}
    assert all("B" not in pp for pp in party_pairs)
    assert p.factor_triples
    for fc in p.factor_triples:
        assert {l.party for l in fc.row_word.letters} == {"A", "C"}
        assert {l.party for l in fc.col_word.letters} == {"D"}


def test_star_requires_level_4():
    sc = Scenario("star4", (2, 2, 2, 2), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        build_star_factorisation(sc, 3)


def test_scalar_extension_identifications():
    p = cached_problem("scalar", *BILOCAL_111, 3)
    kA0 = word([scalar_letter(A0)])
    # Eq. with gamma = 1: class(1, A0) merged with class(1, kappa_A0)
    assert p.class_of_cell(EMPTY_WORD, A0) == p.class_of_cell(EMPTY_WORD, kA0)
    # and with gamma = C0
    assert (p.class_of_cell(EMPTY_WORD, concat(A0, C0))
            == p.class_of_cell(EMPTY_WORD, concat(kA0, C0)))
    # kappa letters commute: identical canonical words, same index position
    w1 = concat(kA0, concat(B0, C0))
    w2 = concat(B0, concat(kA0, C0))
    assert w1 == w2
    std = cached_problem("standard", *BILOCAL_111, 3)
    assert p.dim > std.dim


def test_class_average_is_the_per_class_cell_mean():
    rng = np.random.default_rng(1)
    for p in (cached_problem("inflation", *BILOCAL_111, 2, 2),
              cached_problem("standard", *BILOCAL_111, 3)):
        class_cells = loop_cells(p.cell_class, p.n_classes)
        cells = np.concatenate(class_cells)
        assert np.array_equal(np.sort(cells), np.arange(p.dim ** 2))
        G = rng.standard_normal((p.dim, p.dim))
        X = G + G.T
        per_class = np.array([X.reshape(-1)[c].mean() for c in class_cells])
        assert np.abs(p.class_average(X) - per_class).max() < 1e-12
        assert np.array_equal(MomentAssignment(p, X).class_values(),
                              p.class_average(X))


def test_flat_rows_from_padded_arrays():
    rows = FlatRows.padded([[3, -1, -1], [1, 2, 0]],
                           [[1.0, 9.0, 9.0], [0.5, 0.0, -1.0]], [0.25, 0.0],
                           ["a", "b"])
    assert rows.classes.tolist() == [3, 1, 2, 0]
    assert rows.coeffs.tolist() == [1.0, 0.5, 0.0, -1.0]   # the zero is kept
    assert rows.row.tolist() == [0, 1, 1, 1]
    assert rows.starts.tolist() == [0, 1, 4]
    assert rows.families == ("a", "b") and len(rows) == 2
    assert rows + rows == loop_flat_rows(loop_rows(rows) * 2)
    assert rows + NO_ROWS is rows
    # equality reads the dtypes too
    assert dataclasses.replace(rows, row=rows.row.astype(np.int32)) != rows


STRUCTURES = ("group_layout", "class_layout", "class_counts", "pin_plan")


def test_pinned_and_linearized_copies_share_the_derived_structures():
    # a fresh build, with nothing built yet
    p = build_factorisation_bilocal(BILOCAL, 2)
    pinned = pin_distribution(p, shared_random_bit("bilocal"))
    linearized = factorisation.pin_linearize(pinned)
    assert linearized.linear_factor_rows
    # whichever copy builds a structure first, all of them use it
    assert pinned.group_layout is p.group_layout
    for q in (pinned, linearized):
        for name in STRUCTURES:
            assert getattr(q, name) is getattr(p, name), name
    # the linearized copy's active rows are the shared rows followed by
    # its own
    assert linearized.active_rows == loop_flat_rows(
        loop_rows(p.rows) + loop_rows(linearized.linear_factor_rows))
    assert p.active_rows is p.rows
    # dataclasses.replace carries nothing; it builds equal structures anew
    fresh = dataclasses.replace(pinned)
    for name in STRUCTURES:
        assert getattr(fresh, name) is not getattr(p, name), name
    assert np.array_equal(fresh.class_counts, p.class_counts)
    with pytest.raises(ValueError, match="use dataclasses.replace"):
        p.derive(rows=())


@pytest.mark.parametrize("name", ["bilocal-inflation", "standard-n3",
                                  "factorisation-n3"])
def test_check_assignment_matches_the_loop_reference(name):
    born = MomentOracle(random_strategy(BILOCAL, (2, 2, 2, 2), 0)).born()
    if name == "bilocal-inflation":
        p = pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2), born)
    elif name == "standard-n3":
        p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), born)
    else:
        # linearized factor pairs: the factorisation family is populated
        p = factorisation.pin_linearize(pin_distribution(
            cached_problem("factorisation", *BILOCAL_111, 3), born))
    rng = np.random.default_rng(2)
    for _ in range(3):
        G = rng.standard_normal((p.dim, p.dim))
        a = MomentAssignment(p, G + G.T)
        got = check_assignment(p, a).families()
        ref = loop_check_assignment(p, a).families()
        assert got.keys() == ref.keys()
        for family in ref:
            assert abs(got[family] - ref[family]) <= 1e-12, family


def test_inflation_orbit_merges():
    p = cached_problem("inflation", *BILOCAL_111, 2, 2)
    a1c1 = concat(word([meas("A", copies=(1,))]), word([meas("C", copies=(1,))]))
    a2c2 = concat(word([meas("A", copies=(2,))]), word([meas("C", copies=(2,))]))
    assert p.class_of_cell(EMPTY_WORD, a1c1) == p.class_of_cell(EMPTY_WORD, a2c2)


def test_inflation_triangle_pins_and_symmetry():
    p = cached_problem("inflation", *TRIANGLE_111, 2, 2)
    pp = pin_distribution(p, shared_random_bit("triangle"))
    A11 = word([meas("A", 0, 0, (1, 1))])
    B11 = word([meas("B", 0, 0, (1, 1))])
    C12 = word([meas("C", 0, 0, (1, 2))])
    C11 = word([meas("C", 0, 0, (1, 1))])
    # diagonal marginal pin: Xi_{1, A11 B11} = sum_c q = 1/2
    assert pp.pinned[pp.class_of_cell(EMPTY_WORD, concat(A11, B11))] == 0.5
    # symmetry merge: B11 C12 ~ B11 C11 under the pi-copy swap
    assert (pp.class_of_cell(EMPTY_WORD, concat(B11, C12))
            == pp.class_of_cell(EMPTY_WORD, concat(B11, C11)))
    # cross-copy product pinned to the factorized value
    assert pp.pinned[pp.class_of_cell(A11, C12)] == 0.25
    # connected non-network component stays unpinned
    assert pp.class_of_cell(A11, concat(B11, C12)) not in pp.pinned


def test_inflation_orbit_closure_brute_force():
    from netnpa.words import act_permutation

    for m in (2, 3):
        sc = BILOCAL
        alph = sc.inflated_alphabet(m)
        words = enumerate_words(alph, 2)
        perms = [dict(zip(range(1, m + 1), images))
                 for images in itertools.permutations(range(1, m + 1))]
        if m == 3:
            words = words[:80]
        for w in words[:40]:
            orbit = {act_permutation(w, t1, t2, alphabet=alph)
                     for t1 in perms for t2 in perms}
            # closure: acting again never leaves the orbit
            for v in orbit:
                assert act_permutation(v, perms[1], perms[0],
                                       alphabet=alph) in orbit


def test_level_embedding():
    p2 = cached_problem("standard", *BILOCAL_111, 2)
    p3 = cached_problem("standard", *BILOCAL_111, 3)
    assert p3.index[:p2.dim] == p2.index
    # class restriction: cells of the sub-index share classes exactly when
    # they do in the smaller problem
    n2 = p2.dim
    for i in range(0, n2, 3):
        for j in range(i, n2, 3):
            for k in range(0, n2, 3):
                for l in range(k, n2, 3):
                    same_small = p2.cell_class[i, j] == p2.cell_class[k, l]
                    same_big = p3.cell_class[i, j] == p3.cell_class[k, l]
                    assert same_small == same_big


def test_budget_guard():
    with pytest.raises(BudgetError):
        build_standard(BILOCAL, 3, budget=10)


def test_literal_paper_mode_drops_completeness():
    p = build_standard(BILOCAL, 2, completeness=False)
    assert not p.rows


def test_oracle_assignment_satisfies_all_hierarchies():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 21)
    orc = MomentOracle(st)
    dist = orc.born()
    for name, args in (("standard", (3, None)), ("factorisation", (3, None)),
                       ("scalar", (3, None)), ("inflation", (2, 2))):
        n, m = args
        p = cached_problem(name, *BILOCAL_111, n, m)
        pp = pin_distribution(p, dist)
        oracle = InflatedBilocalOracle(st, m) if name == "inflation" else orc
        a = oracle_assignment(pp, oracle)
        rep = check_assignment(pp, a)
        assert rep.max_residual() < 1e-10, (name, rep)


def test_check_assignment_identity_matrix():
    p = cached_problem("standard", *BILOCAL_111, 3)
    a = MomentAssignment(p, np.eye(p.dim))
    rep = check_assignment(p, a)
    # the empty-word pin holds on the identity, Hankel is violated
    assert rep.pins == 0.0
    assert rep.hankel >= 1.0 - 1e-12


def test_check_assignment_mixed_counterexample_factorisation_gap():
    p = cached_problem("factorisation", *BILOCAL_111, 3)
    orc = MomentOracle(mixed_counterexample())
    pp = pin_distribution(p, orc.born())
    a = oracle_assignment(pp, orc)
    rep = check_assignment(pp, a)
    assert abs(rep.factorisation - 0.25) < 1e-9
    assert max(rep.hankel, rep.pins, rep.completeness) < 1e-10


def test_scalar_key_image_injective_and_fresh_copies():
    omega = cached_problem("scalar", *BILOCAL_111, 2)
    m = 7
    images = [scalar_key_image(w, m, BILOCAL) for w in omega.index]
    assert len(set(images)) == len(images)
    # distinct scalar occurrences land on distinct copies
    kA0 = scalar_letter(A0)
    kk = word([kA0, kA0])
    img = scalar_key_image(kk, m, BILOCAL)
    copies = [l.copies for l in img.letters]
    assert sorted(copies) == [(2,), (3,)]


def test_inflation_to_scalar_extension_matches_direct_oracle():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 23)
    n, m = 2, 7
    words = required_inflation_words(BILOCAL, n, m)
    pxi = build_inflation(BILOCAL, n=max(len(w) for w in words), m=m,
                          index_words=words)
    infl = InflatedBilocalOracle(st, m)
    axi = oracle_assignment(pxi, infl)
    omega = inflation_to_scalar_extension(axi, n, m)
    rep = check_assignment(omega.problem, omega)
    assert rep.max_residual() < 1e-12
    direct = oracle_assignment(omega.problem, MomentOracle(st))
    assert np.abs(omega.matrix - direct.matrix).max() < 1e-12


def test_inflation_to_scalar_extension_m_bound():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 23)
    words = required_inflation_words(BILOCAL, 2, 7)
    pxi = build_inflation(BILOCAL, n=4, m=7, index_words=words)
    axi = oracle_assignment(pxi, InflatedBilocalOracle(st, 7))
    with pytest.raises(ValueError, match="bound"):
        inflation_to_scalar_extension(axi, 2, 3)


def test_paper_cellwise_relation_omega_from_xi():
    # Omega(1, a g) = Xi(1, a^1 g^1) = Xi(1, a^k g^1) = Omega(1, kappa_a g)
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 29)
    infl = InflatedBilocalOracle(st, 7)
    a1c1 = concat(word([meas("A", copies=(1,))]), word([meas("C", copies=(1,))]))
    akc1 = concat(word([meas("A", copies=(5,))]), word([meas("C", copies=(1,))]))
    orc = MomentOracle(st)
    ac = concat(A0, C0)
    assert abs(infl.value(a1c1) - orc.value(ac)) < 1e-12
    assert abs(infl.value(akc1) - orc.value(ac)) < 1e-12


def test_classes_are_a_congruence_without_merges():
    # standard problems: every class is a single Hankel group, and all its
    # cells recompute to the same canonical product (exhaustive at n <= 3)
    from netnpa.words import involute

    for n in (1, 2, 3):
        p = cached_problem("standard", *BILOCAL_111, n)
        for cls in range(p.n_classes):
            groups = p.class_groups(cls)
            assert len(groups) == 1
            key = p.group_keys[groups[0]]
            for flat in np.flatnonzero(p.cell_group == groups[0])[:6]:
                i, j = divmod(int(flat), p.dim)
                prod = concat(involute(p.index[i]), p.index[j])
                assert prod in (key, involute(key))


def test_shared_random_bit_passes_scalar_extension():
    # substituting each scalar symbol by its own payload operator gives an
    # explicit scalar-extension matrix for the shared random bit: the
    # scalar hierarchy cannot reject classical distributions
    from helpers import classical_mixture_strategy

    orc = MomentOracle(classical_mixture_strategy((0.5, 0.5),
                                                  ((0, 0, 0), (1, 1, 1))))
    p = cached_problem("scalar", *BILOCAL_111, 3)
    pp = pin_distribution(p, shared_random_bit("bilocal"))

    class SubstitutingOracle:
        def value(self, w):
            letters = []
            for l in w.letters:
                if l.is_scalar:
                    letters.extend(l.payload.letters)
                else:
                    letters.append(l)
            return orc.value(word(letters))

    a = oracle_assignment(pp, SubstitutingOracle())
    rep = check_assignment(pp, a)
    assert rep.max_residual() < 1e-12



def _partition(labels):
    blocks = {}
    for g, label in enumerate(labels.tolist()):
        blocks.setdefault(label, set()).add(g)
    return {frozenset(b) for b in blocks.values()}


def _full_group_orbits(keys, alphabet, m):
    # brute force: every element of (S_m)^sources applied to every key
    key_of = {k: g for g, k in enumerate(keys)}
    perms = [dict(zip(range(1, m + 1), images))
             for images in itertools.permutations(range(1, m + 1))]
    sources = alphabet.sources()
    return {frozenset(key_of[_min_key(act_permutation(
                k, None, alphabet=alphabet,
                perms_by_source=dict(zip(sources, combo))))]
                      for combo in itertools.product(perms, repeat=len(sources)))
            for k in keys}


def _copy_orbits(index, alphabet, m):
    keys, cell_group = _build_groups(_Products(index))
    merges = _copy_merges(index, cell_group, alphabet, m)
    return keys, _partition(_components(len(keys), *merges))


def test_generator_orbits_equal_full_group_orbits():
    p = cached_problem("inflation", *BILOCAL_111, 2, 2)
    alph3 = BILOCAL.inflated_alphabet(3)
    # the words of length <= 1 over three copies: closed under relabelling
    for index, alph, m in ((list(p.index), p.alphabet, 2),
                           (enumerate_words(alph3, 1), alph3, 3)):
        keys, orbits = _copy_orbits(index, alph, m)
        full = _full_group_orbits(keys, alph, m)
        assert orbits == full
        if m == 2:
            assert orbits == _partition(p.group_class)
        else:
            # the transposition alone (the m = 2 generators) splits some
            # orbits, so the m-cycle is exercised
            assert _copy_orbits(index, alph, 2)[1] != full


def test_copy_merges_reject_an_index_not_closed_under_relabelling():
    alph = BILOCAL.inflated_alphabet(2)
    index = enumerate_words(alph, 1)
    # drop a word that the copy swap moves: its preimage has no image left
    gone = word([meas("A", copies=(2,))])
    index.remove(gone)
    keys, cell_group = _build_groups(_Products(index))
    with pytest.raises(RuntimeError, match=re.escape(
            f"index word {word([meas('A', copies=(1,))])!r} to {gone!r}")):
        _copy_merges(index, cell_group, alph, 2)


@pytest.mark.parametrize("case", [
    ("inflation", TRIANGLE_111, 2, 2), ("inflation", BILOCAL_111, 2, 2),
    ("standard", BILOCAL_111, 3, None), ("factorisation", BILOCAL_111, 2, None),
    ("factorisation", BILOCAL_111, 3, None), ("factorisation", BILOCAL_111, 4, None),
    ("scalar", BILOCAL_111, 2, None),
], ids=lambda case: f"{case[0]}-{case[1][0]}-n{case[2]}" + (f"m{case[3]}" if case[3] else ""))
def test_structure_matches_the_loop_reference(case):
    hierarchy, topology, n, m = case
    p = cached_problem(hierarchy, *topology, n, m)
    ref = loop_structure(p)
    assert p.index == ref["index"]
    assert p.group_keys == ref["group_keys"]
    for name in ("cell_group", "group_class", "cell_class"):
        got, want = getattr(p, name), ref[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # order, classes, coefficients, right-hand sides and families
    assert p.rows == ref["rows"]
    assert p.check_products == ref["check_products"]


def test_inflation_build_sizes():
    for topology, sizes in ((TRIANGLE_111, (361, 21765, 3257, 5418)),
                            (BILOCAL_111, (161, 4433, 1182, 1910))):
        p = cached_problem("inflation", *topology, 2, 2)
        assert (p.dim, len(p.group_keys), p.n_classes, len(p.rows)) == sizes


def test_memoised_normal_forms_match_cold_computation():
    letters = BILOCAL.inflated_alphabet(2).letters
    seqs = list(all_sequences(letters, 4))
    cold = []
    for seq in seqs:
        words._BLOCK_NORMAL.clear()
        cold.append(words.canonicalize(seq))
    for seq in seqs:                       # fills the table
        words.canonicalize(seq)
    assert [words.canonicalize(seq) for seq in seqs] == cold
