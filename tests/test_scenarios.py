"""Scenarios, distributions, strategies, and moment oracles."""

import re

import numpy as np
import pytest

from netnpa.scenarios import (
    Distribution,
    InflatedBilocalOracle,
    MomentOracle,
    QuantumStrategy,
    Scenario,
    ScenarioError,
    SignallingError,
    born_eval,
    components,
    embed_operator,
    mixed_counterexample,
    point_distribution,
    product_distribution,
    random_strategy,
    read_distribution,
    shared_random_bit,
    sharing_components,
    star_product_strategy,
    validate_strategy,
    write_distribution,
)
from netnpa.words import EMPTY_WORD, concat, enumerate_words, involute, word

from helpers import (
    BILOCAL_111,
    UnionFind,
    cached_problem,
    gram_of,
    linked_components,
    loop_marginal,
    meas,
    oracle_word_gram,
    singlet_pauli_strategy,
    transposed_embed,
    word_keyed_vectors,
)

BILOCAL = Scenario("bilocal", (2, 2, 2), (1, 1, 1))


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        Scenario("bilocal", (2, 2), (1, 1, 1))
    with pytest.raises(ScenarioError):
        Scenario("bilocal", (2, 2, 0), (1, 1, 1))
    with pytest.raises(ScenarioError):
        Scenario("pentagon", (2, 2, 2), (1, 1, 1))


def test_shared_random_bit_values():
    d = shared_random_bit("triangle")
    assert d.q((0, 0, 0), (0, 0, 0)) == 0.5
    assert d.q((1, 1, 1), (0, 0, 0)) == 0.5
    assert d.q((0, 1, 0), (0, 0, 0)) == 0.0
    assert abs(d.table.sum() - 1.0) < 1e-15


def test_distribution_rejects_bad_tables():
    table = np.zeros((2, 2, 2, 1, 1, 1))
    table[0, 0, 0, 0, 0, 0] = 0.7
    with pytest.raises(ScenarioError, match="sum to 1"):
        Distribution(BILOCAL, table)
    table2 = np.zeros((2, 2, 2, 1, 1, 1))
    table2[0, 0, 0, 0, 0, 0] = 1.5
    table2[1, 1, 1, 0, 0, 0] = -0.5
    with pytest.raises(ScenarioError, match="negative"):
        Distribution(BILOCAL, table2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_rejects_non_finite_entries(bad):
    # NaN compares False both with the negativity and the normalisation test
    table = np.zeros((2, 2, 2, 1, 1, 1))
    table[1, 1, 1, 0, 0, 0] = 0.5
    table[0, 0, 0, 0, 0, 0] = bad
    with pytest.raises(ScenarioError, match="non-finite probability -?(nan|inf)"):
        Distribution(BILOCAL, table)


def test_signalling_marginal_rejected():
    # A's marginal depends on B's input
    sc = Scenario("bilocal", (2, 2, 2), (1, 2, 1))
    table = np.zeros((2, 2, 2, 1, 2, 1))
    for y, pa in ((0, 0.5), (1, 0.9)):
        table[0, 0, 0, 0, y, 0] = pa
        table[1, 0, 0, 0, y, 0] = 1 - pa
    dist = Distribution(sc, table)
    with pytest.raises(SignallingError, match="party B"):
        dist.marginal(("A",))


def test_signalling_error_names_the_deviating_input():
    # A outputs 0 for C's inputs 0 and 1, and 1 for C's input 2
    sc = Scenario("bilocal", (2, 2, 2), (1, 1, 3))
    table = np.zeros((2, 2, 2, 1, 1, 3))
    for z, a in ((0, 0), (1, 0), (2, 1)):
        table[a, 0, 0, 0, 0, z] = 1.0
    dist = Distribution(sc, table)
    with pytest.raises(SignallingError) as err:
        dist.marginal(("A",))
    assert str(err.value) == ("marginal over ('A',) depends on the input of "
                              "party C (inputs 0 vs 2; max deviation 1.000e+00)")


SUBSETS = [("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C"),
           ("A", "B", "C")]


def _first_marginals(marginals, subsets):
    """The marginals of ``subsets`` in order, or the first error's text."""
    try:
        return [marginals(sub) for sub in subsets]
    except SignallingError as err:
        return str(err)


@pytest.mark.parametrize("inputs", [(1, 1, 1), (2, 1, 2), (2, 2, 2)])
@pytest.mark.parametrize("kind", ["born", "signalling", "near-tol"])
def test_marginals_are_the_reference_marginals(inputs, kind):
    sc = Scenario("bilocal", (2, 2, 2), inputs)
    rng = np.random.default_rng(sum(inputs))
    if kind == "born":
        dist = born_eval(random_strategy(sc, (2, 2, 2, 2), 3))
    else:
        # a table whose marginals depend on the other parties' inputs, by
        # up to 1e-9 (one side of the tolerance or the other) or far more
        table = rng.random(sc.outputs + sc.inputs)
        if kind == "near-tol":
            base = born_eval(random_strategy(sc, (2, 2, 2, 2), 5)).table
            table = base + 1e-9 * (table - table.mean())
        table /= table.sum(axis=(0, 1, 2), keepdims=True)
        dist = Distribution(sc, table)
    for subsets in (SUBSETS, SUBSETS[::-1]):
        want = _first_marginals(lambda sub: loop_marginal(dist, sub), subsets)
        try:
            got = dist.marginals(subsets)
        except SignallingError as err:
            got = str(err)
        if isinstance(want, str):
            assert got == want
        else:
            assert len(got) == len(want)
            assert all(g.shape == w.shape and np.array_equal(g, w)
                       for g, w in zip(got, want))
    if kind == "signalling" and inputs != (1, 1, 1):
        assert isinstance(want, str)


def test_deterministic_strategy_point_distribution():
    sc = BILOCAL
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    psi = np.zeros(4)
    psi[0] = 1.0
    rho = np.outer(psi, psi)
    pvms = {
        ("A", 0): [P0, P1],
        ("B", 0): [np.kron(P0, np.eye(2)), np.kron(P1, np.eye(2))],
        ("C", 0): [P0, P1],
    }
    s = QuantumStrategy("tensor_bilocal", sc, (2, 2, 2, 2), pvms,
                        rho=rho, sigma=rho.copy())
    d = born_eval(s)
    expect = point_distribution(sc, (0, 0, 0))
    assert np.abs(d.table - expect.table).max() < 1e-12


def test_born_eval_singlet_against_direct_trace():
    """Independent oracle: dense kron arithmetic done from scratch here."""
    s = singlet_pauli_strategy()
    d = born_eval(s)
    tau = np.kron(s.rho, s.sigma)
    for x in range(2):
        for z in range(2):
            for a in range(2):
                for b in range(4):
                    for c in range(2):
                        A = np.kron(s.pvms[("A", x)][a], np.eye(8))
                        B = np.kron(np.eye(2), np.kron(s.pvms[("B", 0)][b],
                                                       np.eye(2)))
                        C = np.kron(np.eye(8), s.pvms[("C", z)][c])
                        direct = np.trace(tau @ A @ B @ C).real
                        assert abs(d.q((a, b, c), (x, 0, z)) - direct) < 1e-12


def test_born_eval_normalization_and_ac_factorisation():
    for seed in (0, 3):
        s = random_strategy(BILOCAL, (2, 2, 2, 2), seed)
        d = born_eval(s)
        n = len(d.scenario.parties)
        sums = d.table.sum(axis=tuple(range(n)))
        assert np.abs(sums - 1).max() < 1e-10
        ac = d.marginal(("A", "C"))
        a = d.marginal(("A",))
        c = d.marginal(("C",))
        assert np.abs(ac[:, :, 0, 0] - np.outer(a[:, 0], c[:, 0])).max() < 1e-10


def test_moment_oracle_basics():
    s = random_strategy(BILOCAL, (2, 2, 2, 2), 11)
    o = MomentOracle(s)
    assert abs(o.value(EMPTY_WORD) - 1.0) < 1e-12
    # Hankel identity: equal canonical products share values
    a0, b0, c0 = word([meas("A")]), word([meas("B")]), word([meas("C")])
    w1 = concat(a0, concat(b0, c0))
    assert abs(o.value(w1) - o.value(concat(c0, concat(b0, a0)))) < 1e-15


def test_moment_oracle_product_strategy_factorizes():
    # product source states: every cross moment factorizes
    sc = BILOCAL
    rng = np.random.default_rng(0)
    v1 = np.kron([1.0, 0.0], [0.6, 0.8])
    v2 = np.kron([0.8, -0.6], [0.0, 1.0])
    pvms = {}
    base = random_strategy(sc, (2, 2, 2, 2), 2).pvms
    s = QuantumStrategy("tensor_bilocal", sc, (2, 2, 2, 2), base,
                        rho=np.outer(v1, v1), sigma=np.outer(v2, v2))
    o = MomentOracle(s)
    a, c = word([meas("A")]), word([meas("C")])
    assert abs(o.value(concat(a, c)) - o.value(a) * o.value(c)) < 1e-12


def test_moment_oracle_gram_psd_for_commutator_strategy():
    s = mixed_counterexample()
    o = MomentOracle(s)
    words = enumerate_words(s.scenario.alphabet(), 3)
    G = o.gram(words)
    assert np.linalg.eigvalsh(G).min() > -1e-9


def test_mixed_counterexample_identities():
    s = mixed_counterexample()
    assert np.abs(s.rho @ s.sigma - s.tau).max() < 1e-12
    assert np.abs(s.sigma @ s.rho - s.tau).max() < 1e-12
    assert abs(np.trace(s.tau @ s.tau) - 0.5) < 1e-15
    d = born_eval(s)
    assert d.allclose(shared_random_bit("bilocal"), tol=1e-12)
    o = MomentOracle(s)
    a0, c0 = word([meas("A")]), word([meas("C")])
    assert abs(o.value(concat(a0, c0)) - 0.5) < 1e-12
    assert abs(o.value(a0) * o.value(c0) - 0.25) < 1e-12


def test_random_strategy_deterministic_and_valid():
    s1 = random_strategy(BILOCAL, (2, 2, 2, 2), 42)
    s2 = random_strategy(BILOCAL, (2, 2, 2, 2), 42)
    assert np.array_equal(s1.rho, s2.rho)
    for key in s1.pvms:
        for o1, o2 in zip(s1.pvms[key], s2.pvms[key]):
            assert np.array_equal(o1, o2)
    validate_strategy(s1)


def test_random_strategy_dim1_deterministic_distribution():
    s = random_strategy(BILOCAL, (1, 1, 1, 1), 5)
    validate_strategy(s)
    d = born_eval(s)
    assert set(np.unique(d.table)) <= {0.0, 1.0}


def test_validate_strategy_rejects_bad_pvm():
    s = random_strategy(BILOCAL, (2, 2, 2, 2), 1)
    s.pvms[("A", 0)][0] = s.pvms[("A", 0)][0] * 0.5
    with pytest.raises(ScenarioError):
        validate_strategy(s)


def test_embed_operator_matches_kron():
    dims = [2, 3, 2]
    op = np.arange(4.0).reshape(2, 2)
    full = embed_operator(op, [0], dims)
    assert np.abs(full - np.kron(op, np.eye(6))).max() < 1e-14
    full2 = embed_operator(op, [2], dims)
    assert np.abs(full2 - np.kron(np.eye(6), op)).max() < 1e-14


@pytest.mark.parametrize("dims,positions", [
    ((2, 3, 2), [0]), ((2, 3, 2), [1]), ((2, 3, 2), [2]), ((2, 2, 2, 2), [1, 2]),
    ((3, 2, 2), [0, 1])])
def test_embed_operator_is_the_transposed_kron_bit_for_bit(dims, positions):
    rng = np.random.default_rng(len(dims) + positions[-1])
    d = int(np.prod([dims[i] for i in positions]))
    op = rng.normal(size=(d, d))
    op[0, -1] = -0.0     # the sign of a zero is kept too
    got = embed_operator(op, positions, dims)
    assert got.flags.c_contiguous
    assert got.tobytes() == transposed_embed(op, positions, dims).tobytes()


def test_embed_operator_refuses_non_contiguous_positions():
    op = np.eye(4)
    with pytest.raises(ScenarioError, match="contiguous"):
        embed_operator(op, [0, 3], (2, 2, 3, 2))
    with pytest.raises(ScenarioError, match="contiguous"):
        embed_operator(op, [2, 1], (2, 2, 2, 2))


def _gram_case(name):
    """(strategy, words) for the suffix-keyed Gram tests."""
    if name == "star":
        s = star_product_strategy(5)
        return s, enumerate_words(s.scenario.alphabet(), 3)
    if name == "mixed":     # tau is not pure: the vectors live in a purification
        return mixed_counterexample(), cached_problem("factorisation", *BILOCAL_111, 3).index
    hierarchy, n = {"standard": ("standard", 3), "factorisation": ("factorisation", 4),
                    "scalar": ("scalar", 2)}[name]
    return (random_strategy(BILOCAL, (2, 2, 2, 2), 3),
            cached_problem(hierarchy, *BILOCAL_111, n).index)


@pytest.mark.parametrize("name", ["standard", "factorisation", "scalar", "star",
                                  "mixed"])
def test_suffix_keyed_gram_is_the_word_keyed_reference(name):
    strategy, words = _gram_case(name)
    got = MomentOracle(strategy).gram(words)
    assert np.array_equal(got, oracle_word_gram(MomentOracle(strategy), words))


def test_mixed_oracle_lifts_each_letter_once(monkeypatch):
    strategy, words = _gram_case("mixed")
    want = oracle_word_gram(MomentOracle(strategy), words)
    oracle = MomentOracle(strategy)
    kron = np.kron
    calls = []
    monkeypatch.setattr(np, "kron", lambda *a: calls.append(a) or kron(*a))
    got = oracle.gram(words)
    assert calls == []
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_dense_gram_is_the_word_keyed_reference(seed):
    infl = InflatedBilocalOracle(random_strategy(BILOCAL, (2, 2, 2, 2), seed), 2)
    words = cached_problem("inflation", *BILOCAL_111, 2, 2).index
    vec = word_keyed_vectors(*infl._dense_model())
    assert np.array_equal(infl.dense_gram(words), gram_of([vec(w) for w in words]))


def test_distribution_file_roundtrip(tmp_path):
    d = born_eval(random_strategy(BILOCAL, (2, 2, 2, 2), 9))
    path = tmp_path / "d.dist"
    write_distribution(d, str(path))
    d2 = read_distribution(str(path))
    assert d2.scenario == d.scenario
    assert np.array_equal(d2.table, d.table)


def test_distribution_file_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.dist"
    path.write_text("scenario: bilocal\noutputs: 2 2 2\ninputs: 1 1 1\n"
                    "q 0 0 0 | 0 0 0 = 0.4\n")
    with pytest.raises(ScenarioError, match=r"inputs \(0, 0, 0\)"):
        read_distribution(str(path))


@pytest.mark.parametrize("entry, match", [
    ("q 0 0 | 0 0 0", r":5: entry \(0, 0\) \| \(0, 0, 0\) is not one output"),
    ("q 0 0 5 | 0 0 0", r":5: entry \(0, 0, 5\) \| \(0, 0, 0\) is not one output"),
    ("q -1 -1 -1 | 0 0 0", r":5: entry \(-1, -1, -1\) \| \(0, 0, 0\) is not one"),
    ("q 0 0 0 | 0 0 0", r":5: entry \(0, 0, 0, 0, 0, 0\) repeats line 4"),
], ids=["short", "too-large", "negative", "repeated"])
def test_distribution_file_rejects_malformed_entries(tmp_path, entry, match):
    path = tmp_path / "bad.dist"
    path.write_text("scenario: bilocal\noutputs: 2 2 2\ninputs: 1 1 1\n"
                    f"q 0 0 0 | 0 0 0 = 0.5\n{entry} = 0.5\n")
    with pytest.raises(ScenarioError, match=re.escape(str(path)) + match):
        read_distribution(str(path))


def test_inflated_oracle_matches_dense_model():
    s = random_strategy(BILOCAL, (2, 2, 2, 2), 13)
    infl = InflatedBilocalOracle(s, 2)
    alph = BILOCAL.inflated_alphabet(2)
    words = enumerate_words(alph, 2)[:60]
    G_dense = infl.dense_gram(words)
    G_comp = np.array([[infl.value(concat(involute(w1), w2)) for w2 in words]
                       for w1 in words])
    assert np.abs(G_dense - G_comp).max() < 1e-12


def test_inflated_gram_is_the_value_at_the_dense_limit():
    # (2*2*2*2)**3 = 4096 amplitudes: the largest model that has a gram
    s = random_strategy(BILOCAL, (2, 2, 2, 2), 19)
    infl = InflatedBilocalOracle(s, 3)
    assert hasattr(infl, "gram")
    words = enumerate_words(BILOCAL.inflated_alphabet(3), 2)
    rng = np.random.default_rng(0)
    picked = [words[i] for i in rng.choice(len(words), size=40, replace=False)]
    G = infl.gram(picked)
    G_val = np.array([[infl.value(concat(involute(u), v)) for v in picked]
                      for u in picked])
    assert np.abs(G - G_val).max() < 1e-12


def test_inflated_oracle_has_no_gram_past_the_dense_limit():
    # (2*2*2*3)**3 = 13824 amplitudes
    s = random_strategy(BILOCAL, (2, 2, 2, 3), 19)
    infl = InflatedBilocalOracle(s, 3)
    assert not hasattr(infl, "gram")
    with pytest.raises(ScenarioError, match="too large"):
        infl._dense_model()


def test_inflated_oracle_reduces_to_plain_at_m1():
    s = random_strategy(BILOCAL, (2, 2, 2, 2), 17)
    o = MomentOracle(s)
    infl = InflatedBilocalOracle(s, 1)
    for w in enumerate_words(BILOCAL.alphabet(), 2):
        lifted = word([meas(l.party, l.output, l.input,
                            (1,) * len(BILOCAL.topo.party_sources[l.party]))
                       for l in w.letters])
        assert abs(o.value(w) - infl.value(lifted)) < 1e-12


def test_star_product_strategy_is_valid():
    s = star_product_strategy(3)
    validate_strategy(s)
    d = born_eval(s)
    assert abs(d.table.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_components_partition_as_a_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    a, b = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
    label = components(n, a, b)
    uf = UnionFind()
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    # the same partition ...
    assert all((label[x] == label[y]) == (uf.find(x) == uf.find(y))
               for x in range(n) for y in range(n))
    # ... numbered in order of each component's least node
    least = [min(v for v in range(n) if label[v] == label[u]) for u in range(n)]
    opened = sorted(set(least))
    assert label.tolist() == [opened.index(x) for x in least]


def test_components_without_edges_are_singletons():
    none = np.zeros(0, dtype=np.intp)
    assert components(5, none, none).tolist() == [0, 1, 2, 3, 4]
    assert components(0, none, none).tolist() == []


@pytest.mark.parametrize("seed", range(4))
def test_sharing_components_match_the_linked_components_reference(seed):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(-1, 12, size=(int(rng.integers(1, 20)), 3))
    nodes[:, 0] = np.abs(nodes[:, 0])   # every item has a node
    label = sharing_components(nodes)
    ref = linked_components([[v for v in row if v >= 0] for row in nodes.tolist()])
    assert [np.flatnonzero(label == k).tolist()
            for k in range(label.max() + 1)] == ref
