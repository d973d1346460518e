"""Word algebra: canonical forms, involution, enumeration, permutations."""

import itertools

import pytest

from netnpa.scenarios import Scenario
from netnpa.words import (
    EMPTY_WORD,
    Alphabet,
    Letter,
    Word,
    act_permutation,
    canonicalize,
    concat,
    enumerate_words,
    involute,
    letters_commute,
    parse_word,
    render_word,
    scalar_letter,
    word,
)

from helpers import (
    all_sequences,
    brute_canonical,
    meas,
    plain_canonical,
    plain_commute,
    plain_relabel,
    rewrite_closure,
)

A0 = meas("A", 0, 0)
A1 = meas("A", 1, 0)
B0 = meas("B", 0, 0)
C0 = meas("C", 0, 0)


def test_idempotency():
    assert word([A0, A0]) == word([A0])
    assert len(word([A0, A0])) == 1


def test_cross_party_canonical_order():
    assert render_word(word([B0, A0])) == "A[0|0] B[0|0]"
    assert word([B0, A0]) == word([A0, B0])


def test_scalar_letters_not_idempotent():
    k = scalar_letter(word([A0]))
    kk = word([k, k])
    assert len(kk) == 2
    assert kk != word([k])


def test_scalar_distinct_orderings_distinct_keys():
    # kappa indexed by the canonical payload: alpha*alpha' != alpha'*alpha
    k1 = scalar_letter(word([A0, A1]))
    k2 = scalar_letter(word([A1, A0]))
    assert k1 != k2


def test_involution_reverses():
    assert involute(word([A0, A1])) == Word(canonicalize((A1, A0)))
    assert render_word(involute(word([A0, A1]))) == "A[1|0] A[0|0]"
    assert involute(EMPTY_WORD) == EMPTY_WORD
    assert involute(word([A0, B0])) == word([A0, B0])


def test_involution_is_an_involution():
    letters = [A0, A1, B0, C0, scalar_letter(word([A0]))]
    for seq in all_sequences(letters, 3):
        w = word(seq)
        assert involute(involute(w)) == w


def test_involute_antihomomorphism():
    letters = [A0, A1, B0, C0]
    words = {word(s) for s in all_sequences(letters, 2)}
    for w in words:
        for v in words:
            assert involute(concat(w, v)) == concat(involute(v), involute(w))


def test_concat_associative_identity():
    ws = [word([A0]), word([A1, B0]), word([C0])]
    for a, b, c in itertools.product(ws, repeat=3):
        assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert concat(EMPTY_WORD, ws[1]) == ws[1]
    assert concat(ws[1], EMPTY_WORD) == ws[1]


def one_letter_alphabet():
    return Alphabet((meas("A"), meas("B"), meas("C")))


def test_enumerate_one_letter_per_party():
    alph = one_letter_alphabet()
    words1 = enumerate_words(alph, 1)
    assert len(words1) == 4
    assert words1[0] == EMPTY_WORD
    assert len(enumerate_words(alph, 2)) == 7
    assert len(enumerate_words(alph, 3)) == 8  # idempotency forbids squares


def test_enumerate_scalar_alphabet():
    a = meas("A")
    k = scalar_letter(word([a]))
    alph = Alphabet((a, k))
    ws = set(enumerate_words(alph, 2))
    assert word([k, k]) in ws
    assert word([k, a]) in ws


def test_enumerate_deterministic_order():
    alph = one_letter_alphabet()
    ws = enumerate_words(alph, 2)
    assert ws == sorted(ws, key=Word.sort_key)
    assert ws == enumerate_words(alph, 2)


def test_enumerate_matches_bruteforce_dedup():
    letters = (A0, A1, B0, C0)
    alph = Alphabet(letters)
    for max_len in range(4):
        expect = {word(s) for s in all_sequences(letters, max_len)}
        expect = {w for w in expect if len(w) <= max_len}
        assert set(enumerate_words(alph, max_len)) == expect


# --- inflated letters -------------------------------------------------------

def inflated_alphabet(m=3):
    letters = []
    for i in range(m):
        letters.append(meas("A", copies=(i,)))
        letters.append(meas("C", copies=(i,)))
        for j in range(m):
            letters.append(meas("B", copies=(i, j)))
    return Alphabet(tuple(letters),
                    party_sources={"A": ("rho",), "B": ("rho", "sigma"),
                                   "C": ("sigma",)})


def test_inflated_commutation_rules():
    assert letters_commute(meas("A", copies=(1,)), meas("A", copies=(2,)))
    assert not letters_commute(meas("A", 0, 0, (1,)), meas("A", 1, 0, (1,)))
    assert letters_commute(meas("B", copies=(1, 1)), meas("B", copies=(2, 3)))
    assert not letters_commute(meas("B", copies=(1, 1)), meas("B", copies=(1, 2)))
    k = scalar_letter(word([A0]))
    assert letters_commute(k, meas("B", copies=(1, 2)))


def test_permutation_action_paper_example():
    # theta = (0 1), theta' = (1 2) acting on A^0 A^1 B^{0,1} C^1
    alph = inflated_alphabet()
    w = word([meas("A", copies=(0,)), meas("A", copies=(1,)),
              meas("B", copies=(0, 1)), meas("C", copies=(1,))])
    theta = {0: 1, 1: 0}
    theta_p = {1: 2, 2: 1}
    img = act_permutation(w, theta, theta_p, alphabet=alph)
    expect = word([meas("A", copies=(1,)), meas("A", copies=(0,)),
                   meas("B", copies=(1, 2)), meas("C", copies=(2,))])
    assert img == expect


def test_permutation_identity_and_length():
    alph = inflated_alphabet()
    w = word([meas("A", copies=(0,)), meas("B", copies=(0, 1)),
              meas("C", copies=(2,))])
    assert act_permutation(w, {}, {}, alphabet=alph) == w
    theta = {0: 2, 2: 0}
    img = act_permutation(w, theta, {0: 1, 1: 0}, alphabet=alph)
    assert len(img) == len(w)


def test_permutation_on_noncommuting_b_block():
    # (theta=(1 2), theta'=id) on B^{1,1} B^{2,3}
    alph = inflated_alphabet(4)
    w = word([meas("B", copies=(1, 1)), meas("B", copies=(2, 3))])
    img = act_permutation(w, {1: 2, 2: 1}, {}, alphabet=alph)
    assert img == word([meas("B", copies=(2, 1)), meas("B", copies=(1, 3))])


def test_permutation_group_action():
    alph = inflated_alphabet()
    perms = [{}, {0: 1, 1: 0}, {0: 1, 1: 2, 2: 0}]
    words = [word([meas("A", copies=(0,)), meas("B", copies=(1, 2))]),
             word([meas("B", copies=(0, 0)), meas("B", copies=(1, 1)),
                   meas("C", copies=(2,))])]

    def compose(p, q):
        keys = set(p) | set(q)
        return {k: p.get(q.get(k, k), q.get(k, k)) for k in keys}

    for w in words:
        for t1, t2 in itertools.product(perms, repeat=2):
            lhs = act_permutation(act_permutation(w, t2, {}, alphabet=alph),
                                  t1, {}, alphabet=alph)
            rhs = act_permutation(w, compose(t1, t2), {}, alphabet=alph)
            assert lhs == rhs


# --- canonicalization vs. brute force ----------------------------------------

def test_canonicalize_idempotent_length6():
    letters = [A0, A1, B0, meas("B", 1, 0), C0]
    import random

    rng = random.Random(7)
    for _ in range(400):
        seq = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        once = canonicalize(seq)
        assert canonicalize(once) == once


@pytest.mark.parametrize("letters", [
    (A0, A1, B0, meas("B", 1, 0)),
    (meas("A", copies=(1,)), meas("A", copies=(2,)),
     meas("B", copies=(1, 1)), meas("B", copies=(1, 2))),
])
def test_concat_matches_rewrite_closure_len4(letters):
    for seq in all_sequences(letters, 4):
        closure = rewrite_closure(seq)
        canon = tuple(word(seq).letters)
        assert canon in closure
        assert canon == brute_canonical(seq)
        # every representative canonicalizes identically
        for rep in closure:
            assert tuple(word(rep).letters) == canon


def _property_alphabets():
    tri = Scenario("triangle", (2, 2, 2), (1, 1, 1))
    bil = Scenario("bilocal", (2, 2, 2), (1, 1, 1))
    alphabets = {"triangle (2,3)": tri.inflated_alphabet(3).letters,
                 "bilocal (2,3)": bil.inflated_alphabet(3).letters,
                 "scalar extension": bil.scalar_alphabet(3).letters}
    # letters first seen in another order than that of their sort keys
    alphabets["all three"] = sum(alphabets.values(), ())
    return alphabets


@pytest.mark.parametrize("name", ["triangle (2,3)", "bilocal (2,3)",
                                  "scalar extension", "all three"])
def test_canonicalize_matches_the_plain_letter_reference(name):
    import random

    letters = _property_alphabets()[name] + (Letter("identity"),)
    rng = random.Random(2024)
    for _ in range(1500):
        # a small pool makes repeated and commuting letters in one block likely
        pool = rng.sample(letters, rng.randint(2, min(12, len(letters))))
        seq = tuple(rng.choice(pool) for _ in range(rng.randint(0, 9)))
        assert canonicalize(seq) == plain_canonical(seq), seq


@pytest.mark.parametrize("name", ["triangle (2,3)", "bilocal (2,3)",
                                  "scalar extension", "all three"])
def test_letters_commute_matches_the_plain_reference(name):
    letters = _property_alphabets()[name]
    for a, b in itertools.product(letters, repeat=2):
        assert letters_commute(a, b) == plain_commute(a, b), (a, b)


@pytest.mark.parametrize("name", ["triangle (2,3)", "bilocal (2,3)",
                                  "copies from 0"])
def test_act_permutation_matches_the_plain_relabelling(name):
    import random

    if name == "copies from 0":
        # copy 3 lies outside the alphabet, so some images are new letters
        alph, labels = inflated_alphabet(), range(4)
    else:
        topology = name.split()[0]
        alph = Scenario(topology, (2, 2, 2), (1, 1, 1)).inflated_alphabet(3)
        labels = range(1, 4)
    rng = random.Random(2026)
    for _ in range(500):
        pool = rng.sample(alph.letters, rng.randint(2, min(12, len(alph.letters))))
        w = word([rng.choice(pool) for _ in range(rng.randint(0, 7))])
        perms = {src: dict(zip(labels, rng.sample(labels, len(labels))))
                 for src in alph.sources() if rng.random() < 0.8}
        assert (act_permutation(w, None, alphabet=alph, perms_by_source=perms)
                == plain_relabel(w, alph, perms)), (w, perms)


# --- rendering ----------------------------------------------------------------

def test_render_parse_roundtrip():
    words = [
        EMPTY_WORD,
        word([A0, B0, C0]),
        word([meas("A", 1, 3)]),
        word([meas("B", copies=(1, 2)), meas("A", copies=(7,))]),
        word([scalar_letter(word([A0, A1])), A0, C0]),
        word([scalar_letter(word([A0])), scalar_letter(word([A0]))]),
    ]
    for w in words:
        assert parse_word(render_word(w)) == w


def test_parse_rejects_garbage():
    from netnpa.words import WordParseError

    with pytest.raises(WordParseError):
        parse_word("Z[0|0]")
    with pytest.raises(WordParseError):
        parse_word("k{A[0|0]")


def test_identity_letters_are_absorbed():
    ident = Letter("identity")
    assert word([ident]) == EMPTY_WORD
    assert word([A0, ident, B0]) == word([A0, B0])
    assert letters_commute(ident, A0)
