"""Reduced word monoids indexing moment matrices.

Letters stand for projective measurement elements (one letter per
party/input/output, optionally carrying inflation copy indices) and for
commuting scalar-extension symbols.  The algebraic rules are:

* measurement letters are idempotent, ``l*l == l``;
* letters of different parties always commute;
* same-party inflated letters commute exactly when their copy indices
  differ in every slot (disjoint source copies);
* scalar letters commute with everything but are *not* idempotent;
* every letter is self-adjoint, so involution is reversal.

A word is stored in a unique canonical form: the scalar block (sorted),
followed by one block per party in the fixed order A < B < C < D.  Inside
an inflated party block, where only a partial commutation is available,
we take the lexicographically least representative of the trace-monoid
class, computed greedily (Anisimov & Knuth 1979; Diekert & Rozenberg,
*The Book of Traces*, 1995), and collapse repeated adjacent measurement
letters until a fixed point.  Equality and hashing act on this form only.

``Letter`` and ``Word`` are the public types; the normal form is computed
on ints.  One process-wide letter table (``_LETTERS``) codes every letter
it meets by first sight and holds, per code, the letter's rank under
``Letter.sort_key``, its block, party, copies and measurement flag, and
the commute matrix of all coded letters, with each row also kept as a
bitmask.  The greedy compares ranks and tests a candidate against the
bitmask of the letters before it, and each block's normal form is
memoised on the codes of its letters (``_BLOCK_NORMAL``).  Codes never
change as the table grows (only the ranks are recomputed), so the memo
stays valid for the life of the process and every caller shares it:
``canonicalize`` on letters, ``enumerate_words`` and ``relabel_letters``
(which work on codes throughout) and the product tables of ``moment``.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

PARTY_ORDER = "ABCD"

MEASUREMENT = "measurement"
SCALAR = "scalar"
IDENTITY = "identity"


class AlphabetMismatchError(ValueError):
    """Raised when an operation is given the wrong kind of alphabet."""


class WordParseError(ValueError):
    """Raised when a rendered word cannot be parsed back."""


@dataclass(frozen=True)
class Letter:
    """A single generator: measurement element, scalar symbol, or identity.

    ``copies`` holds inflation superscripts, one entry per source the
    party touches (``None`` for non-inflated letters).  ``payload`` is the
    base word a scalar letter abbreviates.
    """

    kind: str
    party: str = ""
    output: int = 0
    input: int = 0
    copies: tuple[int, ...] | None = None
    payload: "Word | None" = None

    def __post_init__(self) -> None:
        if self.kind not in (MEASUREMENT, SCALAR, IDENTITY):
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.kind == MEASUREMENT and self.party not in PARTY_ORDER:
            raise ValueError(f"party must be one of {PARTY_ORDER!r}, got {self.party!r}")
        if self.kind == SCALAR and (self.payload is None or len(self.payload) == 0):
            raise ValueError("scalar letters need a nonempty payload word")

    @property
    def is_scalar(self) -> bool:
        return self.kind == SCALAR

    @property
    def is_measurement(self) -> bool:
        return self.kind == MEASUREMENT

    def sort_key(self):
        if self.kind == SCALAR:
            return (0, self.payload.sort_key(), "", (), 0, 0)
        return (1, (), self.party, self.copies or (), self.input, self.output)

    def __repr__(self) -> str:
        return f"Letter({render_letter(self)!r})"


def scalar_letter(payload: "Word") -> Letter:
    """Scalar-extension symbol for the (canonical) base word ``payload``."""
    if any(not l.is_measurement for l in payload.letters):
        raise ValueError("scalar payloads must be plain measurement words")
    return Letter(kind=SCALAR, payload=payload)


def letters_commute(a: Letter, b: Letter) -> bool:
    """Whether ``ab == ba`` under the monoid relations."""
    ca, cb = _LETTERS.encode((a, b))
    return bool(_LETTERS.commute[ca, cb])


class _LetterTable:
    """Every letter met so far, coded as an int in order of first sight.

    ``letters[c]`` is the letter of code c and ``code`` the inverse map.
    Arrays over the codes: ``party``, the letter's place in
    ``PARTY_ORDER`` (-1 when it is no measurement), ``copies`` (the first
    ``nslots`` entries of a row), the ``measurement`` mask and the
    ``commute`` matrix.  Lists over the codes, for the greedy: ``rank``,
    the place under ``Letter.sort_key`` among all coded letters (equal
    keys share one), ``blocks`` (0 for scalars, 1 + party for measurement
    letters, -1 for the identity), ``idempotent`` and ``clash``, the
    bitmask of the codes that do not commute with each.

    Codes never change, so a normal form memoised on codes stays valid as
    the table grows; only the ranks are recomputed.  New letters get
    their codes only after every array covers them, so a caller holding
    a code can always read it.
    """

    def __init__(self) -> None:
        self.letters: list[Letter] = []
        self.code: dict[Letter, int] = {}
        self._lock = threading.Lock()
        self._index([])

    def encode(self, letters: tuple[Letter, ...]) -> tuple[int, ...]:
        try:
            return tuple(map(self.code.__getitem__, letters))
        except KeyError:
            self._add(letters)
            return tuple(map(self.code.__getitem__, letters))

    def decode(self, codes: Iterable[int]) -> tuple[Letter, ...]:
        return tuple(map(self.letters.__getitem__, codes))

    def _add(self, letters: Iterable[Letter]) -> None:
        with self._lock:
            new = [l for l in dict.fromkeys(letters) if l not in self.code]
            self._index(self.letters + new)
            for l in new:
                self.letters.append(l)
                self.code[l] = len(self.letters) - 1

    def _index(self, L: list[Letter]) -> None:
        """Build the per-code arrays for the letters ``L``."""
        n = len(L)
        keys = [l.sort_key() for l in L]
        order = sorted(range(n), key=keys.__getitem__)
        rank = [0] * n
        for prev, c in zip(order, order[1:]):
            rank[c] = rank[prev] + (keys[c] != keys[prev])
        self.rank = rank
        self.measurement = np.fromiter((l.kind == MEASUREMENT for l in L), bool, n)
        self.party = np.fromiter(
            (PARTY_ORDER.index(l.party) if l.kind == MEASUREMENT else -1
             for l in L), np.intp, n)
        self.blocks = [1 + p if p >= 0 else 0 if l.kind == SCALAR else -1
                       for p, l in zip(self.party.tolist(), L)]
        self.idempotent = self.measurement.tolist()
        inflated = np.fromiter((l.copies is not None for l in L), bool, n)
        self.nslots = np.fromiter((len(l.copies or ()) for l in L), np.intp, n)
        width = int(self.nslots.max(initial=0))
        self.copies = np.zeros((n, width), dtype=np.int64)
        for c, l in enumerate(L):
            if l.copies:
                self.copies[c, :len(l.copies)] = l.copies
        # same-party measurement letters commute when both are inflated and
        # their copies differ in every slot both have
        meas = np.flatnonzero(self.measurement)
        P, K, S = self.party[meas], self.copies[meas], self.nslots[meas]
        used = np.arange(width) < S[:, None]
        differ = ((K[:, None] != K[None]) | ~(used[:, None] & used[None])).all(axis=2)
        commute = np.ones((n, n), dtype=bool)
        commute[np.ix_(meas, meas)] = ((P[:, None] != P[None])
                                      | (differ & inflated[meas][:, None]
                                         & inflated[meas][None]))
        self.commute = commute
        packed = np.packbits(~commute, axis=1, bitorder="little")
        self.clash = [int.from_bytes(row.tobytes(), "little") for row in packed]


_LETTERS = _LetterTable()


def _greedy_min(codes: list[int]) -> list[int]:
    """Lexicographically least representative of a trace-monoid class.

    Repeatedly emits the least-ranked letter whose predecessors in the
    current sequence all commute with it.
    """
    rank, clash = _LETTERS.rank, _LETTERS.clash
    remaining = list(codes)
    out: list[int] = []
    while len(remaining) > 1:
        # the first letter always qualifies; a later one must rank below
        # the best so far and commute with everything before it
        best = 0
        low = rank[remaining[0]]
        before = 0
        for idx, c in enumerate(remaining):
            if rank[c] < low and not before & clash[c]:
                best, low = idx, rank[c]
            before |= 1 << c
        out.append(remaining.pop(best))
    return out + remaining


def _collapse(codes: list[int]) -> list[int]:
    idempotent = _LETTERS.idempotent
    out: list[int] = []
    for c in codes:
        if out and out[-1] == c and idempotent[c]:
            continue
        out.append(c)
    return out


def _block_normal(codes: list[int]) -> list[int]:
    """Greedy, then collapse, until the collapse removes nothing: the
    greedy form is the least representative of its class, so it is its
    own greedy form, and the fixed point of the two."""
    while True:
        least = _greedy_min(codes)
        codes = _collapse(least)
        if len(codes) == len(least):
            return codes


# Normal form of each block seen so far, keyed on the codes of its
# letters.  It is a pure function of that tuple, so one table serves every
# word built in the process; a block of at most one letter is its own form.
_BLOCK_NORMAL: dict[tuple[int, ...], tuple[int, ...]] = {}


def _normal(block: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form of the codes of one block (the scalars or one party)."""
    if len(block) < 2:
        return block
    norm = _BLOCK_NORMAL.get(block)
    if norm is None:
        norm = _BLOCK_NORMAL[block] = tuple(_block_normal(list(block)))
    return norm


# The canonical blocks, in canonical order: the scalars, then the parties.
_BLOCKS = ("",) + tuple(PARTY_ORDER)


def _split(codes: Iterable[int]) -> list[tuple[int, ...]]:
    """The codes of each of ``_BLOCKS``, in sequence order; identity
    letters are dropped."""
    blocks = _LETTERS.blocks
    out: list[list[int]] = [[] for _ in _BLOCKS]
    for c in codes:
        b = blocks[c]
        if b >= 0:
            out[b].append(c)
    return [tuple(b) for b in out]


def _canonical(codes: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of a code sequence, as codes."""
    return sum(map(_normal, _split(codes)), ())


def canonicalize(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Canonical minimal form of an arbitrary letter sequence."""
    return _LETTERS.decode(_canonical(_LETTERS.encode(tuple(letters))))


@dataclass(frozen=True)
class Word:
    """A canonical reduced word.  Construct through :func:`word`."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def sort_key(self):
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Word({render_word(self)!r})"


EMPTY_WORD = Word(())


def word(letters: Iterable[Letter]) -> Word:
    return Word(canonicalize(letters))


def concat(w1: Word, w2: Word) -> Word:
    """Canonical product ``w1 * w2``."""
    return Word(canonicalize(w1.letters + w2.letters))


def involute(w: Word) -> Word:
    """Adjoint of a word: reverse the letters, re-canonicalize."""
    return Word(canonicalize(tuple(reversed(w.letters))))


@dataclass(frozen=True)
class Alphabet:
    """A finite generating set together with its network metadata.

    ``party_sources`` maps each party to the ordered source names its copy
    slots refer to; it is required for permutation actions on inflated
    words.
    """

    letters: tuple[Letter, ...]
    party_sources: Mapping[str, tuple[str, ...]] | None = None

    def sources(self) -> tuple[str, ...]:
        if self.party_sources is None:
            return ()
        seen: list[str] = []
        for srcs in self.party_sources.values():
            for s in srcs:
                if s not in seen:
                    seen.append(s)
        return tuple(seen)


def enumerate_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All distinct canonical words of minimal length <= ``max_len``.

    Ordered by (length, lexicographic key); starts with the empty word.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    codes = _LETTERS.encode(alphabet.letters)
    seen: set[tuple[int, ...]] = {()}
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for w in frontier:
            for c in codes:
                cand = _canonical(w + (c,))
                if len(cand) <= max_len and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    rank = _LETTERS.rank
    ordered = sorted(seen, key=lambda w: (len(w), [rank[c] for c in w]))
    return [Word(_LETTERS.decode(w)) for w in ordered]


Permutation = Mapping[int, int]


def relabel_letters(words: Sequence[tuple[int, ...]],
                    image: Callable[[Letter], Letter]) -> list[tuple[int, ...]]:
    """The canonical codes of ``words`` (letter codes) with every letter l
    replaced by ``image(l)``, a relabelling that keeps the commutation and
    idempotence of the letters; the image of each distinct letter is coded
    once."""
    codes = tuple(dict.fromkeys(c for w in words for c in w))
    images = _LETTERS.encode(tuple(map(image, _LETTERS.decode(codes))))
    of = dict(zip(codes, images))
    return [_canonical(map(of.__getitem__, w)) for w in words]


def relabel_codes(words: Sequence[tuple[int, ...]], alphabet: Alphabet,
                  perms_by_source: Mapping[str, Permutation]
                  ) -> list[tuple[int, ...]]:
    """The canonical codes of ``words`` (letter codes) with the copy in
    each slot of every inflated letter relabelled by the permutation of
    that slot's source (:func:`relabel_letters`)."""
    def image(l: Letter) -> Letter:
        if not (l.is_measurement and l.copies is not None):
            return l
        return Letter(MEASUREMENT, l.party, l.output, l.input, tuple(
            perms_by_source.get(src, {}).get(c, c)
            for src, c in zip(alphabet.party_sources[l.party], l.copies)))

    return relabel_letters(words, image)


def act_permutation(
    w: Word,
    theta: Permutation,
    theta_prime: Permutation | None = None,
    *,
    alphabet: Alphabet | None = None,
    perms_by_source: Mapping[str, Permutation] | None = None,
) -> Word:
    """Relabel inflation copy indices by per-source permutations.

    Either pass ``perms_by_source`` explicitly (one permutation per source
    name), or pass ``theta``/``theta_prime`` which are matched to the
    alphabet's first and second source respectively.  Permutations are
    mappings ``old index -> new index``; missing indices stay fixed.
    """
    if alphabet is None or alphabet.party_sources is None:
        raise AlphabetMismatchError("permutation action needs an inflated alphabet")
    if perms_by_source is None:
        srcs = alphabet.sources()
        if len(srcs) > 2:
            raise ValueError(
                "more than two sources: pass perms_by_source explicitly")
        perms_by_source = {srcs[0]: theta}
        if len(srcs) > 1:
            perms_by_source[srcs[1]] = theta_prime if theta_prime is not None else {}
    image, = relabel_codes([_LETTERS.encode(w.letters)], alphabet, perms_by_source)
    return Word(_LETTERS.decode(image))


# ---------------------------------------------------------------------------
# Rendering and parsing
# ---------------------------------------------------------------------------

def render_letter(l: Letter) -> str:
    if l.kind == IDENTITY:
        return "1"
    if l.is_scalar:
        return "k{" + render_word(l.payload) + "}"
    sup = ""
    if l.copies is not None:
        if len(l.copies) == 1:
            sup = f"^{l.copies[0]}"
        else:
            sup = "^{" + ",".join(str(c) for c in l.copies) + "}"
    return f"{l.party}{sup}[{l.output}|{l.input}]"


def render_word(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(render_letter(l) for l in w.letters)


_LETTER_RE = re.compile(
    r"""(?P<party>[A-D])
        (?:\^(?:\{(?P<multi>-?\d+(?:,-?\d+)*)\}|(?P<single>-?\d+)))?
        \[(?P<output>\d+)\|(?P<input>\d+)\]""",
    re.VERBOSE,
)


def _parse_tokens(s: str) -> list[Letter]:
    letters: list[Letter] = []
    i = 0
    n = len(s)
    while i < n:
        if s[i].isspace():
            i += 1
            continue
        if s[i] == "1":
            i += 1
            continue
        if s.startswith("k{", i):
            depth = 1
            j = i + 2
            while j < n and depth:
                if s[j] == "{":
                    depth += 1
                elif s[j] == "}":
                    depth -= 1
                j += 1
            if depth:
                raise WordParseError(f"unbalanced braces in {s!r}")
            inner = s[i + 2:j - 1]
            letters.append(scalar_letter(parse_word(inner)))
            i = j
            continue
        m = _LETTER_RE.match(s, i)
        if not m:
            raise WordParseError(f"cannot parse letter at {s[i:]!r}")
        copies = None
        if m.group("multi") is not None:
            copies = tuple(int(x) for x in m.group("multi").split(","))
        elif m.group("single") is not None:
            copies = (int(m.group("single")),)
        letters.append(Letter(
            MEASUREMENT,
            m.group("party"),
            output=int(m.group("output")),
            input=int(m.group("input")),
            copies=copies,
        ))
        i = m.end()
    return letters


def parse_word(s: str) -> Word:
    """Inverse of :func:`render_word` (up to canonical form)."""
    return word(_parse_tokens(s))
