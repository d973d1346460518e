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
class (computed greedily) and collapse repeated adjacent measurement
letters until a fixed point; each block's form is memoised on its letters.
Equality and hashing act on this form only.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

PARTY_ORDER = "ABCD"

MEASUREMENT = "measurement"
SCALAR = "scalar"
IDENTITY = "identity"


class AlphabetMismatchError(ValueError):
    """Raised when an operation mixes words over different alphabets."""


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
    if a.kind == IDENTITY or b.kind == IDENTITY:
        return True
    if a.is_scalar or b.is_scalar:
        return True
    if a.party != b.party:
        return True
    if a.copies is None or b.copies is None:
        return False
    # same party, inflated: disjoint copies in every slot
    return all(map(operator.ne, a.copies, b.copies))


def _greedy_min(letters: list[Letter]) -> list[Letter]:
    """Lexicographically least representative of a trace-monoid class.

    Repeatedly emits the smallest letter whose predecessors in the current
    sequence all commute with it.
    """
    remaining = list(letters)
    keys = [l.sort_key() for l in remaining]
    out: list[Letter] = []
    while remaining:
        # the first letter always qualifies; a later one must be smaller
        # than the best so far and commute with everything before it
        best = 0
        for idx in range(1, len(remaining)):
            if keys[idx] < keys[best] and all(
                    letters_commute(prev, remaining[idx])
                    for prev in remaining[:idx]):
                best = idx
        out.append(remaining.pop(best))
        del keys[best]
    return out


def _collapse(letters: list[Letter]) -> list[Letter]:
    out: list[Letter] = []
    for l in letters:
        if out and l.is_measurement and out[-1] == l:
            continue
        out.append(l)
    return out


def _block_normal(letters: list[Letter]) -> list[Letter]:
    cur = list(letters)
    while True:
        nxt = _collapse(_greedy_min(cur))
        if nxt == cur:
            return cur
        cur = nxt


# Normal form of each party block seen so far, keyed on the block's
# letters.  It is a pure function of that tuple, so one table serves every
# word built in the process; a block of at most one letter is its own form.
_BLOCK_NORMAL: dict[tuple[Letter, ...], tuple[Letter, ...]] = {}


def canonicalize(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Canonical minimal form of an arbitrary letter sequence."""
    scalars: list[Letter] = []
    blocks: dict[str, list[Letter]] = {}
    for l in letters:
        if l.kind == MEASUREMENT:
            blocks.setdefault(l.party, []).append(l)
        elif l.kind == SCALAR:
            scalars.append(l)
    scalars.sort(key=Letter.sort_key)
    out = scalars
    for p in PARTY_ORDER:
        block = blocks.get(p)
        if block is None:
            continue
        if len(block) > 1:
            key = tuple(block)
            norm = _BLOCK_NORMAL.get(key)
            if norm is None:
                norm = _BLOCK_NORMAL[key] = tuple(_block_normal(block))
            out.extend(norm)
        else:
            out.extend(block)
    return tuple(out)


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
    words.  ``scalar_bound`` records the truncation length of the
    scalar-extension alphabet, if present.
    """

    scenario_id: str
    letters: tuple[Letter, ...]
    party_sources: Mapping[str, tuple[str, ...]] | None = None
    inflation_order: int | None = None
    scalar_bound: int | None = None
    _letter_set: frozenset = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_letter_set", frozenset(self.letters))

    def __contains__(self, l: Letter) -> bool:
        return l in self._letter_set

    def check_word(self, w: Word) -> None:
        for l in w.letters:
            if l not in self._letter_set:
                raise AlphabetMismatchError(
                    f"letter {render_letter(l)} not in alphabet {self.scenario_id}")

    def concat(self, w1: Word, w2: Word) -> Word:
        self.check_word(w1)
        self.check_word(w2)
        return concat(w1, w2)

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
    seen: set[Word] = {EMPTY_WORD}
    frontier: list[Word] = [EMPTY_WORD]
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            for l in alphabet.letters:
                cand = Word(canonicalize(w.letters + (l,)))
                if len(cand) <= max_len and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen, key=Word.sort_key)


Permutation = Mapping[int, int]


def _apply_perm(perm: Permutation, i: int) -> int:
    return perm.get(i, i)


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
    out: list[Letter] = []
    for l in w.letters:
        if not l.is_measurement or l.copies is None:
            out.append(l)
            continue
        slots = alphabet.party_sources[l.party]
        new_copies = tuple(
            _apply_perm(perms_by_source.get(src, {}), c)
            for src, c in zip(slots, l.copies))
        out.append(Letter(MEASUREMENT, l.party, l.output, l.input, new_copies))
    return word(out)


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
