"""Compilation of (scenario, hierarchy, level) into moment problems.

A :class:`MomentProblem` is the full symbolic encoding of a moment-matrix
feasibility question: the word index, the partition of matrix cells into
equality classes (cells whose products have equal canonical form share a
value), pinned values coming from a distribution, completeness rows
(each PVM sums to the identity), bilinear factorisation families, and,
for inflated problems, the merges induced by permutation symmetry of the
source copies.

Hierarchies
-----------
``standard_npa``
    index = words of length <= n, Hankel classes, pin at the empty word.
``factorisation_bilocal``
    standard plus bilinear pairs G[alpha, gamma] = G[alpha, 1]*G[1, gamma].
``scalar_extension``
    index over words with commuting scalar symbols kappa_alpha; the
    classes of alpha*gamma and kappa_alpha*gamma are identified.
``inflation``
    index over copy-indexed letters; classes are merged along the orbit
    of the per-source symmetric-group action, generated by one
    transposition and one m-cycle per source: each generator permutes the
    index, and cell (i, j) is merged with cell (pi i, pi j) under that
    index permutation pi.  Every product whose connected components look
    like fresh copies of (a sub-network of) the original scenario is
    pinned to the matching marginal product.
``factorisation_star``
    pairwise factorisation for the three leaf parties of the star plus
    the triple family G[alpha*gamma, delta] = G[alpha*gamma, 1]*G[1, delta].

The structure is built as arrays.  The canonical product of a cell is
coded from per-block product tables (:class:`_Products`), the Hankel
groups are its distinct codes up to involution, the classes are the
connected components of the merges (min-label propagation), and the
completeness rows are gathered from ``cell_class``.

Every linear row, from the builders to the elimination, is held in one
format, :class:`FlatRows`.

A problem holds its partition in one format, cell -> group -> class:
``cell_group`` maps each cell to its Hankel group and ``group_class``
each group to its class (``cell_class`` is the composition).  The cells
of each group (``group_layout``) and the groups of each class
(``class_layout``) are each derived once, by one stable argsort, and
shared by every copy of the problem.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .scenarios import Distribution, Scenario, linked_components
from .words import (
    EMPTY_WORD,
    PARTY_ORDER,
    Alphabet,
    Letter,
    Word,
    act_permutation,
    canonicalize,
    concat,
    enumerate_words,
    involute,
    scalar_letter,
    word,
)

DEFAULT_INDEX_BUDGET = 5000


class BudgetError(RuntimeError):
    """Index would exceed the configured word budget."""


class PinConflictError(ValueError):
    """Two pinnable keys inside one equality class disagree."""


@dataclass(frozen=True)
class FactorConstraint:
    """G[row_word, col_word] = G[row_word, 1] * G[1, col_word]."""

    row_word: Word
    col_word: Word
    cls_prod: int
    cls_row: int
    cls_col: int


@dataclass(frozen=True)
class PinPlan:
    """The structure of the distribution pins of a problem.

    ``groups`` are the pinnable Hankel groups sorted stably by class, in
    segments opening at ``starts``, one per class of ``classes``.  Row k
    of ``cells`` holds, for group ``groups[k]``, the flat positions of its
    component factors in the concatenation of the marginals over
    ``subsets`` (in that order) followed by one entry 1.0, at which the
    padding points.
    """

    subsets: tuple[tuple[str, ...], ...]
    groups: np.ndarray
    classes: np.ndarray
    starts: np.ndarray
    cells: np.ndarray


@dataclass(frozen=True, eq=False)
class FlatRows:
    """Linear rows as flat arrays, entry after entry.

    Row k is sum_e ``coeffs[e]`` * y[``classes[e]``] = ``rhs[k]`` over its
    entries e in ``starts[k]:starts[k + 1]``; ``row`` holds the row of
    every entry and ``families[k]`` the family of row k.  Two are equal
    when every field is, dtypes included.
    """

    classes: np.ndarray
    coeffs: np.ndarray
    row: np.ndarray
    starts: np.ndarray
    rhs: np.ndarray
    families: tuple[str, ...]

    @classmethod
    def padded(cls, classes: np.ndarray, coeffs: np.ndarray, rhs: np.ndarray,
               families: Sequence[str]) -> FlatRows:
        """Row k from row k of the (m, w) arrays ``classes`` and ``coeffs``:
        its entries are the columns whose class is not -1 (padding), in
        column order.  Zero coefficients are kept."""
        classes = np.asarray(classes, dtype=np.intp)
        real = classes >= 0
        sizes = real.sum(axis=1)
        return cls(classes=classes[real],
                   coeffs=np.asarray(coeffs, dtype=float)[real],
                   row=np.repeat(np.arange(len(sizes)), sizes),
                   starts=np.concatenate([np.zeros(1, np.intp), np.cumsum(sizes)]),
                   rhs=np.asarray(rhs, dtype=float),
                   families=tuple(families))

    def __len__(self) -> int:
        return len(self.rhs)

    def __add__(self, other: FlatRows) -> FlatRows:
        """These rows followed by ``other``."""
        if not len(other):
            return self
        return FlatRows(
            classes=np.concatenate([self.classes, other.classes]),
            coeffs=np.concatenate([self.coeffs, other.coeffs]),
            row=np.concatenate([self.row, other.row + len(self)]),
            starts=np.concatenate([self.starts, other.starts[1:] + self.starts[-1]]),
            rhs=np.concatenate([self.rhs, other.rhs]),
            families=self.families + other.families)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatRows):
            return NotImplemented
        arrays = ("classes", "coeffs", "row", "starts", "rhs")
        return self.families == other.families and all(
            getattr(self, a).dtype == getattr(other, a).dtype
            and np.array_equal(getattr(self, a), getattr(other, a))
            for a in arrays)


NO_ROWS = FlatRows.padded(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0), ())


def _layout(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of ``labels`` sorted stably by label, and the bounds of
    each label's run: label k holds ``order[bounds[k]:bounds[k + 1]]``."""
    counts = np.bincount(labels, minlength=count)
    return (np.argsort(labels, kind="stable"),
            np.concatenate([[0], np.cumsum(counts)]))


def _structure(build):
    """A structure derived from the problem: built on first use and kept
    in a cache that :meth:`MomentProblem.derive` shares with its copies."""
    name = build.__name__

    @functools.wraps(build)
    def get(self):
        cache = self._structures
        if name not in cache:
            cache[name] = build(self)
        return cache[name]

    return property(get)


@dataclass
class MomentProblem:
    scenario: Scenario
    hierarchy: str
    n: int
    m: int | None
    alphabet: Alphabet
    index: tuple[Word, ...]
    group_keys: tuple[Word, ...]          # one canonical product word per Hankel group
    cell_group: np.ndarray                # (N, N) int32 Hankel group per cell
    group_class: np.ndarray               # group -> merged class id
    cell_class: np.ndarray                # (N, N) class id per cell, group_class[cell_group]
    pinned: dict[int, float]
    rows: FlatRows                        # completeness rows
    factor_pairs: tuple[FactorConstraint, ...] = ()
    factor_triples: tuple[FactorConstraint, ...] = ()
    check_products: tuple[tuple[int, tuple[int, ...]], ...] = ()
    merge_family: str = ""                # symmetry / scalar identification label
    completeness: bool = True
    # the linearized factor pairs, filled in by pin_linearize
    linear_factor_rows: FlatRows = field(default_factory=lambda: NO_ROWS)
    flagged_bilinear: tuple[FactorConstraint, ...] = ()
    _structures: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    # --- derived helpers ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def n_classes(self) -> int:
        return int(self.group_class.max()) + 1 if len(self.group_class) else 0

    def pos(self, w: Word) -> int:
        return self._pos[w]

    # derived structures are built on first use, never in a builder.  They
    # read only the word index, the Hankel groups and the classes; every
    # pin, linearization and see-saw round copies the problem through
    # ``derive``, which shares them, while ``dataclasses.replace`` starts
    # over with none built

    def derive(self, **changes) -> MomentProblem:
        """``dataclasses.replace(self, **changes)`` sharing this problem's
        derived structures: whatever either problem builds, both use.
        Only the pins and the factorisation families may change, since no
        structure reads them."""
        read = set(changes) - {"pinned", "linear_factor_rows", "flagged_bilinear",
                               "factor_pairs", "factor_triples"}
        if read:
            raise ValueError(f"derived structures read {sorted(read)}; "
                             "use dataclasses.replace")
        copy = replace(self, **changes)
        copy._structures = self._structures
        return copy

    @_structure
    def _pos(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.index)}

    @_structure
    def class_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The Hankel groups class after class, each class's in group
        order: (groups, bounds), class c holding
        ``groups[bounds[c]:bounds[c + 1]]``."""
        return _layout(self.group_class, self.n_classes)

    def class_groups(self, cls: int) -> list[int]:
        groups, bounds = self.class_layout
        return groups[bounds[cls]:bounds[cls + 1]].tolist()

    @_structure
    def class_counts(self) -> np.ndarray:
        """Number of matrix cells in each class."""
        return np.bincount(self.cell_class.reshape(-1),
                           minlength=self.n_classes).astype(float)

    @_structure
    def group_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The cells of every Hankel group, group after group, each group's
        in row-major order: (flat cell positions, bounds), group g holding
        ``cells[bounds[g]:bounds[g + 1]]``."""
        return _layout(self.cell_group.reshape(-1), len(self.group_keys))

    @_structure
    def pin_plan(self) -> PinPlan:
        """Which groups a distribution pins and the marginal cells their
        values multiply (see :func:`pin_distribution`); built on the first
        pin."""
        return _pin_plan(self)

    def class_average(self, X: np.ndarray) -> np.ndarray:
        """Mean of ``X`` over the cells of each class (the class cells
        partition all cells)."""
        sums = np.bincount(self.cell_class.reshape(-1),
                           weights=X.reshape(-1),
                           minlength=self.n_classes)
        return sums / self.class_counts

    def class_of_cell(self, row_word: Word, col_word: Word) -> int:
        return int(self.cell_class[self.pos(row_word), self.pos(col_word)])

    def representative_key(self, cls: int) -> Word:
        groups, bounds = self.class_layout
        return self.group_keys[groups[bounds[cls]]]

    @functools.cached_property
    def active_rows(self) -> FlatRows:
        """``rows`` followed by this copy's own ``linear_factor_rows``,
        which a copy made by ``derive`` may change, so this is kept per
        copy."""
        return self.rows + self.linear_factor_rows

    def describe(self) -> str:
        """Textual dump used for golden-file regression tests."""
        from .words import render_word

        lines = [
            f"hierarchy: {self.hierarchy}",
            f"scenario: {self.scenario.topology} outputs={self.scenario.outputs} "
            f"inputs={self.scenario.inputs}",
            f"level: n={self.n}" + (f" m={self.m}" if self.m else ""),
            f"index ({self.dim} words):",
        ]
        lines += [f"  {i}: {render_word(w)}" for i, w in enumerate(self.index)]
        lines.append(f"classes: {self.n_classes}")
        for cls in range(self.n_classes):
            keys = " == ".join(render_word(self.group_keys[g])
                               for g in self.class_groups(cls))
            pin = f" = {self.pinned[cls]!r}" if cls in self.pinned else ""
            lines.append(f"  [{cls}] {keys}{pin}")
        lines.append(f"rows: {len(self.rows)}")
        lines.append(f"factor_pairs: {len(self.factor_pairs)}")
        for fc in self.factor_pairs:
            lines.append(f"  ({render_word(fc.row_word)} ; {render_word(fc.col_word)})"
                         f" -> cls {fc.cls_prod} = cls {fc.cls_row} * cls {fc.cls_col}")
        lines.append(f"factor_triples: {len(self.factor_triples)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Core builder
# ---------------------------------------------------------------------------

def _min_key(w: Word) -> Word:
    wd = involute(w)
    return w if w.sort_key() <= wd.sort_key() else wd


# The scalar block, then one block per party: ``canonicalize`` normalises
# each on its own, so the product of two words is the product of their
# blocks, block by block.
_BLOCKS = ("",) + tuple(PARTY_ORDER)


def _blocks(w: Word) -> list[tuple[Letter, ...]]:
    """The letters of ``w`` in each of ``_BLOCKS`` (scalar letters carry
    the party "")."""
    out: dict[str, list[Letter]] = {p: [] for p in _BLOCKS}
    for l in w.letters:
        out[l.party].append(l)
    return [tuple(out[p]) for p in _BLOCKS]


def _intern(items: Sequence) -> tuple[np.ndarray, list]:
    """Small int ids for ``items``, equal items sharing one, and the
    distinct items in id order."""
    ids: dict = {}
    codes = np.fromiter((ids.setdefault(x, len(ids)) for x in items),
                        np.intp, len(items))
    return codes, list(ids)


class _Products:
    """The canonical products involute(u) * v of the words u of ``index``
    followed by ``extra`` with the words v of ``index``, coded as ints.

    Each block of a product is the normal form of a (block of involute(u),
    block of v) pair, so each pair that occurs is normalised once through
    ``canonicalize`` into a per-block table, and ``codes[u, v]`` packs the
    table ids of its blocks in mixed radix: equal codes are equal words.
    ``index[0]`` is the empty word, so ``codes[0]`` codes the index words.
    """

    def __init__(self, index: Sequence[Word], extra: Sequence[Word] = ()):
        left = [_blocks(involute(u)) for u in list(index) + list(extra)]
        right = [_blocks(v) for v in index]
        self.codes = np.zeros((len(left), len(right)), dtype=np.int64)
        self.normals: list[list[tuple[Letter, ...]]] = []
        letters: set[Letter] = set()
        span = 1
        for b in range(len(_BLOCKS)):
            lid, lblocks = _intern([blocks[b] for blocks in left])
            rid, rblocks = _intern([blocks[b] for blocks in right])
            letters.update(*lblocks, *rblocks)
            table, normals = _intern([canonicalize(x + y)
                                      for x in lblocks for y in rblocks])
            span *= len(normals)
            if span >= 2 ** 63:
                raise BudgetError("too many distinct products to code as int64")
            self.codes *= len(normals)
            self.codes += table.astype(np.int32).reshape(
                len(lblocks), len(rblocks))[np.ix_(lid, rid)]
            self.normals.append(normals)
        self.radix = [len(normals) for normals in self.normals]
        # every letter of a product is a letter of a factor
        self.letters = sorted(letters, key=Letter.sort_key)

    def _decode(self, codes: np.ndarray) -> list[np.ndarray]:
        """The block ids of each code, one array per block."""
        ids = []
        for radix in reversed(self.radix):
            ids.append(codes % radix)
            codes = codes // radix
        return ids[::-1]

    def words(self, codes: np.ndarray) -> list[Word]:
        ids = np.stack(self._decode(codes), axis=1).tolist()
        return [Word(sum(map(list.__getitem__, self.normals, row), ()))
                for row in ids]

    def order(self, codes: np.ndarray) -> np.ndarray:
        """The argsort of ``codes`` by the ``Word.sort_key`` of their words:
        length first, then the letters' ranks under ``Letter.sort_key``."""
        rank = {l: r for r, l in enumerate(self.letters)}
        ids = self._decode(codes)
        lengths = [np.array([len(blk) for blk in normals], dtype=np.intp)
                   for normals in self.normals]
        length = sum(ln[i] for ln, i in zip(lengths, ids))
        spelled = np.full((len(codes), int(length.max(initial=0))), -1,
                          dtype=np.int32)
        at = np.zeros(len(codes), dtype=np.intp)
        for normals, ln, i in zip(self.normals, lengths, ids):
            table = np.full((len(normals), int(ln.max())), -1, dtype=np.int32)
            for k, blk in enumerate(normals):
                table[k, :len(blk)] = [rank[l] for l in blk]
            for t in range(table.shape[1]):
                has = ln[i] > t
                spelled[has, at[has] + t] = table[i[has], t]
            at += ln[i]
        return np.lexsort(np.vstack([spelled.T[::-1], length[None]]))

    def positions(self, codes: np.ndarray) -> np.ndarray:
        """The index position of the word of each code, -1 if none."""
        order = np.argsort(self.codes[0])
        known = self.codes[0][order]
        at = np.minimum(np.searchsorted(known, codes), len(known) - 1)
        return np.where(known[at] == codes, order[at], -1)


def _build_groups(products: _Products):
    """The Hankel groups: cells whose products are equal up to involution.

    The involute of cell (i, j)'s product is cell (j, i)'s, so each cell
    keys on the smaller of the two under ``Word.sort_key``.  Groups are
    numbered by first appearance in the row-major upper triangle.  Returns
    the group keys and the (N, N) group of each cell.
    """
    n = products.codes.shape[1]
    i, j = np.triu_indices(n)
    distinct, inverse = np.unique(
        np.concatenate([products.codes[i, j], products.codes[j, i]]),
        return_inverse=True)
    order = products.order(distinct)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cell_rank = rank[inverse]
    cell_rank = np.minimum(cell_rank[:len(i)], cell_rank[len(i):])
    key_rank, first, group = np.unique(cell_rank, return_index=True,
                                       return_inverse=True)
    by_first = np.argsort(first)
    renumber = np.empty_like(by_first)
    renumber[by_first] = np.arange(len(by_first))
    group = renumber[group].astype(np.int32)
    keys = products.words(distinct[order[key_rank[by_first]]])
    cell_group = np.empty((n, n), dtype=np.int32)
    cell_group[i, j] = group
    cell_group[j, i] = group
    return keys, cell_group


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the graph on 0..n-1 with edges (a[k], b[k]),
    numbered in order of their least node, by min-label propagation with
    pointer jumping."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        lower = label.copy()
        np.minimum.at(lower, a, low)
        np.minimum.at(lower, b, low)
        lower = lower[lower]
        if np.array_equal(lower, label):
            return np.unique(label, return_inverse=True)[1].astype(np.int32)
        label = lower


def _pvms(alphabet: Alphabet) -> list[list[Letter]]:
    """The measurement letters grouped into PVMs (party, copies, input),
    in alphabet order, each sorted by ``Letter.sort_key``."""
    pvm: dict[tuple, list[Letter]] = {}
    for l in alphabet.letters:
        if l.is_measurement:
            pvm.setdefault((l.party, l.copies, l.input), []).append(l)
    return [sorted(letters, key=Letter.sort_key) for letters in pvm.values()]


# candidate completeness rows examined at a time
_ROW_CHUNK = 1 << 15


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``a``, each with the position of its first
    occurrence (rows compared as bytes, which is faster than
    ``np.unique(axis=0)``; their order is arbitrary)."""
    a = np.ascontiguousarray(a)
    as_bytes = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    first = np.unique(as_bytes, return_index=True)[1]
    return a[first], first


def _completeness_rows(targets: Sequence[np.ndarray],
                       cell_class: np.ndarray) -> FlatRows:
    """Rows sum_a G[w, A_{a|x} v] = G[w, v], deduplicated at class level.

    ``targets[k][a, j]`` is the index position of A_{a|x} v for the a-th
    letter of PVM k and v the j-th index word, -1 if it is outside the
    index.  Each (v, PVM) whose targets are all in the index gives a row
    for every index word w.  The classes of a row are summed, zero
    coefficients dropped, and of rows with equal classes and coefficients
    the first in (v, PVM, w) order is kept.
    """
    n = cell_class.shape[0]
    width = max(len(t) for t in targets) + 1
    cols = np.zeros((len(targets), width - 1, n), dtype=np.intp)
    sign = np.zeros((len(targets), width), dtype=np.int32)
    for k, t in enumerate(targets):
        cols[k, :len(t)] = t
        sign[k, :len(t)] = 1
    sign[:, -1] = -1
    complete = np.array([(t >= 0).all(axis=0) for t in targets])
    vs, ks = np.nonzero(complete.T)
    step = max(1, _ROW_CHUNK // n)
    sigs, firsts = [], []
    for s in range(0, len(vs), step):
        v, k = vs[s:s + step], ks[s:s + step]
        cls = cell_class[:, np.concatenate([cols[k, :, v], v[:, None]], axis=1)]
        cls = cls.transpose(1, 0, 2).reshape(-1, width)
        coef = np.broadcast_to(sign[k][:, None], (len(k), n, width)).reshape(-1, width)
        by_class = np.argsort(cls, axis=1, kind="stable")
        cls = np.take_along_axis(cls, by_class, axis=1)
        coef = np.take_along_axis(coef, by_class, axis=1)
        for t in range(width - 1, 0, -1):
            same = cls[:, t] == cls[:, t - 1]
            coef[same, t - 1] += coef[same, t]
            coef[same, t] = 0
        nonzero_first = np.argsort(coef == 0, axis=1, kind="stable")
        cls = np.take_along_axis(cls, nonzero_first, axis=1)
        coef = np.take_along_axis(coef, nonzero_first, axis=1)
        cls[coef == 0] = -1
        kept = coef[:, 0] != 0
        sig, first = _distinct_rows(np.concatenate([cls, coef], axis=1)[kept])
        sigs.append(sig)
        firsts.append(s * n + np.flatnonzero(kept)[first])
    if not sigs:
        return NO_ROWS
    sig, first = _distinct_rows(np.concatenate(sigs))
    sig = sig[np.argsort(np.concatenate(firsts)[first])]
    return FlatRows.padded(sig[:, :width], sig[:, width:], np.zeros(len(sig)),
                           ("completeness",) * len(sig))


def _source_nodes(scenario: Scenario, l: Letter,
                  inflated: bool) -> list[tuple[str, int]]:
    """(source, copy) pairs a letter uses; global pseudo-source otherwise."""
    if not inflated:
        return [("__global__", 1)]
    slots = scenario.topo.party_sources[l.party]
    return [(src, l.copies[i]) for i, src in enumerate(slots)]


def _pin_factors(scenario: Scenario, key: Word, inflated: bool,
                 subsets: dict[tuple[str, ...], int]
                 ) -> list[tuple[int, tuple[int, ...]]] | None:
    """The marginal cells whose product a distribution forces on ``key``,
    as (subset id, outputs + inputs) per component, or None.

    The key word is split into connected components through shared source
    copies.  A component is a fresh copy of a sub-network when each party
    occurs once and parties adjacent to a common source use a common copy
    of it; its value is then the corresponding marginal of the
    distribution, and the word's value is the product over components.
    A party subset enters ``subsets`` when a component first needs its
    marginal.
    """
    letters = key.letters
    if any(not l.is_measurement for l in letters):
        return None
    nodes_of = [_source_nodes(scenario, l, inflated) for l in letters]
    factors = []
    for members in linked_components(nodes_of):
        parties = [letters[li].party for li in members]
        if len(set(parties)) != len(parties):
            return None
        if inflated:
            # parties sharing a source in the network must share its copy
            copy_used: dict[str, set[int]] = {}
            for li in members:
                for src, cp in nodes_of[li]:
                    copy_used.setdefault(src, set()).add(cp)
            for src, cps in copy_used.items():
                feeders = set(_source_parties(scenario, src)) & set(parties)
                if len(feeders) >= 2 and len(cps) >= 2:
                    return None
        sub = tuple(sorted(parties))
        sid = subsets.setdefault(sub, len(subsets))
        order = {p: k for k, p in enumerate(sub)}
        outs = [0] * len(sub)
        ins = [0] * len(sub)
        for li in members:
            l = letters[li]
            outs[order[l.party]] = l.output
            ins[order[l.party]] = l.input
        factors.append((sid, tuple(outs) + tuple(ins)))
    return factors


def _pin_plan(problem: MomentProblem) -> PinPlan:
    """Walk the groups class by class, in group order within a class, and
    record the marginal cells of every pinnable one; the party subsets
    enter in the order of this walk."""
    sc = problem.scenario
    inflated = problem.hierarchy == "inflation"
    subsets: dict[tuple[str, ...], int] = {}
    groups, factors = [], []
    for g in problem.class_layout[0].tolist():
        f = _pin_factors(sc, problem.group_keys[g], inflated, subsets)
        if f is not None:
            groups.append(g)
            factors.append(f)
    # the position of every marginal cell in the concatenated marginals
    position, total = [], 0
    for sub in subsets:
        shape = ([sc.outputs[sc.party_index(p)] for p in sub]
                 + [sc.inputs[sc.party_index(p)] for p in sub])
        position.append(total + np.arange(math.prod(shape)).reshape(shape))
        total += position[-1].size
    cells = np.full((len(groups), max(map(len, factors), default=0)), total,
                    dtype=np.intp)
    for k, f in enumerate(factors):
        for c, (sid, cell) in enumerate(f):
            cells[k, c] = position[sid][cell]
    group_arr = np.asarray(groups, dtype=np.intp)
    group_cls = problem.group_class[group_arr]
    starts = np.flatnonzero(np.diff(group_cls, prepend=-1))
    return PinPlan(subsets=tuple(subsets), groups=group_arr,
                   classes=group_cls[starts].astype(np.intp), starts=starts,
                   cells=cells)


def _source_parties(scenario: Scenario, source: str) -> tuple[str, ...]:
    if source == "__global__":
        return scenario.parties
    return scenario.topo.sources[source]


def _assemble(scenario: Scenario, hierarchy: str, n: int, m: int | None,
              alphabet: Alphabet, *, completeness: bool,
              budget: int, merges: Callable | None = None,
              merge_family: str = "",
              index_words: Sequence[Word] | None = None) -> MomentProblem:
    """Build the problem's structure.  ``merges(index, keys, cell_group)``
    returns two arrays of group ids whose groups share a class."""
    if index_words is None:
        index = enumerate_words(alphabet, n)
    else:
        index = sorted(set(index_words) | {EMPTY_WORD}, key=Word.sort_key)
    if len(index) > budget:
        raise BudgetError(
            f"index size {len(index)} exceeds budget {budget} "
            f"({hierarchy}, n={n}" + (f", m={m}" if m else "") + ")")
    pvms = _pvms(alphabet) if completeness else []
    products = _Products(index, [word([l]) for pvm in pvms for l in pvm])
    keys, cell_group = _build_groups(products)
    a = b = np.zeros(0, dtype=np.intp)
    if merges is not None:
        a, b = merges(index, keys, cell_group)
    group_class = _components(len(keys), a, b)
    cell_class = group_class[cell_group]
    rows = NO_ROWS
    if pvms:
        targets = products.positions(products.codes[len(index):])
        ends = np.cumsum([len(pvm) for pvm in pvms])
        rows = _completeness_rows(np.split(targets, ends[:-1]), cell_class)
    pinned = {int(cell_class[0, 0]): 1.0}  # G[1, 1] = 1
    return MomentProblem(
        scenario=scenario, hierarchy=hierarchy, n=n, m=m, alphabet=alphabet,
        index=tuple(index), group_keys=tuple(keys), cell_group=cell_group,
        group_class=group_class, cell_class=cell_class, pinned=pinned,
        rows=rows, merge_family=merge_family, completeness=completeness)


# ---------------------------------------------------------------------------
# Public builders
# ---------------------------------------------------------------------------

def build_standard(scenario: Scenario, n: int, *, completeness: bool = True,
                   budget: int = DEFAULT_INDEX_BUDGET) -> MomentProblem:
    """Standard moment problem: words of length <= n, Hankel classes,
    G[1,1] = 1, completeness rows.  Hierarchy verdicts are meaningful for
    n >= 3; lower levels are allowed as diagnostics."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _assemble(scenario, "standard_npa", n, None, scenario.alphabet(),
                     completeness=completeness, budget=budget)


def _party_words(problem_index: Sequence[Word], party: str,
                 nonempty: bool = True) -> list[Word]:
    out = []
    for w in problem_index:
        if len(w) == 0:
            if not nonempty:
                out.append(w)
            continue
        if all(l.is_measurement and l.party == party for l in w.letters):
            out.append(w)
    return out


def _attach_factor_pairs(p: MomentProblem,
                         party_pairs: Iterable[tuple[str, str]]) -> list[FactorConstraint]:
    cls_empty = int(p.cell_class[0, 0])
    pairs = []
    for pa, pc in party_pairs:
        for a in _party_words(p.index, pa):
            ia = p.pos(a)
            for c in _party_words(p.index, pc):
                ic = p.pos(c)
                pairs.append(FactorConstraint(
                    a, c, int(p.cell_class[ia, ic]),
                    int(p.cell_class[ia, 0]), int(p.cell_class[0, ic])))
    return pairs


def build_factorisation_bilocal(scenario: Scenario, n: int, *,
                                completeness: bool = True,
                                budget: int = DEFAULT_INDEX_BUDGET) -> MomentProblem:
    """Standard problem plus the bilinear A-C factorisation family."""
    if scenario.topology != "bilocal":
        raise ValueError("factorisation_bilocal requires the bilocal topology")
    if n < 1:
        raise ValueError("n must be >= 1")
    p = _assemble(scenario, "factorisation_bilocal", n, None, scenario.alphabet(),
                  completeness=completeness, budget=budget)
    pairs = _attach_factor_pairs(p, scenario.topo.factor_pairs)
    return replace(p, factor_pairs=tuple(pairs))


def build_star_factorisation(scenario: Scenario, n: int, *,
                             completeness: bool = True,
                             budget: int = DEFAULT_INDEX_BUDGET) -> MomentProblem:
    """Star network: pairwise leaf factorisation plus the triple family."""
    if scenario.topology != "star4":
        raise ValueError("factorisation_star requires the star4 topology")
    if n < 4:
        raise ValueError("the star hierarchy starts at n = 4")
    p = _assemble(scenario, "factorisation_star", n, None, scenario.alphabet(),
                  completeness=completeness, budget=budget)
    pairs = _attach_factor_pairs(p, scenario.topo.factor_pairs)
    triples = []
    pa, pc, pd = scenario.topo.factor_triples[0]
    for a in _party_words(p.index, pa):
        for c in _party_words(p.index, pc):
            if len(a) + len(c) > n:
                continue
            ac = concat(a, c)
            iac = p.pos(ac)
            for d in _party_words(p.index, pd):
                idd = p.pos(d)
                triples.append(FactorConstraint(
                    ac, d, int(p.cell_class[iac, idd]),
                    int(p.cell_class[iac, 0]), int(p.cell_class[0, idd])))
    return replace(p, factor_pairs=tuple(pairs), factor_triples=tuple(triples))


def _scalar_identifications(alphabet: Alphabet, n: int,
                            keys: Sequence[Word]) -> tuple[np.ndarray, np.ndarray]:
    """The groups of alpha*gamma and kappa_alpha*gamma, as two arrays of
    group ids, for the A-words alpha and C-words gamma of the scalar
    alphabet whose products are both group keys."""
    key_of = {k: g for g, k in enumerate(keys)}
    a_words = [w for w in enumerate_words(
        Alphabet("a", tuple(l for l in alphabet.letters
                            if l.is_measurement and l.party == "A")), n)
        if len(w) >= 1]
    c_words = enumerate_words(
        Alphabet("c", tuple(l for l in alphabet.letters
                            if l.is_measurement and l.party == "C")), n)
    out = []
    for a in a_words:
        ka = word([scalar_letter(a)])
        for c in c_words:
            g1 = key_of.get(_min_key(concat(a, c)))
            g2 = key_of.get(_min_key(concat(ka, c)))
            if g1 is not None and g2 is not None:
                out.append((g1, g2))
    pairs = np.array(out, dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def build_scalar_extension(scenario: Scenario, n: int, *,
                           completeness: bool = True,
                           budget: int = DEFAULT_INDEX_BUDGET) -> MomentProblem:
    """Scalar-extension problem over words with kappa symbols.

    The classes of alpha*gamma and kappa_alpha*gamma are identified for
    every A-word alpha (1 <= |alpha| <= n) and C-word gamma (|gamma| <=
    n), gamma empty included.  Hierarchy verdicts are meaningful for
    n >= 3; lower levels serve as diagnostics and as the target of the
    inflation-to-scalar-extension map.
    """
    if scenario.topology != "bilocal":
        raise ValueError("scalar_extension requires the bilocal topology")
    if n < 1:
        raise ValueError("n must be >= 1")
    alphabet = scenario.scalar_alphabet(n)

    def merges(index, keys, cell_group):
        return _scalar_identifications(alphabet, n, keys)

    return _assemble(scenario, "scalar_extension", n, None, alphabet,
                     completeness=completeness, budget=budget,
                     merges=merges, merge_family="scalar identification")


def _copy_merges(index: Sequence[Word], cell_group: np.ndarray,
                 alphabet: Alphabet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every group joined to its image under each generator of the
    copy-relabelling group (S_m)^sources, one source at a time: the
    transposition (1 2), plus the m-cycle when m >= 3.

    A relabelling is an automorphism of the word algebra, so it maps the
    product of cell (i, j) to that of cell (pi i, pi j), where pi is the
    index permutation it induces, and a group's image is the group of the
    image of any one of its cells, here its first in row-major order.  The
    connected components are the orbits of the full group.  An index word
    whose image is not in the index raises :class:`RuntimeError`.
    """
    gens = [{1: 2, 2: 1}] if m >= 2 else []
    if m >= 3:
        gens.append({i: i % m + 1 for i in range(1, m + 1)})
    pos = {w: i for i, w in enumerate(index)}
    groups, first = np.unique(cell_group, return_index=True)
    rows, cols = np.divmod(first, len(index))
    images = []
    for src in alphabet.sources():
        for gen in gens:
            perms_by_source = {src: gen}
            pi = np.empty(len(index), dtype=np.intp)
            for i, w in enumerate(index):
                img = act_permutation(w, None, alphabet=alphabet,
                                      perms_by_source=perms_by_source)
                if img not in pos:
                    raise RuntimeError(
                        f"copy relabelling {perms_by_source} maps index word "
                        f"{w!r} to {img!r}, which is not in the index")
                pi[i] = pos[img]
            images.append(cell_group[pi[rows], pi[cols]])
    return (np.tile(groups, len(images)),
            np.concatenate(images) if images else groups[:0])


def build_inflation(scenario: Scenario, n: int, m: int, *,
                    completeness: bool = True,
                    budget: int = DEFAULT_INDEX_BUDGET,
                    index_words: Sequence[Word] | None = None) -> MomentProblem:
    """Inflated moment problem with per-source symmetric-group merges.

    Classes are the orbits of the copy-relabelling group (S_m)^sources on
    the Hankel groups.  One transposition and one m-cycle per source
    generate it; each permutes the full index, and cell (i, j) is merged
    with cell (pi i, pi j) under that index permutation pi, which is exact
    because a relabelling is an automorphism of the word algebra.

    ``index_words`` restricts the index to an explicit word list (plus the
    empty word); used to host the scalar-extension image words, where the
    full order-n index over many copies would be far beyond desk scale.
    Symmetry merges are skipped for restricted indices: a restricted index
    need not be closed under relabelling, so the generators would not
    permute it, and the restricted assignments feed a construction that
    never consults the merged classes.
    """
    if scenario.topology not in ("bilocal", "triangle"):
        raise ValueError("inflation supports the bilocal and triangle topologies")
    if n < 2 or m < 1:
        raise ValueError("inflation needs n >= 2 and m >= 1")
    if index_words is None and m > 3:
        raise BudgetError("inflation order > 3 exceeds the desk-scale budget")
    alphabet = scenario.inflated_alphabet(m)

    def merges(index, keys, cell_group):
        return _copy_merges(index, cell_group, alphabet, m)

    p = _assemble(scenario, "inflation", n, m, alphabet,
                  completeness=completeness, budget=budget,
                  merges=merges if index_words is None else None,
                  merge_family="copy symmetry", index_words=index_words)

    # verification-only nonlinear products: diagonal words on disjoint copies
    check = _diagonal_check_products(p)
    return replace(p, check_products=tuple(check))


def _diagonal_word_copies(scenario: Scenario, w: Word) -> set[int] | None:
    """Copy index if w is a diagonal word on a single copy, else None."""
    cps: set[int] = set()
    for l in w.letters:
        if not l.is_measurement or l.copies is None:
            return None
        if len(set(l.copies)) != 1:
            return None
        cps.update(l.copies)
    return cps if len(cps) == 1 else None


def _diagonal_check_products(p: MomentProblem):
    """(product class, factor classes) for products of single-copy diagonal
    words on distinct copies; imposed only at verification time."""
    diag: dict[int, list[Word]] = {}
    for w in p.index:
        cps = _diagonal_word_copies(p.scenario, w)
        if cps:
            diag.setdefault(next(iter(cps)), []).append(w)
    out = []
    pos = {w: i for i, w in enumerate(p.index)}
    copies = sorted(diag)
    for c1, c2 in itertools.combinations(copies, 2):
        for w1 in diag[c1]:
            for w2 in diag[c2]:
                ip = pos.get(concat(w1, w2))
                if ip is None:
                    continue
                i1, i2 = pos[w1], pos[w2]
                out.append((int(p.cell_class[0, ip]),
                            (int(p.cell_class[0, i1]), int(p.cell_class[0, i2]))))
    return out


# ---------------------------------------------------------------------------
# Distribution pins
# ---------------------------------------------------------------------------

def pin_distribution(problem: MomentProblem, dist: Distribution,
                     *, tol: float = 1e-9) -> MomentProblem:
    """Pin every class whose key is forced by compatibility with ``dist``.

    Full correlators, all marginals reachable by summing outcomes, and
    (for inflated problems) products over fresh source copies are pinned.
    Which keys those are, and which marginal cell each factor reads, is
    the problem's :attr:`MomentProblem.pin_plan`, built once on the first
    pin; each distribution then computes the plan's marginals (rejecting
    signalling tables, with the offending inputs named) and gathers.  A
    key's value is the product of its factors taken left to right.  A
    class is pinned to the value of its first pinnable group; its
    pinnable groups must agree to within ``tol``, and so must an earlier
    pin of the class, else :class:`PinConflictError` names the first
    class in conflict.
    """
    if dist.scenario.topology != problem.scenario.topology or \
            dist.scenario.outputs != problem.scenario.outputs or \
            dist.scenario.inputs != problem.scenario.inputs:
        raise ValueError("distribution and problem scenarios differ")
    nparties = len(problem.scenario.parties)
    if 2 * problem.n < nparties and problem.hierarchy != "inflation":
        # full-correlator words appear as cell products of length <= 2n
        raise ValueError(
            f"level n={problem.n} cannot pin the full correlators of "
            f"{nparties} parties")
    plan = problem.pin_plan
    marginals = np.concatenate([dist.marginal(sub).reshape(-1)
                                for sub in plan.subsets] + [np.ones(1)])
    values = np.ones(len(plan.groups))
    for col in plan.cells.T:
        values *= marginals[col]
    first = values[plan.starts]
    spread = (np.maximum.reduceat(values, plan.starts)
              - np.minimum.reduceat(values, plan.starts))
    held = np.full(problem.n_classes, np.nan)
    held[list(problem.pinned)] = list(problem.pinned.values())
    conflict = (spread > tol) | (np.abs(held[plan.classes] - first) > tol)
    if conflict.any():
        k = int(conflict.argmax())
        cls = int(plan.classes[k])
        if spread[k] > tol:
            seg = slice(plan.starts[k], plan.starts[k + 1]
                        if k + 1 < len(plan.starts) else None)
            vals, groups = values[seg], plan.groups[seg]
            vmin, vmax = float(vals.min()), float(vals.max())
            wa = problem.group_keys[groups[int((vals == vmin).argmax())]]
            wb = problem.group_keys[groups[int((vals == vmax).argmax())]]
            raise PinConflictError(
                f"keys {wa!r} and {wb!r} of one class pin to {vmin} != {vmax}")
        raise PinConflictError(
            f"class {cls} already pinned to {problem.pinned[cls]}, "
            f"got {float(first[k])}")
    pinned = dict(problem.pinned)
    pinned.update(zip(plan.classes.tolist(), first.tolist()))
    return problem.derive(pinned=pinned)


# ---------------------------------------------------------------------------
# Assignments and checking
# ---------------------------------------------------------------------------

@dataclass
class MomentAssignment:
    problem: MomentProblem
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (self.problem.dim, self.problem.dim):
            raise ValueError("assignment dimension does not match the index")
        if np.abs(self.matrix - self.matrix.T).max() > 1e-12:
            raise ValueError("assignment matrix must be symmetric")

    def class_values(self) -> np.ndarray:
        return self.problem.class_average(self.matrix)

    def value(self, row_word: Word, col_word: Word) -> float:
        return float(self.matrix[self.problem.pos(row_word),
                                 self.problem.pos(col_word)])


def oracle_assignment(problem: MomentProblem, oracle) -> MomentAssignment:
    """Fill the moment matrix from a strategy oracle.

    Uses the Gram fast path when the oracle provides one; falls back to
    evaluating each Hankel group's key word once.
    """
    if hasattr(oracle, "gram"):
        return MomentAssignment(problem, oracle.gram(problem.index))
    values = np.fromiter((oracle.value(key) for key in problem.group_keys),
                         float, len(problem.group_keys))
    return MomentAssignment(problem, values[problem.cell_group])


@dataclass
class ResidualReport:
    hankel: float
    merges: float          # symmetry orbits / scalar identifications
    pins: float
    completeness: float
    factorisation: float
    extended_products: float
    min_eigenvalue: float

    def families(self) -> dict[str, float]:
        return {
            "hankel": self.hankel,
            "merges": self.merges,
            "pins": self.pins,
            "completeness": self.completeness,
            "factorisation": self.factorisation,
            "extended_products": self.extended_products,
            "psd": max(0.0, -self.min_eigenvalue),
        }

    def max_residual(self) -> float:
        return max(self.families().values())

    def ok(self, tol: float) -> bool:
        return self.max_residual() <= tol

    def __str__(self) -> str:
        rows = [f"  {name:<18} {value: .3e}"
                for name, value in self.families().items()]
        return "residuals:\n" + "\n".join(rows)


def factor_classes(constraints: Sequence[FactorConstraint]) -> np.ndarray:
    """The (product, row, column) classes of each constraint, one row each."""
    return np.array([(fc.cls_prod, fc.cls_row, fc.cls_col) for fc in constraints],
                    dtype=np.intp).reshape(-1, 3)


def factor_residual(class_vals: np.ndarray,
                    constraints: Sequence[FactorConstraint]) -> float:
    """Max |G_prod - G_row * G_col| over ``constraints``."""
    prod, row, col = factor_classes(constraints).T
    return float(np.abs(class_vals[prod] - class_vals[row] * class_vals[col])
                 .max(initial=0.0))


def _max_spread(values: np.ndarray, starts: np.ndarray) -> float:
    """Largest max - min over the consecutive segments opening at ``starts``."""
    spread = (np.maximum.reduceat(values, starts)
              - np.minimum.reduceat(values, starts))
    return float(spread.max())


def check_assignment(problem: MomentProblem, assignment: MomentAssignment,
                     tol: float = 1e-8) -> ResidualReport:
    """Per-family maximal residuals of an assignment (tol is advisory;
    all families are always evaluated and reported)."""
    X = assignment.matrix
    vals = X.reshape(-1)
    cells, group_bounds = problem.group_layout
    group_means = (np.bincount(problem.cell_group.reshape(-1), weights=vals,
                               minlength=len(problem.group_keys))
                   / np.diff(group_bounds))
    hankel = _max_spread(vals[cells], group_bounds[:-1])
    # class value: the mean of its groups' means
    groups, class_bounds = problem.class_layout
    class_vals = (np.bincount(problem.group_class, weights=group_means,
                              minlength=problem.n_classes)
                  / np.diff(class_bounds))
    merge_res = _max_spread(group_means[groups], class_bounds[:-1])
    pin_val = np.full(problem.n_classes, np.nan)
    pin_val[list(problem.pinned)] = list(problem.pinned.values())
    cell_pin = pin_val[problem.cell_class].reshape(-1)
    pinned = ~np.isnan(cell_pin)
    pins = float(np.abs(vals[pinned] - cell_pin[pinned]).max(initial=0.0))
    rows = problem.active_rows
    lhs = np.bincount(rows.row, weights=rows.coeffs * class_vals[rows.classes],
                      minlength=len(rows))
    completeness = float(np.abs(lhs - rows.rhs).max(initial=0.0))
    fact = factor_residual(class_vals,
                           problem.factor_pairs + problem.factor_triples)
    ext = 0.0
    if problem.check_products:
        prods = np.array([c for c, _ in problem.check_products], dtype=np.intp)
        factors = [fs for _, fs in problem.check_products]
        starts = np.cumsum([0] + [len(fs) for fs in factors[:-1]])
        products = np.multiply.reduceat(
            class_vals[np.concatenate(factors).astype(np.intp)], starts)
        ext = float(np.abs(class_vals[prods] - products).max())
    eigmin = float(np.linalg.eigvalsh((X + X.T) / 2).min())
    return ResidualReport(hankel=hankel, merges=merge_res, pins=pins,
                          completeness=completeness, factorisation=fact,
                          extended_products=ext, min_eigenvalue=eigmin)


# ---------------------------------------------------------------------------
# Inflation -> scalar extension
# ---------------------------------------------------------------------------

def _check_scalar_bound(scenario: Scenario, n: int, m: int) -> None:
    d = len([l for l in scenario.alphabet().letters if l.party == "A"])
    bound = sum(d ** i for i in range(n + 1))
    if m < bound:
        raise ValueError(
            f"inflation order m={m} is below the scalar-extension bound "
            f"sum d^i = {bound} (d={d}, n={n})")


def scalar_key_image(u: Word, m: int, scenario: Scenario) -> Word:
    """Image of a scalar-extension product word inside the inflated algebra.

    Measurement blocks act on source copy 1; every scalar-symbol
    *occurrence* expands to its payload on a fresh copy (2, 3, ... in
    order of appearance).  Fresh copies make each scalar occurrence an
    isolated source component, so on inflation moment values the symbol
    contributes the factor Tr(tau * payload), exactly the scalar it
    abbreviates.
    """
    next_copy = 2
    out: list[Letter] = []
    for l in u.letters:
        if l.is_scalar:
            if next_copy > m:
                raise ValueError(
                    f"word {u!r} needs more than m={m} source copies")
            for pl in l.payload.letters:
                out.append(Letter(pl.kind, pl.party, pl.output, pl.input,
                                  (next_copy,)))
            next_copy += 1
        else:
            nslots = len(scenario.topo.party_sources[l.party])
            out.append(Letter(l.kind, l.party, l.output, l.input,
                              (1,) * nslots))
    return word(out)


def _split_in_index(v: Word, pos: Mapping[Word, int]) -> tuple[int, int] | None:
    """Cell (i, j) of an inflation problem whose product is ``v``."""
    letters = v.letters
    for h in range(len(letters) + 1):
        left = involute(word(letters[:h]))
        right = word(letters[h:])
        i, j = pos.get(left), pos.get(right)
        if i is not None and j is not None:
            return i, j
    return None


def required_inflation_words(scenario: Scenario, n: int, m: int) -> list[Word]:
    """Inflated index over which a Xi assignment must be built so that
    :func:`inflation_to_scalar_extension` can read off every value."""
    _check_scalar_bound(scenario, n, m)
    omega = build_scalar_extension(scenario, n)
    needed: set[Word] = {EMPTY_WORD}
    for key in omega.group_keys:
        v = scalar_key_image(key, m, scenario)
        h = (len(v) + 1) // 2
        needed.add(involute(word(v.letters[:h])))
        needed.add(word(v.letters[h:]))
    return sorted(needed, key=Word.sort_key)


def inflation_to_scalar_extension(xi: MomentAssignment, n: int, m: int, *,
                                  input_tol: float = 1e-8) -> MomentAssignment:
    """Construct a scalar-extension assignment from an inflation assignment.

    Each equality class of the order-n scalar problem takes the inflation
    value of the image of its product key under :func:`scalar_key_image`.
    Requires m >= sum_i d^i (d = number of A letters), which leaves room
    for one fresh copy per scalar occurrence in any product key.  The
    input must satisfy its own problem within ``input_tol`` and must
    index enough words to locate every image value (see
    :func:`required_inflation_words`).
    """
    problem = xi.problem
    if problem.hierarchy != "inflation":
        raise ValueError("source assignment must be an inflation assignment")
    scenario = problem.scenario
    _check_scalar_bound(scenario, n, m)
    report = check_assignment(problem, xi)
    if max(report.hankel, report.merges, report.completeness) > input_tol:
        raise ValueError(
            f"inflation assignment violates its own constraints "
            f"(residual {report.max_residual():.3e} > {input_tol:g})")
    omega = build_scalar_extension(scenario, n)
    pos = {w: i for i, w in enumerate(xi.problem.index)}
    values = np.zeros(omega.n_classes)
    for cls in range(omega.n_classes):
        v = scalar_key_image(omega.representative_key(cls), m, scenario)
        cell = _split_in_index(v, pos)
        if cell is None:
            raise ValueError(
                f"inflation index cannot evaluate the image word {v!r}; "
                "build the assignment over required_inflation_words(...)")
        values[cls] = xi.matrix[cell]
    mat = values[omega.cell_class]
    return MomentAssignment(omega, (mat + mat.T) / 2)
