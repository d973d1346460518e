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
    index over copy-indexed letters; classes are the orbits of the
    per-source symmetric-group action on the Hankel groups (see
    :func:`build_inflation`).  Every product whose connected components look
    like fresh copies of (a sub-network of) the original scenario is
    pinned to the matching marginal product.
``factorisation_star``
    pairwise factorisation for the three leaf parties of the star plus
    the triple family G[alpha*gamma, delta] = G[alpha*gamma, 1]*G[1, delta].

The structure is built as arrays.  The canonical product of a cell is
coded from per-block product tables (:class:`_Products`), the Hankel
groups are its distinct codes up to involution, the classes are the
connected components of the merges (:func:`scenarios.components`), and
the completeness rows are gathered from the column relations.  The pin
plan is one pass over the group keys' letters, split by the same routine.

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

from .scenarios import (
    SCALAR_PARTY,
    Distribution,
    Scenario,
    components,
    sharing_components,
)
from .words import (
    EMPTY_WORD,
    Alphabet,
    Letter,
    Word,
    _BLOCKS,
    _LETTERS,
    _normal,
    _split,
    concat,
    enumerate_words,
    involute,
    relabel_codes,
    render_word,
    word,
)

DEFAULT_INDEX_BUDGET = 5000
# how far the pinnable groups of one class, and an earlier pin, may disagree
PIN_TOL = 1e-9
# the residual up to which inflation_to_scalar_extension takes its input
SCALAR_INPUT_TOL = 1e-8


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

# the most entries a product of SparseRows with a dense matrix gathers at once
GATHER_ENTRIES = 2 ** 18


@dataclass(frozen=True, eq=False)
class SparseRows:
    """A sparse matrix of ``shape`` held as flat numpy arrays, row after
    row (the CSR layout): row i holds ``data[indptr[i]:indptr[i + 1]]`` at
    the columns ``indices[indptr[i]:indptr[i + 1]]``.

    A product with a dense vector or matrix (:meth:`dot`) gathers row by
    row: the rows are grouped by their length rounded up to a power of
    two, each padded to it with zero coefficients at its first column, and
    each group is one (width, rows) gather and one sum over the width, for
    a matrix a chunk of at most ``GATHER_ENTRIES`` gathered entries at a
    time."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def rows(self, at: slice) -> SparseRows:
        """The rows ``at`` (a slice of step 1)."""
        a, e = self.indptr[at.start], self.indptr[at.stop]
        return SparseRows(self.data[a:e], self.indices[a:e],
                          self.indptr[at.start:at.stop + 1] - a,
                          (at.stop - at.start, self.shape[1]))

    def dense(self) -> np.ndarray:
        M = np.zeros(self.shape)
        M[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)),
          self.indices] = self.data
        return M

    def columns(self, keep: np.ndarray) -> SparseRows:
        """The columns ``keep`` (distinct), in that order."""
        at = np.full(self.shape[1], -1, dtype=np.intp)
        at[keep] = np.arange(len(keep))
        col = at[self.indices]
        kept = col >= 0
        row = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))[kept]
        return SparseRows(self.data[kept], col[kept], np.concatenate(
            [np.zeros(1, np.intp),
             np.cumsum(np.bincount(row, minlength=self.shape[0]))]),
            (self.shape[0], len(keep)))

    @functools.cached_property
    def _groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(rows, their padded columns, their padded coefficients) per
        width w, ascending, each padded array (w, rows), slot after slot;
        empty rows are in none."""
        sizes = np.diff(self.indptr)
        filled = sizes > 0
        width = np.zeros_like(sizes)
        width[filled] = 1 << np.ceil(np.log2(sizes[filled])).astype(np.intp)
        groups = []
        for w in np.unique(width[filled]).tolist():
            rows = np.flatnonzero(width == w)
            first = self.indptr[rows]
            real = np.arange(w)[:, None] < sizes[rows]
            at = (first + np.arange(w)[:, None])[real]
            cols = np.repeat(self.indices[first][None], w, axis=0)
            cols[real] = self.indices[at]
            vals = np.zeros((w, len(rows)))
            vals[real] = self.data[at]
            groups.append((rows, cols, vals))
        return tuple(groups)

    def dot(self, y: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """The product with y, (shape[1],) or (shape[1], P), on the rows
        ``rows`` (a slice of step 1; None: all)."""
        a, e = (0, self.shape[0]) if rows is None else (rows.start, rows.stop)
        out = np.zeros((e - a,) + y.shape[1:])
        for at, cols, vals in self._groups:
            if rows is not None:
                lo, hi = np.searchsorted(at, (a, e))
                at, cols, vals = at[lo:hi] - a, cols[:, lo:hi], vals[:, lo:hi]
            if y.ndim == 1:
                out[at] = np.einsum("ij,ij->j", vals, np.take(y, cols))
                continue
            step = max(1, GATHER_ENTRIES // (len(cols) * y.shape[1]))
            for i in range(0, len(at), step):
                out[at[i:i + step]] = np.einsum(
                    "ij,ijk->jk", vals[:, i:i + step],
                    np.take(y, cols[:, i:i + step], axis=0))
        return out


@dataclass(frozen=True, eq=False)
class CopyBlocks:
    """Orthonormal bases U_b = Q_b W_b, (dim, r_b), that block-diagonalise
    the moment matrices of a problem (:attr:`MomentProblem.index_blocks`
    on the whole index, :attr:`MomentProblem.copy_blocks` on the
    complement of the column relations: each index block restricted to
    it, with the index blocks' orbit sums).

    Each column of a Q_b is one signed orbit sum: s(j)/sqrt(|O|) at each
    word j of one orbit O of the group the problem's ``generators``
    generate, with s = +-1 and s = +1 at the orbit's least word.  ``sums``
    holds the columns of every Q_b as the rows of one sparse (k, dim)
    matrix (:class:`SparseRows`, (k, dim)), block after block, each row's
    words ascending, so its first is the orbit's least word and its count
    is |O|; ``columns`` holds the columns of each block and
    ``complements`` its dense W_b, (k_b, r_b), None for W_b = I.  No dense
    (dim, k_b) basis is held.  Without generators the group is trivial:
    every word is its own orbit, there is one block, Q = I, and ``sums``
    is None (so a problem that only reports its block sizes, or reads its
    one block from one vector, builds no map), and the one copy block is
    W alone, an orthonormal basis of the whole complement.

    Each Q_b is a joint eigenspace of the generators: Q_b[pi] = +-Q_b for
    every generator's index permutation pi, and every moment matrix X has
    X[pi][:, pi] = X.  So on an orbit the rows of X Q_b are the same up to
    the one sign, and entry (c, d) of Q_b' X Q_b is sqrt(|O_c|) times
    (X Q_b)[i_c, d] at the least word i_c of the orbit O_c of column c:
    sqrt(|O_c|/|O_d|) sum_{j in O_d} s_d(j) X[i_c, j].  For X =
    y[cell_class] that is linear in the class values y: :attr:`class_map`
    holds the map for every block, and :meth:`congruences` reads every
    U_b' X U_b from class values.
    """

    sums: SparseRows | None            # (k, dim)
    columns: tuple[slice, ...]
    complements: tuple[np.ndarray | None, ...]
    cell_class: np.ndarray             # the problem's, (dim, dim)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.stop - c.start if W is None else W.shape[1]
                     for c, W in zip(self.columns, self.complements))

    @functools.cached_property
    def stacks(self) -> tuple[tuple, ...]:
        """How the blocks are batched, decided here alone.  The blocks of
        each (k_b, r_b) shape form one group: (their positions, their rows
        of :attr:`class_map` as a slice, k_b, their W_b as one (n, k_b, r_b)
        array or None, r_b, and their slice of the stack of size r_b).  The
        groups are sorted by r_b, ties in order of first appearance, and
        the groups of one size fill one stack in that order: the stacks
        that :meth:`congruences` returns, one per size, ascending, and that
        :func:`least_eigenvalue` and ``interior.solve_lmi`` read as they
        are.  Q_b' X Q_b is symmetric, so a block takes k_b (k_b + 1) / 2
        rows, its upper triangle row after row (entry (c, d), c <= d,
        before (c, d + 1) and (c + 1, c + 1)), and the groups take theirs
        in order, so a group's rows are one contiguous run."""
        shapes: dict[tuple, list[int]] = {}
        for b, (c, W) in enumerate(zip(self.columns, self.complements)):
            shapes.setdefault((c.stop - c.start, None if W is None else W.shape[1]),
                              []).append(b)
        sizes = self.sizes
        out, at, filled = [], 0, {}
        for (k, w), blocks in sorted(shapes.items(), key=lambda kv: sizes[kv[1][0]]):
            r = sizes[blocks[0]]
            n = filled.get(r, 0)
            filled[r] = n + len(blocks)
            W = None if w is None else np.stack([self.complements[b] for b in blocks])
            out.append((blocks, slice(at, at := at + len(blocks) * k * (k + 1) // 2),
                        k, W, r, slice(n, n + len(blocks))))
        return tuple(out)

    @functools.cached_property
    def _squares(self) -> dict[int, np.ndarray]:
        """For each k_b, the row of every entry (c, d) of a k_b x k_b
        symmetric matrix, row after row, in its upper triangle row after
        row: the gather that reads a block's square from its rows of
        :attr:`class_map`."""
        out = {}
        for k in {k for _, _, k, *_ in self.stacks}:
            at = np.empty((k, k), dtype=np.intp)
            i, j = np.triu_indices(k)
            at[i, j] = at[j, i] = np.arange(len(i))
            out[k] = at.reshape(-1)
        return out

    @functools.cached_property
    def class_map(self) -> SparseRows:
        """T, the sparse (sum_b k_b (k_b + 1) / 2, classes) map from class
        values y to the upper triangle of every Q_b' X Q_b for X =
        y[cell_class], in the rows of :attr:`stacks`: row (c, d) of a
        block, c <= d, holds sqrt(|O_c|) s_d(j) at the class of cell (i_c,
        j) for every word j of O_d, each class's repeats summed.  Without
        generators every word is its own orbit.  Built on first use and
        kept with the blocks."""
        dim = len(self.cell_class)
        sums = (SparseRows(np.ones(dim), np.arange(dim), np.arange(dim + 1),
                           (dim, dim)) if self.sums is None else self.sums)
        n_classes = int(self.cell_class.max()) + 1
        # each block's repeats are summed on its own rows, so that no more
        # than one block's entries are held before summing
        indptr, classes, values, at = [np.zeros(1, np.intp)], [], [], 0
        for S in [sums.rows(self.columns[b]) for blocks, *_ in self.stacks for b in blocks]:
            k, size = S.shape[0], np.diff(S.indptr)
            c, d = np.arange(k)[:, None], np.repeat(np.arange(k), size)
            upper = c <= d
            starts, cls, vals = _summed_rows(
                (c * k - c * (c - 1) // 2 + d - c)[upper],
                self.cell_class[np.ix_(S.indices[S.indptr[:-1]], S.indices)][upper],
                (np.sqrt(size)[:, None] * S.data)[upper], k * (k + 1) // 2, n_classes)
            indptr.append(starts[1:] + at)
            classes.append(cls)
            values.append(vals)
            at += len(vals)
        indptr = np.concatenate(indptr)
        return SparseRows(np.concatenate(values), np.concatenate(classes), indptr,
                          (len(indptr) - 1, n_classes))

    def congruences(self, values: np.ndarray,
                    classes: np.ndarray | None = None) -> list[np.ndarray]:
        """U_b' X U_b for every block and X = y[cell_class] with class
        values y = ``values``, as the stacks of :attr:`stacks`: one (n, r,
        r) stack per block size r, ascending, each group of blocks at its
        slice; for ``values`` of shape (len(y), P), one (P, n, r, r) stack
        per size, one X per column.  With ``classes``, ``values`` holds the
        values of those classes alone and the others are zero.

        The pre-W_b entries of the blocks are their upper triangles, the
        rows of T y (:attr:`class_map`), each block's square read from its
        triangle, or, without generators and ``classes``, X = y[cell_class]
        itself; then each group takes its W_b as one batch.  One X reads
        every row at once.  Several read group by group, a chunk of columns
        at a time, so that the entries held at once, k_b^2 per block and
        column, are no more than the P sum_b r_b^2 of the output, or one
        column's."""
        lead = values.shape[1:]            # () for one X, else (P,)
        # each size's last group ends its stack
        ends = {r: at.stop for *_, r, at in self.stacks}
        out = {r: np.empty(lead + (n, r, r)) for r, n in ends.items()}
        P = lead[0] if lead else 1
        T = None if self.sums is None and classes is None else (
            self.class_map if classes is None else self.class_map.columns(classes))
        whole = None if lead or T is None else T.dot(values)
        budget = P * sum(r * r for r in self.sizes)
        for blocks, rows, k, W, r, at in self.stacks:
            step = max(1, budget // max(1, len(blocks) * k * k))
            for j in range(0, P, step):
                y = values[:, j:j + step] if lead else values
                if T is None:
                    # the one block, Q = I: X itself, which np.take gathers
                    # through the int32 classes without a cast
                    G = np.moveaxis(np.take(y, self.cell_class, axis=0),
                                    (0, 1), (-2, -1))[..., None, :, :]
                else:
                    E = whole[rows] if whole is not None else T.dot(y, rows).T
                    G = np.take(E.reshape(E.shape[:-1] + (len(blocks), -1)),
                                self._squares[k], axis=-1).reshape(
                                    E.shape[:-1] + (len(blocks), k, k))
                if W is not None:
                    # W' G W rounds off symmetric
                    G = np.swapaxes(W, 1, 2) @ G @ W
                    G = (G + np.swapaxes(G, -1, -2)) / 2
                (out[r][j:j + step, at] if lead else out[r][at])[...] = G
        return list(out.values())


def least_eigenvalue(stacks: Sequence[np.ndarray]) -> float:
    """The least eigenvalue of the block-diagonal matrix of the (n, r, r)
    ``stacks`` (:meth:`CopyBlocks.congruences`): one ``eigvalsh`` per
    stack; a stack of blocks without rows has none."""
    return min((float(np.linalg.eigvalsh(G)[:, 0].min()) for G in stacks if G.shape[-1]),
               default=math.inf)


@dataclass(frozen=True, eq=False)
class LetterAction:
    """Left multiplication by the letters on the lower-level words
    (:attr:`MomentProblem.letter_action`).

    The index is sorted by length, so its words of length <= n - 1 are
    ``index[:prev_count]``.  ``targets[k, i]`` is the index position of
    l * ``index[i]`` for the k-th letter l of the alphabet, i <
    ``prev_count``.  ``a_cols`` and ``c_cols`` are the position 0 of the
    empty word followed by the positions of the words whose letters are
    all measurements of party A, respectively C.
    """

    prev_count: int
    targets: np.ndarray
    a_cols: np.ndarray
    c_cols: np.ndarray


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
    # the letter codes (words._LETTERS) of the index words, which the
    # build read its products from and the output flips relabel
    index_codes: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    group_keys: tuple[Word, ...]          # one canonical product word per Hankel group
    cell_group: np.ndarray                # (N, N) int32 Hankel group per cell
    group_class: np.ndarray               # group -> merged class id
    cell_class: np.ndarray                # (N, N) class id per cell, group_class[cell_group]
    pinned: dict[int, float]
    column_relations: np.ndarray          # (v, PVM) rows, left then right, see _assemble
    rows: FlatRows                        # completeness rows
    factor_pairs: tuple[FactorConstraint, ...] = ()
    factor_triples: tuple[FactorConstraint, ...] = ()
    # the verification-only products y_p = y_a * y_b (class_triples)
    check_products: np.ndarray = field(default_factory=lambda: class_triples(()))
    # (name, index permutation) of the commuting involutions that every
    # matrix of the problem commutes with and its blocks split under: the
    # copy swaps (1 2) of every source (build_inflation), then the
    # generators of a table's stabiliser (netnpa.symmetry)
    generators: tuple[tuple[str, np.ndarray], ...] = ()
    completeness: bool = True
    # the linearized factor pairs, filled in by pin_linearize
    linear_factor_rows: FlatRows = field(default_factory=lambda: NO_ROWS)
    flagged_bilinear: tuple[FactorConstraint, ...] = ()
    # the table pin_distribution pinned, on its copy only (see derive)
    table: np.ndarray | None = field(default=None, repr=False, compare=False)
    _structures: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    # --- derived helpers ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.index)

    def pos(self, w: Word) -> int:
        return self._pos[w]

    # derived structures are built on first use; of them, only the index
    # dict is read by a builder (the star triples and the inflation check
    # products).  The ``_structure`` properties read only the word index,
    # the Hankel groups, the classes and the generators, which no copy
    # changes; the builders that add factor families, and every pin,
    # linearization and frozen solve, copy the problem through
    # ``derive``, which shares them (so one problem builds each once),
    # while ``dataclasses.replace`` starts over with none built.
    # Two more entries, which ``sdp`` keeps, read what a copy may change,
    # so each is checked on every use and built anew when it differs: the
    # presolve's propagation plans, one for the rows without linearized
    # factor rows (``propagation``) and one for the rows with them
    # (``propagation_linearized``), each checked against the initially
    # known mask and the rows' classes, bounds and coefficients.  Each plan
    # holds the interlacing bound's choice of words, the rows it leaves
    # over the free classes and their one factorisation.
    # One more, ``factor_classes``, holds the class triples of the factor
    # families with the tuples they were read from, and is built anew for
    # other tuples (``factor_class_triples``).
    # ``netnpa.symmetry`` keeps the flips' index permutations and one
    # restricted problem per stabiliser, which read only the index, the
    # classes and the check products, which ``build_inflation`` sets on
    # the problem it has just built and no copy changes

    def derive(self, **changes) -> MomentProblem:
        """``dataclasses.replace(self, **changes)`` sharing this problem's
        derived structures: whatever either problem builds, both use.
        Only the pins, the factorisation families and the pinned table may
        change, since no ``_structure`` property reads them (the presolve's
        plans, which do and which hold the rows' factorisation, are checked
        against the rows and the mask before each use).  The check products
        are fixed when the problem is built: each restriction maps them
        once.  The copy keeps no ``table`` unless it is given one, so only
        the copy :func:`pin_distribution` makes holds the table its pins
        came from."""
        read = set(changes) - {"pinned", "linear_factor_rows", "flagged_bilinear",
                               "factor_pairs", "factor_triples", "table"}
        if read:
            raise ValueError(f"derived structures read {sorted(read)}; "
                             "use dataclasses.replace")
        changes.setdefault("table", None)
        copy = replace(self, **changes)
        copy._structures = self._structures
        return copy

    @property
    def factor_class_triples(self) -> np.ndarray:
        """The :func:`factor_classes` of the factor pairs and triples,
        built once per pair of factor tuples and kept with the problem's
        structures: every copy that keeps both tuples, as every pin and
        linearization does, reads the one array, and a copy with other
        tuples builds its own in its place."""
        families = (self.factor_pairs, self.factor_triples)
        kept = self._structures.get("factor_classes")
        if kept is None or kept[0] is not families[0] or kept[1] is not families[1]:
            kept = self._structures["factor_classes"] = (
                *families, factor_classes(families[0] + families[1]))
        return kept[2]

    @property
    def linearized(self) -> bool:
        """Whether this problem holds the linearization of its factor
        families (``factorisation.pin_linearize``): linear factor rows or
        pairs flagged as still bilinear."""
        return bool(len(self.linear_factor_rows) or self.flagged_bilinear)

    def pinned_values(self) -> np.ndarray:
        """The value of every class: its pinned value, NaN where none."""
        values = np.full(self.n_classes, np.nan)
        k = len(self.pinned)
        values[np.fromiter(self.pinned, np.intp, k)] = np.fromiter(
            self.pinned.values(), float, k)
        return values

    @_structure
    def _pos(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.index)}

    @_structure
    def n_classes(self) -> int:
        return int(self.group_class.max()) + 1 if len(self.group_class) else 0

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
    def group_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The cells of every Hankel group, group after group, each group's
        in row-major order: (flat cell positions, bounds), group g holding
        ``cells[bounds[g]:bounds[g + 1]]``."""
        return _layout(self.cell_group.reshape(-1), len(self.group_keys))

    @_structure
    def group_first(self) -> np.ndarray:
        """The flat position of the first cell, in row-major order, of
        every Hankel group."""
        cells, bounds = self.group_layout
        return cells[bounds[:-1]]

    @_structure
    def class_first(self) -> np.ndarray:
        """The flat position of the first cell, in row-major order, of
        every class: the first of its groups' first cells."""
        groups, bounds = self.class_layout
        return np.minimum.reduceat(self.group_first[groups], bounds[:-1])

    @_structure
    def pin_plan(self) -> PinPlan:
        """Which groups a distribution pins and the marginal cells their
        values multiply (see :func:`pin_distribution`); built on the first
        pin."""
        return _pin_plan(self)

    @_structure
    def letter_action(self) -> LetterAction:
        """How the letters act on the words of length <= n - 1 by left
        multiplication, and the party-pure A and C words, for the GNS
        reconstruction; built on its first use."""
        prev = self.index[:sum(len(u) <= self.n - 1 for u in self.index)]
        letters = self.alphabet.letters
        targets = np.array([[self._pos[concat(word([l]), u)] for u in prev]
                            for l in letters], dtype=np.intp)
        a_cols, c_cols = (np.concatenate([[0], _party_positions(self.index, p)])
                          for p in ("A", "C"))
        return LetterAction(len(prev), targets.reshape(len(letters), len(prev)),
                            a_cols, c_cols)

    @_structure
    def copy_blocks(self) -> CopyBlocks:
        """Orthonormal bases U_b, (dim, r_b), whose columns together span
        the complement of the column relations and which block-diagonalise
        every moment matrix X of the problem: U_a' X U_b = 0 for a != b.
        They are the index blocks restricted to that complement
        (:func:`_copy_blocks`); a problem without generators has one, U =
        W, an orthonormal basis of the whole complement.  Every moment
        matrix X maps the relation vectors to zero (its completeness
        rows), so X = U U' X U U'."""
        return _copy_blocks(self)

    @_structure
    def index_blocks(self) -> CopyBlocks:
        """The joint eigenvectors of the ``generators`` on the whole
        index, one block per character (:func:`_index_blocks`); a problem
        without generators has one block, Q = I.  Every matrix that is
        constant on each class commutes with the generators, so its
        eigenvalues are those of its blocks; :func:`class_report` reads
        them from here."""
        return _index_blocks(self)

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


def _intern(items: Sequence) -> tuple[np.ndarray, list]:
    """Small int ids for ``items``, equal items sharing one, and the
    distinct items in id order."""
    ids: dict = {}
    codes = np.fromiter((ids.setdefault(x, len(ids)) for x in items),
                        np.intp, len(items))
    return codes, list(ids)


class _Products:
    """The canonical products involute(u) * v of the words u of ``index``
    followed by ``extra`` with the words v of ``index``, coded as ints;
    the words are given by their letter codes (``words._LETTERS``).

    ``canonicalize`` normalises the scalar block and each party block on
    its own, so each block of a product is the normal form of a (block of
    involute(u), block of v) pair.  Each pair that occurs is normalised
    once, on the letter codes, into a per-block table of code tuples, and ``codes[u, v]`` packs the table
    ids of its blocks in mixed radix: equal codes are equal words.
    ``index[0]`` is the empty word, so ``codes[0]`` codes the index words.
    """

    def __init__(self, index: Sequence[tuple[int, ...]],
                 extra: Sequence[tuple[int, ...]] = ()):
        spelled = list(index) + list(extra)
        # the involute of a word is the normal form of its reversal
        left = [list(map(_normal, _split(c[::-1]))) for c in spelled]
        right = [_split(c) for c in spelled[:len(index)]]
        self.codes = np.zeros((len(left), len(right)), dtype=np.int64)
        self.normals: list[list[tuple[int, ...]]] = []
        span = 1
        for b in range(len(_BLOCKS)):
            lid, lblocks = _intern([blocks[b] for blocks in left])
            rid, rblocks = _intern([blocks[b] for blocks in right])
            table, normals = _intern([_normal(x + y)
                                      for x in lblocks for y in rblocks])
            span *= len(normals)
            if span >= 2 ** 63:
                raise BudgetError("too many distinct products to code as int64")
            self.codes *= len(normals)
            self.codes += table.astype(np.int32).reshape(
                len(lblocks), len(rblocks))[np.ix_(lid, rid)]
            self.normals.append(normals)
        self.radix = [len(normals) for normals in self.normals]

    def _decode(self, codes: np.ndarray) -> list[np.ndarray]:
        """The block ids of each code, one array per block."""
        ids = []
        for radix in reversed(self.radix):
            ids.append(codes % radix)
            codes = codes // radix
        return ids[::-1]

    def words(self, codes: np.ndarray) -> list[Word]:
        spelled = [[_LETTERS.decode(blk) for blk in normals]
                   for normals in self.normals]
        blocks = [list(map(sp.__getitem__, i.tolist()))
                  for sp, i in zip(spelled, self._decode(codes))]
        # the scalar block, then the blocks of parties A to D
        return [Word(s + a + b + c + d) for s, a, b, c, d in zip(*blocks)]

    def order(self, codes: np.ndarray) -> np.ndarray:
        """The argsort of ``codes`` by the ``Word.sort_key`` of their words:
        length first, then the letters' ranks under ``Letter.sort_key``.

        Every letter of a block ranks below every letter of the blocks
        after it, so of two words of one length the first block where
        they differ decides, and there a block that the other extends is
        the larger: each block is ranked as its letters' ranks followed
        by one above them all."""
        rank = _LETTERS.rank
        top = (len(rank),)
        ids = self._decode(codes)
        length = sum(np.fromiter(map(len, normals), np.intp, len(normals))[i]
                     for normals, i in zip(self.normals, ids))
        places = []
        for normals, i in zip(self.normals, ids):
            spelled = [tuple(map(rank.__getitem__, blk)) + top for blk in normals]
            place = np.empty(len(normals), dtype=np.intp)
            place[sorted(range(len(normals)), key=spelled.__getitem__)] = \
                np.arange(len(normals))
            places.append(place[i])
        return np.lexsort(places[::-1] + [length])

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


def _pvms(alphabet: Alphabet) -> list[list[Letter]]:
    """The measurement letters grouped into PVMs (party, copies, input),
    in alphabet order, each sorted by ``Letter.sort_key``."""
    pvm: dict[tuple, list[Letter]] = {}
    for l in alphabet.letters:
        if l.is_measurement:
            pvm.setdefault((l.party, l.copies, l.input), []).append(l)
    return [sorted(letters, key=Letter.sort_key) for letters in pvm.values()]


# completeness rows, or pin-plan keys, examined at a time
_CHUNK = 1 << 15


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``a``, each with the position of its first
    occurrence (rows compared as bytes, which is faster than
    ``np.unique(axis=0)``; their order is arbitrary)."""
    a = np.ascontiguousarray(a)
    as_bytes = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    first = np.unique(as_bytes, return_index=True)[1]
    return a[first], first


def _summed_rows(row: np.ndarray, cls: np.ndarray, coeffs: np.ndarray,
                 m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows given entry by entry, entry e adding ``coeffs[e]`` times class
    ``cls[e]`` to row ``row[e]``, in m rows over n classes: the
    coefficients of a row's repeated class summed in entry order, zero
    sums dropped, and each row's classes ascending.  Returned as flat
    (starts, classes, coefficients)."""
    pairs, which = np.unique(row.astype(np.int64) * n + cls, return_inverse=True)
    # (float even when empty, where bincount gives ints)
    summed = np.bincount(which, weights=coeffs,
                         minlength=len(pairs)).astype(float, copy=False)
    nonzero = summed != 0.0
    row, cls = np.divmod(pairs[nonzero], n)
    return (np.concatenate([np.zeros(1, np.intp),
                            np.cumsum(np.bincount(row, minlength=m))]),
            cls, summed[nonzero])


def _sort_rows(a: np.ndarray) -> np.ndarray:
    """``np.sort(a, axis=1)`` for narrow rows, in place: an odd-even
    transposition sort, one vectorised compare-exchange per adjacent pair
    of columns and pass, which is several times faster."""
    for p in range(a.shape[1]):
        for t in range(p % 2, a.shape[1] - 1, 2):
            low = np.minimum(a[:, t], a[:, t + 1])
            np.maximum(a[:, t], a[:, t + 1], out=a[:, t + 1])
            a[:, t] = low
    return a


def _column_relations(targets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Column v of a moment matrix is the sum of its columns A_{a|x} v
    over a PVM, and so is the sum of its columns v A_{a|x}, since
    sum_a A_{a|x} = 1 on either side of v.  ``targets[l, j]`` is the index
    position of the product of the PVM letter l with the index word v
    (-1 if outside the index), PVM after PVM with ``sizes[k]`` letters in
    PVM k.  Each (v, PVM) whose targets are all in the index gives one
    row, in (v, PVM) order: its targets, padded with -1 to the largest
    PVM, then v."""
    cols = np.full((len(sizes), sizes.max(initial=0), targets.shape[1]), -1,
                   dtype=np.intp)
    for k, e in enumerate(np.cumsum(sizes)):
        cols[k, :sizes[k]] = targets[e - sizes[k]:e]
    vs, ks = np.nonzero(((cols >= 0).sum(axis=1) == sizes[:, None]).T)
    return np.concatenate([cols[ks, :, vs], vs[:, None]], axis=1)


def _completeness_rows(relations: np.ndarray, cell_class: np.ndarray) -> FlatRows:
    """Rows sum_a G[w, t_a] = G[w, v], one for every column relation
    (t_a, v) (``_column_relations``: t_a is A_{a|x} v or v A_{a|x}) and
    index word w, deduplicated at class level.  The classes
    of a row are summed, zero coefficients dropped, and of rows with equal
    classes and coefficients the first in (v, PVM, w) order is kept."""
    n, width = cell_class.shape[0], relations.shape[1]
    # padding reads the empty word's column with coefficient 0
    sign = (relations >= 0).astype(np.int32)
    sign[:, -1] = -1
    cols = np.maximum(relations, 0)
    top = cell_class.max(initial=0) + 1
    step = max(1, _CHUNK // n)
    sigs, firsts = [], []
    for s in range(0, len(relations), step):
        cls = cell_class[:, cols[s:s + step]].transpose(1, 0, 2).reshape(-1, width)
        coef = np.repeat(sign[s:s + step], n, axis=0)
        # each row by class, coefficients (-1, 0 or 1) riding in the keys
        key = _sort_rows(cls * 4 + coef + 1)
        cls, coef = key // 4, key % 4 - 1
        for t in range(width - 1, 0, -1):
            same = cls[:, t] == cls[:, t - 1]
            coef[same, t - 1] += coef[same, t]
            coef[same, t] = 0
        # then the zero coefficients last, the rest still by class
        spread = 2 * width + 1
        key = _sort_rows(np.where(coef == 0, top, cls) * spread + coef + width)
        cls, coef = key // spread, key % spread - width
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


def _subset_strides(scenario: Scenario) -> tuple[list, np.ndarray, np.ndarray]:
    """For every party subset, as a bitmask over ``scenario.parties``: its
    parties sorted by name, its marginal's size, and the flat strides of
    each party's output and input axes in that marginal (shape: the
    subset's outputs, then its inputs)."""
    parties = scenario.parties
    count = 1 << len(parties)
    subs, size = [], np.zeros(count, dtype=np.intp)
    strides = np.zeros((2, count, len(parties)), dtype=np.intp)
    for mask in range(count):
        sub = sorted((p for k, p in enumerate(parties) if mask >> k & 1))
        at = [scenario.party_index(p) for p in sub]
        shape = ([scenario.outputs[k] for k in at]
                 + [scenario.inputs[k] for k in at])
        step = np.cumprod([1] + shape[::-1])[::-1]
        size[mask] = step[0]
        strides[0, mask, at] = step[1:len(at) + 1]
        strides[1, mask, at] = step[len(at) + 1:]
        subs.append(tuple(sub))
    return subs, size, strides


def _pin_plan(problem: MomentProblem) -> PinPlan:
    """Walk the groups class by class, in group order within a class, and
    record the marginal cells of every pinnable one; the party subsets
    enter in the order of this walk.

    A key of measurement letters splits into components of letters
    sharing a (source, copy) pair (without inflation, one global pair).
    It is pinnable when each component is a fresh copy of a sub-network:
    each party once, one copy of each source.  Its value is the product of
    the components' marginal cells, in order of their first letter.  A
    component needs its marginal when it and all earlier ones in its key
    pass.  The keys are read in chunks, letters through per-letter tables.
    """
    sc = problem.scenario
    nparty = len(sc.parties)
    if problem.hierarchy == "inflation":
        sources, slots = list(sc.topo.sources), sc.topo.party_sources
    else:
        sources, slots = ["global"], {p: ("global",) for p in sc.parties}

    def attributes(l: Letter) -> list[int]:
        """measurement?, party, output, input, then the copy of each
        source (-1 where the letter has none)."""
        if not l.is_measurement:
            return [0, 0, 0, 0] + [-1] * len(sources)
        copy = dict(zip(slots[l.party], l.copies or (1,)))
        return [1, sc.party_index(l.party), l.output, l.input] + [
            copy.get(s, -1) for s in sources]

    subs, size, strides = _subset_strides(sc)
    # party mask -> first cell of its marginal, -1 until it is registered
    offset = np.full(len(subs), -1, dtype=np.intp)
    subsets: list[tuple[str, ...]] = []
    total = 0
    walk = problem.class_layout[0]
    groups, rows, ranks, cells = [], [], [], []
    held = 0
    for s in range(0, len(walk), _CHUNK):
        chunk = walk[s:s + _CHUNK]
        words = [problem.group_keys[g].letters for g in chunk.tolist()]
        flat = list(itertools.chain.from_iterable(words))
        key = np.repeat(np.arange(len(words)),
                        np.fromiter(map(len, words), np.intp, len(words)))
        # the keys share their letter objects: each distinct one is read once
        _, first, code = np.unique(np.fromiter(map(id, flat), np.intp, len(flat)),
                                   return_index=True, return_inverse=True)
        table = np.array([attributes(flat[i]) for i in first],
                         dtype=np.intp).reshape(-1, 4 + len(sources))[code]
        measured, party, output, input_ = table[:, :4].T
        copies = table[:, 4:]
        span = copies.max(initial=0) + 1
        nodes = np.where(copies >= 0, (key[:, None] * len(sources)
                                       + np.arange(len(sources))) * span + copies, -1)
        comp = sharing_components(nodes)
        ncomp = int(comp.max(initial=-1)) + 1
        comp_key = key[np.unique(comp, return_index=True)[1]]
        opens = np.searchsorted(comp_key, comp_key)   # the key's first component
        per_party = np.bincount(comp * nparty + party,
                                minlength=ncomp * nparty).reshape(ncomp, nparty)
        failed = (per_party > 1).any(axis=1)
        at, src = np.nonzero(copies >= 0)
        some_copy = np.empty((ncomp, len(sources)), dtype=np.intp)
        some_copy[comp[at], src] = copies[at, src]
        failed[comp[at][some_copy[comp[at], src] != copies[at, src]]] = True
        ok = np.ones(len(words), dtype=bool)
        ok[key[measured == 0]] = False
        before = np.cumsum(failed) - failed
        need = ok[comp_key] & ~failed & (before == before[opens])
        ok[comp_key[failed]] = False
        mask = (per_party > 0) @ (1 << np.arange(nparty))
        for mk in dict.fromkeys(mask[need].tolist()):   # in order of first need
            if offset[mk] < 0:
                offset[mk] = total
                subsets.append(subs[mk])
                total += int(size[mk])
        lm = mask[comp]
        step = (output * strides[0, lm, party] + input_ * strides[1, lm, party])
        cell = offset[mask] + np.bincount(comp, weights=step,
                                          minlength=ncomp).astype(np.intp)
        take = ok[comp_key]
        rows.append(held + (np.cumsum(ok) - 1)[comp_key[take]])
        ranks.append((np.arange(ncomp) - opens)[take])
        cells.append(cell[take])
        groups.append(chunk[ok])
        held += int(ok.sum())
    rows, ranks = np.concatenate(rows), np.concatenate(ranks)
    plan_cells = np.full((held, int(ranks.max(initial=-1)) + 1), total,
                         dtype=np.intp)
    plan_cells[rows, ranks] = np.concatenate(cells)
    group_arr = np.concatenate(groups).astype(np.intp)
    group_cls = problem.group_class[group_arr]
    starts = np.flatnonzero(np.diff(group_cls, prepend=-1))
    return PinPlan(subsets=tuple(subsets), groups=group_arr,
                   classes=group_cls[starts].astype(np.intp), starts=starts,
                   cells=plan_cells)


def _assemble(scenario: Scenario, hierarchy: str, n: int, m: int | None,
              alphabet: Alphabet, *, completeness: bool,
              budget: int, merges: Callable | None = None,
              index_words: Sequence[Word] | None = None) -> MomentProblem:
    """Build the problem's structure.  ``merges(codes, keys, cell_group)``,
    given the index words' letter codes, returns two arrays of group ids
    whose groups share a class and the problem's ``generators``."""
    if index_words is None:
        index = enumerate_words(alphabet, n)
    else:
        index = sorted(set(index_words) | {EMPTY_WORD}, key=Word.sort_key)
    if len(index) > budget:
        raise BudgetError(
            f"index size {len(index)} exceeds budget {budget} "
            f"({hierarchy}, n={n}" + (f", m={m}" if m else "") + ")")
    pvms = _pvms(alphabet) if completeness else []
    codes = tuple(_LETTERS.encode(w.letters) for w in index)
    products = _Products(codes, [_LETTERS.encode((l,)) for pvm in pvms for l in pvm])
    keys, cell_group = _build_groups(products)
    a = b = np.zeros(0, dtype=np.intp)
    generators = ()
    if merges is not None:
        a, b, generators = merges(codes, keys, cell_group)
    group_class = components(len(keys), a, b)
    cell_class = group_class[cell_group]
    sizes = np.fromiter(map(len, pvms), np.intp)
    targets = products.positions(products.codes[len(index):])
    # the left relations, then the right ones that are not a left one: v l
    # = (l v*)*, so the right products read the left ones through the
    # involute's position, -1 staying -1
    inv = np.append(products.positions(products.codes[:len(index), 0]), -1)
    padded = np.concatenate([targets, np.full((len(targets), 1), -1)], axis=1)
    relations = np.concatenate([_column_relations(targets, sizes), _column_relations(
        inv[padded[:, inv[:-1]]], sizes)])
    relations = relations[np.sort(_distinct_rows(relations)[1])]
    pinned = {int(cell_class[0, 0]): 1.0}  # G[1, 1] = 1
    return MomentProblem(
        scenario=scenario, hierarchy=hierarchy, n=n, m=m, alphabet=alphabet,
        index=tuple(index), index_codes=codes, group_keys=tuple(keys),
        cell_group=cell_group, group_class=group_class, cell_class=cell_class,
        pinned=pinned, column_relations=relations,
        rows=_completeness_rows(relations, cell_class), generators=generators,
        completeness=completeness)


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


def _party_positions(index: Sequence[Word], party: str) -> np.ndarray:
    """The positions of the nonempty index words whose letters are all
    measurements of ``party``."""
    return np.array([i for i, w in enumerate(index) if len(w) and all(
        l.is_measurement and l.party == party for l in w.letters)], dtype=np.intp)


def _factor_constraint(p: MomentProblem, i: int, j: int) -> FactorConstraint:
    """G[i, j] = G[i, 1] * G[1, j] for the index words at positions i and
    j."""
    cc = p.cell_class
    return FactorConstraint(p.index[i], p.index[j], int(cc[i, j]),
                            int(cc[i, 0]), int(cc[0, j]))


def _attach_factor_pairs(p: MomentProblem,
                         party_pairs: Iterable[tuple[str, str]]) -> list[FactorConstraint]:
    return [_factor_constraint(p, ia, ic) for pa, pc in party_pairs
            for ia in _party_positions(p.index, pa).tolist()
            for ic in _party_positions(p.index, pc).tolist()]


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
    return p.derive(factor_pairs=tuple(_attach_factor_pairs(
        p, scenario.topo.factor_pairs)))


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
    a_at, c_at, d_at = (_party_positions(p.index, party).tolist()
                        for party in scenario.topo.factor_triples[0])
    for ia, ic in itertools.product(a_at, c_at):
        a, c = p.index[ia], p.index[ic]
        if len(a) + len(c) <= n:
            iac = p.pos(concat(a, c))
            triples += [_factor_constraint(p, iac, idd) for idd in d_at]
    return p.derive(factor_pairs=tuple(pairs), factor_triples=tuple(triples))


def _scalar_identifications(alphabet: Alphabet, n: int,
                            keys: Sequence[Word]) -> tuple[np.ndarray, np.ndarray]:
    """The groups of alpha*gamma and kappa_alpha*gamma, as two arrays of
    group ids, for the A-words alpha (the payloads of the scalar
    alphabet's kappa letters) and C-words gamma whose products are both
    group keys."""
    key_of = {k: g for g, k in enumerate(keys)}
    c_words = enumerate_words(Alphabet(tuple(
        l for l in alphabet.letters if l.is_measurement and l.party == "C")), n)
    out = []
    for kappa in (l for l in alphabet.letters if l.is_scalar):
        a, ka = kappa.payload, word([kappa])
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

    def merges(codes, keys, cell_group):
        return (*_scalar_identifications(alphabet, n, keys), ())

    return _assemble(scenario, "scalar_extension", n, None, alphabet,
                     completeness=completeness, budget=budget,
                     merges=merges)


def _index_permutation(codes: Sequence[tuple[int, ...]],
                      images: Sequence[tuple[int, ...]], what: str) -> np.ndarray:
    """The index permutation pi of a relabelling of the letters, ``what``,
    that maps word i, of letter codes ``codes[i]``, to the word of codes
    ``images[i]``, word pi[i].  An index word whose image is not in the
    index raises :class:`RuntimeError`."""
    pos = {c: i for i, c in enumerate(codes)}
    at = [pos.get(img, -1) for img in images]
    if -1 in at:
        k = at.index(-1)
        raise RuntimeError(
            f"{what} maps index word {Word(_LETTERS.decode(codes[k]))!r} to "
            f"{Word(_LETTERS.decode(images[k]))!r}, which is not in the index")
    return np.array(at, dtype=np.intp)


def _copy_generators(codes: Sequence[tuple[int, ...]], alphabet: Alphabet, m: int
                     ) -> tuple[tuple[np.ndarray, ...], ...]:
    """For each generator of S_m (the swap (1 2) when m >= 2, the m-cycle
    when m >= 3), the index permutation of its relabelling of each source
    (:func:`_index_permutation`)."""
    gens = [{1: 2, 2: 1}] if m >= 2 else []
    if m >= 3:
        gens.append({i: i % m + 1 for i in range(1, m + 1)})
    return tuple(tuple(
        _index_permutation(codes, relabel_codes(codes, alphabet, {src: gen}),
                          f"copy relabelling {({src: gen})}")
        for src in alphabet.sources()) for gen in gens)


def _copy_merges(cell_label: np.ndarray, perms: Iterable[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every label of the cells (a Hankel group, or a class; labels
    0, 1, ... each held by some cell) joined to its image under each index
    permutation pi of ``perms``: the label of the image of any one of its
    cells.  Each pi must map the cells of one label to one label, as an
    automorphism of the word algebra does."""
    labels = np.arange(int(cell_label.max()) + 1)
    # one cell of each label, whichever of its cells the scatter keeps
    cell = np.zeros(len(labels), dtype=np.intp)
    cell[cell_label.reshape(-1)] = np.arange(cell_label.size)
    rows, cols = np.divmod(cell, len(cell_label))
    images = [cell_label[pi[rows], pi[cols]] for pi in perms]
    return (np.tile(labels, len(images)),
            np.concatenate(images) if images else labels[:0])


def _relation_complement(relations: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """An orthonormal basis W, (k, r), of the kernel of R Q for the
    orthonormal columns Q, (dim, k), where R holds one vector
    sum_a e_{t_a} - e_v per column relation (t_a, v) of ``relations``
    (``_column_relations``).  So Q W is an orthonormal basis of the part
    of Q's span orthogonal to every relation vector."""
    RQ = -Q[relations[:, -1]]
    for t in relations[:, :-1].T:
        RQ[t >= 0] += Q[t[t >= 0]]  # the padding -1 adds nothing
    # the R factor has R Q's row space in at most k rows
    _, s, vt = np.linalg.svd(np.linalg.qr(RQ, mode="r"))
    cut = s.max(initial=0.0) * max(RQ.shape) * np.finfo(float).eps
    return vt[int((s > cut).sum()):].T


def _copy_blocks(problem: MomentProblem) -> CopyBlocks:
    """The isotypic components of the complement of the column relations
    under the problem's ``generators``: each index block Q_b
    (:func:`_index_blocks`) restricted to it, U_b = Q_b W_b with W_b an
    orthonormal basis of ker(R Q_b) (:func:`_relation_complement`), and
    the blocks without columns dropped (Gatermann and Parrilo 2004).
    Without generators the one index block is Q = I, and W is an
    orthonormal basis of the whole complement.

    Every moment matrix X commutes with each generator's permutation
    matrix P_s (:attr:`MomentProblem.generators`), so U' X U is
    block-diagonal.  When every generator maps the set of relation vectors
    onto itself, their span and its complement are invariant under the
    P_s, so the complement is the direct sum of its parts in the index
    blocks, and the U_b together span it.  The blocks share the index
    blocks' orbit sums (``sums``) and hold only the dense W_b; each Q_b is
    formed dense for the build alone, and each U_b, with generators, for
    its checks alone.

    With generators, raises :class:`RuntimeError` when one does not map
    the set of column relations onto itself (compared exactly, on their
    index positions), when a block is not an eigenspace of every generator
    (U_b[pi_s] = chi_s U_b) to rounding, or when U' X U is not
    block-diagonal, to rounding, for a matrix X with generic class values
    (and :func:`_index_blocks` raises when one moves a cell to another
    class).
    """
    index = problem.index_blocks
    gens = problem.generators
    perms = [pi for _, pi in gens]
    relations = problem.column_relations
    # (columns of Q_b, W_b, character), in the order of _index_blocks
    blocks = []
    for cols, chi in zip(index.columns,
                         itertools.product((1.0, -1.0), repeat=len(perms))):
        Q = index.sums.rows(cols).dense().T if perms else np.eye(problem.dim)
        W = _relation_complement(relations, Q)
        if W.shape[1]:
            # no relation meets the block: Q_b is a basis of its part
            square = perms and W.shape == (Q.shape[1],) * 2
            blocks.append((cols, None if square else W, chi))
    if perms:
        own = _relation_set(relations)
        for name, pi in gens:
            if not np.array_equal(_relation_set(np.where(relations >= 0,
                                                         pi[relations], -1)), own):
                raise RuntimeError(f"the {name} does not map the column "
                                   "relations onto themselves")
        tol = problem.dim * np.finfo(float).eps
        U = []
        for cols, W, _ in blocks:
            Q = index.sums.rows(cols).dense().T
            U.append(Q if W is None else Q @ W)
        for Ub, (_, _, chi) in zip(U, blocks):
            for pi, sign in zip(perms, chi):
                if np.abs(Ub[pi] - sign * Ub).max(initial=0.0) > tol:
                    raise RuntimeError(f"a block of character {chi} is not "
                                       "an eigenspace of the generators")
        X = np.random.default_rng(0).standard_normal(problem.n_classes)[problem.cell_class]
        block = np.repeat(np.arange(len(blocks)), [U_b.shape[1] for U_b in U])
        U = np.hstack(U)
        G = U.T @ X @ U
        G[block[:, None] == block] = 0.0
        off = float(np.abs(G).max(initial=0.0))
        if off > tol * np.linalg.norm(X):
            raise RuntimeError(f"the blocks leave an off-block entry {off:.3e}")
    return CopyBlocks(index.sums, tuple(b[0] for b in blocks),
                      tuple(b[1] for b in blocks), problem.cell_class)


def _relation_set(relations: np.ndarray) -> np.ndarray:
    """The distinct column relations, each with its targets sorted: one
    row per relation vector sum_a e_{t_a} - e_v, in an order fixed by the
    set (``_distinct_rows`` sorts them by their bytes)."""
    return _distinct_rows(np.concatenate([np.sort(relations[:, :-1], axis=1),
                                          relations[:, -1:]], axis=1))[0]


def _index_blocks(problem: MomentProblem) -> CopyBlocks:
    """The isotypic components of the whole index under the problem's
    ``generators``, built from the orbits alone (no factorisation) and
    held as sparse signed orbit sums.

    The generators pi_s are involutions that commute and generate a group
    G of 2^s elements g, each a product of generators.  For a character
    chi in {+1, -1}^s, chi(g) is the product of chi_s over the generators
    of g, and for an orbit with least word i the orbit sum
    sum_g chi(g) e_{g(i)} is zero unless chi is trivial on the stabiliser
    of i; then it is |stabiliser| times a vector with entries +-1 on the
    orbit, which normalised is one column of the block of chi.  Each
    orbit O gives |O| characters and the columns have disjoint supports
    within a block, so the blocks are orthonormal and hold dim columns in
    all, with at most |G| nonzeros each.  A matrix X with X[pi][:, pi] = X
    for every generator maps each block to itself, so Q_b' X Q_b over the
    blocks gives X's eigenvalues (Gatermann and Parrilo 2004).  Every
    block is kept, also one without columns, so that block b has the b-th
    character of ``itertools.product``.
    Without generators the one block is Q = I, held with ``sums`` None.

    Each generator is checked to map every cell's class to itself, so that
    X[pi][:, pi] = X for every matrix X that is constant on each class;
    raises :class:`RuntimeError` else."""
    for name, pi in problem.generators:
        if not np.array_equal(problem.cell_class[np.ix_(pi, pi)], problem.cell_class):
            raise RuntimeError(f"the {name} moves a cell to another class")
    perms = [pi for _, pi in problem.generators]
    n = problem.dim
    if not perms:
        return CopyBlocks(None, (slice(0, n),), (None,), problem.cell_class)
    # the least word of every orbit and the orbit sizes: the generators
    # commute, so one pass over them takes the minimum over the group
    least = np.arange(n)
    for pi in perms:
        least = np.minimum(least, least[pi])
    rows, weights = np.unique(least, return_counts=True)
    cols = np.arange(len(rows))
    # every element of G as (its index permutation, its generators)
    elements = [(np.arange(n), ())]
    for s, pi in enumerate(perms):
        elements += [(pi[g], swaps + (s,)) for g, swaps in elements]
    data, words, counts = [], [], []
    for chi in itertools.product((1.0, -1.0), repeat=len(perms)):
        U = np.zeros((n, len(rows)))
        for g, swaps in elements:
            U[g[rows], cols] += math.prod(chi[s] for s in swaps)
        keep = U[rows, cols] != 0.0
        # entries are +-|G|/|O|: scale them to +-1/sqrt(|O|), exactly up to
        # the square root since |G|/|O| is a power of two, and keep each
        # orbit sum as one sparse row, its words ascending
        size = weights[keep]
        Q = (U[:, keep] * (size / len(elements) / np.sqrt(size))).T
        at, word_at = np.nonzero(Q)
        data.append(Q[at, word_at])
        words.append(word_at)
        counts.append(np.bincount(at, minlength=len(Q)))
    bounds = np.cumsum([0] + [len(c) for c in counts])
    if bounds[-1] != n:
        raise RuntimeError("the orbit sums do not span the index")
    return CopyBlocks(
        SparseRows(np.concatenate(data), np.concatenate(words), np.concatenate(
            [np.zeros(1, np.intp), np.cumsum(np.concatenate(counts))]), (n, n)),
        tuple(slice(int(a), int(e)) for a, e in zip(bounds, bounds[1:])),
        (None,) * len(counts), problem.cell_class)


def build_inflation(scenario: Scenario, n: int, m: int, *,
                    completeness: bool = True,
                    budget: int = DEFAULT_INDEX_BUDGET,
                    index_words: Sequence[Word] | None = None) -> MomentProblem:
    """Inflated moment problem with per-source symmetric-group merges.

    The copy-relabelling group (S_m)^sources permutes the index, and as
    a relabelling is an automorphism of the word algebra, it maps the
    product of cell (i, j) to that of cell (pi i, pi j) under the index
    permutation pi it induces.  The permutations of its generators are
    worked out once, here (:func:`_copy_generators`), and the classes are
    the group's orbits on the Hankel groups (:func:`_copy_merges`).  The
    swaps (1 2) of every source are kept as the problem's ``generators``:
    their orbit sums split the index into blocks (:func:`_index_blocks`),
    and the copy blocks are those blocks restricted to the complement of
    the column relations (:func:`_copy_blocks`).

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

    def merges(codes, keys, cell_group):
        generators = _copy_generators(codes, alphabet, m)
        swaps = generators[0] if generators else ()
        return (*_copy_merges(cell_group, [pi for gen in generators for pi in gen]),
                tuple((f"copy swap of source {src}", pi)
                      for src, pi in zip(alphabet.sources(), swaps)))

    p = _assemble(scenario, "inflation", n, m, alphabet,
                  completeness=completeness, budget=budget,
                  merges=merges if index_words is None else None,
                  index_words=index_words)
    # verification-only nonlinear products: diagonal words on disjoint copies
    p.check_products = _diagonal_check_products(p)
    return p


def _diagonal_word_copies(w: Word) -> set[int] | None:
    """Copy index if w is a diagonal word on a single copy, else None."""
    cps: set[int] = set()
    for l in w.letters:
        if not l.is_measurement or l.copies is None:
            return None
        if len(set(l.copies)) != 1:
            return None
        cps.update(l.copies)
    return cps if len(cps) == 1 else None


def _diagonal_check_products(p: MomentProblem) -> np.ndarray:
    """The :func:`class_triples` of the products of single-copy diagonal
    words on distinct copies; imposed only at verification time."""
    diag: dict[int, list[Word]] = {}
    for w in p.index:
        cps = _diagonal_word_copies(w)
        if cps:
            diag.setdefault(next(iter(cps)), []).append(w)
    out = []
    copies = sorted(diag)
    for c1, c2 in itertools.combinations(copies, 2):
        for w1 in diag[c1]:
            for w2 in diag[c2]:
                ip = p._pos.get(concat(w1, w2))
                if ip is not None:
                    out.append((ip, p._pos[w1], p._pos[w2]))
    # the class of a word is that of its cell in the row of the empty word
    return class_triples(p.cell_class[0][np.array(out, dtype=np.intp).reshape(-1, 3)])


# ---------------------------------------------------------------------------
# Distribution pins
# ---------------------------------------------------------------------------

def pin_distribution(problem: MomentProblem, dist: Distribution) -> MomentProblem:
    """Pin every class whose key is forced by compatibility with ``dist``.

    Full correlators, all marginals reachable by summing outcomes, and
    (for inflated problems) products over fresh source copies are pinned.
    Which keys those are, and which marginal cell each factor reads, is
    the problem's :attr:`MomentProblem.pin_plan`, built once on the first
    pin; each distribution then computes the plan's marginals (rejecting
    signalling tables, with the offending inputs named) and gathers.  A
    key's value is the product of its factors taken left to right.  A
    class is pinned to the value of its first pinnable group; its
    pinnable groups must agree to within ``PIN_TOL``, and so must an earlier
    pin of the class, else :class:`PinConflictError` names the first
    class in conflict.  The pinned copy keeps the table as its ``table``,
    from which the solver finds the table's output-flip stabiliser
    (:mod:`netnpa.symmetry`).
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
    marginals = np.concatenate([m.reshape(-1) for m in dist.marginals(plan.subsets)]
                               + [np.ones(1)])
    values = np.ones(len(plan.groups))
    for col in plan.cells.T:
        values *= marginals[col]
    first = values[plan.starts]
    spread = _spreads(values, plan.starts)
    held = problem.pinned_values()
    conflict = (spread > PIN_TOL) | (np.abs(held[plan.classes] - first) > PIN_TOL)
    if conflict.any():
        k = int(conflict.argmax())
        cls = int(plan.classes[k])
        if spread[k] > PIN_TOL:
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
    return problem.derive(pinned=pinned, table=dist.table)


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
        # an exactly symmetric matrix has residual 0, and a NaN fails
        # array_equal and takes the residual test
        if (not np.array_equal(self.matrix, self.matrix.T)
                and np.abs(self.matrix - self.matrix.T).max() > 1e-12):
            raise ValueError("assignment matrix must be symmetric")

    def class_values(self) -> np.ndarray:
        """The mean of the matrix over the cells of each class (the class
        cells partition all cells)."""
        cls, n = self.problem.cell_class.reshape(-1), self.problem.n_classes
        return (np.bincount(cls, weights=self.matrix.reshape(-1), minlength=n)
                / np.bincount(cls, minlength=n))

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

    def __str__(self) -> str:
        rows = [f"  {name:<18} {value: .3e}"
                for name, value in self.families().items()]
        return "residuals:\n" + "\n".join(rows)


def class_triples(triples) -> np.ndarray:
    """(product, factor, factor) classes of products y_p = y_a * y_b, one
    row each, as one read-only (k, 3) intp array: the format of the factor
    families (:func:`factor_classes`) and of the check products."""
    out = np.array(triples, dtype=np.intp).reshape(-1, 3)
    out.flags.writeable = False
    return out


def factor_classes(constraints: Sequence[FactorConstraint]) -> np.ndarray:
    """The (product, row, column) :func:`class_triples` of ``constraints``."""
    return class_triples([(fc.cls_prod, fc.cls_row, fc.cls_col) for fc in constraints])


def product_residual(class_vals: np.ndarray, triples: np.ndarray) -> float:
    """Max |y_p - y_a * y_b| over the rows of :func:`class_triples`
    ``triples``: the factor families and the check products.  An empty
    family, as most problems have, takes no array pass."""
    if not len(triples):
        return 0.0
    prod, a, b = triples.T
    return float(np.abs(class_vals[prod] - class_vals[a] * class_vals[b])
                 .max(initial=0.0))


def _spreads(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """max - min of each consecutive segment of ``values`` opening at
    ``starts``."""
    return np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)


def check_assignment(problem: MomentProblem,
                     assignment: MomentAssignment) -> ResidualReport:
    """Per-family maximal residuals of an assignment.

    One exact pass compares every cell with the first cell of its class
    (``class_first``).  When every cell matches, as on every solver
    witness, the matrix is y[cell_class], bit for bit, for the values y
    at those cells, and :func:`class_report` reads it from y, with Hankel
    and merge spreads 0.0.  Only a matrix that fails takes the
    segmented path: one exact pass against the first cell of each Hankel
    group (``group_first``), which, when it matches, makes the Hankel
    spread 0.0 and each group's value its first cell's, else the mean, max
    and min of every group; then the class values as the mean of their
    groups' means, the spread of those means over each class, the pins of
    every pinned group's max and min, and one ``eigvalsh`` of the whole
    index."""
    X = assignment.matrix
    vals = X.reshape(-1)
    class_vals = vals[problem.class_first]
    # np.take gathers through the int32 cell classes without a cast
    if np.array_equal(X, np.take(class_vals, problem.cell_class)):
        return class_report(problem, class_vals, 0.0, 0.0)
    group_vals = vals[problem.group_first]
    if np.array_equal(X, np.take(group_vals, problem.cell_group)):
        hankel = 0.0
        group_means = group_max = group_min = group_vals
    else:
        cells, group_bounds = problem.group_layout
        group_means = (np.bincount(problem.cell_group.reshape(-1), weights=vals,
                                   minlength=len(problem.group_keys))
                       / np.diff(group_bounds))
        ordered = vals[cells]
        group_max = np.maximum.reduceat(ordered, group_bounds[:-1])
        group_min = np.minimum.reduceat(ordered, group_bounds[:-1])
        hankel = float((group_max - group_min).max())
    groups, class_bounds = problem.class_layout
    # class value: the mean of its groups' means
    class_vals = (np.bincount(problem.group_class, weights=group_means,
                              minlength=problem.n_classes)
                  / np.diff(class_bounds))
    merges = float(_spreads(group_means[groups], class_bounds[:-1]).max())
    # a pinned group's worst cell is its max or its min, since x - v rounds
    # monotonically in x
    group_pin = problem.pinned_values()[problem.group_class]
    pinned = ~np.isnan(group_pin)
    pins = float(np.maximum(np.abs(group_max[pinned] - group_pin[pinned]),
                            np.abs(group_min[pinned] - group_pin[pinned]))
                 .max(initial=0.0))
    return class_report(problem, class_vals, hankel, merges, pins=pins,
                        min_eigenvalue=float(np.linalg.eigvalsh((X + X.T) / 2).min()))


def class_report(problem: MomentProblem, class_vals: np.ndarray, hankel: float,
                 merges: float, *, pins: float | None = None,
                 min_eigenvalue: float | None = None) -> ResidualReport:
    """The residual report of a matrix from its class values
    ``class_vals`` and its Hankel and merge spreads.

    The completeness, factorisation and check-product families read the
    class values.  The pins and the min eigenvalue, unless given, are
    those of the class-valued matrix class_vals[cell_class], which is
    never formed: the pins are read per pinned class, and the min
    eigenvalue from the problem's ``index_blocks``, since a matrix
    constant on every class commutes with the problem's ``generators``
    and its eigenvalues are those of the blocks, of which one without
    columns has none.  On a problem restricted to a table's stabiliser,
    whose classes are the flips' orbits, that is the exact test that the
    matrix is invariant."""
    if pins is None:
        at = np.fromiter(problem.pinned, np.intp, len(problem.pinned))
        pin = np.fromiter(problem.pinned.values(), float, len(problem.pinned))
        pins = float(np.abs(class_vals[at] - pin).max(initial=0.0))
    rows = problem.active_rows
    lhs = np.bincount(rows.row, weights=rows.coeffs * class_vals[rows.classes],
                      minlength=len(rows))
    completeness = float(np.abs(lhs - rows.rhs).max(initial=0.0))
    fact = product_residual(class_vals, problem.factor_class_triples)
    ext = product_residual(class_vals, problem.check_products)
    if min_eigenvalue is None:
        min_eigenvalue = least_eigenvalue(problem.index_blocks.congruences(class_vals))
    return ResidualReport(hankel=hankel, merges=merges, pins=pins,
                          completeness=completeness, factorisation=fact,
                          extended_products=ext, min_eigenvalue=min_eigenvalue)


# ---------------------------------------------------------------------------
# Inflation -> scalar extension
# ---------------------------------------------------------------------------

def _check_scalar_bound(scenario: Scenario, n: int, m: int) -> None:
    d = len([l for l in scenario.alphabet().letters if l.party == SCALAR_PARTY])
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


def inflation_to_scalar_extension(xi: MomentAssignment, n: int,
                                  m: int) -> MomentAssignment:
    """Construct a scalar-extension assignment from an inflation assignment.

    Each equality class of the order-n scalar problem takes the inflation
    value of the image of its product key under :func:`scalar_key_image`.
    Requires m >= sum_i d^i (d = number of A letters), which leaves room
    for one fresh copy per scalar occurrence in any product key.  The
    input must satisfy its own problem within ``SCALAR_INPUT_TOL`` and must
    index enough words to locate every image value (see
    :func:`required_inflation_words`).
    """
    problem = xi.problem
    if problem.hierarchy != "inflation":
        raise ValueError("source assignment must be an inflation assignment")
    scenario = problem.scenario
    _check_scalar_bound(scenario, n, m)
    report = check_assignment(problem, xi)
    if max(report.hankel, report.merges, report.completeness) > SCALAR_INPUT_TOL:
        raise ValueError(
            f"inflation assignment violates its own constraints "
            f"(residual {report.max_residual():.3e} > {SCALAR_INPUT_TOL:g})")
    omega = build_scalar_extension(scenario, n)
    values = np.zeros(omega.n_classes)
    for cls in range(omega.n_classes):
        v = scalar_key_image(omega.representative_key(cls), m, scenario)
        cell = _split_in_index(v, problem._pos)
        if cell is None:
            raise ValueError(
                f"inflation index cannot evaluate the image word {v!r}; "
                "build the assignment over required_inflation_words(...)")
        values[cls] = xi.matrix[cell]
    mat = values[omega.cell_class]
    return MomentAssignment(omega, (mat + mat.T) / 2)
