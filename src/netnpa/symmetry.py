"""Output-flip stabilisers of pinned tables, and the problems restricted to
them.

A flip relabels the two outputs of one two-output measurement, that of
party P at input x (named ``P[x]``): the letters P[a|x] of every copy
become P[1-a|x].  It is an automorphism of the word algebra, so it
permutes the index words and maps cells to cells, classes to classes and
the column relations onto themselves.  The flips are involutions that
commute with each other and with the copy swaps.

The stabiliser of a pinned table is the group of the products of flips
whose relabelling maps the table onto itself exactly.  It can hold a
product none of whose factors fixes the table: the all-party flip on the
shared random bit.  When it is not trivial, the problem's feasible set is
invariant under it, since a flip maps pins to equal pins, rows to rows and
a PSD matrix to a PSD matrix.  So the average over the group of a feasible
X is feasible, and the problem is feasible exactly when it has an
invariant feasible X (Gatermann and Parrilo, J. Pure Appl. Algebra 192
(2004); Wolfe et al., PRX 11, 021043 (2021), for inflation).  The
invariant X are those constant on the orbits of the group on the classes.
The restricted problem (:class:`Restriction`) therefore has the orbits as
its classes and the rows mapped onto them, and the stabiliser's
generators follow the copy swaps in its ``generators``, the involutions
its blocks are built on.  Its orbits, rows and index permutations come
from the routines that build the copy symmetry (``moment._copy_merges``,
``moment._summed_rows``, ``moment._index_permutation``).  FEASIBLE and
INFEASIBLE keep their meaning, and its witness is a moment matrix of the
full problem.

The stabiliser is sought per table (:func:`restrict`), which costs one
gather and one comparison per element of the flip group.  The flips'
index permutations are built once per problem, and the restricted
problem once per stabiliser, both on first use and kept in the problem's
shared structures.  A problem with scalar letters or with
factorisation families keeps the trivial group, and so does a table that
no flip fixes: the solve then runs on the problem as it is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .moment import (
    PIN_TOL,
    FlatRows,
    MomentProblem,
    _copy_merges,
    _distinct_rows,
    _index_permutation,
    _summed_rows,
    class_triples,
)
from .scenarios import Scenario, components
from .words import Letter, relabel_letters

# the most elements of the flip group that a table is tested against;
# past it, the trivial group is used, which is always correct
MAX_ELEMENTS = 2 ** 12


@dataclass(frozen=True, eq=False)
class _FlipTables:
    """The flips of a scenario, (party, input) in party and input order,
    and for each element e of the group they generate (flip i taken when
    bit i of e is set) the flat positions of the table entries that its
    image reads: g(t).flat = t.flat[``sources[e]``]."""

    flips: tuple[tuple[str, int], ...]
    sources: np.ndarray

    def name(self, e: int) -> str:
        return "".join(f"{p}[{x}]" for i, (p, x) in enumerate(self.flips)
                       if e >> i & 1)


def _flip_tables(scenario: Scenario) -> _FlipTables | None:
    """The flips of ``scenario`` and their group's action on its tables;
    None when it has no flip or more than ``MAX_ELEMENTS`` elements."""
    flips = tuple((p, x) for k, p in enumerate(scenario.parties)
                  if scenario.outputs[k] == 2 for x in range(scenario.inputs[k]))
    if not flips or 2 ** len(flips) > MAX_ELEMENTS:
        return None
    shape = scenario.outputs + scenario.inputs
    n = len(scenario.parties)
    at = np.indices(shape).reshape(len(shape), -1)
    sources = np.empty((2 ** len(flips), at.shape[1]), dtype=np.intp)
    sources[0] = np.arange(at.shape[1])
    for i, (p, x) in enumerate(flips):
        k = scenario.party_index(p)
        moved = at.copy()
        moved[k, at[n + k] == x] ^= 1
        half = 1 << i
        sources[half:2 * half] = sources[:half][:, np.ravel_multi_index(moved, shape)]
    return _FlipTables(flips, sources)


def _flip_actions(problem: MomentProblem, tables: _FlipTables
                  ) -> np.ndarray | None:
    """The index permutation of each flip, (flips, dim), from the images
    of the letter codes the build kept (``index_codes``), as for the copy
    relabellings (``moment._index_permutation``); None when a flip does
    not map the index onto itself (a problem built on a restricted
    index)."""
    codes = problem.index_codes
    index = []
    for party, x in tables.flips:
        def image(l: Letter) -> Letter:
            if l.is_measurement and l.party == party and l.input == x:
                return dataclasses.replace(l, output=1 - l.output)
            return l

        images = relabel_letters(codes, image)
        try:
            index.append(_index_permutation(codes, images, f"the flip {party}[{x}]"))
        except RuntimeError:  # an image is not in the index
            return None
    return np.array(index)


def _basis(elements: list[int]) -> list[int]:
    """Generators of the group ``elements`` of flip products (bitmasks
    under xor): each the least element outside the span of those before."""
    gens: list[int] = []
    span = {0}
    for e in elements:
        if e not in span:
            gens.append(e)
            span |= {s ^ e for s in span}
    return gens


def _compose(perms: np.ndarray, e: int) -> np.ndarray:
    """The index permutation of the flip product e, from those of the
    flips."""
    out = np.arange(perms.shape[1])
    for i in range(len(perms)):
        if e >> i & 1:
            out = perms[i][out]
    return out


def _restricted_rows(rows: FlatRows, orbit: np.ndarray, count: int) -> FlatRows:
    """``rows`` on the orbits of the classes: in each row the coefficients
    of one orbit summed, zero sums dropped and the row's orbits in
    ascending order (``moment._summed_rows``); of equal rows the first is
    kept, and a row left with no terms and rhs 0 is dropped."""
    starts, cls, summed = _summed_rows(rows.row, orbit[rows.classes], rows.coeffs,
                                       len(rows), count)
    sizes = np.diff(starts)
    row = np.repeat(np.arange(len(rows)), sizes)
    width = int(sizes.max(initial=0))
    slot = np.arange(len(row)) - starts[row]
    classes = np.full((len(rows), width), -1, dtype=np.int64)
    coeffs = np.zeros((len(rows), width))
    classes[row, slot], coeffs[row, slot] = cls, summed
    keep = (sizes > 0) | (rows.rhs != 0.0)
    signature = np.concatenate([classes, coeffs.view(np.int64),
                                rows.rhs.view(np.int64)[:, None]], axis=1)
    kept = np.flatnonzero(keep)[np.sort(_distinct_rows(signature[keep])[1])]
    return FlatRows.padded(classes[kept], coeffs[kept], rows.rhs[kept],
                           [rows.families[k] for k in kept.tolist()])


@dataclass(frozen=True, eq=False)
class Restriction:
    """A problem restricted to one stabiliser of its tables, kept per
    stabiliser.  ``generators`` names the stabiliser's generators, each a
    product of flips (``A[0]B[0]C[0]``), and ``order`` is its size.
    ``base`` is the restricted problem with only G[1, 1] pinned, ``orbit``
    the orbit of each class of the full problem, and ``first`` the least
    class of each orbit."""

    generators: tuple[str, ...]
    order: int
    base: MomentProblem
    orbit: np.ndarray
    first: np.ndarray

    def pin(self, problem: MomentProblem) -> MomentProblem | None:
        """The restricted problem with the pins of ``problem``, a full
        problem of this stabiliser: each orbit takes the pin of its least
        class.  None when the pins of one orbit differ by more than
        ``PIN_TOL``, as one class's pinnable groups may not, or some are
        missing: then the group does not fix the pins."""
        values = problem.pinned_values()
        held = values[self.first]
        ref = held[self.orbit]
        known = ~np.isnan(values)
        if not (np.array_equal(known, ~np.isnan(ref))
                and (np.abs(values - ref)[known] <= PIN_TOL).all()):
            return None
        at = np.flatnonzero(~np.isnan(held))
        return self.base.derive(pinned=dict(zip(at.tolist(), held[at].tolist())))


def _restriction(problem: MomentProblem, tables: _FlipTables,
                 flips: np.ndarray, elements: np.ndarray) -> Restriction:
    """The restriction of ``problem`` to the stabiliser ``elements``, given
    the flips' index permutations.  Its orbits on the classes join each
    class to its images under the stabiliser's generators, as the copy
    relabellings join the Hankel groups (``moment._copy_merges``).  It
    keeps the Hankel groups, so it shares the cells of each group
    (``group_layout``, ``group_first``) with ``problem``.  Raises
    :class:`RuntimeError` when a generator maps the cells of one class to
    more than one class."""
    gens = [(tables.name(e), _compose(flips, e)) for e in _basis(elements.tolist())]
    n = problem.n_classes
    merges = _copy_merges(problem.cell_class, [pi for _, pi in gens])
    for (name, pi), sigma in zip(gens, merges[1].reshape(len(gens), n)):
        if not np.array_equal(sigma[problem.cell_class],
                              problem.cell_class[np.ix_(pi, pi)]):
            raise RuntimeError(f"the flip {name} maps the cells of one class "
                               "to several classes")
    orbit = components(n, *merges)
    first = np.unique(orbit, return_index=True)[1]
    cell_class = orbit[problem.cell_class]
    base = dataclasses.replace(
        problem, group_class=orbit[problem.group_class], cell_class=cell_class,
        pinned={int(cell_class[0, 0]): 1.0},
        rows=_restricted_rows(problem.rows, orbit, len(first)),
        check_products=class_triples(orbit[problem.check_products]),
        table=None,
        generators=problem.generators + tuple((f"flip {name}", pi) for name, pi in gens))
    # the Hankel groups are kept, and with them the cells of each group
    base._structures.update(group_layout=problem.group_layout,
                            group_first=problem.group_first)
    return Restriction(tuple(name for name, _ in gens), len(elements), base,
                       orbit, first)


def restrict(problem: MomentProblem
             ) -> tuple[Restriction, MomentProblem] | None:
    """The restriction of ``problem`` to the stabiliser of its pinned
    ``table`` and the restricted problem pinned as it is; None when the
    group is trivial: no table, a problem already restricted (one whose
    generators hold flips), scalar letters, factorisation families, no
    flip product fixing the table, a flip that does not map the index
    onto itself, or pins the group does not fix."""
    if (problem.table is None or problem.factor_pairs
            or problem.factor_triples or problem.linearized
            or problem.hierarchy == "scalar_extension"
            or any(name.startswith("flip ") for name, _ in problem.generators)):
        return None
    structures = problem._structures
    if "flip_tables" not in structures:
        structures["flip_tables"] = _flip_tables(problem.scenario)
    tables = structures["flip_tables"]
    if tables is None:
        return None
    t = problem.table.reshape(-1)
    elements = np.flatnonzero((t[tables.sources] == t).all(axis=1))
    if len(elements) == 1:
        return None
    # one per stabiliser: the check products it maps are fixed at build
    key = ("restriction", elements.tobytes())
    if key not in structures:
        if "flip_actions" not in structures:
            structures["flip_actions"] = _flip_actions(problem, tables)
        flips = structures["flip_actions"]
        structures[key] = (None if flips is None
                           else _restriction(problem, tables, flips, elements))
    restriction = structures[key]
    if restriction is None:
        return None
    pinned = restriction.pin(problem)
    return None if pinned is None else (restriction, pinned)
