"""PSD feasibility solving and SDPA-sparse export.

A compiled moment problem is an affine slice of the PSD cone: one scalar
variable per equality class, pinned values, and sparse linear rows.  The
solver decides feasibility in layers, cheapest and most rigorous first:

1. exact linear presolve: pins are propagated through rows with a single
   unknown, in rounds over the flat arrays of the problem's rows
   (``MomentProblem.active_rows``, a ``moment.FlatRows``: the one row
   format from the builders to the elimination); a violated
   fully-determined row is an infeasibility proof (no PSD reasoning
   involved).  Which rows a round checks and which classes it solves
   depend only on the rows and the pinned mask, so the rounds are worked
   out once per problem (``_PropagationPlan``, kept with the problem's
   shared structures and checked against the rows and the mask on every
   use), and each distribution replays them;
2. interlacing bound, when some class is still free (a fully determined
   problem goes straight to ``_verdict``): if the words whose pairwise
   products are all already determined span a principal submatrix with
   min eigenvalue below the infeasibility margin, every completion shares
   that bound, so the problem is infeasible.  It reads only the values
   the presolve fixed, so it runs before any factorisation, and its
   choice of words depends only on which classes are known, so the
   propagation plan holds it;
   then, when the pinned table has a non-trivial output-flip stabiliser
   (``symmetry.restrict``: the products of output flips that fix it
   exactly), the rest runs on the problem restricted to it, whose classes
   are the group's orbits, whose rows are mapped onto them, and whose
   blocks split under the copy swaps and the stabiliser's generators
   together.  It decides exactly as the full problem, since the group
   average of a feasible matrix is feasible, and its witness is a moment
   matrix of the full index; its presolve runs first.  A trivial
   stabiliser leaves the problem as it is;
3. the remaining rows R y = b over the free classes.  R does not depend
   on the distribution, only b does, so the propagation plan holds R and
   its one factorisation (``_RowFactor``), each built on first use: a
   sparse elimination picks pivot rows and columns, and one sparse LU
   factors R on them in the elimination's order; p = dim ker R is the
   number of free classes that are not pivots.  Per distribution, one LU
   solve gives the solution on the pivots (an inconsistent system is an
   infeasibility proof).  Only a problem the interior point takes (step
   4) goes on: one thin QR of the kernel basis the pivots give yields an
   orthonormal basis N of ker R, and the minimum-norm solution y0
   follows, so the affine set is y = y0 + N z;
4. a phase-1 search max t s.t. X - t*1 >= 0 over the affine set, on the
   problem's copy blocks (``MomentProblem.copy_blocks``): orthonormal
   bases U_b of the complement of the column relations, left and right
   (sum_a A_{a|x} v = v = sum_a v A_{a|x}), in which every
   matrix X of the affine set is block-diagonal, so X >= 0 iff every
   U_b' X U_b >= 0.  They are the isotypic components of the copy
   swaps: each index block Q_b (``MomentProblem.index_blocks``, from
   orbit sums) restricted to the complement, Q_b W_b for an orthonormal
   basis W_b of ker(R Q_b) with R the relation vectors.  A problem
   without copy swaps has one index block, Q = I, so one copy block, an
   orthonormal basis W of the whole complement.  No block holds a dense
   basis: the Q_b are sparse signed orbit sums and only W_b is dense.
   The entries of every Q_b' X Q_b are linear in the class values, so
   one sparse map T (``CopyBlocks.class_map``), built once per problem,
   holds them all, and one method (``CopyBlocks.congruences``) reads
   every U_b' X U_b from class values: T y, then W_b' (.) W_b as one
   batch per group of equal shapes (without copy swaps, y[cell_class]
   itself, with no T).  One layout, ``CopyBlocks.stacks``, decides how
   the blocks are batched: one stack per block size, which the reads
   fill, the witness gate's ``least_eigenvalue`` decomposes and the
   interior point keeps.  The phase-1 start C_b = U_b' X(y0) U_b is one
   read, and the constraint rows are T[:, free] N for the kernel basis
   N, read a chunk of directions at a time.  A primal-dual interior point
   (``netnpa.interior``) runs in the coordinates z, one block per copy
   block, on constraint rows packed once per problem, stack after stack
   (``_PropagationPlan.phase1_rows``), when (p + 1) sum_b r_b^2 <=
   ``INTERIOR_MAX_ENTRIES`` for block sizes r_b and p = dim ker R
   (:class:`EngineRoute`).  A larger problem is inconclusive at once, with
   no engine run.  The search starts strictly dual feasible and every
   iterate stays so, so it stops (status ``target``) at the first
   iterate, the start z = 0 included, whose witness X(z) has every copy
   block's min eigenvalue at least -tol/2, where it passes the witness
   gate's eigenvalue test; when the start passes, no solve runs.  A
   reject never gets there and runs to convergence.  An interior point
   that ends short of a verdict reports inconclusive, naming its status.

One function (``_verdict``) turns where the fully determined matrix or the
interior point ends into a verdict.  Both hand it the class values y of
their matrix X = y[cell_class], and it checks X from them, through the
tail ``moment.check_assignment`` shares (``moment.class_report``, with
Hankel and merge spreads 0.0), so X is formed only as the witness of a
FEASIBLE verdict.  The matrix is a candidate witness
when its min eigenvalue is at least -tol, and a candidate is feasible when
it passes every residual family of ``moment.check_assignment`` to 10*tol
(else inconclusive, naming the worst family).  Without a candidate, the
verdict is infeasible when a certified upper bound t* on the phase-1
optimum is below -infeasibility_margin, inconclusive otherwise.  A
FEASIBLE verdict at level n never claims more than "no obstruction at
level n".
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import interior, symmetry
from .moment import (
    FlatRows,
    MomentProblem,
    ResidualReport,
    _summed_rows,
    class_report,
    least_eigenvalue,
)
from .words import render_word

DEFAULT_TOL = 1e-7
DEFAULT_MARGIN = 1e-4
LINEAR_TOL = 1e-9

# the largest (p + 1) sum_b r_b^2 the interior point takes (EngineRoute)
INTERIOR_MAX_ENTRIES = 2 ** 25


class SdpStructureError(ValueError):
    pass


@dataclass(frozen=True)
class SdpRow:
    """<F, X> = rhs with F symmetric, given by its upper-triangle entries.

    A coefficient v at an off-diagonal cell (i, j) stands for entries v at
    both (i, j) and (j, i), so it contributes 2*v*X[i, j].
    """

    cells: tuple[tuple[int, int], ...]
    coeffs: tuple[float, ...]
    rhs: float


@dataclass
class AffineSdp:
    """<F_k, X> = b_k, maximising <F_0, X> over the objective cells (none:
    a feasibility problem)."""

    dim: int
    rows: tuple[SdpRow, ...]
    objective_cells: tuple[tuple[int, int], ...] = ()
    objective_coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        terms = [(self.objective_cells, self.objective_coeffs)]
        for cells, coeffs in terms + [(r.cells, r.coeffs) for r in self.rows]:
            for (i, j), c in zip(cells, coeffs):
                if not (0 <= i <= j < self.dim):
                    raise SdpStructureError(f"cell ({i},{j}) outside dimension")
                if not math.isfinite(c):
                    raise SdpStructureError("non-finite coefficient")


@dataclass
class FeasibilityOutcome:
    """A verdict with its evidence.  ``t_star`` is the phase-1 value the
    verdict rests on; it is NaN when none was computed, on a problem too
    large for the interior point."""

    verdict: str                      # feasible | infeasible | inconclusive
    t_star: float
    witness: np.ndarray | None = None
    residuals: ResidualReport | None = None
    iterations: int = 0
    evidence: str = ""
    route: EngineRoute | None = None  # set once the rows are factored
    # the output-flip stabiliser solved on, None when trivial or not sought
    symmetry: symmetry.Restriction | None = None


# ---------------------------------------------------------------------------
# compile and SDPA export
# ---------------------------------------------------------------------------

def _cell_weight(i: int, j: int) -> float:
    return 1.0 if i == j else 0.5


def _require_linear(problem: MomentProblem) -> None:
    """Raise unless every factorisation family of ``problem`` is
    linearized: ``factorisation.pin_linearize`` has run, whether it left
    linear rows, flagged pairs or both."""
    if (problem.factor_pairs or problem.factor_triples) \
            and not problem.linearized:
        raise SdpStructureError(
            "problem has bilinear factorisation families; linearize them via "
            "factorisation.pin_linearize first")


def _require_sdp_form(problem: MomentProblem) -> None:
    """Raise unless ``problem`` has an SDP form: its factorisation
    families linearized and no pair left bilinear by the linearization."""
    _require_linear(problem)
    if problem.flagged_bilinear:
        raise SdpStructureError(
            f"{len(problem.flagged_bilinear)} factorisation pairs are still "
            "bilinear after linearization, so the problem has no SDP form; "
            "solve it with factorisation.solve_frozen")


def compile(problem: MomentProblem,
            objective: Mapping[int, float] | None = None) -> AffineSdp:
    """Flatten a moment problem into cell-level equality rows.

    Bilinear factorisation families cannot be compiled: linearize them
    first (``factorisation.pin_linearize``), or build a hierarchy without
    them.
    """
    _require_sdp_form(problem)
    n = problem.dim
    # the upper-triangle cells class after class, in row-major order: the
    # first cell of a class is its representative (classes are symmetric,
    # so this is its first cell in the whole matrix), and each other cell
    # is tied to it
    i, j = np.triu_indices(n)
    classes = problem.cell_class[i, j]
    order = np.lexsort((i * n + j, classes))
    i, j, classes = i[order], j[order], classes[order]
    opens = np.concatenate([[True], classes[1:] != classes[:-1]])
    reps = list(zip(i[opens].tolist(), j[opens].tolist()))
    tied = ~opens
    rows: list[SdpRow] = []
    for c, ti, tj in zip(classes[tied].tolist(), i[tied].tolist(),
                         j[tied].tolist()):
        ri, rj = reps[c]
        rows.append(SdpRow(((ti, tj), (ri, rj)),
                           (_cell_weight(ti, tj), -_cell_weight(ri, rj)), 0.0))
    for cls, val in sorted(problem.pinned.items()):
        ri, rj = reps[cls]
        rows.append(SdpRow(((ri, rj),), (_cell_weight(ri, rj),), float(val)))
    lin = problem.active_rows
    cells = [reps[c] for c in lin.classes.tolist()]
    weight = np.where(i[opens] == j[opens], 1.0, 0.5)
    coeffs = (lin.coeffs * weight[lin.classes]).tolist()
    bounds = lin.starts.tolist()
    for a, e, rhs in zip(bounds, bounds[1:], lin.rhs.tolist()):
        rows.append(SdpRow(tuple(cells[a:e]), tuple(coeffs[a:e]), rhs))
    objective = objective or {}
    return AffineSdp(dim=n, rows=tuple(rows),
                     objective_cells=tuple(reps[c] for c in sorted(objective)),
                     objective_coeffs=tuple(objective[c] * _cell_weight(*reps[c])
                                            for c in sorted(objective)))


def export_sdpa(s: AffineSdp, path: str) -> None:
    """SDPA sparse file: the PSD matrix X is constrained by
    <F_k, X> = b_k with F_0 the objective (maximised); one block."""
    lines = [str(len(s.rows)), "1", str(s.dim),
             " ".join(_fmt(r.rhs) for r in s.rows)]
    for (i, j), c in zip(s.objective_cells, s.objective_coeffs):
        lines.append(f"0 1 {i + 1} {j + 1} {_fmt(c)}")
    for k, row in enumerate(s.rows, start=1):
        for (i, j), c in zip(row.cells, row.coeffs):
            lines.append(f"{k} 1 {i + 1} {j + 1} {_fmt(c)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def parse_sdpa(path: str) -> AffineSdp:
    """Inverse of :func:`export_sdpa` (round-trips bit-exactly).  The RHS
    is the fourth line, blank when there are no constraint rows."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if not ln.startswith("*")]
    m = int(raw[0])
    nblock = int(raw[1])
    if nblock != 1:
        raise SdpStructureError("only single-block files are produced here")
    dim = int(raw[2].split()[0])
    rhs = [float(t) for t in raw[3].split()]
    if len(rhs) != m:
        raise SdpStructureError(f"expected {m} RHS entries, got {len(rhs)}")
    cells: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    coeffs: list[list[float]] = [[] for _ in range(m + 1)]
    for ln in filter(None, raw[4:]):
        k_s, b_s, i_s, j_s, v_s = ln.split()
        k, b, i, j = int(k_s), int(b_s), int(i_s) - 1, int(j_s) - 1
        if b != 1 or not 0 <= k <= m:
            raise SdpStructureError(f"bad entry line {ln!r}")
        cells[k].append((i, j))
        coeffs[k].append(float(v_s))
    rows = tuple(SdpRow(tuple(cells[k]), tuple(coeffs[k]), rhs[k - 1])
                 for k in range(1, m + 1))
    return AffineSdp(dim=dim, rows=rows, objective_cells=tuple(cells[0]),
                     objective_coeffs=tuple(coeffs[0]))


# ---------------------------------------------------------------------------
# Class-space machinery
# ---------------------------------------------------------------------------

def _eliminate(starts: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               n: int) -> list[tuple[int, int]]:
    """Gaussian elimination of the rows R in n unknowns, R given as flat
    (starts, cols, vals) rows, on one sparse map (column -> coefficient)
    per row.

    The next pivot row is the one with the fewest nonzeros; its pivot is,
    among the columns whose coefficient is at least a tenth of the row's
    largest, the one in the fewest remaining rows (threshold pivoting as
    in Duff, Erisman & Reid, *Direct Methods for Sparse Matrices*).  Fill
    below the rank tolerance of R is dropped, so a dependent row ends
    empty.  Returns the (row, column) pivots in elimination order: R on
    the pivot rows and columns is square and nonsingular, and its rank is
    the rank of R.
    """
    m = len(starts) - 1
    drop = float(np.abs(vals).max(initial=0.0)) * max(m, n) * np.finfo(float).eps
    bounds, cols, vals = starts.tolist(), cols.tolist(), vals.tolist()
    rows = [dict(zip(cols[a:e], vals[a:e])) for a, e in zip(bounds, bounds[1:])]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in enumerate(rows)]
    heapq.heapify(heap)
    done = [False] * m
    pivots = []
    while heap:
        nnz, i = heapq.heappop(heap)
        row = rows[i]
        if done[i] or nnz != len(row):
            continue          # a stale entry; the row was pushed again
        done[i] = True
        for c in row:
            col_rows[c].discard(i)
        if not row:
            continue
        big = 0.1 * max(abs(v) for v in row.values())
        j = min((c for c, v in row.items() if abs(v) >= big),
                key=lambda c: (len(col_rows[c]), c))
        scale = row.pop(j)
        row = {c: v / scale for c, v in row.items()}
        for k in col_rows.pop(j):
            rk = rows[k]
            f = rk.pop(j)
            for c, v in row.items():
                new = rk.get(c, 0.0) - f * v
                if abs(new) > drop:
                    if c not in rk:
                        col_rows[c].add(k)
                    rk[c] = new
                elif c in rk:
                    del rk[c]
                    col_rows[c].discard(k)
            heapq.heappush(heap, (len(rk), k))
        pivots.append((i, j))
    return pivots


class _RowFactor:
    """The part of the affine layer that does not depend on the rhs: for
    reduced rows R in n unknowns, the pivots of :func:`_eliminate`, one
    sparse LU of R on the pivot rows and columns, and p = dim ker R, the
    number of columns that are not pivots.  The LU takes the pivot columns
    in the elimination's order (``permc_spec="NATURAL"``), so the
    elimination makes the only ordering decision.  Only the interior point
    reads ``N``, an orthonormal basis of ker R, and the constraint rows
    built from it (:meth:`_PropagationPlan.phase1_rows`), so both are
    built on first read: a problem over the gate (:class:`EngineRoute`)
    never forms them.

    Every distribution pinned on one problem leaves the same R, so the
    propagation plan that holds R holds its one factorisation
    (:attr:`_PropagationPlan.factor`), which serves them all.
    """

    def __init__(self, R: tuple[np.ndarray, np.ndarray, np.ndarray], n: int):
        import scipy.sparse.linalg

        self.R, self.n = R, n
        starts, cols, vals = R
        pivots = np.array(_eliminate(starts, cols, vals, n),
                          dtype=np.intp).reshape(-1, 2)
        self.pivot_rows, self.pivot_cols = pivots.T
        self.rest = np.setdiff1d(np.arange(n), self.pivot_cols)
        self.p = len(self.rest)
        self.lu = scipy.sparse.linalg.splu(
            self._on_pivots()[:, self.pivot_cols].tocsc(), permc_spec="NATURAL")

    def _on_pivots(self):
        """R on the pivot rows, as a sparse matrix."""
        import scipy.sparse

        starts, cols, vals = self.R
        return scipy.sparse.csr_matrix(
            (vals, cols, starts),
            shape=(len(starts) - 1, self.n))[self.pivot_rows]

    @functools.cached_property
    def N(self) -> np.ndarray:
        """An orthonormal basis of ker R: the thin QR of the kernel basis K
        with identity rows on the columns that are not pivots; R K = 0 on
        the pivot rows, hence on every row."""
        K = np.zeros((self.n, self.p))
        K[self.rest, np.arange(self.p)] = 1.0
        K[self.pivot_cols] = -self.lu.solve(
            self._on_pivots()[:, self.rest].toarray())
        return np.linalg.qr(K)[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution of R y = b on the pivot rows that is zero off the
        pivot columns."""
        y = np.zeros(self.n)
        y[self.pivot_cols] = self.lu.solve(b[self.pivot_rows])
        return y


class _PropagationPlan:
    """The presolve's schedule for one row set and one mask of initially
    known classes, worked out without any values, and what follows from
    it for every distribution: the reduced rows R and their one
    factorisation.

    Which rows a round checks and which classes it solves depend only on
    which classes are known, on the rows' classes and on which of their
    coefficients are zero; never on a value.  So the round loop of
    :meth:`_ClassSystem._propagate` runs here once, on masks, and keeps per
    round (``rounds``, one :class:`_Round` each) the rows it checks, the
    rows that solve a class, and the entries of their known terms.  The
    distributions pinned on one problem leave the same mask on the same
    rows, so each replays the plan: per round one gather of the known
    terms, one ``bincount``, one check and one assignment, in the order of
    the loop, so the values and the first violated row come out bit for
    bit as the loop gives them.

    The plan also holds what follows from the mask once propagation ends:
    the rows left ``pending``, the ``free`` classes and their positions
    ``free_pos``, the pending rows over the free classes (:attr:`R`, whose
    rhs b each distribution gives by :meth:`reduce`), their factorisation
    (:attr:`factor`) and the interlacing bound's words
    (:attr:`interlacing`), each built on first use.  :meth:`fits` tells
    whether the plan is the one for given rows and mask.
    """

    def __init__(self, rows: FlatRows, kmask: np.ndarray, cell_class: np.ndarray):
        self.classes, self.starts, self.coeffs = rows.classes, rows.starts, rows.coeffs
        self.kmask, self.cell_class = kmask, cell_class
        is_zero = rows.coeffs == 0.0
        known = kmask.copy()
        active = np.arange(len(rows))
        # the entries of the active rows and the position of their row
        ent, at = np.arange(len(rows.classes)), rows.row
        self.rounds: list[_Round] = []
        while True:
            m = len(active)
            cls = rows.classes[ent]
            unknown = ~known[cls]
            n_unknown = np.bincount(at[unknown], minlength=m)
            single = np.flatnonzero(unknown & (n_unknown == 1)[at])
            zero = is_zero[ent[single]]
            checked = n_unknown == 0
            checked[at[single[zero]]] = True
            single = single[~zero]
            solved, first = np.unique(cls[single], return_index=True)
            solve = single[first]
            check_at, solve_at = np.flatnonzero(checked), at[solve]
            # the rows read this round, the checked ones first
            slot = np.full(m, -1)
            slot[check_at] = np.arange(len(check_at))
            slot[solve_at] = len(check_at) + np.arange(len(solve_at))
            terms = ~unknown & (slot[at] >= 0)
            self.rounds.append(_Round(
                active=active, terms=ent[terms], term_classes=cls[terms],
                slots=slot[at[terms]], n_slots=len(check_at) + len(solve_at),
                check_rows=active[check_at], solve_rows=active[solve_at],
                solve_terms=ent[solve], solved=solved))
            known[solved] = True
            checked[solve_at] = True
            keep = ~checked
            kept = keep[at]
            active = active[keep]
            ent = ent[kept]
            at = (np.cumsum(keep) - 1)[at[kept]]
            if not len(solved):
                break
        self.mask = known
        self.pending = active
        self.free = np.flatnonzero(~known)
        # the position of every class among the free ones, -1 if known
        self.free_pos = np.full(len(known), -1)
        self.free_pos[self.free] = np.arange(len(self.free))
        # every distribution that replays the plan reads these
        for a in (self.pending, self.free, self.free_pos):
            a.flags.writeable = False
        self._phase1: np.ndarray | None = None

    def fits(self, rows: FlatRows, kmask: np.ndarray) -> bool:
        """Whether these are the rows (classes, bounds and coefficients)
        and the mask the plan was made for."""
        def same(a, b):
            return a is b or (a.dtype == b.dtype and np.array_equal(a, b))

        return all(same(a, b) for a, b in zip(
            (self.kmask, self.classes, self.starts, self.coeffs),
            (kmask, rows.classes, rows.starts, rows.coeffs)))

    @functools.cached_property
    def _terms(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The entries of the pending rows' terms, split into those of the
        known classes and those of the free ones, each as (entries, their
        classes, the position of their row among the pending ones)."""
        is_pending = np.zeros(len(self.starts) - 1, dtype=bool)
        is_pending[self.pending] = True
        row = np.repeat(np.arange(len(is_pending)), np.diff(self.starts))
        entries = np.flatnonzero(is_pending[row])
        at = (np.cumsum(is_pending) - 1)[row[entries]]
        cls = self.classes[entries]
        unknown = ~self.mask[cls]
        return tuple((entries[s], cls[s], at[s]) for s in (~unknown, unknown))

    @functools.cached_property
    def R(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pending rows over the free classes, as flat (starts, free
        positions, coefficients): per row, its free positions ascending,
        with the coefficients of a repeated class summed and zero sums
        dropped (``moment._summed_rows``).  The elimination's pivots do
        not depend on the order within a row."""
        entries, cls, at = self._terms[1]
        return _summed_rows(at, self.free_pos[cls], self.coeffs[entries],
                            len(self.pending), len(self.free))

    @functools.cached_property
    def R_row(self) -> np.ndarray:
        """The row of every entry of :attr:`R`, for its residual."""
        starts = self.R[0]
        return np.repeat(np.arange(len(starts) - 1), np.diff(starts))

    @functools.cached_property
    def factor(self) -> _RowFactor:
        """The factorisation of :attr:`R`."""
        return _RowFactor(self.R, len(self.free))

    def phase1_rows(self, problem: MomentProblem) -> np.ndarray:
        """The phase-1 constraint rows [-B_1 ... -B_p; I], packed for
        ``interior.solve_lmi``: per block U_b of ``problem.copy_blocks``,
        B_j is U_b' D_j U_b for D_j the matrix whose free classes take the
        values N[:, j], N of :attr:`factor`, and whose other classes are
        zero.  One read of every direction at once
        (``CopyBlocks.congruences``), whose stacks each row holds as they
        are, stack after stack, n r^2 columns each; the off-block parts
        U_a' D_j U_b are zero and are never formed.  Built on first use,
        once per plan."""
        if self._phase1 is None:
            blocks = problem.copy_blocks
            A = self._phase1 = np.empty((self.factor.p + 1,
                                         sum(k * k for k in blocks.sizes)))
            at = 0
            for B in blocks.congruences(self.factor.N, self.free):
                n, r = B.shape[1:3]
                view = A[:, at:(at := at + n * r * r)].reshape(len(A), n, r, r)
                np.negative(B, out=view[:-1])
                view[-1] = np.eye(r)
        return self._phase1

    def reduce(self, rows: FlatRows, known: np.ndarray) -> np.ndarray:
        """The rhs b of R y = b: the pending rows' rhs less their known
        part."""
        entries, cls, at = self._terms[0]
        return rows.rhs[self.pending] - np.bincount(
            at, weights=rows.coeffs[entries] * known[cls],
            minlength=len(self.pending))

    @functools.cached_property
    def interlacing(self) -> tuple[list[int], np.ndarray]:
        """The interlacing bound's words: a greedy choice, most known
        cells first, of words whose every cell among them is known, and the
        classes of those cells."""
        cell_known = self.mask[self.cell_class]
        order = np.argsort(-cell_known.sum(axis=1))
        chosen: list[int] = []
        # ok[i]: every cell between word i and the chosen words is known
        ok = np.diagonal(cell_known).copy()
        for i in order.tolist():
            if ok[i]:
                chosen.append(i)
                ok &= cell_known[i]
        return chosen, self.cell_class[np.ix_(chosen, chosen)]


@dataclass(frozen=True, eq=False)
class _Round:
    """One round of a :class:`_PropagationPlan`.  ``active`` are the rows
    still active when it starts; it reads, in entry order, the known terms
    ``terms`` (of classes ``term_classes``) into ``n_slots`` sums, slot k
    < len(``check_rows``) that of check row k and the next ones those of
    the rows ``solve_rows``, whose entry ``solve_terms`` solves for the
    class ``solved``."""

    active: np.ndarray
    terms: np.ndarray
    term_classes: np.ndarray
    slots: np.ndarray
    n_slots: int
    check_rows: np.ndarray
    solve_rows: np.ndarray
    solve_terms: np.ndarray
    solved: np.ndarray


class _ClassSystem:
    """Affine structure of a moment problem in class coordinates."""

    def __init__(self, problem: MomentProblem):
        self.problem = problem
        self.cell_class = problem.cell_class
        self.rows = problem.active_rows
        self.known = problem.pinned_values()
        self.contradiction: str | None = None
        self._propagate()
        # after a contradiction, callers read only ``known``
        self.free, self.free_pos = self.plan.free, self.plan.free_pos
        # set by factor_rows: the rhs b of R y = b (R is the plan's), R's
        # factorisation and its solution of R y = b on the pivots
        self.b: np.ndarray | None = None
        self.factor: _RowFactor | None = None
        self._pivot_solution: np.ndarray | None = None

    # -- presolve ------------------------------------------------------------

    def _propagate(self) -> None:
        """Propagate the known values through the rows, in rounds over the
        rows still active until a round sets nothing.  A round checks the
        rows with no unknown class (and those whose one unknown has
        coefficient 0) and solves every row with one unknown; when several
        rows solve one class, the first in row order sets it and the
        others are checked in the next round.  The first violated row of
        the first round that has one is the contradiction; else the rows
        still active, in row order, are left in ``_pending``.

        The rounds are those of the problem's :class:`_PropagationPlan`
        for these rows and this mask, kept in its structures and made anew
        only when they differ from the kept one's.  A problem with
        linearized factor rows keeps its plan apart from the plan of the
        rows without them, which ``factorisation.pin_linearize`` reads."""
        rows, known = self.rows, self.known
        kmask = ~np.isnan(known)
        key = ("propagation_linearized" if len(self.problem.linear_factor_rows)
               else "propagation")
        structures = self.problem._structures
        plan = structures.get(key)
        if plan is None or not plan.fits(rows, kmask):
            plan = structures[key] = _PropagationPlan(rows, kmask,
                                                      self.cell_class)
        self.plan = plan
        coeffs, rhs = rows.coeffs, rows.rhs
        for rnd in plan.rounds:
            rest = np.bincount(rnd.slots, minlength=rnd.n_slots,
                               weights=coeffs[rnd.terms] * known[rnd.term_classes])
            checks = len(rnd.check_rows)
            resid = rest[:checks] - rhs[rnd.check_rows]
            violated = np.abs(resid) > LINEAR_TOL
            if violated.any():
                k = int(violated.argmax())
                self.contradiction = self._row_evidence(
                    int(rnd.check_rows[k]), float(resid[k]))
                self._pending = rnd.active
                return
            known[rnd.solved] = ((rhs[rnd.solve_rows] - rest[checks:])
                                 / coeffs[rnd.solve_terms])
        self._pending = plan.pending

    def _row_evidence(self, r: int, resid: float) -> str:
        rows = self.rows
        e = slice(rows.starts[r], rows.starts[r + 1])
        terms = " + ".join(
            f"{c:g}*G[{render_word(self.problem.representative_key(int(k)))}]"
            f"(={self.known[int(k)]:.6g})"
            for k, c in zip(rows.classes[e], rows.coeffs[e]))
        return (f"violated {rows.families[r]} row: {terms} = {rows.rhs[r]:g} "
                f"(residual {resid:.3e})")

    # -- geometry ------------------------------------------------------------

    def class_values(self, y_free: np.ndarray) -> np.ndarray:
        """The value of every class: the known ones, and ``y_free`` on the
        free classes."""
        y = np.where(np.isnan(self.known), 0.0, self.known)
        y[self.free] = y_free
        return y

    def assemble(self, y_free: np.ndarray) -> np.ndarray:
        # np.take gathers through the int32 cell classes without a cast
        return np.take(self.class_values(y_free), self.cell_class)

    def factor_rows(self) -> tuple[bool, str]:
        """Reduce the pending rows to R y = b over the free classes and
        check that it is solvable; keep ``b`` and ``factor``, the
        :class:`_RowFactor` of R.

        R and its factorisation depend only on the rows and the mask, so
        the propagation plan holds them (:attr:`_PropagationPlan.R` and
        :attr:`_PropagationPlan.factor`), each built on first use, and
        every distribution that replays the plan reads them; per call, only
        b is formed.  One LU solve gives the solution on the pivots, and
        the system is consistent when it satisfies every row of R y = b.
        The minimum-norm solution ``y0`` and the kernel basis ``N`` are
        built on first read.
        """
        self.b = self.plan.reduce(self.rows, self.known)
        self.factor = self.plan.factor
        y = self.factor.solve(self.b)
        _, cols, vals = self.plan.R
        resid = np.bincount(self.plan.R_row, weights=vals * y[cols],
                            minlength=len(self.b)) - self.b
        if len(resid):
            worst = int(np.abs(resid).argmax())
            if abs(resid[worst]) > LINEAR_TOL * (1.0 + np.abs(self.b).max()):
                family = self.rows.families[self._pending[worst]]
                return False, (f"linear system inconsistent: {family} row "
                               f"residual {resid[worst]:.3e} after elimination")
        self._pivot_solution = y
        return True, ""

    @property
    def N(self) -> np.ndarray:
        """An orthonormal basis of ker R (``_RowFactor.N``)."""
        return self.factor.N

    @functools.cached_property
    def y0(self) -> np.ndarray:
        """The minimum-norm solution of R y = b: the solution on the
        pivots less its part in the span of N."""
        y = self._pivot_solution
        return y - self.N @ (self.N.T @ y)

    # -- interlacing bound -----------------------------------------------------

    def known_submatrix_bound(self) -> tuple[float | None, list[int]]:
        """Min eigenvalue of the largest greedy principal submatrix whose
        entries are all determined; an upper bound on the phase-1 value.

        The words depend only on which classes are known, so the choice
        is made once per propagation plan
        (:attr:`_PropagationPlan.interlacing`)."""
        chosen, classes = self.plan.interlacing
        if not chosen:
            return None, []
        sub = self.known[classes]
        return (float(np.linalg.eigvalsh((sub + sub.T) / 2).min()),
                list(chosen))


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def _verdict(problem: MomentProblem, y: np.ndarray | None, t: float | None,
             certified: bool, iterations: int, tol: float, margin: float, *,
             accept: str = "", reject: str = "", undecided: str = ""
             ) -> FeasibilityOutcome:
    """The one verdict rule past the presolve and the interlacing bound.

    y holds the class values of the candidate witness X = y[cell_class]
    (None: there is none) and t is the phase-1 value, a certified upper
    bound on the phase-1 optimum when ``certified``; None stands for the
    min eigenvalue of X.  The gate reads X from y alone
    (``moment.class_report``, with Hankel and merge spreads 0.0, since X
    is constant on every class by construction), so X is formed only for
    a FEASIBLE verdict, as its witness.  X is a candidate when its min
    eigenvalue, read from the residual report of the gate, is at least
    -tol, and that eigenvalue is then its t*.  A candidate is FEASIBLE
    when every residual family of the report is at most 10*tol, else
    INCONCLUSIVE, naming the worst family.  The report is the one
    ``check_assignment`` gives for X, bit for bit.  Otherwise a certified
    t < -margin is INFEASIBLE, with evidence ``reject``, and anything
    else INCONCLUSIVE, with ``undecided``.
    """
    if y is not None:
        rep = class_report(problem, y, 0.0, 0.0)
        lam = rep.min_eigenvalue
        if lam >= -tol:
            family, worst = max(rep.families().items(), key=lambda kv: kv[1])
            if worst > 10 * tol:
                return FeasibilityOutcome(
                    "inconclusive", t_star=lam, residuals=rep,
                    iterations=iterations,
                    evidence=f"{accept}: witness fails the residual gate, "
                             f"{family} residual {worst:.3e} > {10 * tol:.1e}")
            return FeasibilityOutcome("feasible", t_star=lam,
                                      witness=np.take(y, problem.cell_class),
                                      residuals=rep, iterations=iterations,
                                      evidence=accept)
        t = lam if t is None else t
    if certified and t < -margin:
        return FeasibilityOutcome("infeasible", t_star=t, iterations=iterations,
                                  evidence=reject)
    return FeasibilityOutcome("inconclusive", t_star=t, iterations=iterations,
                              evidence=undecided)


@dataclass(frozen=True)
class EngineRoute:
    """The sizes that decide whether the phase-1 engine runs on a problem:
    p = dim ker R and the copy-block sizes r_b of its range.  The interior
    point holds a few arrays of (p + 1) sum_b r_b^2 entries, and its Schur
    complements cost O(p^2 sum_b r_b^2); it runs when that count is at
    most ``INTERIOR_MAX_ENTRIES``, and no engine runs otherwise.  p is
    None before a distribution is pinned, when only the block sizes are
    known."""

    p: int | None
    blocks: tuple[int, ...]

    @property
    def squares(self) -> int:
        """sum_b r_b^2, the entries of one block-diagonal matrix."""
        return sum(k * k for k in self.blocks)

    @property
    def max_p(self) -> int:
        """The largest p the interior point takes on these blocks; -1 when
        the blocks alone exceed ``INTERIOR_MAX_ENTRIES``."""
        return INTERIOR_MAX_ENTRIES // self.squares - 1

    @property
    def entries(self) -> int:
        return (self.p + 1) * self.squares

    @property
    def interior(self) -> bool:
        return self.entries <= INTERIOR_MAX_ENTRIES

    @property
    def engine(self) -> str:
        if self.interior:
            return "interior point"
        return "none (too large for the interior point)"


def _reduce(cs: _ClassSystem) -> list[np.ndarray]:
    """Per copy block U_b, C_b = U_b' X(y0) U_b, in the stacks of
    ``CopyBlocks.congruences``; for y = y0 + N z, U_b' X(y) U_b = C_b +
    sum_j z_j B_j with the B_j of ``_PropagationPlan.phase1_rows``.  Needs
    ``cs.factor_rows()`` to have run."""
    return cs.problem.copy_blocks.congruences(cs.class_values(cs.y0))


def _interior_phase1(cs: _ClassSystem, tol: float, stop: float | None = None):
    """max t s.t. U_b' X(z) U_b - t*1 >= 0 for every block b; returns
    (class values of the witness X(z), solver result).

    The solve starts from z = 0, t = min_b lambda_min(C_b) - 1, where
    every block of the dual matrix C - t*1 has min eigenvalue 1: a
    strictly feasible dual point, so the interior point spends no
    iteration on the dual residual, and every later iterate stays
    strictly dual feasible.  With ``stop`` the search ends, with status
    ``target``, at the first iterate whose witness X(z) = S + t*1 has
    every block's min eigenvalue at least ``stop``, and returns its t
    raised to that eigenvalue; the start z = 0 is iterate 0.  When C
    itself passes, X(y0) is returned after 0 iterations, with no
    constraint rows built and no solve, and a primal objective of NaN and
    infinite primal infeasibility, since no primal point bounds t*.
    Without ``stop``, the solve runs to convergence."""
    C = _reduce(cs)
    p = cs.factor.p
    low = least_eigenvalue(C)
    start = np.zeros(p + 1)
    if stop is not None and low >= stop:
        start[-1] = low
        return cs.class_values(cs.y0), interior.LmiResult(
            "target", start, primal_obj=math.nan, dual_obj=low,
            primal_infeas=math.inf, dual_infeas=0.0, iterations=0)
    b = np.zeros(p + 1)
    b[-1] = 1.0
    start[-1] = low - 1.0
    res = interior.solve_lmi(C, cs.plan.phase1_rows(cs.problem), b,
                             tol=tol * 1e-2, start=start, stop=stop)
    return cs.class_values(cs.y0 + cs.N @ res.y[:p]), res


def propagated_values(problem: MomentProblem) -> tuple[np.ndarray, str | None]:
    """Class values forced by pins plus linear propagation (NaN where
    free), and the first contradiction found, if any."""
    cs = _ClassSystem(problem)
    return cs.known.copy(), cs.contradiction


def _linear_verdict(cs: _ClassSystem, tol: float, margin: float
                    ) -> FeasibilityOutcome | None:
    """The verdict of the presolve alone: a violated row, or the one
    matrix of a fully determined affine set; None when classes stay
    free."""
    if cs.contradiction is not None:
        return FeasibilityOutcome("infeasible", t_star=-np.inf,
                                  evidence=cs.contradiction)
    if len(cs.free) == 0:
        # the one matrix of the affine set: its min eigenvalue is the
        # phase-1 optimum, and the interlacing bound's submatrix would be
        # all of it
        return _verdict(
            cs.problem, cs.class_values(np.zeros(0)), None, True, 0, tol, margin,
            accept="fully determined by the linear constraints",
            reject="fully determined matrix is not PSD",
            undecided="fully determined, min eigenvalue in the inconclusive band")
    return None


def solve_feasibility(problem: MomentProblem,
                      tol: float = DEFAULT_TOL,
                      infeasibility_margin: float = DEFAULT_MARGIN
                      ) -> FeasibilityOutcome:
    """Phase-1 feasibility of a compiled problem.

    Past the presolve and the interlacing bound, a problem whose pinned
    table has a non-trivial output-flip stabiliser is solved on the
    problem restricted to it (``symmetry.restrict``, kept in ``symmetry``
    of the outcome), which loses nothing in either direction; any other
    runs on the problem as it is.  The phase-1 engine is the interior
    point on the copy blocks.  The problem's size decides whether it runs
    (:class:`EngineRoute`, kept in ``route`` of the outcome): a problem too
    large for it is inconclusive at once, with no iteration and t* NaN.
    An interior point that ends short of a verdict reports inconclusive.

    An unpinned problem, with only G[1, 1] pinned, is a supported input;
    its verdict can be inconclusive, since ``check_products`` are checked
    on the witness but not imposed.
    """
    _require_linear(problem)
    cs = _ClassSystem(problem)
    outcome = _linear_verdict(cs, tol, infeasibility_margin)
    if outcome is not None:
        return outcome
    # the bound needs only the known values, so it runs before any
    # factorisation of the remaining rows
    bound, chosen = cs.known_submatrix_bound()
    if bound is not None and bound < -infeasibility_margin:
        return FeasibilityOutcome(
            "infeasible", t_star=bound,
            evidence=(f"pinned principal submatrix on {len(chosen)} words has "
                      f"min eigenvalue {bound:.6g} (interlacing bound)"))
    found = symmetry.restrict(problem)
    outcome = None
    if found is not None:
        cs = _ClassSystem(found[1])
        outcome = _linear_verdict(cs, tol, infeasibility_margin)
    if outcome is None:
        outcome = _engine_verdict(cs, tol, infeasibility_margin)
    outcome.symmetry = None if found is None else found[0]
    return outcome


def _engine_verdict(cs: _ClassSystem, tol: float, margin: float
                    ) -> FeasibilityOutcome:
    """The verdict past the presolve: the factorisation of the remaining
    rows, then the interior point when the route takes it."""
    problem = cs.problem
    ok, msg = cs.factor_rows()
    if not ok:
        # no point satisfies the rows, so t* = -inf
        return _verdict(problem, None, -np.inf, True, 0, tol, margin, reject=msg)
    route = EngineRoute(cs.factor.p, problem.copy_blocks.sizes)
    if not route.interior:
        return FeasibilityOutcome(
            "inconclusive", t_star=math.nan, route=route,
            evidence=f"too large for the interior point: (p + 1)*sum r_b^2 = "
                     f"{route.entries} > {INTERIOR_MAX_ENTRIES}")
    # the search stops at the first witness with every copy block, hence
    # the whole index, above -tol/2, where the gate's psd family passes; a
    # reject never reaches it and runs to convergence
    y, res = _interior_phase1(cs, tol, stop=-tol / 2)
    t = res.primal_obj
    # a nearly feasible dual matrix W bounds t* <= <C, W> + O(residual)
    outcome = _verdict(
        problem, y, t, res.primal_infeas <= tol, res.iterations, tol, margin,
        accept="interior point witness (min eigenvalue >= -tol, every "
               "residual family <= 10*tol)",
        reject=f"phase-1 optimum {t:.6g} (interior point)",
        undecided=("phase-1 optimum inside the inconclusive band"
                   if res.status == "optimal" else
                   f"interior point {res.status} short of a verdict; "
                   f"phase-1 value {t:.6g}"))
    outcome.route = route
    return outcome


def maximize_linear(problem: MomentProblem, objective: Mapping[int, float],
                    tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Maximise a linear functional of the moment matrix over the
    feasible set; returns (optimal value, witness matrix).

    Runs the interior point; raises :class:`SdpStructureError` when the
    problem has no SDP form (as :func:`compile`), is infeasible by
    presolve, too large, or the solve does not reach ``tol`` in relative
    gap and infeasibilities.  When the affine set is one matrix (dim ker
    R = 0), that matrix is the witness if its min eigenvalue is at least
    -tol, and the problem is infeasible else.
    """
    _require_sdp_form(problem)
    cs = _ClassSystem(problem)
    if cs.contradiction is not None:
        raise SdpStructureError(f"infeasible problem: {cs.contradiction}")
    ok, msg = cs.factor_rows()
    if not ok:
        raise SdpStructureError(f"infeasible problem: {msg}")
    p = cs.factor.p
    if not EngineRoute(p, problem.copy_blocks.sizes).interior:
        raise SdpStructureError("problem too large for the interior point")
    C = _reduce(cs)
    c = np.zeros(len(cs.free))
    fixed_part = 0.0
    for cls, co in objective.items():
        if cs.free_pos[cls] >= 0:
            c[cs.free_pos[cls]] += co
        else:
            fixed_part += co * cs.known[cls]
    if p == 0:  # the affine set is one matrix
        lam = least_eigenvalue(C)
        if lam < -tol:
            raise SdpStructureError(f"infeasible problem: the one matrix of the "
                                    f"affine set has min eigenvalue {lam:.6g}")
        return fixed_part + float(c @ cs.y0), cs.assemble(cs.y0)
    res = interior.solve_lmi(C, cs.plan.phase1_rows(problem)[:p], cs.N.T @ c,
                             tol=tol * 1e-2)
    if max(res.rel_gap, res.primal_infeas, res.dual_infeas) > tol:
        raise SdpStructureError(
            f"interior point failed: {res.status} after {res.iterations} "
            f"iterations (relative gap {res.rel_gap:.1e}, infeasibilities "
            f"{res.primal_infeas:.1e} / {res.dual_infeas:.1e})")
    y = cs.y0 + cs.N @ res.y
    return fixed_part + float(c @ y), cs.assemble(y)
