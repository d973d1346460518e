"""PSD feasibility solving and SDPA-sparse export.

A compiled moment problem is an affine slice of the PSD cone: one scalar
variable per equality class, pinned values, and sparse linear rows.  The
solver decides feasibility in layers, cheapest and most rigorous first:

1. exact linear presolve: pins are propagated through rows with a single
   unknown, as a vectorised fixpoint over the flat arrays of the
   problem's rows (``MomentProblem.active_rows``, a ``moment.FlatRows``:
   the one row format from the builders to the elimination); a violated
   fully-determined row is an infeasibility proof (no PSD reasoning
   involved);
2. interlacing bound: if the words whose pairwise products are all
   already determined span a principal submatrix with min eigenvalue
   below the infeasibility margin, every completion shares that bound,
   so the problem is infeasible.  It reads only the values the presolve
   fixed, so it runs before any factorisation;
3. sparse elimination of the remaining rows R y = b over the free
   classes, then one thin QR of the kernel basis it yields: the
   minimum-norm solution y0 (an inconsistent system is an infeasibility
   proof) and an orthonormal basis N of ker R, so the affine set is
   y = y0 + N z;
4. a phase-1 search max t s.t. X - t*1 >= 0 over the affine set: when
   (p + 1) n^2 <= ``INTERIOR_MAX_ENTRIES`` for n words and p = dim ker R,
   a primal-dual interior point (``netnpa.interior``) in the coordinates
   z, with the common kernel of the affine set projected out; else, or
   when the interior point stalls short of a verdict, at most
   ``max_iter`` Dykstra alternating projections, whose affine step is
   the Frobenius projection built from y0 and N.  The projections can
   certify feasibility (by exhibiting a witness) but report only
   inconclusive when they stall; t* is then the best min eigenvalue of an
   iterate on the affine set, a lower bound on the phase-1 optimum.

Verdicts follow the phase-1 value t*: feasible when t* >= -tol and the
witness passes every residual family of ``moment.check_assignment`` to
10*tol (else inconclusive, naming the worst family), infeasible when
t* < -infeasibility_margin, inconclusive otherwise.  A FEASIBLE verdict
at level n never claims more than "no obstruction at level n".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.linalg

from . import interior
from .moment import MomentAssignment, MomentProblem, ResidualReport, check_assignment

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 2000
DEFAULT_MARGIN = 1e-4
LINEAR_TOL = 1e-9

# the interior point holds a few (p, r, r) arrays for p null-space
# coordinates and reduced dimension r <= n; above this many entries per
# array, bounded by (p + 1) n^2, its memory and its O(p^2 r^2) Schur
# complements outgrow the projections
INTERIOR_MAX_ENTRIES = 2 ** 21


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
        for row in self.rows:
            for (i, j), c in zip(row.cells, row.coeffs):
                if not (0 <= i <= j < self.dim):
                    raise SdpStructureError(f"cell ({i},{j}) outside dimension")
                if not math.isfinite(c):
                    raise SdpStructureError("non-finite coefficient")


@dataclass
class FeasibilityOutcome:
    verdict: str                      # feasible | infeasible | inconclusive
    t_star: float
    witness: np.ndarray | None = None
    residuals: ResidualReport | None = None
    iterations: int = 0
    evidence: str = ""

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


# ---------------------------------------------------------------------------
# compile and SDPA export
# ---------------------------------------------------------------------------

def _cell_weight(i: int, j: int) -> float:
    return 1.0 if i == j else 0.5


def compile(problem: MomentProblem,
            objective: Mapping[int, float] | None = None) -> AffineSdp:
    """Flatten a moment problem into cell-level equality rows.

    Bilinear factorisation families cannot be compiled; resolve them
    first (``factorisation.pin_linearize`` or the see-saw), or build a
    hierarchy without them.
    """
    if (problem.factor_pairs or problem.factor_triples) \
            and not problem.linear_factor_rows:
        raise SdpStructureError(
            "problem has bilinear factorisation families; linearize them via "
            "factorisation.pin_linearize / factorisation.seesaw first")
    if problem.flagged_bilinear:
        raise SdpStructureError(
            f"{len(problem.flagged_bilinear)} factorisation pairs are still "
            "bilinear after linearization; use factorisation.seesaw")
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
    """Inverse of :func:`export_sdpa` (round-trips bit-exactly)."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("*")]
    m = int(raw[0])
    nblock = int(raw[1])
    if nblock != 1:
        raise SdpStructureError("only single-block files are produced here")
    dim = int(raw[2].split()[0])
    rhs = [float(t) for t in raw[3].split()] if m else []
    if len(rhs) != m:
        raise SdpStructureError(f"expected {m} RHS entries, got {len(rhs)}")
    cells: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    coeffs: list[list[float]] = [[] for _ in range(m + 1)]
    for ln in raw[4:]:
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
# PSD projection
# ---------------------------------------------------------------------------

def project_psd(M: np.ndarray, sym_tol: float = 1e-10) -> np.ndarray:
    """Frobenius-nearest PSD matrix (eigenvalue clamp at zero)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if np.abs(M - M.T).max() > sym_tol:
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh((M + M.T) / 2)
    out = (v * w.clip(min=0.0)) @ v.T
    return (out + out.T) / 2


# ---------------------------------------------------------------------------
# Class-space machinery
# ---------------------------------------------------------------------------

def _eliminate(starts: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               b: np.ndarray, n: int):
    """Gaussian elimination of R y = b in n unknowns, R given as flat
    (starts, cols, vals) rows, on one sparse map (column -> coefficient)
    per row.

    The next pivot row is the one with the fewest nonzeros; its pivot is,
    among the columns whose coefficient is at least a tenth of the row's
    largest, the one in the fewest remaining rows (threshold pivoting as
    in Duff, Erisman & Reid, *Direct Methods for Sparse Matrices*).  Fill
    below the rank tolerance of R is dropped, so a dependent row ends
    empty.  Returns the pivots in elimination order as (column, (columns,
    coefficients) of the rest of its row, rhs), each row scaled to 1 on
    its pivot; the rest holds no column pivoted earlier.
    """
    m = len(starts) - 1
    drop = float(np.abs(vals).max(initial=0.0)) * max(m, n) * np.finfo(float).eps
    bounds, cols, vals = starts.tolist(), cols.tolist(), vals.tolist()
    rows = [dict(zip(cols[a:e], vals[a:e])) for a, e in zip(bounds, bounds[1:])]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    rhs = b.tolist()
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
        r = rhs[i] / scale
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
            rhs[k] -= f * r
            heapq.heappush(heap, (len(rk), k))
        pivots.append((j, (np.fromiter(row.keys(), int, len(row)),
                           np.fromiter(row.values(), float, len(row))), r))
    return pivots


class _ClassSystem:
    """Affine structure of a moment problem in class coordinates."""

    def __init__(self, problem: MomentProblem):
        self.problem = problem
        self.n = problem.dim
        self.k = problem.n_classes
        self.cell_class = problem.cell_class
        self.rows = problem.active_rows
        self.known = np.full(self.k, np.nan)
        self.known[list(problem.pinned)] = list(problem.pinned.values())
        self.contradiction: str | None = None
        self._propagate()
        self.free = np.flatnonzero(np.isnan(self.known))
        # the position of every class among the free ones, -1 if known
        self.free_pos = np.full(self.k, -1)
        self.free_pos[self.free] = np.arange(len(self.free))
        # set by factor_rows: the pending rows over the free classes as
        # flat (starts, free positions, coefficients), with R y = b, a
        # solution of R y = b and a basis of ker R
        self.R: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.b: np.ndarray | None = None
        self.y0: np.ndarray | None = None
        self.N: np.ndarray | None = None

    # -- presolve ------------------------------------------------------------

    def _propagate(self) -> None:
        """Propagate the known values through the rows, in rounds over the
        rows still active until a round sets nothing.  A round checks the
        rows with no unknown class (and those whose one unknown has
        coefficient 0) and solves every row with one unknown; when several
        rows solve one class, the first in row order sets it and the
        others are checked in the next round.  The first violated row of
        the first round that has one is the contradiction; else the rows
        still active, in row order, are left in ``_pending``."""
        rows, known = self.rows, self.known
        active = np.arange(len(rows))
        # the entries of the active rows and the position of their row
        cls, coef, at = rows.classes, rows.coeffs, rows.row
        while True:
            m = len(active)
            vals = known[cls]
            unknown = np.isnan(vals)
            n_unknown = np.bincount(at[unknown], minlength=m)
            have = ~unknown
            rest = np.bincount(at[have], weights=coef[have] * vals[have],
                               minlength=m)
            rhs = rows.rhs[active]
            single = np.flatnonzero(unknown & (n_unknown == 1)[at])
            s_row, s_cls, s_coef = at[single], cls[single], coef[single]
            zero = s_coef == 0.0
            checked = n_unknown == 0
            checked[s_row[zero]] = True
            violated = checked & (np.abs(rest - rhs) > LINEAR_TOL)
            if violated.any():
                k = int(violated.argmax())
                self.contradiction = self._row_evidence(
                    int(active[k]), float(rest[k] - rhs[k]))
                break
            s_row, s_cls, s_coef = s_row[~zero], s_cls[~zero], s_coef[~zero]
            solved, first = np.unique(s_cls, return_index=True)
            known[solved] = ((rhs[s_row] - rest[s_row]) / s_coef)[first]
            checked[s_row[first]] = True
            keep = ~checked
            kept = keep[at]
            active = active[keep]
            cls, coef = cls[kept], coef[kept]
            at = (np.cumsum(keep) - 1)[at[kept]]
            if not len(solved):
                break
        self._pending = active

    def _row_evidence(self, r: int, resid: float) -> str:
        from .words import render_word

        rows = self.rows
        e = slice(rows.starts[r], rows.starts[r + 1])
        terms = " + ".join(
            f"{c:g}*G[{render_word(self.problem.representative_key(int(k)))}]"
            f"(={self.known[int(k)]:.6g})"
            for k, c in zip(rows.classes[e], rows.coeffs[e]))
        return (f"violated {rows.families[r]} row: {terms} = {rows.rhs[r]:g} "
                f"(residual {resid:.3e})")

    def _reduced_rows(self):
        """The pending rows over the free classes, as flat (starts, free
        positions, coefficients): per row, its free positions in the order
        the row first names them, with the coefficients of a repeated
        class summed and zero sums dropped; and the rhs less the known
        part."""
        rows, pending = self.rows, self._pending
        is_pending = np.zeros(len(rows), dtype=bool)
        is_pending[pending] = True
        entries = np.flatnonzero(is_pending[rows.row])
        at = (np.cumsum(is_pending) - 1)[rows.row[entries]]
        cls, coef = rows.classes[entries], rows.coeffs[entries]
        vals = self.known[cls]
        unknown = np.isnan(vals)
        have = ~unknown
        b = rows.rhs[pending] - np.bincount(
            at[have], weights=coef[have] * vals[have], minlength=len(pending))
        at, pos, coef = at[unknown], self.free_pos[cls[unknown]], coef[unknown]
        _, first, which = np.unique(at * len(self.free) + pos,
                                    return_index=True, return_inverse=True)
        # (float even when empty, where bincount gives ints)
        summed = np.bincount(which, weights=coef).astype(float, copy=False)
        order = np.argsort(first)
        order = order[summed[order] != 0.0]
        starts = np.concatenate([np.zeros(1, np.intp), np.cumsum(
            np.bincount(at[first[order]], minlength=len(pending)))])
        return (starts, pos[first[order]], summed[order]), b

    # -- geometry ------------------------------------------------------------

    def assemble(self, y_free: np.ndarray) -> np.ndarray:
        y = np.where(np.isnan(self.known), 0.0, self.known)
        y[self.free] = y_free
        return y[self.cell_class]

    def direction(self, d_free: np.ndarray) -> np.ndarray:
        """The matrix of a free-class direction (zero on known classes)."""
        y = np.zeros(self.k)
        y[self.free] = d_free
        return y[self.cell_class]

    def factor_rows(self) -> tuple[bool, str]:
        """Reduce the pending rows to R y = b over the free classes and
        check that it is solvable; keep ``R``, ``b``, ``y0``, the
        minimum-norm solution, and ``N``, an orthonormal basis of ker R.

        Sparse elimination (:func:`_eliminate`) writes every pivot class
        in the remaining free ones.  That gives a basis K of ker R with
        identity rows on the free classes and a solution y_b that is zero
        there; N comes from one thin QR of K, and y0 = y_b - N N'y_b.
        The system is consistent when y0 satisfies the original rows.
        """
        self.R, self.b = self._reduced_rows()
        n = len(self.free)
        pivots = _eliminate(*self.R, self.b, n)
        free = np.setdiff1d(np.arange(n), [j for j, _, _ in pivots])
        K = np.zeros((n, len(free)))
        K[free, np.arange(len(free))] = 1.0
        y = np.zeros(n)
        # a pivot row holds only free classes and classes pivoted after it
        for j, (cols, vals), rhs in reversed(pivots):
            K[j] = -vals @ K[cols]
            y[j] = rhs - vals @ y[cols]
        self.N = np.linalg.qr(K)[0]
        y0 = y - self.N @ (self.N.T @ y)
        starts, cols, vals = self.R
        m = len(self.b)
        resid = np.bincount(np.repeat(np.arange(m), np.diff(starts)),
                            weights=vals * y0[cols], minlength=m) - self.b
        if len(resid):
            worst = int(np.abs(resid).argmax())
            if abs(resid[worst]) > LINEAR_TOL * (1.0 + np.abs(self.b).max()):
                family = self.rows.families[self._pending[worst]]
                return False, (f"linear system inconsistent: {family} row "
                               f"residual {resid[worst]:.3e} after elimination")
        self.y0 = y0
        return True, ""

    # -- interlacing bound -----------------------------------------------------

    def known_submatrix_bound(self) -> tuple[float | None, list[int]]:
        """Min eigenvalue of the largest greedy principal submatrix whose
        entries are all determined; an upper bound on the phase-1 value."""
        kmask = ~np.isnan(self.known)
        cell_known = kmask[self.cell_class]
        order = np.argsort(-cell_known.sum(axis=1))
        chosen: list[int] = []
        # ok[i]: every cell between word i and the chosen words is known
        ok = np.diagonal(cell_known).copy()
        for i in order.tolist():
            if ok[i]:
                chosen.append(i)
                ok &= cell_known[i]
        if not chosen:
            return None, []
        vals = np.where(kmask, self.known, 0.0)
        sub = vals[self.cell_class[np.ix_(chosen, chosen)]]
        return float(np.linalg.eigvalsh((sub + sub.T) / 2).min()), chosen


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def _outcome_feasible(problem, X, t, iters, tol, evidence) -> FeasibilityOutcome:
    """FEASIBLE with witness X when every residual family of X is at most
    10*tol (the projections accept a min eigenvalue down to -10*tol),
    else inconclusive, naming the worst family."""
    rep = check_assignment(problem, MomentAssignment(problem, X))
    family, worst = max(rep.families().items(), key=lambda kv: kv[1])
    if worst > 10 * tol:
        return FeasibilityOutcome(
            "inconclusive", t_star=t, residuals=rep, iterations=iters,
            evidence=f"{evidence}: witness fails the residual gate, {family} "
                     f"residual {worst:.3e} > {10 * tol:.1e}")
    return FeasibilityOutcome("feasible", t_star=t, witness=X, residuals=rep,
                              iterations=iters, evidence=evidence)


@dataclass
class _ReducedLmi:
    """The affine set in the coordinates the interior point works in.

    Free-class values are y = y0 + N z with y0 = ``cs.y0`` and N an
    orthonormal basis of ker R, so X(z) = X(y0) + sum_j z_j B_j.  Every
    matrix of the set vanishes on the common kernel of X(y0) and the B_j
    (the completeness rows make column v equal the sum of the columns
    A_{a|x} v), so X(z) >= 0 iff V' X(z) V >= 0 for V an orthonormal basis
    of the complement, and both have the same nonzero eigenvalues.
    """

    N: np.ndarray
    C: np.ndarray          # V' X(y0) V
    B: np.ndarray          # (p, r, r): V' B_j V


def _interior_fits(cs: _ClassSystem) -> bool:
    """Whether the interior point takes the problem: (p + 1) n^2 bounds
    the entries of its (p, r, r) arrays and of the Gram loop in
    :func:`_reduce`.  Needs ``cs.factor_rows()`` to have run."""
    return (cs.N.shape[1] + 1) * cs.n ** 2 <= INTERIOR_MAX_ENTRIES


def _reduce(cs: _ClassSystem) -> _ReducedLmi:
    """Eliminate the affine constraints and the common kernel.  Needs
    ``cs.factor_rows()`` to have run."""
    N = cs.N
    p = N.shape[1]
    X0 = cs.assemble(cs.y0)
    gram = X0 @ X0
    for j in range(p):
        Bj = cs.direction(N[:, j])
        gram += Bj @ Bj
    # sum of squares: its kernel is the common kernel; the eigenvalues of
    # an exact kernel sit at rounding level, the rest many decades higher
    w, U = np.linalg.eigh(gram)
    V = U[:, w > 1e-10 * w[-1]]
    r = V.shape[1]
    B = np.empty((p, r, r))
    for j in range(p):
        B[j] = V.T @ cs.direction(N[:, j]) @ V
    return _ReducedLmi(N, V.T @ X0 @ V, B)


def _interior_phase1(cs: _ClassSystem, tol: float):
    """max t s.t. V' X(z) V - t*1 >= 0; returns (witness X(z), solver
    result)."""
    red = _reduce(cs)
    p, r = red.B.shape[0], red.C.shape[0]
    A = np.concatenate([-red.B, np.eye(r)[None]])
    b = np.zeros(p + 1)
    b[-1] = 1.0
    res = interior.solve_lmi(red.C, A, b, tol=tol * 1e-2)
    return cs.assemble(cs.y0 + red.N @ res.y[:p]), res


def _affine_projector(cs: _ClassSystem):
    """The Frobenius projection onto the affine set (pins, propagated
    values, reduced rows), as a map of matrices.

    A free class's value fills every cell of the class, so in free-class
    coordinates the Frobenius metric is W = diag(cell counts), and the
    nearest point of y0 + range(N) to the class averages a is
    y0 + N (N'WN)^-1 N'W (a - y0).  Needs ``cs.factor_rows()`` to have run.
    """
    WN = cs.problem.class_counts[cs.free][:, None] * cs.N
    gram = scipy.linalg.cho_factor(cs.N.T @ WN)

    def project(X: np.ndarray) -> np.ndarray:
        a = cs.problem.class_average(X)[cs.free] - cs.y0
        return cs.assemble(cs.y0 + cs.N @ scipy.linalg.cho_solve(gram, WN.T @ a))

    return project


def _dykstra(cs: _ClassSystem, tol: float, max_iter: int):
    """Alternating projections with Dykstra correction between the affine
    set and the PSD cone; returns (witness or None, best min eigenvalue
    seen, iterations).  Needs ``cs.factor_rows()`` to have run."""
    project_affine = _affine_projector(cs)
    X = cs.assemble(cs.y0)
    P = np.zeros_like(X)
    best_t = -np.inf
    for it in range(1, max_iter + 1):
        Y = project_psd(X + P, sym_tol=np.inf)
        P = X + P - Y
        X = project_affine(Y)
        if it % 25 == 0 or it == max_iter:
            lam = float(np.linalg.eigvalsh(X).min())
            best_t = max(best_t, lam)
            if lam >= -10 * tol:
                return X, lam, it
    return None, best_t, max_iter


def propagated_values(problem: MomentProblem) -> tuple[np.ndarray, str | None]:
    """Class values forced by pins plus linear propagation (NaN where
    free), and the first contradiction found, if any."""
    cs = _ClassSystem(problem)
    return cs.known.copy(), cs.contradiction


def solve_feasibility(problem: MomentProblem,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      infeasibility_margin: float = DEFAULT_MARGIN
                      ) -> FeasibilityOutcome:
    """Phase-1 feasibility of a compiled problem.

    The problem's size picks the engine: the interior point when
    :func:`_interior_fits`, else Dykstra projections.  The interior point
    hands over to the projections when it stalls without a verdict;
    ``max_iter`` bounds the projection iterations on either route.
    """
    if (problem.factor_pairs or problem.factor_triples) \
            and not problem.linear_factor_rows:
        raise SdpStructureError(
            "bilinear factorisation families present; linearize or see-saw first")
    cs = _ClassSystem(problem)
    if cs.contradiction is not None:
        return FeasibilityOutcome("infeasible", t_star=-np.inf,
                                  evidence=cs.contradiction)
    # the bound needs only the known values, so it runs before any
    # factorisation of the remaining rows
    bound, chosen = cs.known_submatrix_bound()
    if bound is not None and bound < -infeasibility_margin:
        return FeasibilityOutcome(
            "infeasible", t_star=bound,
            evidence=(f"pinned principal submatrix on {len(chosen)} words has "
                      f"min eigenvalue {bound:.6g} (interlacing bound)"))
    if len(cs.free) == 0:
        X = cs.assemble(np.zeros(0))
        lam = float(np.linalg.eigvalsh(X).min())
        if lam >= -tol:
            return _outcome_feasible(problem, X, lam, 0, tol,
                                     "fully determined by the linear constraints")
        if lam < -infeasibility_margin:
            return FeasibilityOutcome(
                "infeasible", t_star=lam,
                evidence="fully determined matrix is not PSD")
        return FeasibilityOutcome("inconclusive", t_star=lam,
                                  evidence="fully determined, min eigenvalue "
                                           "in the inconclusive band")
    ok, msg = cs.factor_rows()
    if not ok:
        return FeasibilityOutcome("infeasible", t_star=-np.inf, evidence=msg)
    if _interior_fits(cs):
        X, res = _interior_phase1(cs, tol)
        lam = float(np.linalg.eigvalsh(X)[0])
        if lam >= -tol:
            return _outcome_feasible(problem, X, lam, res.iterations, tol,
                                     f"interior point ({res.status})")
        # a nearly feasible dual matrix W bounds t* <= <C, W> + O(residual)
        if res.primal_infeas <= tol:
            if res.primal_obj < -infeasibility_margin:
                return FeasibilityOutcome(
                    "infeasible", t_star=res.primal_obj,
                    iterations=res.iterations,
                    evidence=f"phase-1 optimum {res.primal_obj:.6g} "
                             f"(interior point)")
            if res.status == "optimal":
                return FeasibilityOutcome(
                    "inconclusive", t_star=res.primal_obj,
                    iterations=res.iterations,
                    evidence="phase-1 optimum inside the inconclusive band")
        # the interior point stalled short of a verdict; fall through to
        # projections
    X, t_best, iters = _dykstra(cs, tol, max_iter)
    if X is not None:
        return _outcome_feasible(problem, X, t_best, iters, tol,
                                 "alternating projections")
    return FeasibilityOutcome(
        "inconclusive", t_star=t_best, iterations=iters,
        evidence=(f"projection engine stalled; best phase-1 value reached "
                  f"{t_best:.6g} (lower bound)"))


def maximize_linear(problem: MomentProblem, objective: Mapping[int, float],
                    tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Maximise a linear functional of the moment matrix over the
    feasible set; returns (optimal value, witness matrix).

    Runs the interior point; raises :class:`SdpStructureError` when the
    problem is infeasible by presolve, too large, or the solve does not
    reach ``tol`` in relative gap and infeasibilities.
    """
    cs = _ClassSystem(problem)
    if cs.contradiction is not None:
        raise SdpStructureError(f"infeasible problem: {cs.contradiction}")
    ok, msg = cs.factor_rows()
    if not ok:
        raise SdpStructureError(f"infeasible problem: {msg}")
    if not _interior_fits(cs):
        raise SdpStructureError("problem too large for the interior point")
    red = _reduce(cs)
    c = np.zeros(len(cs.free))
    fixed_part = 0.0
    for cls, co in objective.items():
        if cs.free_pos[cls] >= 0:
            c[cs.free_pos[cls]] += co
        else:
            fixed_part += co * cs.known[cls]
    res = interior.solve_lmi(red.C, -red.B, red.N.T @ c, tol=tol * 1e-2)
    if max(res.rel_gap, res.primal_infeas, res.dual_infeas) > tol:
        raise SdpStructureError(
            f"interior point failed: {res.status} after {res.iterations} "
            f"iterations (relative gap {res.rel_gap:.1e}, infeasibilities "
            f"{res.primal_infeas:.1e} / {res.dual_infeas:.1e})")
    y = cs.y0 + red.N @ res.y
    return fixed_part + float(c @ y), cs.assemble(y)
