"""Primal-dual path-following interior point for small dense SDPs.

Solves the pair

    (P)  min <C, X>   s.t. <A_i, X> = b_i (i = 1..m),  X >= 0
    (D)  max b'y      s.t. S = C - sum_i y_i A_i >= 0

with symmetric r x r data that is block-diagonal, with blocks of sizes
r_1, ..., r_B (one block is the dense case); X and S keep the blocks
throughout.  It starts either from X = xi*I, S = eta*I, y = 0 (an
infeasible start) or from a caller's y with S = C - A'(y) positive
definite, which is dual feasible: the dual residual then stays zero up to
rounding, and no iteration is spent removing it.  From a caller's y, X
starts at S^-1 / tr S^-1, so X S = I / tr S^-1 lies on the central path
and the trace-one row of a phase-1 problem holds at once.  Each
iteration takes one HKM search direction (Helmberg, Rendl, Vanderbei and
Wolkowicz 1996) with Mehrotra's predictor-corrector, as in SDPT3 (Todd,
Toh and Tütüncü 1998).  The Schur complement M_ij = <A_i, X A_j S^-1> is
formed as the Gram matrix of T_i = L_S^-1 A_i L_X, where X = L_X L_X' and
S = L_S L_S', so it is the sum over the blocks of each block's Gram
matrix, and an iteration costs O(m^2 sum_b r_b^2 + m sum_b r_b^3) rather
than O(m^2 r^2 + m r^3).

The blocks run from 6 x 6 to 124 x 124 on the full inflation problems
(the largest on triangle inflation (2,3)), and from 1 x 1 on a problem
restricted to a table's output-flip stabiliser (triangle inflation (2,2)
on the table 0.47 * shared random bit + 0.53 * uniform, whose stabiliser
has order 2, has 15 blocks of sizes 1 to 16).  Most are small, where the
cost of a call outweighs its arithmetic, so the caller hands the blocks of
equal size over as one (n, k, k) stack, in the layout that
``moment.CopyBlocks.stacks`` decides, and the solver keeps it: each size
takes one product chain and one T T' for its share of the Schur
complement and one batched ``eigvalsh`` per step length.  The Cholesky
factors of every size, 1 x 1 included, come from LAPACK directly, one
matrix at a time.

The solver is dense within each block and meant for the reduced problems
of ``sdp``, which are small after the affine and structural-kernel
eliminations and split further into copy-symmetry blocks.  Near an
optimum whose dual solution is not unique, the Schur complement has
directions of size O(mu) against O(1/mu), and rounding can leave it
indefinite; it is then factored with the least diagonal shift that
works, and each solve with that factor takes one refinement step.  There
rounding can also leave a new iterate's X or S without a Cholesky
factor; that step is retried once at half its lengths.  It does not
raise on numerical breakdown: a failed factorisation ends the run with
status ``stalled`` and the last iterate's y, which callers check on
their own.  A phase-1 caller, whose last row is the identity and whose
objective is its multiplier t, needs only a dual point good enough for
its purpose: it passes ``stop``, and the run ends (status ``target``) at
the first iterate where t + lambda_min(S) reaches it, since C - A'(y)
without the t row is then S + t*1, at least ``stop`` on every block.
scipy is imported on the first solve, not with the module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

MAX_ITER = 100


@dataclass
class LmiResult:
    status: str                # optimal | target | stalled | max_iter
    y: np.ndarray
    primal_obj: float          # <C, X>
    dual_obj: float            # b'y
    primal_infeas: float       # |b - A(X)| / (1 + |b|)
    dual_infeas: float         # |C - S - A'(y)| / (1 + |C|)
    iterations: int

    @property
    def rel_gap(self) -> float:
        return (abs(self.primal_obj - self.dual_obj)
                / (1.0 + abs(self.primal_obj) + abs(self.dual_obj)))


def _sym(M: np.ndarray) -> np.ndarray:
    """The symmetric part of every matrix of a stack."""
    return (M + np.swapaxes(M, -1, -2)) / 2


def _flat(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """The entries of the stacks, stack after stack."""
    return np.concatenate([M.reshape(-1) for M in stacks])


def _steps(L_inv: Sequence[np.ndarray], dX: Sequence[np.ndarray],
           dS: Sequence[np.ndarray]) -> tuple[float, float]:
    """The largest a_p and a_d with X + a_p*dX >= 0 and S + a_d*dS >= 0 on
    every block (inf where there is no bound), for the inverses ``L_inv``
    of the Cholesky factors of the stacks [X_g; S_g]: one ``eigvalsh`` per
    size."""
    lam = [0.0, 0.0]
    for Li, dXg, dSg in zip(L_inv, dX, dS):
        W = Li @ np.concatenate([dXg, dSg]) @ np.swapaxes(Li, 1, 2)
        low = np.linalg.eigvalsh(_sym(W))[:, 0]
        n = len(dXg)
        lam = [min(lam[0], low[:n].min()), min(lam[1], low[n:].min())]
    return tuple(-1.0 / v if v < 0 else np.inf for v in lam)


def _cholesky(stacks: Iterable[np.ndarray], lapack) -> list | None:
    """For each stack of symmetric matrices, the pair (the Cholesky factors
    L of its matrices, their inverses), or None when one matrix is not
    positive definite.  Every stack, whatever its block size, is factored
    by LAPACK (``dpotrf``, ``dtrtri``), one matrix at a time."""
    out = []
    for stack in stacks:
        L = np.empty_like(stack)
        L_inv = np.empty_like(stack)
        for i, M in enumerate(stack):
            F, info = lapack.dpotrf(M, lower=1)
            if info:
                return None
            L[i] = F
            L_inv[i], info = lapack.dtrtri(F, lower=1)
            if info:
                return None
        out.append((L, L_inv))
    return out


def _shifted_cholesky(M: np.ndarray, lapack) -> tuple[np.ndarray, float] | None:
    """The lower Cholesky factor of M + d*I and d, for the least d in 0,
    eps*max(diag M)*10^k (k = 0..7) that makes it positive definite
    (Nocedal and Wright, "Numerical Optimization", Algorithm 3.3)."""
    top = float(np.diagonal(M).max(initial=0.0))
    for shift in [0.0] + [np.finfo(float).eps * top * 10 ** k for k in range(8)]:
        L, info = lapack.dpotrf(M + shift * np.eye(len(M)), lower=1)
        if not info and np.isfinite(L).all():
            return L, shift
    return None


def solve_lmi(C: Sequence[np.ndarray], A: np.ndarray, b: np.ndarray,
              tol: float = 1e-9, start: np.ndarray | None = None,
              stop: float | None = None) -> LmiResult:
    """Solve (P)/(D) above for block-diagonal data.

    ``C`` holds the blocks as stacks, one (n, k, k) stack of the n blocks
    of each size k, as ``moment.CopyBlocks.congruences`` lays them out,
    and row i of ``A`` holds the blocks of A_i in the same order, stack
    after stack, each stack's n k^2 entries C-ordered; both are read in
    place.  C and every A_i are the block-diagonal matrices they form, and
    X and S keep the same stacks.  The Schur complement is the sum over
    the blocks of T_b T_b', step lengths are the least over the blocks,
    and inner products sum over them.  ``start``, when given, is the
    first y; C - A'(start) must be positive definite, else
    ``ValueError``.  Stops when the relative gap and both relative
    infeasibilities are below ``tol`` (status ``optimal``), or at
    ``MAX_ITER``.  ``stop`` is for a phase-1 problem
    from a ``start``: b = e_m, and A_m = I, whose multiplier y_m is the
    phase-1 t.  From a ``start`` every iterate keeps S = C - A'(y)
    positive definite, and the matrix C - sum_{i<m} y_i A_i = S + y_m*1
    has least eigenvalue y_m + lambda_min(S).  So with ``stop`` it also
    stops, with status ``target``, at the first iterate where y_m +
    lambda_min(S) >= ``stop``, and returns y with y_m raised by
    lambda_min(S): a dual feasible point with b'y >= ``stop``, whatever
    the gap left.  The ``eigvalsh`` of S runs only when y_m + min diag(S)
    reaches ``stop``, since lambda_min(S) <= min diag(S).  A solve that
    never reaches ``stop`` runs exactly as one without it.
    """
    from scipy.linalg import lapack

    r = sum(Cg.shape[0] * Cg.shape[1] for Cg in C)
    bounds = np.cumsum([0] + [Cg.size for Cg in C])

    def split(M: np.ndarray) -> list[np.ndarray]:
        """Views of the stacks' columns of M as stacks (..., n, k, k)."""
        return [M[..., a:e].reshape(M.shape[:-1] + Cg.shape)
                for Cg, a, e in zip(C, bounds, bounds[1:])]

    # the rows T_i of T, laid out as those of A, give the Schur complement
    # T T'; each size's products are written into its view of T
    T = np.empty_like(A)
    As, Ts = split(A), split(T)
    c = _flat(C)

    def eye(scale: float) -> list[np.ndarray]:
        return [np.zeros_like(Cg) + scale * np.eye(Cg.shape[1]) for Cg in C]

    norm_b, norm_c = np.linalg.norm(b), np.linalg.norm(c)
    if start is None:
        norm_a = np.linalg.norm(A, axis=1)
        xi = max(10.0, np.sqrt(r),
                 r * float(np.max((1 + np.abs(b)) / (1 + norm_a), initial=0.0)))
        eta = max(10.0, np.sqrt(r), norm_c, float(np.max(norm_a, initial=0.0)))
        X, S = eye(xi), eye(eta)
        y = np.zeros(len(b))
    else:
        y = np.array(start, dtype=float)
        S = [_sym(Cg - Ay) for Cg, Ay in zip(C, split(y @ A))]
        factors = _cholesky(S, lapack)
        if factors is None:
            raise ValueError("start: C - A'(y) is not positive definite")
        # X S = I / tr S^-1: on the central path, at trace one
        S_inv = [_sym(np.swapaxes(Li, 1, 2) @ Li) for _, Li in factors]
        trace = sum(float(np.trace(Si, axis1=1, axis2=2).sum()) for Si in S_inv)
        X = [Si / trace for Si in S_inv]

    def result(status: str, it: int) -> LmiResult:
        return LmiResult(status, y, float(c @ _flat(X)), float(b @ y),
                         float(np.linalg.norm(rp) / (1 + norm_b)),
                         float(np.linalg.norm(_flat(Rd)) / (1 + norm_c)), it)

    # X_g and S_g factored as one stack [X_g; S_g] per size
    factors = _cholesky(map(np.concatenate, zip(X, S)), lapack)
    for it in range(MAX_ITER + 1):
        rp = b - A @ _flat(X)
        Rd = [Cg - Sg - Ay for Cg, Sg, Ay in zip(C, S, split(y @ A))]
        res = result("optimal", it)
        if max(res.rel_gap, res.primal_infeas, res.dual_infeas) <= tol:
            return res
        # lambda_min(S) <= min diag(S), so a reject skips the eigvalsh
        if (stop is not None and y[-1] + min(
                np.diagonal(Sg, axis1=1, axis2=2).min() for Sg in S) >= stop):
            low = min(np.linalg.eigvalsh(Sg)[:, 0].min() for Sg in S)
            if y[-1] + low >= stop:
                raised = y.copy()
                raised[-1] += low
                return replace(res, status="target", y=raised,
                               dual_obj=float(b @ raised))
        if it == MAX_ITER:
            return result("max_iter", it)
        if factors is None:
            return result("stalled", it)
        L_inv = [Li for _, Li in factors]
        Lx = [L[:len(Xg)] for (L, _), Xg in zip(factors, X)]
        Ls_inv = [Li[len(Xg):] for Li, Xg in zip(L_inv, X)]
        for Li, Ag, L, Tg in zip(Ls_inv, As, Lx, Ts):
            np.matmul(Li @ Ag, L, out=Tg)
        M = T @ T.T
        factor = _shifted_cholesky(M, lapack)
        if factor is None:
            return result("stalled", it)
        schur, shift = factor
        S_inv = [np.swapaxes(Li, 1, 2) @ Li for Li in Ls_inv]
        rhs = rp + A @ _flat([Xg @ Rg @ Si for Xg, Rg, Si in zip(X, Rd, S_inv)])

        def direction(G):
            # HKM: dX = G - sym(X dS S^-1), dS = Rd - A'(dy), A(dX) = rp
            v = rhs - A @ _flat(G)
            dy, info = lapack.dpotrs(schur, v, lower=1)
            if info:
                raise ValueError(f"dpotrs: illegal argument {-info}")
            if shift:
                dy += lapack.dpotrs(schur, v - M @ dy, lower=1)[0]
            dS = [Rg - Ay for Rg, Ay in zip(Rd, split(dy @ A))]
            dX = [Gg - _sym(Xg @ dSg @ Si)
                  for Gg, Xg, dSg, Si in zip(G, X, dS, S_inv)]
            return dX, dy, dS

        mu = float(_flat(X) @ _flat(S)) / r
        dX, dy, dS = direction([-Xg for Xg in X])
        ap, ad = (min(1.0, a) for a in _steps(L_inv, dX, dS))
        mu_aff = float(_flat([Xg + ap * d for Xg, d in zip(X, dX)])
                       @ _flat([Sg + ad * d for Sg, d in zip(S, dS)])) / r
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        G = [sigma * mu * Si - Xg - _sym(dXg @ dSg @ Si)
             for Si, Xg, dXg, dSg in zip(S_inv, X, dX, dS)]
        gamma = 0.9 + 0.09 * min(ap, ad)
        dX, dy, dS = direction(G)
        ap, ad = (min(1.0, gamma * a) for a in _steps(L_inv, dX, dS))
        # a step to an iterate that rounding left without a Cholesky factor
        # is retried once at half its lengths
        for scale in (1.0, 0.5):
            X_new = [_sym(Xg + scale * ap * d) for Xg, d in zip(X, dX)]
            S_new = [_sym(Sg + scale * ad * d) for Sg, d in zip(S, dS)]
            factors = _cholesky(map(np.concatenate, zip(X_new, S_new)), lapack)
            if factors is not None:
                break
        X, S, y = X_new, S_new, y + scale * ad * dy
