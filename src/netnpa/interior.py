"""Primal-dual path-following interior point for small dense SDPs.

Solves the pair

    (P)  min <C, X>   s.t. <A_i, X> = b_i (i = 1..m),  X >= 0
    (D)  max b'y      s.t. S = C - sum_i y_i A_i >= 0

with symmetric r x r data that is block-diagonal, with blocks of sizes
r_1, ..., r_B (one block is the dense case), from the infeasible start
X = xi*I, S = eta*I, y = 0; X and S keep the blocks throughout.  Each
iteration takes one HKM search direction (Helmberg, Rendl, Vanderbei and
Wolkowicz 1996) with Mehrotra's predictor-corrector, as in SDPT3 (Todd,
Toh and Tütüncü 1998).  The Schur complement
M_ij = <A_i, X A_j S^-1> is formed as the Gram matrix of
T_i = L_S^-1 A_i L_X, where X = L_X L_X' and S = L_S L_S', so it is the
sum over the blocks of each block's Gram matrix, and an iteration costs
O(m^2 sum_b r_b^2 + m sum_b r_b^3) rather than O(m^2 r^2 + m r^3).

The solver is dense within each block and meant for the reduced problems
of ``sdp``, which are small after the affine and structural-kernel
eliminations and split further into copy-symmetry blocks.  It does
not raise on numerical breakdown: a failed factorisation ends the run with
status ``stalled`` and the last iterate's y, which callers check on their
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg


@dataclass
class LmiResult:
    status: str                # optimal | stalled | max_iter
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
    return (M + M.T) / 2


def _flat(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The entries of the blocks, block after block."""
    return np.concatenate([B.reshape(-1) for B in blocks])


def _max_step(L_inv: np.ndarray, D: np.ndarray) -> float:
    """Largest a with L L' + a*D >= 0 (inf when D is PSD), for the
    inverse ``L_inv`` of the Cholesky factor L."""
    lam = float(np.linalg.eigvalsh(_sym(L_inv @ D @ L_inv.T))[0])
    return -1.0 / lam if lam < 0 else np.inf


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular matrix."""
    return scipy.linalg.solve_triangular(L, np.eye(len(L)), lower=True)


def solve_lmi(blocks: Sequence[tuple[np.ndarray, np.ndarray]], b: np.ndarray,
              tol: float = 1e-9, max_iter: int = 100) -> LmiResult:
    """Solve (P)/(D) above for block-diagonal data.

    ``blocks`` holds one (C_b, A_b) per diagonal block, C_b of shape
    (r_b, r_b) and A_b of shape (m, r_b, r_b); C and every A_i are the
    block-diagonal matrices they form, and X and S keep the same blocks.
    The Schur complement is the sum over the blocks of T_b T_b', step
    lengths are the least over the blocks, and inner products sum over
    them.  Stops when the relative gap and both relative infeasibilities
    are below ``tol``.
    """
    m = len(b)
    sizes = [C.shape[0] for C, _ in blocks]
    bounds = np.cumsum([0] + [k * k for k in sizes])
    r = sum(sizes)
    Cs = [C for C, _ in blocks]
    As = [A for _, A in blocks]
    # the A_i and C as rows of their blocks' entries, block after block
    Af = np.hstack([A.reshape(m, -1) for A in As])
    c = _flat(Cs)

    def unflat(v: np.ndarray) -> list[np.ndarray]:
        return [v[a:e].reshape(k, k) for a, e, k in zip(bounds, bounds[1:], sizes)]

    norm_b, norm_c = np.linalg.norm(b), np.linalg.norm(c)
    norm_a = np.linalg.norm(Af, axis=1)
    xi = max(10.0, np.sqrt(r),
             r * float(np.max((1 + np.abs(b)) / (1 + norm_a), initial=0.0)))
    eta = max(10.0, np.sqrt(r), norm_c, float(np.max(norm_a, initial=0.0)))
    X = [xi * np.eye(k) for k in sizes]
    S = [eta * np.eye(k) for k in sizes]
    y = np.zeros(m)

    def result(status: str, it: int) -> LmiResult:
        return LmiResult(status, y, float(c @ _flat(X)), float(b @ y),
                         float(np.linalg.norm(rp) / (1 + norm_b)),
                         float(np.linalg.norm(_flat(Rd)) / (1 + norm_c)), it)

    for it in range(max_iter + 1):
        rp = b - Af @ _flat(X)
        Rd = [Cb - Sb - Ab for Cb, Sb, Ab in zip(Cs, S, unflat(y @ Af))]
        res = result("optimal", it)
        if max(res.rel_gap, res.primal_infeas, res.dual_infeas) <= tol:
            return res
        if it == max_iter:
            return result("max_iter", it)
        try:
            Lx = [np.linalg.cholesky(Xb) for Xb in X]
            Ls_inv = [_tri_inv(np.linalg.cholesky(Sb)) for Sb in S]
            schur = np.zeros((m, m))
            for Li, A, L in zip(Ls_inv, As, Lx):
                T = (Li @ A @ L).reshape(m, -1)
                schur += T @ T.T
            schur = scipy.linalg.cho_factor(schur)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            return result("stalled", it)
        S_inv = [Li.T @ Li for Li in Ls_inv]
        XRdSi = _flat([Xb @ Rb @ Si for Xb, Rb, Si in zip(X, Rd, S_inv)])

        def direction(G):
            # HKM: dX = G - sym(X dS S^-1), dS = Rd - A'(dy), A(dX) = rp
            dy = scipy.linalg.cho_solve(schur, rp - Af @ _flat(G) + Af @ XRdSi)
            dS = [Rb - Ab for Rb, Ab in zip(Rd, unflat(dy @ Af))]
            dX = [Gb - _sym(Xb @ dSb @ Si)
                  for Gb, Xb, dSb, Si in zip(G, X, dS, S_inv)]
            return dX, dy, dS

        Lx_inv = [_tri_inv(L) for L in Lx]

        def step(L_invs, D):
            return min(_max_step(Li, Db) for Li, Db in zip(L_invs, D))

        mu = float(_flat(X) @ _flat(S)) / r
        dX, dy, dS = direction([-Xb for Xb in X])
        ap = min(1.0, step(Lx_inv, dX))
        ad = min(1.0, step(Ls_inv, dS))
        mu_aff = float(_flat([Xb + ap * d for Xb, d in zip(X, dX)])
                       @ _flat([Sb + ad * d for Sb, d in zip(S, dS)])) / r
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        G = [sigma * mu * Si - Xb - _sym(dXb @ dSb @ Si)
             for Si, Xb, dXb, dSb in zip(S_inv, X, dX, dS)]
        gamma = 0.9 + 0.09 * min(ap, ad)
        dX, dy, dS = direction(G)
        ap = min(1.0, gamma * step(Lx_inv, dX))
        ad = min(1.0, gamma * step(Ls_inv, dS))
        X = [_sym(Xb + ap * d) for Xb, d in zip(X, dX)]
        y = y + ad * dy
        S = [_sym(Sb + ad * d) for Sb, d in zip(S, dS)]
