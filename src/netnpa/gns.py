"""Finite-dimensional operator reconstruction from moment matrices.

When the numerical ranks of two consecutive-level moment matrices agree
(a rank loop), the matrix is the Gram matrix of a finite family of
vectors on which the letters act by left concatenation.  This module
realises that construction: eigen-decompose the matrix, read off the
Gram vectors, solve for the letter operators on the lower-level span
(the rank loop guarantees it is the whole space), and build the source
projectors rho and sigma as orthogonal projectors onto the spans of the
C-word and A-word vectors.  When the factorisation constraints hold,
those two spans meet only along the state vector and the projectors
multiply to the state; when factorisation fails, the same construction
exposes the failure through rho*sigma != tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .moment import MomentAssignment
from .scenarios import Distribution, Scenario
from .words import render_letter


# an eigenvalue above RANK_REL_TOL * max eigenvalue counts towards the rank
RANK_REL_TOL = 1e-8
# the largest residual of a letter's action on the lower-level span
OPERATOR_TOL = 1e-6
# Gram-Schmidt drops a vector whose remainder has a smaller norm
DROP_TOL = 1e-8


class GnsError(ValueError):
    pass


@dataclass
class RankReport:
    rank_prev: int
    rank_cur: int
    spectrum_prev: np.ndarray
    spectrum_cur: np.ndarray

    @property
    def loop(self) -> bool:
        return self.rank_prev == self.rank_cur

    def __str__(self) -> str:
        return (f"rank({self.rank_prev}) -> rank({self.rank_cur}): "
                f"{'rank loop' if self.loop else 'no loop'} "
                f"(threshold {RANK_REL_TOL:g} * max eigenvalue)")


def _num_rank(mat: np.ndarray) -> tuple[int, np.ndarray]:
    w = np.linalg.eigvalsh((mat + mat.T) / 2)
    wmax = max(float(w.max()), 0.0)
    if wmax == 0.0:
        return 0, w
    return int((w > RANK_REL_TOL * wmax).sum()), w


def rank_loop_check(g_prev: MomentAssignment, g_cur: MomentAssignment) -> RankReport:
    """Compare numerical ranks of consecutive-level moment matrices.

    ``g_prev`` must be the principal submatrix of ``g_cur`` on the words
    of the lower level (same scenario and hierarchy, level n-1).
    """
    p_prev, p_cur = g_prev.problem, g_cur.problem
    np_prev = p_prev.dim
    if p_prev.index != p_cur.index[:np_prev]:
        raise GnsError("lower-level index is not a prefix of the higher one")
    sub = g_cur.matrix[:np_prev, :np_prev]
    if np.abs(sub - g_prev.matrix).max() > 1e-10:
        raise GnsError("matrices disagree on the common principal submatrix")
    r_prev, w_prev = _num_rank(g_prev.matrix)
    r_cur, w_cur = _num_rank(g_cur.matrix)
    return RankReport(r_prev, r_cur, w_prev, w_cur)


@dataclass
class GnsModel:
    scenario: Scenario
    dimension: int
    basis: np.ndarray                       # (d, N) columns |phi_w>
    operators: dict[tuple[str, int, int], np.ndarray]
    state_vector: np.ndarray
    tau: np.ndarray
    rho: np.ndarray | None
    sigma: np.ndarray | None
    row_family: list[np.ndarray] = field(default_factory=list)   # |v^{i0}>, A-words
    col_family: list[np.ndarray] = field(default_factory=list)   # |v^{0j}>, C-words

    def operator(self, party: str, x: int, o: int) -> np.ndarray:
        return self.operators[(party, x, o)]

    def family_overlap(self) -> float:
        """max |<v^{i0} | v^{0j}>| over i, j >= 1 (both exclude the state)."""
        worst = 0.0
        for vr in self.row_family[1:]:
            for vc in self.col_family[1:]:
                worst = max(worst, abs(float(np.dot(vr, vc))))
        return worst


def _gram_schmidt(columns: np.ndarray) -> list[np.ndarray]:
    basis: list[np.ndarray] = []
    for k in range(columns.shape[1]):
        v = columns[:, k].copy()
        for b in basis:
            v -= np.dot(b, v) * b
        nrm = np.linalg.norm(v)
        if nrm > DROP_TOL:
            basis.append(v / nrm)
    return basis


def reconstruct(g: MomentAssignment) -> GnsModel:
    """Recover an explicit operator model from a rank-looped moment matrix.

    The assignment must be PSD within tolerance and exhibit a rank loop
    against its own lower level (checked internally); the problem must be
    standard, factorisation-bilocal or scalar-extension (rho/sigma are
    built on the bilocal topology only).

    Where each letter sends each lower-level word, and which words are
    party-pure A or C words, depends only on the problem, so it is read
    from :attr:`MomentProblem.letter_action`, built on the first
    reconstruction and shared by every copy of the problem; per
    assignment only the linear algebra runs.
    """
    problem = g.problem
    if problem.hierarchy not in ("standard_npa", "factorisation_bilocal",
                                 "scalar_extension"):
        raise GnsError(f"no reconstruction for hierarchy {problem.hierarchy}")
    X = (g.matrix + g.matrix.T) / 2
    w, v = np.linalg.eigh(X)
    wmax = float(w.max())
    if wmax <= 0 or w.min() < -max(RANK_REL_TOL * wmax, 1e-10):
        raise GnsError(f"matrix is not PSD within tolerance "
                       f"(min eigenvalue {w.min():.3e})")
    action = problem.letter_action
    prev_count = action.prev_count
    r_prev, _ = _num_rank(X[:prev_count, :prev_count])
    keep = w > RANK_REL_TOL * wmax
    d = int(keep.sum())
    if r_prev != d:
        raise GnsError(f"no rank loop: rank {r_prev} at level {problem.n - 1} "
                       f"vs {d} at level {problem.n}")
    basis = (v[:, keep] * np.sqrt(w[keep])).T     # (d, N)
    prefix = basis[:, :prev_count]
    prefix_pinv = np.linalg.pinv(prefix, rcond=1e-12)
    operators: dict[tuple[str, int, int], np.ndarray] = {}
    for l, cols in zip(problem.alphabet.letters, action.targets):
        targets = np.ascontiguousarray(basis[:, cols])
        op = targets @ prefix_pinv
        resid = np.abs(op @ prefix - targets).max()
        if resid > OPERATOR_TOL:
            raise GnsError(f"letter {render_letter(l)} does not act "
                           f"consistently (residual {resid:.3e})")
        operators[(l.party, l.input, l.output)] = (op + op.T) / 2
    state = basis[:, 0]
    tau = np.outer(state, state)
    rho = sigma = None
    row_family: list[np.ndarray] = []
    col_family: list[np.ndarray] = []
    if problem.scenario.topology == "bilocal":
        row_family = _gram_schmidt(basis[:, action.a_cols])
        col_family = _gram_schmidt(basis[:, action.c_cols])
        sigma = sum(np.outer(b, b) for b in row_family)
        rho = sum(np.outer(b, b) for b in col_family)
    return GnsModel(scenario=problem.scenario, dimension=d, basis=basis,
                    operators=operators, state_vector=state, tau=tau,
                    rho=rho, sigma=sigma, row_family=row_family,
                    col_family=col_family)


@dataclass
class ModelResiduals:
    projectivity: float
    completeness: float
    cross_commutators: float
    state_commutators: float      # [A, sigma] and [rho, C]
    rho_sigma_product: float      # ||rho sigma - tau||, ||sigma rho - tau||
    rho_sigma_projector: float    # ||rho^2-rho||, ||sigma^2-sigma||
    tau_trace: float
    tau_purity: float
    gram: float
    family_overlap: float

    def as_dict(self) -> dict[str, float]:
        return dict(self.__dict__)

    def max_residual(self) -> float:
        return max(self.as_dict().values())

    def __str__(self) -> str:
        return "model residuals:\n" + "\n".join(
            f"  {k:<20} {v: .3e}" for k, v in self.as_dict().items())


def verify_model(model: GnsModel, g: MomentAssignment | None = None) -> ModelResiduals:
    """Residuals of every defining property of a commutator bilocal model."""
    sc = model.scenario
    ops = model.operators
    proj = 0.0
    comp = 0.0
    d = model.dimension
    for p_idx, party in enumerate(sc.parties):
        for x in range(sc.inputs[p_idx]):
            total = np.zeros((d, d))
            for o in range(sc.outputs[p_idx]):
                op = ops[(party, x, o)]
                proj = max(proj, float(np.abs(op @ op - op).max()),
                           float(np.abs(op - op.T).max()))
                total += op
            comp = max(comp, float(np.abs(total - np.eye(d)).max()))
    cross = 0.0
    parties = sc.parties
    items = sorted(ops)
    for k1, (pa, xa, oa) in enumerate(items):
        for pb, xb, ob in items[k1 + 1:]:
            if pa == pb:
                continue
            A, B = ops[(pa, xa, oa)], ops[(pb, xb, ob)]
            cross = max(cross, float(np.abs(A @ B - B @ A).max()))
    state_comm = 0.0
    rs_prod = 0.0
    rs_proj = 0.0
    if model.rho is not None and model.sigma is not None:
        rho, sigma, tau = model.rho, model.sigma, model.tau
        for (party, x, o), op in ops.items():
            if party == "A":
                state_comm = max(state_comm,
                                 float(np.abs(op @ sigma - sigma @ op).max()))
            if party == "C":
                state_comm = max(state_comm,
                                 float(np.abs(rho @ op - op @ rho).max()))
        rs_prod = max(float(np.abs(rho @ sigma - tau).max()),
                      float(np.abs(sigma @ rho - tau).max()))
        rs_proj = max(float(np.abs(rho @ rho - rho).max()),
                      float(np.abs(sigma @ sigma - sigma).max()))
    tau_trace = abs(float(np.trace(model.tau)) - 1.0)
    tau_purity = float(np.abs(model.tau @ model.tau - model.tau).max())
    gram = 0.0
    if g is not None:
        gram = float(np.abs(model.basis.T @ model.basis - g.matrix).max())
    return ModelResiduals(
        projectivity=proj, completeness=comp, cross_commutators=cross,
        state_commutators=state_comm, rho_sigma_product=rs_prod,
        rho_sigma_projector=rs_proj, tau_trace=tau_trace,
        tau_purity=tau_purity, gram=gram,
        family_overlap=model.family_overlap())


def evaluate(model: GnsModel) -> Distribution:
    """Born evaluation of the reconstructed model."""
    sc = model.scenario
    table = np.zeros(sc.outputs + sc.inputs)
    psi = model.state_vector
    for ins in np.ndindex(*sc.inputs):
        for outs in np.ndindex(*sc.outputs):
            vec = psi
            for p_idx in reversed(range(len(sc.parties))):
                vec = model.operators[(sc.parties[p_idx], ins[p_idx],
                                       outs[p_idx])] @ vec
            table[tuple(outs) + tuple(ins)] = float(np.dot(psi, vec))
    return Distribution(sc, table)


def model_dump(model: GnsModel, residuals: ModelResiduals) -> str:
    """Textual snapshot, to 6 decimals, for regression tests."""
    lines = [f"dimension: {model.dimension}",
             f"parties: {' '.join(model.scenario.parties)}"]
    with np.printoptions(precision=6, suppress=True):
        for key in sorted(model.operators):
            lines.append(f"operator {key}:")
            lines.append(str(np.round(model.operators[key], 6)))
        if model.rho is not None:
            lines.append("rho:")
            lines.append(str(np.round(model.rho, 6)))
            lines.append("sigma:")
            lines.append(str(np.round(model.sigma, 6)))
    lines.append(str(residuals))
    return "\n".join(lines)
