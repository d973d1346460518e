"""Network scenarios, distributions, and explicit quantum strategies.

A scenario is a network topology (which parties share which sources)
plus input/output cardinalities.  Strategies are dense-matrix quantum
models; they serve as ground-truth oracles: ``born_eval`` produces the
distribution, and the oracle classes evaluate Tr(tau * w) for arbitrary
words, including inflated words over copied sources.

Everything is desk scale.  :class:`MomentOracle` acts by dense matrices
on the strategy's global space.  :class:`InflatedBilocalOracle` acts on
state tensors with two leg axes per source copy, laid out by
``TENSOR_BILOCAL_SLOTS``; its Gram matrix runs on all copies at once, up
to ``DENSE_INFLATION_DIM`` amplitudes.

:func:`components` is the package's one connected-components routine: it
joins a moment problem's classes and splits the words of the pin plan
and of :class:`InflatedBilocalOracle` into components of source copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .words import (
    Alphabet,
    Letter,
    MEASUREMENT,
    Word,
    enumerate_words,
    scalar_letter,
    word,
)

ATOL_TABLE = 1e-12
ATOL_STRATEGY = 1e-10
# how far a marginal may move with a dropped party's input (no-signalling)
SIGNALLING_TOL = 1e-9
# the party whose words the scalar-extension symbols abbreviate
SCALAR_PARTY = "A"
# the tensor factors (dA, dBL, dBR, dC) of a tensor_bilocal model that
# each party acts on: factor f is leg f % 2 of source BILOCAL_SOURCES[f // 2],
# so rho is on (A, BL) and sigma on (BR, C)
TENSOR_BILOCAL_SLOTS = {"A": (0,), "B": (1, 2), "C": (3,)}
BILOCAL_SOURCES = ("rho", "sigma")
# the most amplitudes the dense model of an inflated bilocal strategy has
DENSE_INFLATION_DIM = 4096


class ScenarioError(ValueError):
    pass


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def sharing_components(nodes: np.ndarray) -> np.ndarray:
    """The components of items joined when they share a node, e.g. letters
    sharing a (source, copy) pair: row i of ``nodes`` holds the node ids
    of item i, -1 where it has none.  Components are numbered in order of
    their first item."""
    item = np.repeat(np.arange(len(nodes)), nodes.shape[1])
    flat = nodes.reshape(-1)
    order = np.argsort(flat, kind="stable")
    flat, item = flat[order], item[order]
    join = (flat[1:] == flat[:-1]) & (flat[1:] >= 0)
    return components(len(nodes), item[:-1][join], item[1:][join])


class SignallingError(ValueError):
    """A distribution whose marginals depend on other parties' inputs."""


@dataclass(frozen=True)
class Topology:
    parties: tuple[str, ...]
    sources: dict[str, tuple[str, ...]]          # source -> parties it feeds
    party_sources: dict[str, tuple[str, ...]]    # party -> ordered source slots
    factor_pairs: tuple[tuple[str, str], ...]    # party pairs with factorising moments
    factor_triples: tuple[tuple[str, str, str], ...] = ()
    inflatable: bool = False


TOPOLOGIES: dict[str, Topology] = {
    "bell3": Topology(
        parties=("A", "B", "C"),
        sources={"tau": ("A", "B", "C")},
        party_sources={"A": ("tau",), "B": ("tau",), "C": ("tau",)},
        factor_pairs=(),
    ),
    "bilocal": Topology(
        parties=("A", "B", "C"),
        sources={"rho": ("A", "B"), "sigma": ("B", "C")},
        party_sources={"A": ("rho",), "B": ("rho", "sigma"), "C": ("sigma",)},
        factor_pairs=(("A", "C"),),
        inflatable=True,
    ),
    "triangle": Topology(
        parties=("A", "B", "C"),
        sources={"rho": ("A", "B"), "sigma": ("B", "C"), "pi": ("C", "A")},
        party_sources={"A": ("pi", "rho"), "B": ("rho", "sigma"), "C": ("sigma", "pi")},
        factor_pairs=(),
        inflatable=True,
    ),
    "star4": Topology(
        parties=("A", "B", "C", "D"),
        sources={"rho": ("A", "B"), "sigma": ("B", "C"), "pi": ("B", "D")},
        party_sources={
            "A": ("rho",), "B": ("rho", "sigma", "pi"), "C": ("sigma",), "D": ("pi",)},
        factor_pairs=(("A", "C"), ("A", "D"), ("C", "D")),
        factor_triples=(("A", "C", "D"),),
    ),
}


@dataclass(frozen=True)
class Scenario:
    """Topology plus per-party input and output cardinalities."""

    topology: str
    outputs: tuple[int, ...]
    inputs: tuple[int, ...]

    def __post_init__(self) -> None:
        topo = TOPOLOGIES.get(self.topology)
        if topo is None:
            raise ScenarioError(f"unknown topology {self.topology!r}")
        n = len(topo.parties)
        if len(self.outputs) != n or len(self.inputs) != n:
            raise ScenarioError(
                f"{self.topology} has {n} parties; got outputs={self.outputs}, "
                f"inputs={self.inputs}")
        if any(c < 1 for c in self.outputs + self.inputs):
            raise ScenarioError("cardinalities must be >= 1")

    @property
    def topo(self) -> Topology:
        return TOPOLOGIES[self.topology]

    @property
    def parties(self) -> tuple[str, ...]:
        return self.topo.parties

    def party_index(self, party: str) -> int:
        return self.parties.index(party)

    def letters(self, party: str, copies: tuple[int, ...] | None = None) -> list[Letter]:
        """All measurement letters of one party (every outcome is kept)."""
        p = self.party_index(party)
        return [
            Letter(MEASUREMENT, party, output=o, input=x, copies=copies)
            for x in range(self.inputs[p])
            for o in range(self.outputs[p])
        ]

    def alphabet(self) -> Alphabet:
        letters: list[Letter] = []
        for party in self.parties:
            letters.extend(self.letters(party))
        return Alphabet(tuple(letters))

    def inflated_alphabet(self, m: int) -> Alphabet:
        """Letters with one copy index per source slot of their party."""
        if not self.topo.inflatable:
            raise ScenarioError(f"{self.topology} has no inflated alphabet")
        if m < 1:
            raise ScenarioError("inflation order must be >= 1")
        letters: list[Letter] = []
        for party in self.parties:
            nslots = len(self.topo.party_sources[party])
            for copies in np.ndindex(*([m] * nslots)):
                shifted = tuple(int(c) + 1 for c in copies)
                letters.extend(self.letters(party, copies=shifted))
        return Alphabet(tuple(letters), party_sources=dict(self.topo.party_sources))

    def scalar_alphabet(self, bound: int) -> Alphabet:
        """Plain alphabet enlarged by scalar symbols for all nonempty
        ``SCALAR_PARTY`` words of length <= ``bound``, in the order of
        ``enumerate_words``."""
        base = self.alphabet()
        party_only = Alphabet(tuple(l for l in base.letters if l.party == SCALAR_PARTY))
        kappas = [scalar_letter(w) for w in enumerate_words(party_only, bound)
                  if len(w) >= 1]
        return Alphabet(base.letters + tuple(kappas))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass
class Distribution:
    """Conditional probability table q(outputs | inputs) over a scenario."""

    scenario: Scenario
    table: np.ndarray  # shape = outputs + inputs

    def __post_init__(self) -> None:
        expected = self.scenario.outputs + self.scenario.inputs
        self.table = np.asarray(self.table, dtype=float)
        if self.table.shape != expected:
            raise ScenarioError(
                f"table shape {self.table.shape} != outputs+inputs {expected}")
        bad = self.table[~np.isfinite(self.table) | (self.table < -ATOL_TABLE)]
        if bad.size:
            raise ScenarioError(f"negative or non-finite probability {bad[0]:.3e}")
        self.table = self.table.clip(min=0.0)
        n = len(self.scenario.parties)
        sums = self.table.sum(axis=tuple(range(n)))
        bad = np.argwhere(np.abs(sums - 1.0) > ATOL_TABLE)
        if bad.size:
            ins = tuple(int(i) for i in bad[0])
            raise ScenarioError(
                f"outputs do not sum to 1 for inputs {ins}: sum={sums[tuple(bad[0])]!r}")

    def q(self, outs: Sequence[int], ins: Sequence[int]) -> float:
        return float(self.table[tuple(outs) + tuple(ins)])

    def marginal(self, parties: Sequence[str]) -> np.ndarray:
        """Marginal table over a party subset, shape = their outputs + inputs.

        Sums out the other parties' outputs and checks the result does not
        depend on their inputs (no-signalling); raises SignallingError
        naming the offending party and input pair otherwise.
        """
        return self.marginals([parties])[0]

    def marginals(self, subsets: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """:meth:`marginal` of every subset, in order, with the same values
        and the same first SignallingError.

        A party with one input cannot signal: its input axis has spread 0,
        so only the dropped parties with several inputs are checked, and a
        scenario where every party has one input checks nothing.
        """
        sc = self.scenario
        n = len(sc.parties)
        out = []
        for parties in subsets:
            keep = [sc.party_index(p) for p in parties]
            drop = [i for i in range(n) if i not in keep]
            summed = self.table.sum(axis=tuple(drop))  # kept outputs + all inputs
            # move kept input axes to the end, in party order
            order = (list(range(len(keep))) + [len(keep) + i for i in keep]
                     + [len(keep) + i for i in drop])
            arranged = summed.transpose(order)
            out.append(arranged[(Ellipsis,) + (0,) * len(drop)])
            for k, i_drop in enumerate(drop):
                if sc.inputs[i_drop] == 1:
                    continue
                ax = len(keep) * 2 + k
                spread = arranged.max(axis=ax) - arranged.min(axis=ax)
                if spread.max() > SIGNALLING_TOL:
                    # the input of the dropped party deviating most from input 0
                    deviation = np.abs(arranged - arranged.take([0], axis=ax))
                    worst = int(np.moveaxis(deviation, ax, 0)
                                .reshape(sc.inputs[i_drop], -1).max(axis=1).argmax())
                    raise SignallingError(
                        f"marginal over {tuple(parties)} depends on the input of "
                        f"party {sc.parties[i_drop]} (inputs 0 vs {worst}; "
                        f"max deviation {spread.max():.3e})")
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Distribution)
                and self.scenario == other.scenario
                and np.array_equal(self.table, other.table))

    def allclose(self, other: "Distribution", tol: float = 1e-10) -> bool:
        return (self.scenario == other.scenario
                and np.allclose(self.table, other.table, atol=tol))


def shared_random_bit(topology: str = "triangle") -> Distribution:
    """All parties output the same uniform bit; no inputs."""
    sc = Scenario(topology, outputs=(2,) * len(TOPOLOGIES[topology].parties),
                  inputs=(1,) * len(TOPOLOGIES[topology].parties))
    n = len(sc.parties)
    table = np.zeros(sc.outputs + sc.inputs)
    table[(0,) * n + (0,) * n] = 0.5
    table[(1,) * n + (0,) * n] = 0.5
    return Distribution(sc, table)


def point_distribution(scenario: Scenario, outs: Sequence[int]) -> Distribution:
    table = np.zeros(scenario.outputs + scenario.inputs)
    table[tuple(outs)] = 1.0  # broadcast over the input axes
    return Distribution(scenario, table)


def product_distribution(scenario: Scenario,
                         singles: Sequence[np.ndarray]) -> Distribution:
    """q = product of per-party tables p_i(a|x) (shape outputs_i x inputs_i)."""
    n = len(scenario.parties)
    table = np.ones(scenario.outputs + scenario.inputs)
    for i, p in enumerate(singles):
        p = np.asarray(p, dtype=float)
        shape = [1] * (2 * n)
        shape[i] = scenario.outputs[i]
        shape[n + i] = scenario.inputs[i]
        table = table * p.reshape(shape)
    return Distribution(scenario, table)


# --- distribution files -----------------------------------------------------

def write_distribution(dist: Distribution, path: str) -> None:
    sc = dist.scenario
    lines = ["# netnpa distribution v1",
             f"scenario: {sc.topology}",
             "outputs: " + " ".join(str(c) for c in sc.outputs),
             "inputs: " + " ".join(str(c) for c in sc.inputs)]
    n = len(sc.parties)
    for idx in np.ndindex(*dist.table.shape):
        v = dist.table[idx]
        if v != 0.0:
            outs = " ".join(str(i) for i in idx[:n])
            ins = " ".join(str(i) for i in idx[n:])
            lines.append(f"q {outs} | {ins} = {float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_distribution(path: str) -> Distribution:
    header: dict[str, str] = {}
    entries: list[tuple[int, tuple[int, ...], tuple[int, ...], float]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("q "):
                try:
                    lhs, val = line[2:].split("=")
                    outs_s, ins_s = lhs.split("|")
                    outs = tuple(int(t) for t in outs_s.split())
                    ins = tuple(int(t) for t in ins_s.split())
                    entries.append((lineno, outs, ins, float(val)))
                except ValueError as exc:
                    raise ScenarioError(f"{path}:{lineno}: bad entry {line!r}") from exc
            elif ":" in line:
                key, val = line.split(":", 1)
                header[key.strip()] = val.strip()
            else:
                raise ScenarioError(f"{path}:{lineno}: cannot parse {line!r}")
    for key in ("scenario", "outputs", "inputs"):
        if key not in header:
            raise ScenarioError(f"{path}: missing header line {key!r}")
    sc = Scenario(header["scenario"],
                  tuple(int(t) for t in header["outputs"].split()),
                  tuple(int(t) for t in header["inputs"].split()))
    table = np.zeros(sc.outputs + sc.inputs)
    seen: dict[tuple[int, ...], int] = {}
    for lineno, outs, ins, v in entries:
        at = outs + ins
        if (len(outs) != len(sc.parties) or len(ins) != len(sc.parties)
                or not all(0 <= i < d for i, d in zip(at, table.shape))):
            raise ScenarioError(f"{path}:{lineno}: entry {outs} | {ins} is not one output "
                                f"and one input per party in {sc.outputs} | {sc.inputs}")
        if at in seen:
            raise ScenarioError(f"{path}:{lineno}: entry {at} repeats line {seen[at]}")
        seen[at] = lineno
        table[at] = v
    return Distribution(sc, table)


# ---------------------------------------------------------------------------
# Quantum strategies
# ---------------------------------------------------------------------------

@dataclass
class QuantumStrategy:
    """An explicit operator model.

    ``tensor_bilocal``: two pure states ``rho`` on H_A (x) H_BL and
    ``sigma`` on H_BR (x) H_C, with ``dims = (dA, dBL, dBR, dC)`` and PVMs
    local to each party's factors.

    ``commutator_general``: a global state ``tau`` (dim x dim) with global
    commuting PVMs, plus optional positive factors ``rho``, ``sigma`` with
    ``rho @ sigma = tau``.
    """

    model: str
    scenario: Scenario
    dims: tuple[int, ...]
    pvms: dict[tuple[str, int], list[np.ndarray]]
    rho: np.ndarray | None = None
    sigma: np.ndarray | None = None
    tau: np.ndarray | None = None


def validate_strategy(strategy: QuantumStrategy) -> None:
    """Check PVM and state invariants to ``ATOL_STRATEGY``; raises
    ScenarioError on violation."""
    sc = strategy.scenario
    if strategy.model == "tensor_bilocal":
        local_dim = _party_dims(strategy.dims)
        for state, name in ((strategy.rho, "rho"), (strategy.sigma, "sigma")):
            _check_state(state, name, pure=True)
    else:
        _check_state(strategy.tau, "tau", pure=False)
        local_dim = {p: strategy.tau.shape[0] for p in sc.parties}
    for p_idx, party in enumerate(sc.parties):
        for x in range(sc.inputs[p_idx]):
            ops = strategy.pvms.get((party, x))
            if ops is None or len(ops) != sc.outputs[p_idx]:
                raise ScenarioError(f"missing PVM for ({party}, {x})")
            total = sum(ops)
            d = ops[0].shape[0]
            if d != local_dim[party]:
                raise ScenarioError(f"PVM dim mismatch for ({party}, {x})")
            if np.abs(total - np.eye(d)).max() > ATOL_STRATEGY:
                raise ScenarioError(f"PVM for ({party}, {x}) does not sum to identity")
            for o, op in enumerate(ops):
                if max(np.abs(op @ op - op).max(),
                       np.abs(op - op.conj().T).max()) > ATOL_STRATEGY:
                    raise ScenarioError(f"PVM element ({party}, {x}, {o}) not a projector")


def _party_dims(dims: Sequence[int]) -> dict[str, int]:
    """The dimension of each party's space in a tensor_bilocal model whose
    tensor factors have dimensions ``dims`` = (dA, dBL, dBR, dC)."""
    if len(dims) != 4:
        raise ScenarioError(f"tensor_bilocal dims are (dA, dBL, dBR, dC), "
                            f"got {tuple(dims)}")
    return {p: math.prod(dims[i] for i in at) for p, at in TENSOR_BILOCAL_SLOTS.items()}


def _check_state(state: np.ndarray | None, name: str, pure: bool) -> None:
    if state is None:
        raise ScenarioError(f"state {name} missing")
    if np.abs(state - state.conj().T).max() > ATOL_STRATEGY:
        raise ScenarioError(f"state {name} not self-adjoint")
    if abs(np.trace(state).real - 1.0) > ATOL_STRATEGY:
        raise ScenarioError(f"state {name} not normalized")
    w = np.linalg.eigvalsh(state)
    if w.min() < -ATOL_STRATEGY:
        raise ScenarioError(f"state {name} not positive (min eig {w.min():.3e})")
    if pure and np.abs(state @ state - state).max() > ATOL_STRATEGY:
        raise ScenarioError(f"state {name} not a rank-1 projector")


def embed_operator(op: np.ndarray, positions: Sequence[int],
                   dims: Sequence[int]) -> np.ndarray:
    """Dense global matrix kron(kron(I_left, op), I_right) for ``op``
    acting on the contiguous tensor factors ``positions``, formed as one
    broadcast product in that order; other positions raise
    :class:`ScenarioError`."""
    first = positions[0] if len(positions) else 0
    if list(positions) != list(range(first, first + len(positions))):
        raise ScenarioError(f"embed_operator needs contiguous factors, "
                            f"got {tuple(positions)}")
    D = int(np.prod(dims))
    left = np.eye(int(np.prod(dims[:first])))
    right = np.eye(int(np.prod(dims[first + len(positions):])))
    k = (left[:, None, None, :, None, None] * op[None, :, None, None, :, None]
         * right[None, None, :, None, None, :])
    return k.reshape(D, D)


def _pure_vector(state: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(state)
    if w[-1] < 1 - 1e-6:
        raise ScenarioError("state is not pure; no defining vector")
    return v[:, -1]


def _suffix_vector(vecs: dict, letters: tuple[Letter, ...], act) -> np.ndarray:
    """The vector w_hat |psi> of a word w's letters: ``vecs`` maps letter
    tuples to their vectors, the empty one to |psi>, and the letters not
    yet there are applied right to left by ``act(letter, vector)``, the
    vector of every suffix passed through kept in ``vecs``.

    The letters of a canonical word after its first are the canonical
    form of that suffix (a block's normal form is the least
    representative of its class, and a suffix of one is again one), so
    the tuples of a word's suffixes key the vectors of those words and no
    word is canonicalised again.  Both oracles' Gram matrices read them.
    """
    out = vecs.get(letters)
    if out is not None:
        return out
    k = 1
    while letters[k:] not in vecs:
        k += 1
    out = vecs[letters[k:]]
    for j in range(k - 1, -1, -1):
        out = act(letters[j], out)
        vecs[letters[j:]] = out
    return out


def _gram(vecs: dict, words: Sequence[Word], act) -> np.ndarray:
    """The real symmetric Gram matrix Re <phi_i, phi_j> of the vectors
    phi_i of ``words`` (:func:`_suffix_vector` with ``vecs`` and ``act``)."""
    V = np.column_stack([_suffix_vector(vecs, w.letters, act).reshape(-1)
                         for w in words])
    G = (V.conj().T @ V).real
    return (G + G.T) / 2


class MomentOracle:
    """Ground-truth moment values Tr(tau * w) for a (non-inflated) strategy.

    Words are realised on the strategy's global space; if ``tau`` is not
    pure the Gram vectors live in the purification (vec of sqrt(tau)).
    Scalar letters contribute the factor Tr(tau * payload).
    """

    def __init__(self, strategy: QuantumStrategy):
        validate_strategy(strategy)
        self.strategy = strategy
        self.ops: dict[tuple[str, int, int], np.ndarray] = {}
        sc = strategy.scenario
        if strategy.model == "tensor_bilocal":
            tau = np.kron(strategy.rho, strategy.sigma)
            for p_idx, party in enumerate(sc.parties):
                for x in range(sc.inputs[p_idx]):
                    for o, op in enumerate(strategy.pvms[(party, x)]):
                        self.ops[(party, x, o)] = embed_operator(
                            op, TENSOR_BILOCAL_SLOTS[party], strategy.dims)
        else:
            tau = strategy.tau
            for (party, x), ops in strategy.pvms.items():
                for o, op in enumerate(ops):
                    self.ops[(party, x, o)] = op
        self.tau = tau
        D = tau.shape[0]
        purity = np.abs(tau @ tau - tau).max()
        if purity < 1e-9:
            self.psi = _pure_vector(tau)
            self._lift = lambda M: M
        else:
            # purification: |psi> = vec(sqrt(tau)), operators act as M (x) I
            w, v = np.linalg.eigh(tau)
            sq = (v * np.sqrt(w.clip(min=0))) @ v.conj().T
            self.psi = sq.reshape(-1)
            eye = np.eye(D)
            self._lift = lambda M: np.kron(M, eye)
        # the operator each letter acts by on psi's space, lifted once
        self._acting = {key: self._lift(op) for key, op in self.ops.items()}
        self._vecs: dict[tuple[Letter, ...], np.ndarray] = {(): self.psi}
        self._scalar_cache: dict[Word, complex] = {}

    @staticmethod
    def _op_key(l: Letter) -> tuple[str, int, int]:
        if l.copies is not None:
            raise ScenarioError("plain oracle cannot evaluate inflated letters")
        return (l.party, l.input, l.output)

    def letter_op(self, l: Letter) -> np.ndarray:
        return self.ops[self._op_key(l)]

    def _scalar_value(self, payload: Word) -> complex:
        if payload not in self._scalar_cache:
            self._scalar_cache[payload] = complex(np.vdot(self.psi,
                                                          self.vector(payload)))
        return self._scalar_cache[payload]

    def _act(self, l: Letter, tail: np.ndarray) -> np.ndarray:
        if l.is_scalar:
            return self._scalar_value(l.payload) * tail
        return self._acting[self._op_key(l)] @ tail

    def vector(self, w: Word) -> np.ndarray:
        """|phi_w> = w_hat |psi> (times scalar-letter factors)."""
        return _suffix_vector(self._vecs, w.letters, self._act)

    def value(self, w: Word) -> float:
        return float(np.vdot(self.psi, self.vector(w)).real)

    def gram(self, words: Sequence[Word]) -> np.ndarray:
        """Real symmetric Gram matrix G[i, j] = Re Tr(tau * wi^dagger wj)."""
        return _gram(self._vecs, words, self._act)

    def born(self) -> Distribution:
        sc = self.strategy.scenario
        table = np.zeros(sc.outputs + sc.inputs)
        for ins in np.ndindex(*sc.inputs):
            for outs in np.ndindex(*sc.outputs):
                w = word([Letter(MEASUREMENT, p, outs[i], ins[i])
                          for i, p in enumerate(sc.parties)])
                table[tuple(outs) + tuple(ins)] = self.value(w)
        return Distribution(sc, table)


def born_eval(strategy: QuantumStrategy) -> Distribution:
    """Born-rule distribution of a strategy."""
    return MomentOracle(strategy).born()


class InflatedBilocalOracle:
    """Moment values for inflated words over m copies of a bilocal strategy.

    :meth:`_model` is its one model: the state tensor on a list of
    (source, copy) pairs, two leg axes per copy, and the action that
    applies a letter's PVM element to the legs of its party's factors in
    ``TENSOR_BILOCAL_SLOTS``.  ``value`` runs it per connected component
    of source copies, so its cost is set by the largest cluster of letters
    sharing copies; ``gram`` runs it once on all 2m copies, and exists
    only while that model has at most ``DENSE_INFLATION_DIM`` amplitudes.
    """

    def __init__(self, strategy: QuantumStrategy, m: int):
        if strategy.model != "tensor_bilocal":
            raise ScenarioError("inflation oracle needs a tensor_bilocal strategy")
        validate_strategy(strategy)
        self.strategy = strategy
        self.m = m
        # source s holds the tensor factors (2s, 2s + 1), its legs 0 and 1
        self.src_vec = {
            src: _pure_vector(getattr(strategy, src)).reshape(strategy.dims[2 * s:2 * s + 2])
            for s, src in enumerate(BILOCAL_SOURCES)}
        self._value_cache: dict[Word, complex] = {}
        if self._dense_dim() <= DENSE_INFLATION_DIM:
            self.gram = self.dense_gram

    def _dense_dim(self) -> int:
        return math.prod(self.strategy.dims) ** self.m

    @staticmethod
    def _legs(l: Letter) -> list[tuple[tuple[str, int], int]]:
        """((source, copy), leg) of each tensor factor the letter acts on,
        in the order of its party's factors."""
        return [((BILOCAL_SOURCES[f // 2], c), f % 2)
                for f, c in zip(TENSOR_BILOCAL_SLOTS[l.party], l.copies)]

    def _model(self, copies: Sequence[tuple[str, int]]):
        """The state tensor on the source copies ``copies``, with axes
        (2k, 2k + 1) the legs of copy k, and the action (letter, tensor)
        -> tensor that applies the letter's PVM element to its legs by
        ``tensordot``."""
        axis = {sc: 2 * k for k, sc in enumerate(copies)}
        psi = self.src_vec[copies[0][0]]
        for src, _ in copies[1:]:
            psi = np.tensordot(psi, self.src_vec[src], axes=0)

        def act(l: Letter, cur: np.ndarray) -> np.ndarray:
            op = self.strategy.pvms[(l.party, l.input)][l.output]
            axes = [axis[sc] + leg for sc, leg in self._legs(l)]
            dims = tuple(cur.shape[a] for a in axes)
            out = np.tensordot(op.reshape(dims + dims), cur,
                               axes=(range(len(axes), 2 * len(axes)), axes))
            return np.moveaxis(out, range(len(axes)), axes)

        return psi, act

    def value(self, w: Word) -> float:
        if w not in self._value_cache:
            self._value_cache[w] = self._value(w)
        return float(self._value_cache[w].real)

    def _value(self, w: Word) -> complex:
        for l in w.letters:
            if not l.is_measurement or l.copies is None:
                raise ScenarioError("inflated oracle expects inflated measurement words")
        copies = [[sc for sc, _ in self._legs(l)] for l in w.letters]
        ids: dict[tuple[str, int], int] = {}
        nodes = np.full((len(w), 2), -1)
        for i, pairs in enumerate(copies):
            for k, sc in enumerate(pairs):
                nodes[i, k] = ids.setdefault(sc, len(ids))
        comp = sharing_components(nodes)
        total = 1.0 + 0.0j
        for k in range(comp.max(initial=-1) + 1):
            members = np.flatnonzero(comp == k)
            psi, act = self._model(sorted({sc for i in members for sc in copies[i]}))
            cur = psi
            for i in members[::-1]:  # apply rightmost factor first
                cur = act(w.letters[i], cur)
            total *= complex(np.vdot(psi, cur))
        return total

    def dense_gram(self, words: Sequence[Word]) -> np.ndarray:
        """Gram matrix from the model on all 2m source copies."""
        psi, act = self._dense_model()
        return _gram({(): psi}, words, act)

    def _dense_model(self):
        """:meth:`_model` on every source copy, rho's copies first."""
        if self._dense_dim() > DENSE_INFLATION_DIM:
            raise ScenarioError(f"dense inflated model too large "
                                f"(dim {self._dense_dim()})")
        return self._model([(src, c) for src in BILOCAL_SOURCES
                            for c in range(1, self.m + 1)])


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def mixed_counterexample() -> QuantumStrategy:
    """Direct-sum model reproducing the shared random bit with a mixed tau.

    Two 3-qubit blocks; tau = (|000><000| + |111><111|)/2, with positive
    factors rho, sigma such that rho*sigma = sigma*rho = tau, all PVMs
    commuting and block-diagonal.  tau is not pure (Tr tau^2 = 1/2), and
    the A-C factorisation fails by exactly 1/4.
    """
    sc = Scenario("bilocal", outputs=(2, 2, 2), inputs=(1, 1, 1))
    P = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    I2, I4 = np.eye(2), np.eye(4)

    def two_blocks(op0: np.ndarray, op1: np.ndarray) -> np.ndarray:
        out = np.zeros((16, 16))
        out[:8, :8] = op0
        out[8:, 8:] = op1
        return out

    ket = {}
    for i in (0, 1):
        v = np.zeros(8)
        v[i * 7] = 1.0  # |000> at index 0, |111> at index 7
        ket[i] = np.outer(v, v)
    tau = 0.5 * two_blocks(ket[0], ket[1])
    rho = (1 / math.sqrt(2)) * two_blocks(np.kron(P[0], I4), np.kron(P[1], I4))
    sigma = (1 / math.sqrt(2)) * two_blocks(
        np.kron(I2, np.kron(P[0], P[0])), np.kron(I2, np.kron(P[1], P[1])))
    pvms = {}
    for party, builder in (
            ("A", lambda q: np.kron(P[q], I4)),
            ("B", lambda q: np.kron(I2, np.kron(P[q], I2))),
            ("C", lambda q: np.kron(I4, P[q]))):
        pvms[(party, 0)] = [two_blocks(builder(q), builder(q)) for q in (0, 1)]
    return QuantumStrategy(
        model="commutator_general", scenario=sc, dims=(16,),
        pvms=pvms, rho=rho, sigma=sigma, tau=tau)


def _haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _random_pvm(dim: int, n_out: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Projective measurement from a Haar-rotated diagonal 0/1 pattern."""
    u = _haar_orthogonal(dim, rng)
    pattern = np.arange(dim) % n_out
    return [u @ np.diag((pattern == o).astype(float)) @ u.T for o in range(n_out)]


def random_strategy(scenario: Scenario, dims: tuple[int, int, int, int],
                    seed: int) -> QuantumStrategy:
    """Seeded random tensor-bilocal strategy with real Haar states and PVMs.

    Real-valued models keep every moment matrix exactly real symmetric,
    which is what the (real) moment problems encode.
    """
    if scenario.topology != "bilocal":
        raise ScenarioError("random_strategy generates bilocal tensor models")
    if any(d < 1 for d in dims):
        raise ScenarioError("dims must be >= 1")
    local_dim = _party_dims(dims)
    rng = np.random.default_rng(seed)
    dA, dBL, dBR, dC = dims
    v1 = rng.normal(size=dA * dBL)
    v1 /= np.linalg.norm(v1)
    v2 = rng.normal(size=dBR * dC)
    v2 /= np.linalg.norm(v2)
    pvms = {}
    for p_idx, party in enumerate(scenario.parties):
        for x in range(scenario.inputs[p_idx]):
            pvms[(party, x)] = _random_pvm(
                local_dim[party], scenario.outputs[p_idx], rng)
    return QuantumStrategy(
        model="tensor_bilocal", scenario=scenario, dims=dims,
        pvms=pvms, rho=np.outer(v1, v1), sigma=np.outer(v2, v2))


def star_product_strategy(seed: int, outputs: int = 2) -> QuantumStrategy:
    """Commutator-model star strategy built from three independent qubit
    sources rho(A,B), sigma(B,C), pi(B,D); used as a star-network oracle."""
    sc = Scenario("star4", outputs=(outputs,) * 4, inputs=(1, 1, 1, 1))
    rng = np.random.default_rng(seed)
    # factor order: A, B1, B2, B3, C, D (all qubits)
    dims = [2] * 6
    slots = {"A": [0], "B": [1, 2, 3], "C": [4], "D": [5]}
    vecs = [rng.normal(size=4) for _ in range(3)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    psi = np.zeros(64)
    # rho on (A,B1), sigma on (B2,C), pi on (B3,D): permute legs into place
    t = np.tensordot(np.tensordot(
        vecs[0].reshape(2, 2), vecs[1].reshape(2, 2), axes=0),
        vecs[2].reshape(2, 2), axes=0)
    # axes now (A, B1, B2, C, B3, D) -> reorder to (A, B1, B2, B3, C, D)
    psi = np.transpose(t, (0, 1, 2, 4, 3, 5)).reshape(64)
    tau = np.outer(psi, psi)
    pvms = {}
    for party in sc.parties:
        local = int(np.prod([dims[i] for i in slots[party]]))
        ops = _random_pvm(local, outputs, rng)
        pvms[(party, 0)] = [embed_operator(op, slots[party], dims) for op in ops]
    return QuantumStrategy(model="commutator_general", scenario=sc, dims=(64,),
                           pvms=pvms, tau=tau)
