"""Network scenarios, distributions, and explicit quantum strategies.

A scenario is a network topology (which parties share which sources)
plus input/output cardinalities.  Strategies are dense-matrix quantum
models; they serve as ground-truth oracles: ``born_eval`` produces the
distribution, and the oracle classes evaluate Tr(tau * w) for arbitrary
words, including inflated words over copied sources.

Everything is desk scale: dense complex matrices, total dimension at
most a few thousand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .words import (
    EMPTY_WORD,
    Alphabet,
    Letter,
    MEASUREMENT,
    Word,
    scalar_letter,
    word,
)

ATOL_TABLE = 1e-12
ATOL_STRATEGY = 1e-10


class ScenarioError(ValueError):
    pass


class UnionFind:
    """Disjoint sets over hashable items; an item is a singleton until it
    is first joined."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while True:
            p = parent.get(x, x)
            if p == x:
                return x
            gp = parent.get(p, p)
            parent[x] = gp       # path halving
            x = gp

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def linked_components(nodes_of: Sequence[Sequence]) -> list[list[int]]:
    """Group items that share a node, transitively.

    ``nodes_of[i]`` lists the (nonempty) nodes item i touches, e.g. the
    (source, copy) pairs of a letter.  Returns the item indices of each
    component, components in order of their first item.
    """
    uf = UnionFind()
    for nodes in nodes_of:
        for nd in nodes[1:]:
            uf.union(nodes[0], nd)
    comps: dict = {}
    for i, nodes in enumerate(nodes_of):
        comps.setdefault(uf.find(nodes[0]), []).append(i)
    return list(comps.values())


class SignallingError(ValueError):
    """A distribution whose marginals depend on other parties' inputs."""


@dataclass(frozen=True)
class Topology:
    name: str
    parties: tuple[str, ...]
    sources: dict[str, tuple[str, ...]]          # source -> parties it feeds
    party_sources: dict[str, tuple[str, ...]]    # party -> ordered source slots
    factor_pairs: tuple[tuple[str, str], ...]    # party pairs with factorising moments
    factor_triples: tuple[tuple[str, str, str], ...] = ()
    inflatable: bool = False


TOPOLOGIES: dict[str, Topology] = {
    "bell3": Topology(
        name="bell3",
        parties=("A", "B", "C"),
        sources={"tau": ("A", "B", "C")},
        party_sources={"A": ("tau",), "B": ("tau",), "C": ("tau",)},
        factor_pairs=(),
    ),
    "bilocal": Topology(
        name="bilocal",
        parties=("A", "B", "C"),
        sources={"rho": ("A", "B"), "sigma": ("B", "C")},
        party_sources={"A": ("rho",), "B": ("rho", "sigma"), "C": ("sigma",)},
        factor_pairs=(("A", "C"),),
        inflatable=True,
    ),
    "triangle": Topology(
        name="triangle",
        parties=("A", "B", "C"),
        sources={"rho": ("A", "B"), "sigma": ("B", "C"), "pi": ("C", "A")},
        party_sources={"A": ("pi", "rho"), "B": ("rho", "sigma"), "C": ("sigma", "pi")},
        factor_pairs=(),
        inflatable=True,
    ),
    "star4": Topology(
        name="star4",
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
        return Alphabet(scenario_id=f"{self.topology}", letters=tuple(letters))

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
        return Alphabet(
            scenario_id=f"{self.topology}:inflation{m}",
            letters=tuple(letters),
            party_sources=dict(self.topo.party_sources),
            inflation_order=m,
        )

    def scalar_alphabet(self, bound: int, scalar_party: str = "A") -> Alphabet:
        """Plain alphabet enlarged by scalar symbols for all nonempty
        ``scalar_party`` words of length <= ``bound``."""
        from .words import enumerate_words  # local import to avoid cycle at module load

        base = self.alphabet()
        party_only = Alphabet(
            scenario_id="tmp",
            letters=tuple(l for l in base.letters if l.party == scalar_party))
        kappas = [
            scalar_letter(w)
            for w in enumerate_words(party_only, bound)
            if len(w) >= 1
        ]
        return Alphabet(
            scenario_id=f"{self.topology}:scalar{bound}",
            letters=base.letters + tuple(kappas),
            scalar_bound=bound,
        )


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
        if self.table.min() < -ATOL_TABLE:
            raise ScenarioError(f"negative probability {self.table.min():.3e}")
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

    def marginal(self, parties: Sequence[str], tol: float = 1e-9) -> np.ndarray:
        """Marginal table over a party subset, shape = their outputs + inputs.

        Sums out the other parties' outputs and checks the result does not
        depend on their inputs (no-signalling); raises SignallingError
        naming the offending party and input pair otherwise.
        """
        sc = self.scenario
        n = len(sc.parties)
        keep = [sc.party_index(p) for p in parties]
        drop = [i for i in range(n) if i not in keep]
        summed = self.table.sum(axis=tuple(drop))  # axes: kept outputs + all inputs
        # move kept input axes to the end, in party order
        kept_out_axes = list(range(len(keep)))
        in_axes = {i: len(keep) + i for i in range(n)}
        order = kept_out_axes + [in_axes[i] for i in keep] + [in_axes[i] for i in drop]
        arranged = summed.transpose(order)
        base = arranged[(Ellipsis,) + (0,) * len(drop)]
        for k, i_drop in enumerate(drop):
            ax = len(keep) * 2 + k
            spread = arranged.max(axis=ax) - arranged.min(axis=ax)
            if spread.max() > tol:
                # the input of the dropped party deviating most from input 0
                deviation = np.abs(arranged - arranged.take([0], axis=ax))
                worst = int(np.moveaxis(deviation, ax, 0)
                            .reshape(sc.inputs[i_drop], -1).max(axis=1).argmax())
                raise SignallingError(
                    f"marginal over {tuple(parties)} depends on the input of party "
                    f"{sc.parties[i_drop]} (inputs 0 vs {worst}; "
                    f"max deviation {spread.max():.3e})")
        return base

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
    entries: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []
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
                    entries.append((outs, ins, float(val)))
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
    for outs, ins, v in entries:
        table[outs + ins] = v
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

    def global_dim(self) -> int:
        return int(np.prod(self.dims)) if self.model == "tensor_bilocal" else self.tau.shape[0]

    def party_dims(self) -> dict[str, tuple[int, ...]]:
        if self.model != "tensor_bilocal":
            raise ScenarioError("party_dims applies to tensor_bilocal strategies")
        dA, dBL, dBR, dC = self.dims
        return {"A": (dA,), "B": (dBL, dBR), "C": (dC,)}


def validate_strategy(strategy: QuantumStrategy, tol: float = ATOL_STRATEGY) -> None:
    """Check PVM and state invariants; raises ScenarioError on violation."""
    sc = strategy.scenario
    if strategy.model == "tensor_bilocal":
        dA, dBL, dBR, dC = strategy.dims
        local_dim = {"A": dA, "B": dBL * dBR, "C": dC}
        for state, name in ((strategy.rho, "rho"), (strategy.sigma, "sigma")):
            _check_state(state, name, tol, pure=True)
    else:
        _check_state(strategy.tau, "tau", tol, pure=False)
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
            if np.abs(total - np.eye(d)).max() > tol:
                raise ScenarioError(f"PVM for ({party}, {x}) does not sum to identity")
            for o, op in enumerate(ops):
                if np.abs(op @ op - op).max() > tol or np.abs(op - op.conj().T).max() > tol:
                    raise ScenarioError(f"PVM element ({party}, {x}, {o}) not a projector")


def _check_state(state: np.ndarray | None, name: str, tol: float, pure: bool) -> None:
    if state is None:
        raise ScenarioError(f"state {name} missing")
    if np.abs(state - state.conj().T).max() > tol:
        raise ScenarioError(f"state {name} not self-adjoint")
    if abs(np.trace(state).real - 1.0) > tol:
        raise ScenarioError(f"state {name} not normalized")
    w = np.linalg.eigvalsh(state)
    if w.min() < -tol:
        raise ScenarioError(f"state {name} not positive (min eig {w.min():.3e})")
    if pure and np.abs(state @ state - state).max() > tol:
        raise ScenarioError(f"state {name} not a rank-1 projector")


def embed_operator(op: np.ndarray, positions: Sequence[int],
                   dims: Sequence[int]) -> np.ndarray:
    """Dense global matrix for ``op`` acting on the given tensor factors."""
    n = len(dims)
    rest = [i for i in range(n) if i not in positions]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    k = np.kron(op, np.eye(d_rest))
    order = list(positions) + rest
    shape = [dims[i] for i in order]
    inv = np.argsort(order)
    kt = k.reshape(shape + shape)
    kt = kt.transpose(list(inv) + [n + i for i in inv])
    D = int(np.prod(dims))
    return np.ascontiguousarray(kt.reshape(D, D))


def _pure_vector(state: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    w, v = np.linalg.eigh(state)
    if w[-1] < 1 - 1e-6:
        raise ScenarioError("state is not pure; no defining vector")
    return v[:, -1]


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
            dA, dBL, dBR, dC = strategy.dims
            dims = [dA, dBL, dBR, dC]
            slots = {"A": [0], "B": [1, 2], "C": [3]}
            tau = np.kron(strategy.rho, strategy.sigma)
            for p_idx, party in enumerate(sc.parties):
                for x in range(sc.inputs[p_idx]):
                    for o, op in enumerate(strategy.pvms[(party, x)]):
                        self.ops[(party, x, o)] = embed_operator(op, slots[party], dims)
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
        self._vec_cache: dict[Word, np.ndarray] = {EMPTY_WORD: self.psi}
        self._scalar_cache: dict[Word, complex] = {}

    def letter_op(self, l: Letter) -> np.ndarray:
        if l.copies is not None:
            raise ScenarioError("plain oracle cannot evaluate inflated letters")
        return self.ops[(l.party, l.input, l.output)]

    def _scalar_value(self, payload: Word) -> complex:
        if payload not in self._scalar_cache:
            v = self.vector(payload)
            base = self._vec_cache[EMPTY_WORD]
            self._scalar_cache[payload] = complex(np.vdot(base, v))
        return self._scalar_cache[payload]

    def vector(self, w: Word) -> np.ndarray:
        """|phi_w> = w_hat |psi> (times scalar-letter factors)."""
        if w in self._vec_cache:
            return self._vec_cache[w]
        first, rest = w.letters[0], word(w.letters[1:])
        tail = self.vector(rest)
        if first.is_scalar:
            out = self._scalar_value(first.payload) * tail
        else:
            out = self._lift(self.letter_op(first)) @ tail
        self._vec_cache[w] = out
        return out

    def value(self, w: Word) -> float:
        return float(np.vdot(self._vec_cache[EMPTY_WORD], self.vector(w)).real)

    def gram(self, words: Sequence[Word]) -> np.ndarray:
        """Real symmetric Gram matrix G[i, j] = Re Tr(tau * wi^dagger wj)."""
        V = np.column_stack([self.vector(w) for w in words])
        G = (V.conj().T @ V).real
        return (G + G.T) / 2

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


def moment_oracle(strategy: QuantumStrategy, n: int) -> dict[Word, float]:
    """Ground-truth moments Tr(tau * w) for every canonical word of
    length <= 2n (the cell products of a level-n moment matrix)."""
    if n < 1:
        raise ScenarioError("n must be >= 1")
    from .words import enumerate_words

    oracle = MomentOracle(strategy)
    return {w: oracle.value(w)
            for w in enumerate_words(strategy.scenario.alphabet(), 2 * n)}


class InflatedBilocalOracle:
    """Moment values for inflated words over m copies of a bilocal strategy.

    Values are computed per connected component of source copies, so the
    cost is set by the largest cluster of letters sharing copies rather
    than by the full 4m-factor space.  Agrees with a dense realisation of
    the inflated model (cross-checked in tests).
    """

    def __init__(self, strategy: QuantumStrategy, m: int):
        if strategy.model != "tensor_bilocal":
            raise ScenarioError("inflation oracle needs a tensor_bilocal strategy")
        validate_strategy(strategy)
        self.strategy = strategy
        self.m = m
        dA, dBL, dBR, dC = strategy.dims
        self.leg_dims = {"rho": (dA, dBL), "sigma": (dBR, dC)}
        self.src_vec = {
            "rho": _pure_vector(strategy.rho).reshape(dA, dBL),
            "sigma": _pure_vector(strategy.sigma).reshape(dBR, dC),
        }
        # letter -> list of (source, slot-within-party, leg) it acts on
        self.party_legs = {"A": (("rho", 0),), "B": (("rho", 1), ("sigma", 0)),
                           "C": (("sigma", 1),)}
        self._value_cache: dict[Word, complex] = {}
        if (dA * dBL) ** m * (dBR * dC) ** m <= 4096:
            self.gram = self.dense_gram  # fast path for small inflations

    def _letter_nodes(self, l: Letter) -> list[tuple[str, int, int]]:
        """(source, copy, leg) factors this letter acts on."""
        legs = self.party_legs[l.party]
        return [(src, l.copies[i], leg) for i, (src, leg) in enumerate(legs)]

    def value(self, w: Word) -> float:
        if w not in self._value_cache:
            self._value_cache[w] = self._value(w)
        return float(self._value_cache[w].real)

    def _value(self, w: Word) -> complex:
        for l in w.letters:
            if not l.is_measurement or l.copies is None:
                raise ScenarioError("inflated oracle expects inflated measurement words")
        comps = linked_components([[(src, c) for src, c, _ in self._letter_nodes(l)]
                                   for l in w.letters])
        total = 1.0 + 0.0j
        for members in comps:
            letters = [w.letters[i] for i in members]
            copies = sorted({(src, c) for l in letters
                             for src, c, _ in self._letter_nodes(l)})
            total *= self._component_value(copies, letters)
        return total

    def _component_value(self, copies: list[tuple[str, int]],
                         letters: list[Letter]) -> complex:
        # tensor with two axes (legs 0, 1) per source copy
        axis_of = {}
        tensors = []
        for k, (src, c) in enumerate(copies):
            axis_of[(src, c, 0)] = 2 * k
            axis_of[(src, c, 1)] = 2 * k + 1
            tensors.append(self.src_vec[src])
        psi = tensors[0]
        for t in tensors[1:]:
            psi = np.tensordot(psi, t, axes=0)
        cur = psi
        for l in reversed(letters):  # apply rightmost factor first
            op = self.strategy.pvms[(l.party, l.input)][l.output]
            axes = [axis_of[nd] for nd in self._letter_nodes(l)]
            dims = tuple(cur.shape[a] for a in axes)
            op_t = op.reshape(dims + dims)
            cur = np.tensordot(op_t, cur, axes=(range(len(axes), 2 * len(axes)), axes))
            cur = np.moveaxis(cur, range(len(axes)), axes)
        return complex(np.vdot(psi, cur))

    def dense_gram(self, words: Sequence[Word]) -> np.ndarray:
        """Gram matrix via an explicit dense inflated model (small m only)."""
        dA, dBL, dBR, dC = self.strategy.dims
        m = self.m
        dims = [dA, dBL] * m + [dBR, dC] * m
        D = int(np.prod(dims))
        if D > 4096:
            raise ScenarioError(f"dense inflated model too large (dim {D})")
        psi = np.array([1.0])
        for _ in range(m):
            psi = np.kron(psi, self.src_vec["rho"].reshape(-1))
        for _ in range(m):
            psi = np.kron(psi, self.src_vec["sigma"].reshape(-1))
        pos = {}
        for i in range(1, m + 1):
            pos[("rho", i, 0)] = 2 * (i - 1)
            pos[("rho", i, 1)] = 2 * (i - 1) + 1
            pos[("sigma", i, 0)] = 2 * m + 2 * (i - 1)
            pos[("sigma", i, 1)] = 2 * m + 2 * (i - 1) + 1
        op_cache: dict[Letter, np.ndarray] = {}

        def letter_op(l: Letter) -> np.ndarray:
            if l not in op_cache:
                op = self.strategy.pvms[(l.party, l.input)][l.output]
                positions = [pos[nd] for nd in self._letter_nodes(l)]
                op_cache[l] = embed_operator(op, positions, dims)
            return op_cache[l]

        vecs: dict[Word, np.ndarray] = {EMPTY_WORD: psi}

        def vec(w: Word) -> np.ndarray:
            if w not in vecs:
                vecs[w] = letter_op(w.letters[0]) @ vec(word(w.letters[1:]))
            return vecs[w]

        V = np.column_stack([vec(w) for w in words])
        G = (V.conj().T @ V).real
        return (G + G.T) / 2


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
    rng = np.random.default_rng(seed)
    dA, dBL, dBR, dC = dims
    v1 = rng.normal(size=dA * dBL)
    v1 /= np.linalg.norm(v1)
    v2 = rng.normal(size=dBR * dC)
    v2 /= np.linalg.norm(v2)
    local_dim = {"A": dA, "B": dBL * dBR, "C": dC}
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
