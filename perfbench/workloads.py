"""Workloads of the benchmark: problem builds, seeded distribution streams,
ground truth and the correctness check of every verdict.

Each workload builds its hierarchy problems once and then feeds an endless
stream of distributions, generated from a seed, in fixed cycles: the seed
chooses the tables, never how many of each kind a cycle holds.  Every item
carries what the benchmark knows about it independently of the solver:

* the shared random bit (SRB) and its local output relabelings are not
  realisable on a network with independent sources, so triangle inflation
  (n=2, m=2) and bilocal factorisation must answer INFEASIBLE;
* mixtures ``v*SRB + (1-v)*uniform`` have an A-C marginal that does not
  factorise, so bilocal factorisation must answer INFEASIBLE, while the
  standard hierarchy, whose feasible set is convex in the distribution and
  holds both ends, must not answer INFEASIBLE;
* Born tables of quantum strategies and the uniform product are
  realisable, so no hierarchy may answer INFEASIBLE.

A FEASIBLE verdict must carry residuals with every family at most
``RESIDUAL_GATE``; the witness is also re-checked with
``moment.check_assignment``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from netnpa import factorisation, gns, moment, scenarios, sdp, words
from netnpa.moment import MomentAssignment, MomentProblem
from netnpa.scenarios import Distribution, QuantumStrategy, Scenario

from tracing import Tracer

TRIANGLE = Scenario("triangle", (2, 2, 2), (1, 1, 1))
BILOCAL = Scenario("bilocal", (2, 2, 2), (1, 1, 1))
QUANTUM_DIMS = (2, 2, 2, 2)
# far above the presolve's 1e-9 row tolerance: the mixture's violated
# factorisation row has residual v/4
V_MIN = 0.05
# the solver accepts a witness at 10 * tol (tol = 1e-7)
RESIDUAL_GATE = 1e-6

INFEASIBLE = "infeasible"
NOT_INFEASIBLE = "not infeasible"


@dataclass
class Item:
    dist: Distribution
    kind: str
    expect: dict[str, str]                 # verdict problem -> ground truth
    strategy: QuantumStrategy | None = None   # set when also certified by GNS


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def relabel(dist: Distribution, rng: np.random.Generator) -> Distribution:
    """Apply a random permutation of each party's outputs."""
    table = dist.table
    for axis, k in enumerate(dist.scenario.outputs):
        table = np.take(table, rng.permutation(k), axis=axis)
    return Distribution(dist.scenario, table)


def uniform(sc: Scenario) -> Distribution:
    return scenarios.product_distribution(
        sc, [np.full((k, x), 1.0 / k) for k, x in zip(sc.outputs, sc.inputs)])


def quantum(rng: np.random.Generator) -> tuple[Distribution, QuantumStrategy]:
    strategy = scenarios.random_strategy(BILOCAL, QUANTUM_DIMS,
                                         int(rng.integers(2**31)))
    return scenarios.MomentOracle(strategy).born(), strategy


def mixture(rng: np.random.Generator) -> Distribution:
    v = rng.uniform(V_MIN, 1.0)
    srb = relabel(scenarios.shared_random_bit("bilocal"), rng)
    return Distribution(BILOCAL, v * srb.table + (1.0 - v) * uniform(BILOCAL).table)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name: str
    verdict_problems: tuple[str, ...]
    cycle_len: int
    setup_samples: int
    # kernel runs per host-speed reading (hostspeed.py) between loop items,
    # about 0.75 ms each; 0 reports loop times as measured.  The kernel
    # tracks the host's speed for pure-Python work only: on the BLAS-bound
    # workloads, scaling by it widened the spread of verdict_s.p50 over six
    # seeds from 0.06 to 0.28
    kernel_reps = 0

    def build(self, tracer: Tracer) -> dict[str, MomentProblem]:
        raise NotImplementedError

    def items(self, rng: np.random.Generator) -> Iterator[Item]:
        raise NotImplementedError

    def certification_levels(self, problems) -> dict[int, MomentProblem]:
        return {}


class TriangleInflation(Workload):
    name = "triangle-infl22"
    verdict_problems = ("inflation",)
    cycle_len = 3
    # one build takes about 15 s, so set-up is sampled twice, not three times
    setup_samples = 2

    def build(self, tracer):
        return {"inflation": tracer.call("moment.build_inflation",
                                         moment.build_inflation, TRIANGLE, 2, 2)}

    def items(self, rng):
        srb = scenarios.shared_random_bit("triangle")
        while True:
            for _ in range(2):
                yield Item(relabel(srb, rng), "srb", {"inflation": INFEASIBLE})
            yield Item(uniform(TRIANGLE), "uniform", {"inflation": NOT_INFEASIBLE})


class BilocalInflationQuantum(Workload):
    name = "bilocal-infl22-quantum"
    verdict_problems = ("inflation",)
    cycle_len = 1
    setup_samples = 3

    def build(self, tracer):
        return {"inflation": tracer.call("moment.build_inflation",
                                         moment.build_inflation, BILOCAL, 2, 2)}

    def items(self, rng):
        while True:
            dist, _ = quantum(rng)
            yield Item(dist, "quantum", {"inflation": NOT_INFEASIBLE})


class BilocalManyN3(Workload):
    name = "bilocal-n3-many"
    verdict_problems = ("standard", "factorisation")
    cycle_len = 4
    setup_samples = 3
    # an item takes about 30 ms, so a reading costs about a tenth of it
    kernel_reps = 5

    def build(self, tracer):
        def fac(n):
            return tracer.call("moment.build_factorisation_bilocal",
                               moment.build_factorisation_bilocal, BILOCAL, n)
        return {"standard": tracer.call("moment.build_standard",
                                        moment.build_standard, BILOCAL, 3),
                "factorisation": fac(3),
                "factorisation2": fac(2),
                "factorisation4": fac(4)}

    def items(self, rng):
        both = {"standard": NOT_INFEASIBLE, "factorisation": NOT_INFEASIBLE}
        while True:
            dist, strategy = quantum(rng)
            yield Item(dist, "quantum", both, strategy=strategy)
            dist, _ = quantum(rng)
            yield Item(dist, "quantum", both)
            for _ in range(2):
                yield Item(mixture(rng), "mixture",
                           {"standard": NOT_INFEASIBLE, "factorisation": INFEASIBLE})

    def certification_levels(self, problems):
        return {2: problems["factorisation2"], 3: problems["factorisation"],
                4: problems["factorisation4"]}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    TriangleInflation(), BilocalInflationQuantum(), BilocalManyN3())}


def stream(workload: Workload, seed: int) -> Iterator[Item]:
    return workload.items(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# The pipeline under test and the correctness check
# ---------------------------------------------------------------------------

def decide(problem: MomentProblem, dist: Distribution, tracer: Tracer):
    """pin -> linearize (when factor pairs exist) -> solve."""
    p = tracer.call("moment.pin_distribution", moment.pin_distribution, problem, dist)
    if p.factor_pairs or p.factor_triples:
        p = tracer.call("factorisation.pin_linearize", factorisation.pin_linearize, p)
    return p, tracer.call("sdp.solve_feasibility", sdp.solve_feasibility, p)


def _worst(report) -> tuple[str, float]:
    return max(report.families().items(), key=lambda kv: kv[1])


def judge(expect: str, problem: MomentProblem, outcome, tracer: Tracer) -> str | None:
    """None when the verdict agrees with the ground truth and a FEASIBLE
    witness passes the residual gate, else the reason it fails."""
    if expect == INFEASIBLE:
        if outcome.verdict != "infeasible":
            return f"{outcome.verdict} where infeasible is known"
        return None
    if outcome.verdict == "infeasible":
        return f"infeasible on a realisable distribution ({outcome.evidence})"
    if outcome.verdict != "feasible":
        return None
    if outcome.residuals is None or outcome.witness is None:
        return "feasible without a witness and its residuals"
    family, value = _worst(outcome.residuals)
    if not value <= RESIDUAL_GATE:
        return f"reported residual {family} {value:.3e} > {RESIDUAL_GATE:g}"
    recheck = tracer.call("moment.check_assignment", moment.check_assignment,
                          problem, MomentAssignment(problem, outcome.witness))
    family, value = _worst(recheck)
    if not value <= RESIDUAL_GATE:
        return f"re-checked residual {family} {value:.3e} > {RESIDUAL_GATE:g}"
    return None


def decided_by(outcome) -> str:
    """The solver layer that produced the verdict, read from its evidence."""
    ev = outcome.evidence
    if "interlacing" in ev:
        return "interlacing"
    if ev.startswith(("violated", "linear system inconsistent", "fully determined")):
        return "presolve"
    return "engine"


@dataclass
class Certificate:
    dim: int
    residual: float


def certify(strategy: QuantumStrategy, levels: dict[int, MomentProblem],
            tracer: Tracer) -> Certificate | None:
    """Rank loop over oracle assignments at consecutive levels, then GNS
    reconstruction and model verification; None when no loop is found."""
    oracle = tracer.call("scenarios.MomentOracle", scenarios.MomentOracle, strategy)
    ns = sorted(levels)
    prev = tracer.call("moment.oracle_assignment", moment.oracle_assignment,
                       levels[ns[0]], oracle)
    for n in ns[1:]:
        cur = tracer.call("moment.oracle_assignment", moment.oracle_assignment,
                          levels[n], oracle)
        if tracer.call("gns.rank_loop_check", gns.rank_loop_check, prev, cur).loop:
            model = tracer.call("gns.reconstruct", gns.reconstruct, cur)
            res = tracer.call("gns.verify_model", gns.verify_model, model, cur)
            return Certificate(model.dimension, res.max_residual())
        prev = cur
    return None


# ---------------------------------------------------------------------------
# Replays after the loop (traced runs only)
# ---------------------------------------------------------------------------

def replay_presolve(solved: list[MomentProblem], tracer: Tracer) -> list[int]:
    """Re-run the linear presolve on problems the loop solved; returns the
    number of classes it leaves free on each."""
    free = []
    for p in solved:
        known, _ = tracer.call("sdp.propagated_values", sdp.propagated_values, p)
        free.append(int(np.isnan(known).sum()))
    return free


def _copy_permutations(p: MomentProblem) -> list[dict]:
    """Per-source copy relabelings of an inflated problem, identity excluded."""
    if p.m is None:
        return []
    perms = [dict(zip(range(1, p.m + 1), images))
             for images in itertools.permutations(range(1, p.m + 1))]
    sources = p.alphabet.sources()
    return [dict(zip(sources, combo))
            for combo in itertools.product(perms, repeat=len(sources))
            if any(q[k] != k for q in combo for k in q)]


def replay_words(problems: dict[str, MomentProblem], tracer: Tracer) -> dict[str, int]:
    """Time the word work each build did, through public calls of ``words``:
    the index enumeration, the cell products over index pairs i <= j and
    the copy relabelings of every group key.  One span per batch; returns
    the number of words enumerated, products formed and keys relabelled."""
    counts = {"index_words": 0, "products": 0, "permutations": 0}
    for p in problems.values():
        with tracer.span("words.enumerate_words"):
            counts["index_words"] += len(words.enumerate_words(p.alphabet, p.n))
        index = p.index
        npairs = len(index) * (len(index) + 1) // 2
        counts["products"] += npairs
        with tracer.span("words.concat", calls=npairs):
            invols = [words.involute(w) for w in index]
            for i, u in enumerate(invols):
                for v in index[i:]:
                    words.concat(u, v)
        combos = _copy_permutations(p)
        if combos:
            counts["permutations"] += len(combos) * len(p.group_keys)
            with tracer.span("words.act_permutation",
                             calls=len(combos) * len(p.group_keys)):
                for combo in combos:
                    for k in p.group_keys:
                        words.act_permutation(k, None, alphabet=p.alphabet,
                                              perms_by_source=combo)
    return counts
