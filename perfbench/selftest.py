"""Fast self-test of the benchmark's generators and correctness check.

    python3 perfbench/selftest.py

Checks that a seed fixes the distribution stream bit for bit, that
different seeds give different streams with the same composition, that the
generated tables have the properties the ground truth relies on, that the
checker accepts and rejects the verdicts it should, and that the metric
names agree with BENCHMARK.json.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import run


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def prefix(W, workload, seed: int):
    stream = W.stream(workload, seed)
    return [next(stream) for _ in range(3 * workload.cycle_len)]


def check_generators(W) -> None:
    for workload in W.WORKLOADS.values():
        a, b = prefix(W, workload, 7), prefix(W, workload, 7)
        expect(all(x.dist.table.tobytes() == y.dist.table.tobytes()
                   for x, y in zip(a, b)), f"{workload.name}: seed 7 not reproducible")
        streams = [prefix(W, workload, seed) for seed in range(5)]
        kinds = [[(x.kind, x.strategy is not None) for x in s] for s in streams]
        expect(all(k == kinds[0] for k in kinds),
               f"{workload.name}: cycle composition depends on the seed")
        raw = [b"".join(x.dist.table.tobytes() for x in s) for s in streams]
        expect(len(set(raw)) == len(raw), f"{workload.name}: two seeds give one stream")
        for x in a:
            expect(set(x.expect) == set(workload.verdict_problems),
                   f"{workload.name}: an item lacks a ground truth")


def check_tables(W) -> None:
    import numpy as np
    from netnpa.scenarios import shared_random_bit

    rng = np.random.default_rng(0)
    srb = shared_random_bit("triangle")
    for _ in range(20):
        t = W.relabel(srb, rng).table.reshape(2, 2, 2)
        support = np.argwhere(t > 0)
        expect(len(support) == 2 and np.allclose(t[tuple(support.T)], 0.5)
               and (support[0] + support[1] == 1).all(),
               "a relabeled SRB is not supported on two complementary outcomes")
    for _ in range(200):
        t = W.mixture(rng).table
        v = (t.max() - 1 / 8) / (1 / 2 - 1 / 8)
        expect(W.V_MIN - 1e-12 <= v <= 1 + 1e-12, f"mixture weight {v} out of range")
        ac = t.reshape(2, 2, 2).sum(axis=1)
        expect(np.abs(ac - np.outer(ac.sum(1), ac.sum(0))).max() >= W.V_MIN / 4 - 1e-12,
               "a mixture's A-C marginal factorises")


def check_judge(W) -> None:
    from netnpa import moment, sdp
    from tracing import Tracer

    tracer = Tracer(enabled=False)
    problem = moment.pin_distribution(moment.build_standard(W.BILOCAL, 2),
                                      W.uniform(W.BILOCAL))
    good = sdp.solve_feasibility(problem)
    expect(good.verdict == "feasible", "uniform on standard n=2 is not feasible")
    infeasible = sdp.FeasibilityOutcome("infeasible", t_star=-1.0, evidence="violated row")
    inconclusive = sdp.FeasibilityOutcome("inconclusive", t_star=-1e-5,
                                          evidence="projection engine stalled")
    bad_report = replace(good.residuals, extended_products=2 * W.RESIDUAL_GATE)
    bad_witness = good.witness.copy()
    bad_witness[0, 1] += 1e-3
    bad_witness[1, 0] += 1e-3
    cases = [
        (W.INFEASIBLE, infeasible, True),
        (W.INFEASIBLE, good, False),
        (W.INFEASIBLE, inconclusive, False),
        (W.NOT_INFEASIBLE, infeasible, False),
        (W.NOT_INFEASIBLE, inconclusive, True),
        (W.NOT_INFEASIBLE, good, True),
        (W.NOT_INFEASIBLE, replace(good, residuals=None), False),
        (W.NOT_INFEASIBLE, replace(good, residuals=bad_report), False),
        (W.NOT_INFEASIBLE, replace(good, witness=bad_witness), False),
    ]
    for i, (truth, outcome, ok) in enumerate(cases):
        reason = W.judge(truth, problem, outcome, tracer)
        expect((reason is None) == ok, f"judge case {i}: {reason}")
    for evidence, stage in (("violated completeness row: ...", "presolve"),
                            ("fully determined by the linear constraints", "presolve"),
                            ("pinned principal submatrix on 49 words has min "
                             "eigenvalue -0.75 (interlacing bound)", "interlacing"),
                            ("alternating projections", "engine"),
                            ("projection engine stalled; ...", "engine")):
        got = W.decided_by(sdp.FeasibilityOutcome("feasible", 0.0, evidence=evidence))
        expect(got == stage, f"{evidence!r} classified as {got}")


def check_names(W) -> None:
    import measure
    from netnpa import moment
    from tracing import Tracer

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(W.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expect([m["name"] for m in bench["end_to_end"]] == list(measure.GATED),
           "BENCHMARK.json end_to_end differs from measure.GATED")
    problem = moment.build_standard(W.BILOCAL, 2)
    layer = measure.per_layer(Tracer(enabled=True), measure.Stats(loop_s=1.0),
                              SimpleNamespace(verdict_problems=("p",)), {"p": problem},
                              {"index_words": 0, "products": 0, "permutations": 0}, [])
    expect([m["name"] for m in bench["per_layer"]] == list(layer),
           "BENCHMARK.json per_layer differs from measure.per_layer")


def main() -> int:
    run.cap_blas_threads()
    run.import_netnpa()
    import workloads as W

    for check in (check_generators, check_tables, check_judge, check_names):
        check(W)
        print(f"selftest {check.__name__}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
