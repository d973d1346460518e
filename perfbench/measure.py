"""The measured loop and the metrics computed from it.

Imported by ``run.py`` once BLAS threads are capped and the checkout's
``src`` is on the import path.
"""

from __future__ import annotations

import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import hostspeed
import workloads as W

# the end-to-end metrics of the result line (BENCHMARK.json "end_to_end");
# every other end-to-end metric is printed in the report above it
GATED = ("setup_s", "verdict_s.p50", "verdicts_per_s", "peak_rss_mb")
# timings kept both as measured and in reference seconds (hostspeed.py)
SCALED = ("latency", "reject", "accept", "model")
REPLAYED_PRESOLVES = 8
MAX_FAILURES_SHOWN = 5


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

@dataclass
class Stats:
    verdicts: int = 0
    certifications: int = 0
    failed: int = 0
    decided: int = 0
    failures: list[str] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)   # every verdict
    reject: list[float] = field(default_factory=list)    # correct INFEASIBLE
    accept: list[float] = field(default_factory=list)    # correct FEASIBLE
    model: list[float] = field(default_factory=list)     # certified models
    model_dims: list[int] = field(default_factory=list)
    stages: Counter = field(default_factory=Counter)
    engine_iters: int = 0
    pinned: list[int] = field(default_factory=list)
    linear_rows: list[int] = field(default_factory=list)
    flagged: list[int] = field(default_factory=list)
    solved: list = field(default_factory=list)           # kept for the replay
    ref: dict = field(default_factory=lambda: {k: [] for k in SCALED})
    kernel: list[float] = field(default_factory=list)    # host kernel readings
    t0: float = 0.0
    t1: float = 0.0
    loop_s: float = 0.0       # wall time of the operations, kernel runs excluded
    ref_loop_s: float = 0.0   # the same in reference seconds

    @property
    def attempted(self) -> int:
        return self.verdicts + self.certifications

    def settle(self, elapsed: float, factor: float) -> None:
        """Add an item's wall time and scale the samples it produced."""
        self.loop_s += elapsed
        self.ref_loop_s += elapsed * factor
        for name in SCALED:
            raw, ref = getattr(self, name), self.ref[name]
            ref.extend(x * factor for x in raw[len(ref):])

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(what)


def verdict_op(name, problem, item, tracer, st: Stats) -> None:
    st.verdicts += 1
    with tracer.span("bench.decide"):
        try:
            t = time.perf_counter()
            p, out = W.decide(problem, item.dist, tracer)
            latency = time.perf_counter() - t
            reason = W.judge(item.expect[name], p, out, tracer)
        except Exception:
            st.fail(f"{item.kind} on {name}: {traceback.format_exc()}")
            return
    st.latency.append(latency)
    stage = W.decided_by(out)
    st.stages[(stage, out.verdict)] += 1
    st.engine_iters += out.iterations
    st.pinned.append(len(p.pinned))
    if p.factor_pairs or p.factor_triples:
        st.linear_rows.append(len(p.linear_factor_rows))
        st.flagged.append(len(p.flagged_bilinear))
    if tracer.enabled and len(st.solved) < REPLAYED_PRESOLVES:
        st.solved.append(p)
    if reason is not None:
        st.fail(f"{item.kind} on {name}: {reason}")
    elif out.verdict == "infeasible":
        st.decided += 1
        st.reject.append(latency)
    elif out.verdict == "feasible":
        st.decided += 1
        st.accept.append(latency)


def certify_op(levels, item, tracer, st: Stats) -> None:
    st.certifications += 1
    with tracer.span("bench.certify"):
        try:
            t = time.perf_counter()
            cert = W.certify(item.strategy, levels, tracer)
            elapsed = time.perf_counter() - t
        except Exception:
            st.fail(f"certification: {traceback.format_exc()}")
            return
    if cert is None:
        return
    if not cert.residual <= W.RESIDUAL_GATE:
        st.fail(f"certification: model residual {cert.residual:.3e} "
                f"> {W.RESIDUAL_GATE:g}")
        return
    st.model.append(elapsed)
    st.model_dims.append(cert.dim)


def run_loop(workload, problems, seed: int, seconds: float, tracer) -> Stats:
    """Whole cycles of the workload's stream until ``seconds`` have passed.
    On a workload with ``kernel_reps``, each item's operations are
    bracketed by readings of the host kernel."""
    st = Stats()
    items = W.stream(workload, seed)
    levels = workload.certification_levels(problems)
    reps = workload.kernel_reps
    if reps:
        st.kernel.append(hostspeed.kernel_s(reps))
    st.t0 = time.perf_counter()
    while True:
        for _ in range(workload.cycle_len):
            t = time.perf_counter()
            with tracer.span("scenarios.sample"):
                item = next(items)
            for name in workload.verdict_problems:
                tracer.op = st.attempted
                verdict_op(name, problems[name], item, tracer, st)
            if item.strategy is not None and levels:
                tracer.op = st.attempted
                certify_op(levels, item, tracer, st)
            elapsed = time.perf_counter() - t
            factor = 1.0
            if reps:
                st.kernel.append(hostspeed.kernel_s(reps))
                factor = hostspeed.scale(st.kernel[-2], st.kernel[-1])
            st.settle(elapsed, factor)
        tracer.op = -1
        if time.perf_counter() - st.t0 >= seconds:
            break
    st.t1 = time.perf_counter()
    return st


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(st: Stats, setup: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    """Timings in reference seconds.  Set-up is scaled on every workload,
    the loop only on a workload with ``kernel_reps``; ``wall.*`` repeats
    the scaled timings of the result line as measured.  ``setup`` holds
    (wall, reference) seconds per sample."""
    ref = st.ref
    m = {
        "setup_s": _metric(_median(r for _, r in setup), "s", len(setup)),
        "verdict_s.p50": _metric(_median(ref["latency"]), "s", len(st.latency)),
        "verdicts_per_s": _metric(st.verdicts / st.ref_loop_s, "1/s", st.verdicts),
        "decided_per_s": _metric(st.decided / st.ref_loop_s, "1/s", st.decided),
        "decided_ratio": _metric(st.decided / max(st.verdicts, 1), "ratio", st.verdicts),
        "error_ratio": _metric(st.failed / st.attempted, "ratio", st.attempted),
    }
    # a percentile is reported when it has samples to stand on: the median
    # when there is one, p90 only with at least 100 samples
    for kind, values in (("reject", ref["reject"]), ("accept", ref["accept"]),
                         ("model", ref["model"])):
        if values:
            m[f"{kind}_s.p50"] = _metric(_median(values), "s", len(values))
        if len(values) >= 100:
            m[f"{kind}_s.p90"] = _metric(
                statistics.quantiles(values, n=10)[8], "s", len(values))
    m["peak_rss_mb"] = _metric(peak_rss_mb, "MB", 1)
    m["wall.setup_s"] = _metric(_median(w for w, _ in setup), "s", len(setup))
    if st.kernel:
        m["wall.verdict_s.p50"] = _metric(_median(st.latency), "s", len(st.latency))
        m["wall.verdicts_per_s"] = _metric(st.verdicts / st.loop_s, "1/s", st.verdicts)
        m["host.kernel_s"] = _metric(_median(st.kernel), "s", len(st.kernel))
    return m


LAYERS = ("words", "scenarios", "moment", "factorisation", "sdp", "gns", "bench")


def per_layer(tracer, st: Stats, workload, problems, word_counts, free) -> dict:
    def med(name):
        d = tracer.durations(name)
        return _metric(_median(d), "s", len(d))

    def total(*names):
        d = [x for name in names for x in tracer.durations(name)]
        return _metric(sum(d), "s", len(d))

    def count(value, n):
        return _metric(value, "count", n)

    verdict = [problems[name] for name in workload.verdict_problems]
    engine_attempted = sum(v for (stage, _), v in st.stages.items() if stage == "engine")
    decided_engine = sum(v for (stage, verdict_), v in st.stages.items()
                         if stage == "engine" and verdict_ != "inconclusive")
    m = {
        "words.enumerate_s": total("words.enumerate_words"),
        "words.index_words": count(word_counts["index_words"], len(problems)),
        "words.products_s": total("words.concat"),
        "words.products": count(word_counts["products"], len(problems)),
        "words.permute_s": total("words.act_permutation"),
        "words.permutations": count(word_counts["permutations"], len(problems)),
        "scenarios.sample_s": med("scenarios.sample"),
        "moment.build_s": total("moment.build_inflation", "moment.build_standard",
                                "moment.build_factorisation_bilocal"),
        "moment.pin_s": med("moment.pin_distribution"),
        "moment.check_s": med("moment.check_assignment"),
        "moment.oracle_s": med("moment.oracle_assignment"),
        "moment.dim": count(sum(p.dim for p in verdict), len(verdict)),
        "moment.groups": count(sum(len(p.group_keys) for p in verdict), len(verdict)),
        "moment.classes": count(sum(p.n_classes for p in verdict), len(verdict)),
        "moment.rows": count(sum(len(p.rows) for p in verdict), len(verdict)),
        "moment.pinned": count(_median(st.pinned), len(st.pinned)),
        "factorisation.linearize_s": med("factorisation.pin_linearize"),
        "factorisation.linear_rows": count(_median(st.linear_rows), len(st.linear_rows)),
        "factorisation.flagged": count(_median(st.flagged), len(st.flagged)),
        "sdp.solve_s": med("sdp.solve_feasibility"),
        "sdp.presolve_s": med("sdp.propagated_values"),
        "sdp.free_classes": count(_median(free), len(free)),
        "sdp.decided_presolve": count(st.stages[("presolve", "feasible")]
                                      + st.stages[("presolve", "infeasible")], st.verdicts),
        "sdp.decided_interlacing": count(st.stages[("interlacing", "infeasible")],
                                         st.verdicts),
        "sdp.decided_engine": count(decided_engine, st.verdicts),
        "sdp.inconclusive": count(sum(v for (_, verdict_), v in st.stages.items()
                                      if verdict_ == "inconclusive"), st.verdicts),
        "sdp.engine_attempted": count(engine_attempted, st.verdicts),
        "sdp.engine_iters": count(st.engine_iters, st.verdicts),
        "sdp.engine_useful_ratio": _metric(decided_engine / max(engine_attempted, 1),
                                           "ratio", engine_attempted),
        "gns.rank_loop_s": med("gns.rank_loop_check"),
        "gns.reconstruct_s": med("gns.reconstruct"),
        "gns.verify_s": med("gns.verify_model"),
        "gns.model_dim": count(_median(st.model_dims), len(st.model_dims)),
        "gns.loops_ratio": _metric(len(st.model) / max(st.certifications, 1),
                                   "ratio", st.certifications),
    }
    selfs = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _metric(selfs.get(layer, 0.0), "s", 1)
    # the share of the loop's wall time that its top-level spans cover
    root = tracer.root_seconds(st.t0, st.t1)
    m["trace.coverage"] = _metric(root / st.loop_s, "ratio", len(tracer.spans))
    return m
