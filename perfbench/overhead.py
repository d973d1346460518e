"""Tracing overhead per workload.

    python3 perfbench/overhead.py --seed 1 --seconds 10 --pairs 3 [--workload NAME ...]

Runs ``run.py`` untraced and traced on the same seed, ``--pairs`` times in
alternating order, and reports the overhead as the median traced minus the
median untraced loop seconds per operation.  It also checks that the
traced runs' top-level spans account for the untraced loop time: per
operation the two may differ by no more than the overhead plus the spread
(max - min) / median of the untraced runs themselves, the noise between two
processes on the same host.  Set-up and the replays after the loop are not
compared.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def report(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    line = next(ln for ln in out.stdout.splitlines() if ln.startswith("report "))
    return json.loads(line[len("report "):])


def per_op(rep: dict) -> float:
    return rep["loop_s"] / (rep["verdicts"] + rep["certifications"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--workload", nargs="*",
                    default=["triangle-infl22", "bilocal-infl22-quantum",
                             "bilocal-n3-many"])
    args = ap.parse_args(argv)
    ok = True
    for name in args.workload:
        plain, traced = [], []
        for k in range(args.pairs):
            for trace in ((0, 1) if k % 2 == 0 else (1, 0)):
                rep = report(name, args.seed, args.seconds, trace)
                (traced if trace else plain).append(rep)
        u_ops = [per_op(r) for r in plain]
        u = statistics.median(u_ops)
        t = statistics.median(per_op(r) for r in traced)
        roots = statistics.median(per_op(r) * r["metrics"]["trace.coverage"]["value"]
                                  for r in traced)
        noise = (max(u_ops) - min(u_ops)) / u
        within = abs(roots - u) <= abs(t - u) + noise * u
        ok &= within
        print(json.dumps({
            "workload": name, "seed": args.seed, "pairs": args.pairs,
            "untraced_s_per_op": u, "traced_s_per_op": t,
            "overhead_s_per_op": t - u, "overhead_ratio": (t - u) / u,
            "top_spans_s_per_op": roots, "untraced_spread": noise,
            "spans_account_for_untraced_loop": within}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
