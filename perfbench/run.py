"""Closed-loop benchmark of the netnpa decision pipeline.

    python3 perfbench/run.py --workload bilocal-n3-many --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One process and one caller.  A workload builds its hierarchy problems once
(set-up), then sends its seeded distributions one after another through
``moment.pin_distribution`` -> ``factorisation.pin_linearize`` (when factor
pairs exist) -> ``sdp.solve_feasibility``, in whole cycles until
``--seconds`` have passed, and checks every verdict against the ground
truth in ``workloads.py``.  BLAS threads are capped at the number of CPUs
this process may use.

``--trace 0`` reports the end-to-end metrics; set-up is sampled again in
fresh child processes and the median is reported.  ``--trace 1`` records a
span around every call into netnpa, replays the builds' word work and the
presolve after the loop, reports the per-layer metrics and writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

T_SCRIPT = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
BLAS_THREADS = 1
HASH_SEED = "0"
# kernel runs in the host-speed reading that scales set-up (hostspeed.py)
SETUP_KERNEL_REPS = 20


# ---------------------------------------------------------------------------
# Process environment
# ---------------------------------------------------------------------------

def fix_hash_seed() -> None:
    """Re-execute under a fixed string-hash seed.

    netnpa keys its moment classes by word tuples in dicts and sets, so a
    random hash seed changes collision chains and iteration order from one
    process to the next.  On two shared vCPUs it made ten runs of one seed
    on ``bilocal-n3-many`` spread about twice as wide as with the seed fixed.
    The exec keeps the process, so set-up time still counts from its start."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def cap_blas_threads() -> tuple[int, int]:
    """Run BLAS on one thread; must run before numpy is imported.

    On two shared vCPUs, two BLAS threads made one triangle SRB solve vary
    from 2.7 s to 3.8 s between repeats, while one thread held it within
    +-1 % of 4.3 s, so the benchmark trades speed for steadiness."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0)), BLAS_THREADS


def import_netnpa() -> None:
    src = ROOT / "src"
    if not (src / "netnpa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no netnpa sources under {src}")
    sys.path.insert(0, str(src))
    import netnpa

    if Path(netnpa.__file__).resolve().parent != src / "netnpa":
        raise SystemExit(f"perfbench: netnpa imported from {netnpa.__file__}, "
                         f"not from {src}")


def since_process_start() -> float:
    """Seconds since this process was started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_SCRIPT


def blas_runtime_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS (numpy and scipy may
    each bring their own)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment(nproc: int, threads: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        import cvxopt  # noqa: F401  (solve_feasibility's engine="auto" switches on it)
        have_cvxopt = True
    except ImportError:
        have_cvxopt = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads_cap": threads, "blas_threads": blas_runtime_threads(),
            "nproc": nproc, "cvxopt": have_cvxopt}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def setup_sample(wall: float, kernel: float) -> tuple[float, float]:
    """(wall, reference) seconds of a set-up followed by a kernel reading.
    Set-up is imports and pure-Python builds on every workload, which the
    kernel tracks."""
    import hostspeed

    return wall, wall * hostspeed.scale(kernel, kernel)


def setup_in_child(name: str) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return setup_sample(res["setup_s"], res["kernel_s"])


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:<14.6g} {m['unit']:<6} n={m['n']}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the problems, print the set-up time and exit")
    args = ap.parse_args(argv)

    fix_hash_seed()
    nproc, threads = cap_blas_threads()
    import_netnpa()
    if args.workload == "all":
        return run_all(args)
    import hostspeed
    import measure
    import workloads as W
    from tracing import Tracer

    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(W.WORKLOADS)} or all")
    workload = W.WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    problems = workload.build(tracer)
    setup_wall = since_process_start()
    setup_kernel = hostspeed.kernel_s(SETUP_KERNEL_REPS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_wall, "kernel_s": setup_kernel}))
        return 0

    st = measure.run_loop(workload, problems, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer.enabled:
        word_counts = W.replay_words(problems, tracer)
        free = W.replay_presolve(st.solved, tracer)
        metrics = measure.per_layer(tracer, st, workload, problems, word_counts, free)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
        result_names = list(metrics)
    else:
        setup = [setup_sample(setup_wall, setup_kernel)]
        setup += [setup_in_child(workload.name)
                  for _ in range(workload.setup_samples - 1)]
        metrics = measure.end_to_end(st, setup, peak_rss_mb)
        result_names = list(measure.GATED)

    print_table(f"{workload.name} seed={args.seed} trace={args.trace}: "
                f"{st.verdicts} verdicts, {st.certifications} certifications, "
                f"{st.failed} failed in {st.loop_s:.3f} s", metrics)
    for f in st.failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print("report " + json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop_s": st.loop_s, "verdicts": st.verdicts,
        "certifications": st.certifications, "failures": st.failures,
        "environment": environment(nproc, threads), "metrics": metrics}))
    print(json.dumps({
        "correct": st.failed == 0, "attempted": st.attempted, "failed": st.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in result_names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
