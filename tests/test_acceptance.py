"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time

import numpy as np
import pytest

from netnpa import factorisation as F
from netnpa import gns, sdp
from netnpa.moment import (
    MomentAssignment,
    build_factorisation_bilocal,
    build_inflation,
    check_assignment,
    inflation_to_scalar_extension,
    oracle_assignment,
    pin_distribution,
    required_inflation_words,
)
from netnpa.scenarios import (
    InflatedBilocalOracle,
    MomentOracle,
    Scenario,
    mixed_counterexample,
    random_strategy,
    shared_random_bit,
)
from netnpa.words import (
    EMPTY_WORD,
    Letter,
    concat,
    scalar_letter,
    word,
)

from helpers import (
    BILOCAL_111,
    all_sequences,
    brute_canonical,
    cached_problem,
    meas,
    rewrite_closure,
)

BILOCAL = Scenario(*BILOCAL_111)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_triangle_inflation_rejects_srb():
    t0 = time.time()
    sc = Scenario("triangle", (2, 2, 2), (1, 1, 1))
    problem = pin_distribution(build_inflation(sc, 2, 2),
                               shared_random_bit("triangle"))
    out = sdp.solve_feasibility(problem)
    elapsed = time.time() - t0
    ok = (out.verdict == "infeasible" and out.t_star <= -1e-4
          and elapsed < 60.0)
    report(1, ok, f"triangle Xi^(2,2) shared random bit: {out.verdict}, "
                  f"t*={out.t_star:.4g}, {elapsed:.1f}s")


def test_criterion_2_bilocal_separation():
    srb = shared_random_bit("bilocal")
    t0 = time.time()
    fac = pin_distribution(build_factorisation_bilocal(BILOCAL, 3), srb)
    out_fac = sdp.solve_feasibility(F.pin_linearize(fac))
    fac_time = time.time() - t0
    std = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), srb)
    out_std = sdp.solve_feasibility(std)
    ok = (out_fac.verdict == "infeasible" and fac_time < 10.0
          and "0.25" in out_fac.evidence and "0.5" in out_fac.evidence
          and out_std.verdict == "feasible")
    report(2, ok, f"factorisation n=3 {out_fac.verdict} in {fac_time:.1f}s "
                  f"(1/2 vs 1/4 conflict), standard n=3 {out_std.verdict}")


def test_criterion_3_soundness_suite_50_strategies():
    problems = {
        "standard": cached_problem("standard", *BILOCAL_111, 3),
        "factorisation": cached_problem("factorisation", *BILOCAL_111, 3),
        "scalar": cached_problem("scalar", *BILOCAL_111, 3),
        "inflation": cached_problem("inflation", *BILOCAL_111, 2, 2),
    }
    worst = 0.0
    for seed in range(50):
        strategy = random_strategy(BILOCAL, (2, 2, 2, 2), seed)
        oracle = MomentOracle(strategy)
        dist = oracle.born()
        for name, problem in problems.items():
            pinned = pin_distribution(problem, dist)
            src = (InflatedBilocalOracle(strategy, 2) if name == "inflation"
                   else oracle)
            assignment = oracle_assignment(pinned, src)
            rep = check_assignment(pinned, assignment)
            worst = max(worst, rep.max_residual())
    ok = worst <= 1e-8
    report(3, ok, f"50 seeded strategies x 4 hierarchies, "
                  f"max residual {worst:.3e} (tol 1e-8)")


def _loop_and_reconstruct(seed: int):
    strategy = random_strategy(BILOCAL, (2, 2, 2, 2), seed)
    oracle = MomentOracle(strategy)
    prev = oracle_assignment(cached_problem("factorisation", *BILOCAL_111, 2),
                             oracle)
    for N in (3, 4, 5):
        cur = oracle_assignment(cached_problem("factorisation", *BILOCAL_111, N),
                                oracle)
        if gns.rank_loop_check(prev, cur).loop:
            return strategy, oracle, N, cur
        prev = cur
    return strategy, oracle, None, cur


def test_criteria_4_and_5_gns_round_trip():
    worst_dist = worst_model = worst_overlap = 0.0
    loops = []
    for seed in range(20):
        strategy, oracle, N, assignment = _loop_and_reconstruct(seed)
        loops.append(N)
        if N is None:
            continue
        model = gns.reconstruct(assignment)
        res = gns.verify_model(model, assignment)
        d = gns.evaluate(model)
        worst_dist = max(worst_dist,
                         float(np.abs(d.table - oracle.born().table).max()))
        worst_model = max(worst_model, res.max_residual())
        worst_overlap = max(worst_overlap, res.family_overlap)
    ok4 = all(N is not None and N <= 5 for N in loops) \
        and worst_dist <= 1e-6 and worst_model <= 1e-7
    report(4, ok4, f"20 seeds: rank loops at N in {sorted(set(loops))}, "
                   f"distribution error {worst_dist:.3e} (tol 1e-6), "
                   f"model residuals {worst_model:.3e} (tol 1e-7)")
    ok5 = worst_overlap <= 1e-8
    report(5, ok5, f"max |<v_i0|v_0j>| = {worst_overlap:.3e} (tol 1e-8)")


def test_criterion_6_inflation_to_scalar_extension():
    n, m = 2, 7
    words = required_inflation_words(BILOCAL, n, m)
    problem = build_inflation(BILOCAL, n=max(len(w) for w in words), m=m,
                              index_words=words)
    worst = 0.0
    for seed in (0, 1, 2):
        strategy = random_strategy(BILOCAL, (2, 2, 2, 2), seed)
        xi = oracle_assignment(problem, InflatedBilocalOracle(strategy, m))
        omega = inflation_to_scalar_extension(xi, n, m)
        rep = check_assignment(omega.problem, omega)
        worst = max(worst, rep.max_residual())
    ok = worst <= 1e-9
    report(6, ok, f"Omega from Xi (n=2, m=7): max residual {worst:.3e} "
                  f"(tol 1e-9)")


def test_criterion_7_mixed_state_counterexample():
    s = mixed_counterexample()
    ops = {key: s.pvms[key] for key in s.pvms}

    def direct(words_ops):
        out = s.tau.copy()
        for op in words_ops:
            out = out @ op
        return float(np.trace(out).real)

    A = ops[("A", 0)]
    B = ops[("B", 0)]
    C = ops[("C", 0)]
    q000 = direct([A[0], B[0], C[0]])
    q111 = direct([A[1], B[1], C[1]])
    exact_srb = (q000 == 0.5 and q111 == 0.5
                 and direct([A[0], B[0], C[1]]) == 0.0)
    comm = 0.0
    for O1, O2 in itertools.combinations([A[0], A[1], B[0], B[1], C[0], C[1]], 2):
        comm = max(comm, float(np.abs(O1 @ O2 - O2 @ O1).max()))
    states_ok = (np.abs(s.rho @ s.sigma - s.tau).max() <= 1e-12
                 and np.abs(s.sigma @ s.rho - s.tau).max() <= 1e-12)
    purity = float(np.trace(s.tau @ s.tau).real)
    # direct-trace moment assignment over the factorisation problem
    problem = cached_problem("factorisation", *BILOCAL_111, 3)
    full_ops = {("A", 0, o): A[o] for o in range(2)}
    full_ops.update({("B", 0, o): B[o] for o in range(2)})
    full_ops.update({("C", 0, o): C[o] for o in range(2)})
    values = [direct([full_ops[(l.party, l.input, l.output)] for l in key.letters])
              for key in problem.group_keys]
    mat = np.zeros((problem.dim, problem.dim))
    for i in range(problem.dim):
        for j in range(problem.dim):
            mat[i, j] = values[problem.cell_group[i, j]]
    assignment = MomentAssignment(problem, (mat + mat.T) / 2)
    resid = F.verify_factorisation(assignment)
    a0, c0 = word([meas("A")]), word([meas("C")])
    vals = assignment.class_values()
    pair = next(fc for fc in problem.factor_pairs
                if fc.row_word == a0 and fc.col_word == c0)
    gap_a0c0 = abs(vals[pair.cls_prod] - vals[pair.cls_row] * vals[pair.cls_col])
    ok = (exact_srb and comm <= 1e-12 and states_ok and purity == 0.5
          and resid == 0.25 and gap_a0c0 == 0.25)
    report(7, ok, f"q(000)={q000}, q(111)={q111}, commutators {comm:.1e}, "
                  f"Tr tau^2={purity}, factorisation gap at (A0,C0) = {gap_a0c0}")


def test_criterion_8_chsh_tsirelson():
    sc = Scenario("bell3", (2, 2, 1), (2, 2, 1))
    problem = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2)
    objective: dict[int, float] = {}
    for x in range(2):
        for y in range(2):
            sign = -1.0 if x == 1 and y == 1 else 1.0
            for a in range(2):
                for b in range(2):
                    w = concat(word([Letter("measurement", "A", a, x)]),
                               word([Letter("measurement", "B", b, y)]))
                    cls = problem.class_of_cell(EMPTY_WORD, w)
                    objective[cls] = objective.get(cls, 0.0) \
                        + sign * (-1.0) ** (a + b)
    value, _X = sdp.maximize_linear(problem, objective)
    ok = abs(value - 2 * np.sqrt(2)) <= 1e-3
    report(8, ok, f"CHSH at level 2 = {value:.9f} "
                  f"(analytic 2*sqrt(2) = {2 * np.sqrt(2):.9f})")


def test_criterion_9_word_algebra_brute_force():
    alphabets = [
        ("plain bilocal", (meas("A", 0), meas("A", 1), meas("B", 0),
                           meas("B", 1), meas("C", 0), meas("C", 1))),
        ("inflated", (meas("A", copies=(1,)), meas("A", copies=(2,)),
                      meas("B", copies=(1, 1)), meas("B", copies=(1, 2)),
                      meas("C", copies=(1,)), meas("C", copies=(2,)))),
        ("scalar", (meas("A", 0), scalar_letter(word([meas("A", 0)])),
                    meas("B", 0), meas("C", 0))),
    ]
    checked = 0
    for name, letters in alphabets:
        for seq in all_sequences(letters, 5):
            canon = tuple(word(seq).letters)
            closure = rewrite_closure(seq)
            assert canon in closure, (name, seq)
            assert canon == brute_canonical(seq), (name, seq)
            checked += 1
    report(9, True, f"{checked} letter sequences (3 alphabets, length <= 5): "
                    "canonical forms all match the rewrite closure")


def test_criterion_10_sdpa_round_trip(tmp_path):
    fixtures = {
        "standard": sdp.compile(
            cached_problem("standard", "bell3", (2, 2, 2), (1, 1, 1), 2)),
        "factorisation-srb": sdp.compile(F.pin_linearize(pin_distribution(
            cached_problem("factorisation", *BILOCAL_111, 3),
            shared_random_bit("bilocal")))),
        "scalar": sdp.compile(cached_problem("scalar", *BILOCAL_111, 2)),
        "inflation": sdp.compile(cached_problem("inflation", *BILOCAL_111, 2, 2)),
        "star": sdp.compile(F.pin_linearize(pin_distribution(
            cached_problem("star", "star4", (2, 2, 2, 2), (1, 1, 1, 1), 4),
            shared_random_bit("star4")))),
    }
    for name, s in fixtures.items():
        p1 = tmp_path / f"{name}.dat-s"
        p2 = tmp_path / f"{name}.rt.dat-s"
        sdp.export_sdpa(s, str(p1))
        parsed = sdp.parse_sdpa(str(p1))
        assert parsed.rows == s.rows, name
        assert parsed.dim == s.dim, name
        sdp.export_sdpa(parsed, str(p2))
        assert p1.read_bytes() == p2.read_bytes(), name
    report(10, True, f"byte-exact SDPA round trip on {len(fixtures)} fixtures")
