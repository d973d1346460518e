"""SDP compilation, solving, projection, and SDPA export."""

import dataclasses
import os

import numpy as np
import pytest

from netnpa import factorisation, sdp
from netnpa.moment import (
    FlatRows,
    build_factorisation_bilocal,
    build_standard,
    oracle_assignment,
    pin_distribution,
)
from netnpa.scenarios import (
    Distribution,
    MomentOracle,
    Scenario,
    product_distribution,
    random_strategy,
    shared_random_bit,
)
from netnpa.sdp import (
    AffineSdp,
    SdpRow,
    SdpStructureError,
    compile,
    export_sdpa,
    maximize_linear,
    parse_sdpa,
    project_psd,
    propagated_values,
    solve_feasibility,
    _affine_projector,
    _ClassSystem,
    _outcome_feasible,
)
from netnpa.words import EMPTY_WORD, Letter, concat, word

from helpers import (
    BILOCAL_111,
    TRIANGLE_111,
    cached_problem,
    dense_rows,
    loop_cells,
    loop_class_rep_cells,
    loop_compile_rows,
    loop_propagate,
    loop_reduced_rows,
    loop_submatrix_words,
    meas,
)

BILOCAL = Scenario(*BILOCAL_111)


# --- compile -----------------------------------------------------------------

def test_compile_counts_bell3_n1():
    p = cached_problem("standard", "bell3", (2, 2, 2), (1, 1, 1), 1)
    s = compile(p)
    # hand count on the 7-word index: 28 upper cells collapse into 22
    # classes (6 tie rows), one pin, 18 deduplicated completeness rows
    n_upper = 7 * 8 // 2
    assert len(s.rows) == (n_upper - p.n_classes) + 1 + len(p.rows)
    assert len(s.rows) == 6 + 1 + 18


def test_compile_rejects_bilinear():
    p = cached_problem("factorisation", *BILOCAL_111, 3)
    with pytest.raises(SdpStructureError, match="linearize"):
        compile(p)


def test_compile_linearized_factorisation():
    p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                         shared_random_bit("bilocal"))
    lp = factorisation.pin_linearize(p)
    s = compile(lp)  # all pairs resolved; compiles fine
    assert s.dim == p.dim


def test_compile_scalar_extension_is_linear():
    p = cached_problem("scalar", *BILOCAL_111, 2)
    s = compile(p)
    assert s.dim == p.dim


# --- project_psd ---------------------------------------------------------------

def test_project_psd_examples():
    out = project_psd(np.diag([1.0, -1.0]))
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-14
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    M = (M + M.T) / 2
    P = project_psd(M)
    w = np.linalg.eigvalsh(M)
    assert np.linalg.eigvalsh(P).min() > -1e-12
    # distance equals the negative-eigenvalue mass
    assert abs(np.linalg.norm(M - P) ** 2 - (w[w < 0] ** 2).sum()) < 1e-10
    psd = P + 1e-3 * np.eye(6)
    assert np.abs(project_psd(psd) - psd).max() < 1e-12


def test_project_psd_nonexpansive():
    rng = np.random.default_rng(1)
    for _ in range(5):
        A = rng.normal(size=(5, 5))
        B = rng.normal(size=(5, 5))
        A, B = (A + A.T) / 2, (B + B.T) / 2
        assert (np.linalg.norm(project_psd(A) - project_psd(B))
                <= np.linalg.norm(A - B) + 1e-12)


def test_project_psd_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        project_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- feasibility ----------------------------------------------------------------

def test_feasible_oracle_pinned_problem():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 31)
    orc = MomentOracle(st)
    p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), orc.born())
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.residuals.max_residual() < 1e-7


def test_srb_standard_feasible_vs_factorisation_infeasible():
    srb = shared_random_bit("bilocal")
    std = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), srb)
    out_std = solve_feasibility(std)
    assert out_std.verdict == "feasible"
    fac = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3), srb)
    out_fac = solve_feasibility(factorisation.pin_linearize(fac))
    assert out_fac.verdict == "infeasible"
    assert out_fac.t_star <= -0.05


def test_infeasibility_monotone_in_level():
    srb = shared_random_bit("bilocal")
    for n in (3, 4):
        p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, n), srb)
        out = solve_feasibility(factorisation.pin_linearize(p))
        assert out.verdict == "infeasible"


def test_engines_agree_on_multi_input_instance(monkeypatch):
    sc = Scenario("bilocal", (2, 2, 2), (2, 1, 1))
    st = random_strategy(sc, (2, 2, 2, 2), 5)
    p = pin_distribution(build_standard(sc, 2), MomentOracle(st).born())
    out_c = solve_feasibility(p)
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    out_p = solve_feasibility(p, max_iter=20000)
    assert out_c.verdict == "feasible"
    assert out_p.verdict == "feasible"
    assert out_p.residuals.max_residual() < 1e-6


def test_solver_deterministic():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 31)
    p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3),
                         MomentOracle(st).born())
    out1 = solve_feasibility(p)
    out2 = solve_feasibility(p)
    assert out1.verdict == out2.verdict
    assert out1.t_star == out2.t_star
    assert np.array_equal(out1.witness, out2.witness)


def test_propagated_values_match_oracle():
    st = random_strategy(BILOCAL, (2, 2, 2, 2), 3)
    orc = MomentOracle(st)
    p = pin_distribution(cached_problem("standard", *BILOCAL_111, 3), orc.born())
    known, contradiction = propagated_values(p)
    assert contradiction is None
    vals = oracle_assignment(p, orc).class_values()
    mask = ~np.isnan(known)
    assert np.abs(known[mask] - vals[mask]).max() < 1e-10


# --- CHSH -----------------------------------------------------------------------

def chsh_problem_and_objective(level=2):
    sc = Scenario("bell3", (2, 2, 1), (2, 2, 1))
    p = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), level)
    obj: dict[int, float] = {}
    for x in range(2):
        for y in range(2):
            sign = -1.0 if x == 1 and y == 1 else 1.0
            for a in range(2):
                for b in range(2):
                    w = concat(word([Letter("measurement", "A", a, x)]),
                               word([Letter("measurement", "B", b, y)]))
                    cls = p.class_of_cell(EMPTY_WORD, w)
                    obj[cls] = obj.get(cls, 0.0) + sign * (-1.0) ** (a + b)
    return p, obj


def test_chsh_tsirelson_level2():
    p, obj = chsh_problem_and_objective()
    value, X = maximize_linear(p, obj)
    assert abs(value - 2 * np.sqrt(2)) < 1e-6


def test_maximize_linear_refuses_a_problem_too_large_for_the_interior_point(
        monkeypatch):
    p, obj = chsh_problem_and_objective()
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    with pytest.raises(SdpStructureError, match="too large"):
        maximize_linear(p, obj)


def noisy_pr_box(v):
    # v * PR box + (1 - v) * white noise; quantum iff v <= 1/sqrt(2)
    sc = Scenario("bell3", (2, 2, 1), (2, 2, 1))
    t = np.zeros((2, 2, 1, 2, 2, 1))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        pr = 0.5 if (a ^ b) == (x & y) else 0.0
        t[a, b, 0, x, y, 0] = v * pr + (1 - v) * 0.25
    return Distribution(sc, t)


def test_interior_point_decides_noisy_pr_box_at_tsirelson():
    p = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2)
    inside = solve_feasibility(pin_distribution(p, noisy_pr_box(0.70)))
    assert inside.verdict == "feasible"
    assert inside.residuals.max_residual() < 1e-7
    outside = solve_feasibility(pin_distribution(p, noisy_pr_box(0.725)))
    assert outside.verdict == "infeasible"
    assert "interior point" in outside.evidence
    # the optimum, max over completions of the min eigenvalue, is negative
    assert outside.t_star < -0.01


def test_max_iter_bounds_the_projections_on_the_default_route(monkeypatch):
    p = cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2)
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    out = solve_feasibility(pin_distribution(p, noisy_pr_box(0.725)),
                            max_iter=2100)
    assert out.verdict == "inconclusive"
    assert out.iterations == 2100


@pytest.mark.parametrize("seed", range(6))
def test_bilocal_inflation_is_decided_by_the_interior_point(seed):
    p = pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                         MomentOracle(random_strategy(
                             BILOCAL, (2, 2, 2, 2), seed)).born())
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.evidence.startswith("interior point")


# --- linear presolve -------------------------------------------------------------

def flip_outputs(dist, parties):
    """Relabel the outputs 0 <-> 1 of the parties at the given positions."""
    table = dist.table
    for axis in parties:
        table = np.flip(table, axis=axis)
    return Distribution(dist.scenario, table)


def _presolve_problem(name):
    kind, _, label = name.partition(":")
    if kind == "triangle":
        sc = Scenario(*TRIANGLE_111)
        dist = (uniform_product(sc) if label == "uniform" else
                flip_outputs(shared_random_bit("triangle"),
                             [int(c) for c in label[len("srb"):]]))
        return pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                                dist)
    if kind == "bilocal-inflation":
        return pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                                MomentOracle(random_strategy(
                                    BILOCAL, (2, 2, 2, 2), int(label))).born())
    if kind == "chsh":
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(0.7))
    srb = shared_random_bit("bilocal")
    dist = {"srb": srb,
            "mixture": Distribution(BILOCAL, 0.3 * srb.table
                                    + 0.7 * uniform_product(BILOCAL).table),
            "born": MomentOracle(random_strategy(BILOCAL, (2, 2, 2, 2), 4)).born(),
            }[label]
    p = pin_distribution(cached_problem(kind, *BILOCAL_111, 3), dist)
    return factorisation.pin_linearize(p) if kind == "factorisation" else p


PRESOLVE_CASES = ["triangle:srb", "triangle:srb0", "triangle:srb02",
                  "triangle:uniform", "bilocal-inflation:0",
                  "bilocal-inflation:1", "bilocal-inflation:2",
                  "standard:srb", "standard:mixture", "standard:born",
                  "factorisation:srb", "factorisation:mixture",
                  "factorisation:born", "chsh"]


@pytest.mark.parametrize("name", PRESOLVE_CASES)
def test_presolve_matches_the_loop_reference(name):
    p = _presolve_problem(name)
    cs = _ClassSystem(p)
    known, pending, contradiction = loop_propagate(p)
    assert cs.contradiction == contradiction
    if contradiction is not None:
        # the presolve stops at the contradiction, so the values set by
        # then depend on the order of the work; the evidence does not
        return
    assert np.array_equal(cs.known, known, equal_nan=True)
    assert cs._pending.tolist() == pending
    R, b = cs._reduced_rows()
    R_ref, b_ref = loop_reduced_rows(p, known, pending)
    for got, want in zip(R, R_ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(b, b_ref)
    assert cs.known_submatrix_bound()[1] == loop_submatrix_words(known, p.cell_class)


@pytest.mark.parametrize("label", ["srb", "mixture"])
def test_presolve_evidence_on_factorisation_is_the_loops(label):
    p = _presolve_problem(f"factorisation:{label}")
    evidence = _ClassSystem(p).contradiction
    assert evidence is not None
    assert evidence.startswith("violated factorisation (linearized) row")
    assert evidence == loop_propagate(p)[2]


def _with_rows(rows):
    """The CHSH problem pinned to a noisy PR box, with ``rows`` added, a
    pinned class and two classes the presolve leaves free."""
    p = _presolve_problem("chsh")
    one = p.class_of_cell(EMPTY_WORD, EMPTY_WORD)
    x, y = (int(c) for c in _ClassSystem(p).free[:2])
    return dataclasses.replace(p, linear_factor_rows=rows(one, x, y)), x, y


@pytest.mark.parametrize("rhs", [1.0, 2.0], ids=["consistent", "inconsistent"])
def test_presolve_zero_coefficient_on_the_single_unknown(rhs):
    p, x, y = _with_rows(lambda one, x, y: FlatRows.padded(
        [[one, x]], [[1.0, 0.0]], [rhs], ["added"]))
    # the explicit zero coefficient is kept
    assert p.linear_factor_rows.coeffs.tolist() == [1.0, 0.0]
    cs = _ClassSystem(p)
    known, pending, contradiction = loop_propagate(p)
    assert cs.contradiction == contradiction
    if rhs == 1.0:
        assert contradiction is None
        # the row is checked and dropped; it sets nothing
        assert np.isnan(cs.known[x])
        assert len(p.active_rows) - 1 not in cs._pending.tolist()
        assert np.array_equal(cs.known, known, equal_nan=True)
    else:
        assert contradiction.startswith("violated added row")
        assert "(residual -1.000e+00)" in contradiction


@pytest.mark.parametrize("second", [0.25, 0.5], ids=["agree", "disagree"])
def test_presolve_two_rows_solving_one_class(second):
    p, x, y = _with_rows(lambda one, x, y: FlatRows.padded(
        [[x], [x]], [[1.0], [1.0]], [0.25, second], ["added", "added"]))
    cs = _ClassSystem(p)
    _known, _pending, contradiction = loop_propagate(p)
    assert cs.contradiction == contradiction
    if second == 0.25:
        assert contradiction is None
        assert cs.known[x] == 0.25
    else:
        # the first row in row order sets the class, the second is checked
        assert contradiction.endswith("(=0.25) = 0.5 (residual -2.500e-01)")


# --- affine layer ---------------------------------------------------------------

def test_interlacing_bound_runs_before_any_factorisation(monkeypatch):
    p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                         shared_random_bit("triangle"))

    def refuse(*args, **kwargs):
        raise AssertionError("the rows were factored before the interlacing bound")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(_ClassSystem, "factor_rows", refuse)
    monkeypatch.setattr(_ClassSystem, "_reduced_rows", refuse)
    out = solve_feasibility(p)
    assert out.verdict == "infeasible"
    assert "interlacing" in out.evidence


def uniform_product(sc):
    return product_distribution(
        sc, [np.full((k, x), 1.0 / k) for k, x in zip(sc.outputs, sc.inputs)])


def test_triangle_inflation_accepts_the_uniform_product_without_svd(monkeypatch):
    p = pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                         uniform_product(Scenario(*TRIANGLE_111)))

    def refuse(*args, **kwargs):
        raise AssertionError("the rows were factored by an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    out = solve_feasibility(p)
    assert out.verdict == "feasible"
    assert out.evidence == "alternating projections"
    assert max(out.residuals.families().values()) <= 1e-6


def _factor_rows_problem(name):
    if name == "chsh":
        return pin_distribution(
            cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
            noisy_pr_box(0.7))
    if name == "bilocal-inflation":
        return pin_distribution(cached_problem("inflation", *BILOCAL_111, 2, 2),
                                MomentOracle(random_strategy(
                                    BILOCAL, (2, 2, 2, 2), 0)).born())
    if name == "factorisation-n3":
        # B and C with one input: every pair linearizes, some with a float
        # coefficient (half-linearized rows)
        sc = Scenario("bilocal", (2, 2, 2), (2, 1, 1))
        p = pin_distribution(build_factorisation_bilocal(sc, 3),
                             MomentOracle(random_strategy(sc, (2, 2, 2, 2), 7)).born())
        return factorisation.pin_linearize(p)
    return pin_distribution(cached_problem("inflation", *TRIANGLE_111, 2, 2),
                            uniform_product(Scenario(*TRIANGLE_111)))


@pytest.mark.parametrize("name", ["chsh", "bilocal-inflation",
                                  "factorisation-n3", "triangle-uniform"])
def test_factor_rows_match_an_svd_reference(name):
    cs = _ClassSystem(_factor_rows_problem(name))
    assert cs.factor_rows() == (True, "")
    R, b = dense_rows(cs), cs.b
    if name == "factorisation-n3":
        assert np.any(R != np.round(R))
    u, s, vt = np.linalg.svd(R, full_matrices=False)
    rank = int((s > s[0] * max(R.shape) * np.finfo(float).eps).sum())
    y_ref = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    assert cs.N.shape == (len(cs.free), len(cs.free) - rank)
    assert np.abs(cs.y0 - y_ref).max() <= 1e-10
    assert np.abs(R @ cs.N).max() <= 1e-12
    assert np.abs(cs.N.T @ cs.N - np.eye(cs.N.shape[1])).max() <= 1e-12


def test_inconsistent_rows_are_an_infeasibility_certificate():
    p, _obj = chsh_problem_and_objective()
    x, y = (int(c) for c in _ClassSystem(p).free[:2])
    rows = FlatRows.padded([[x, y], [x, y]], [[1.0, 1.0], [1.0, 1.0]],
                           [1.0, 2.0], ["added", "added"])
    out = solve_feasibility(dataclasses.replace(p, linear_factor_rows=rows))
    assert out.verdict == "infeasible"
    # x + y = 1 pivots; the second row keeps the residual 1 - 2
    assert out.evidence == ("linear system inconsistent: added row residual "
                            "-1.000e+00 after elimination")


def test_feasible_requires_every_residual_family_within_the_gate():
    p = pin_distribution(cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
                         noisy_pr_box(0.7))
    good = solve_feasibility(p)
    assert good.verdict == "feasible"
    X = good.witness.copy()
    assert _outcome_feasible(p, X, good.t_star, 0, 1e-7, "x").verdict == "feasible"
    # break the value of one off-diagonal pair of cells
    X[1, 2] += 1e-3
    X[2, 1] += 1e-3
    out = _outcome_feasible(p, X, good.t_star, 0, 1e-7, "interior point")
    assert out.verdict == "inconclusive"
    assert out.witness is None
    family, worst = max(out.residuals.families().items(), key=lambda kv: kv[1])
    assert worst > 1e-6
    assert f"{family} residual {worst:.3e}" in out.evidence


def test_affine_projector_matches_weighted_least_squares():
    p = pin_distribution(cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
                         noisy_pr_box(0.7))
    cs = _ClassSystem(p)
    assert cs.factor_rows() == (True, "")
    # rank-deficient rows and a nontrivial kernel
    assert cs.N.shape[1] > 0
    R = dense_rows(cs)
    assert np.linalg.matrix_rank(R) < min(R.shape)
    project = _affine_projector(cs)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((p.dim, p.dim))
    X = G + G.T
    # reference: a - W^-1 R' (R W^-1 R')^+ (R a - b), with a the per-class
    # cell means and W the per-class cell counts of the free classes
    flat = X.reshape(-1)
    class_cells = loop_cells(p.cell_class, p.n_classes)
    a = np.array([flat[class_cells[c]].mean() for c in cs.free])
    w_inv = 1.0 / np.array([len(class_cells[c]) for c in cs.free])
    gram = (R * w_inv) @ R.T
    ref = a - w_inv * (R.T @ (np.linalg.pinv(gram) @ (R @ a - cs.b)))
    Y = project(X)
    assert np.abs(Y - cs.assemble(ref)).max() < 1e-9
    assert np.abs(project(Y) - Y).max() < 1e-9


def test_stalled_projection_reports_a_lower_bound_on_the_optimum(monkeypatch):
    p = pin_distribution(cached_problem("standard", "bell3", (2, 2, 1), (2, 2, 1), 2),
                         noisy_pr_box(0.725))
    exact = solve_feasibility(p)
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 0)
    stalled = solve_feasibility(p, max_iter=100)
    assert stalled.verdict == "inconclusive"
    assert "stalled" in stalled.evidence
    # every Dykstra iterate lies on the affine set, so its min eigenvalue
    # cannot exceed the phase-1 optimum
    assert -np.inf < stalled.t_star <= exact.t_star + 1e-9


# --- SDPA export ------------------------------------------------------------------

def test_sdpa_golden_minimal_file(tmp_path):
    s = AffineSdp(dim=1, rows=(SdpRow(((0, 0),), (1.0,), 1.0),))
    path = tmp_path / "one.dat-s"
    export_sdpa(s, str(path))
    golden = os.path.join(os.path.dirname(__file__), "golden", "one_by_one.dat-s")
    with open(golden) as fh:
        assert path.read_text() == fh.read()


SDPA_FIXTURES = ["standard-bell3", "factorisation-srb", "scalar", "inflation",
                 "chsh"]


def compile_fixture(name):
    """The problem and objective of a named compile fixture."""
    if name == "standard-bell3":
        return cached_problem("standard", "bell3", (2, 2, 2), (1, 1, 1), 2), None
    if name == "factorisation-srb":
        p = pin_distribution(cached_problem("factorisation", *BILOCAL_111, 3),
                             shared_random_bit("bilocal"))
        return factorisation.pin_linearize(p), None
    if name == "scalar":
        return cached_problem("scalar", *BILOCAL_111, 2), None
    if name == "inflation":
        return cached_problem("inflation", *BILOCAL_111, 2, 2), None
    if name == "triangle-inflation":
        return cached_problem("inflation", *TRIANGLE_111, 2, 2), None
    return chsh_problem_and_objective()


@pytest.mark.parametrize("fixture", SDPA_FIXTURES)
def test_sdpa_roundtrip_byte_exact(tmp_path, fixture):
    problem, objective = compile_fixture(fixture)
    s = compile(problem, objective=objective)
    path1 = tmp_path / "a.dat-s"
    path2 = tmp_path / "b.dat-s"
    export_sdpa(s, str(path1))
    parsed = parse_sdpa(str(path1))
    assert parsed.dim == s.dim
    assert parsed.rows == s.rows
    assert parsed.objective_cells == s.objective_cells
    assert parsed.objective_coeffs == s.objective_coeffs
    export_sdpa(parsed, str(path2))
    assert path1.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("fixture", SDPA_FIXTURES + ["triangle-inflation"])
def test_compile_matches_the_loop_reference(fixture):
    problem, objective = compile_fixture(fixture)
    s = compile(problem, objective=objective)
    assert s.rows == loop_compile_rows(problem)
    reps = loop_class_rep_cells(problem)
    assert s.objective_cells == tuple(reps[c] for c in sorted(objective or ()))
