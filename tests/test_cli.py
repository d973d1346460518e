"""CLI: exit codes, report structure, file outputs, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netnpa import sdp
from netnpa.cli import (
    EXIT_FEASIBLE,
    EXIT_INFEASIBLE,
    EXIT_PARSE,
    EXIT_SCENARIO,
    load_assignment,
    run,
)
from netnpa.moment import (
    build_factorisation_bilocal,
    build_scalar_extension,
    build_standard,
    oracle_assignment,
)
from netnpa.scenarios import (
    MomentOracle,
    Scenario,
    born_eval,
    random_strategy,
    write_distribution,
)
from netnpa.sdp import parse_sdpa


def test_srb_factorisation_infeasible_exit1():
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "factorisation", "--n", "3", "shared_random_bit"])
    assert code == EXIT_INFEASIBLE
    assert "verdict: INFEASIBLE" in report


def test_product_standard_feasible_exit0():
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "standard", "--n", "2", "uniform_product"])
    assert code == EXIT_FEASIBLE
    assert "verdict: FEASIBLE" in report
    assert "no obstruction" in report


def test_report_sections_stable_order():
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "standard", "--n", "3", "shared_random_bit"])
    lines = report.splitlines()
    assert lines[0] == "netnpa test report"
    keys = [ln.split(":")[0] for ln in lines if ":" in ln]
    for earlier, later in (("config", "problem"), ("problem", "verdict"),
                           ("verdict", "timing")):
        assert keys.index(earlier) < keys.index(later)
    assert "  distribution: shared_random_bit" in report


def test_engine_option_is_gone_and_max_iter_defaults_to_the_projection_budget():
    code, _report = run(["test", "--scenario", "bilocal", "--engine", "auto",
                         "shared_random_bit"])
    assert code == EXIT_PARSE
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "factorisation", "--n", "3", "shared_random_bit"])
    assert code == EXIT_INFEASIBLE
    assert "  max_iter: 2000" in report


def test_report_timing_line_splits_build_pin_and_solve():
    _code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                         "factorisation", "--n", "3", "shared_random_bit"])
    timing = [ln for ln in report.splitlines() if ln.startswith("timing:")]
    assert len(timing) == 1
    assert " s (build " in timing[0] and ", pin " in timing[0] \
        and ", solve " in timing[0]


def test_seesaw_inner_solves_get_the_solver_settings(tmp_path, monkeypatch):
    # A with two inputs and C with two: some factor pairs stay bilinear, so
    # the CLI runs the see-saw
    sc = Scenario("bilocal", (2, 2, 2), (2, 1, 2))
    path = tmp_path / "born.dist"
    write_distribution(MomentOracle(random_strategy(sc, (2, 2, 2, 2), 5)).born(),
                       str(path))
    calls = []
    solve = sdp.solve_feasibility

    def record(problem, **kwargs):
        calls.append(kwargs)
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp, "solve_feasibility", record)
    _code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                         "factorisation", "--n", "2", "--tol", "2e-7",
                         "--max-iter", "1500", "--infeasibility-margin", "3e-4",
                         str(path)])
    assert "seesaw rounds:" in report
    assert len(calls) >= 2          # the warm start and at least one round
    assert all(kw == {"tol": 2e-7, "max_iter": 1500, "infeasibility_margin": 3e-4}
               for kw in calls)


def test_unknown_distribution_exit64():
    code, report = run(["test", "--scenario", "bilocal", "no_such_thing"])
    assert code == EXIT_PARSE


def test_scenario_mismatch_exit65(tmp_path):
    sc = Scenario("bilocal", (2, 2, 2), (1, 1, 1))
    d = born_eval(random_strategy(sc, (2, 2, 2, 2), 0))
    path = tmp_path / "d.dist"
    write_distribution(d, str(path))
    code, _report = run(["test", "--scenario", "triangle", str(path)])
    assert code == EXIT_SCENARIO


def test_malformed_distribution_exit64(tmp_path):
    path = tmp_path / "bad.dist"
    path.write_text("scenario: bilocal\noutputs: 2 2 2\ninputs: 1 1 1\n"
                    "q 0 0 0 | 0 0 0 = 0.9\n")
    code, report = run(["test", "--scenario", "bilocal", str(path)])
    assert code == EXIT_PARSE
    assert "error" in report


def test_inflation_needs_m():
    code, report = run(["test", "--scenario", "triangle", "--hierarchy",
                        "inflation", "--n", "2", "shared_random_bit"])
    assert code == EXIT_PARSE
    assert "--m" in report


def test_sample_deterministic_and_gns_runs(tmp_path):
    prefix1 = str(tmp_path / "s1")
    prefix2 = str(tmp_path / "s2")
    args = ["sample", "--scenario", "bilocal", "--hierarchy", "factorisation",
            "--n", "4", "--dims", "2,2,2,2", "--out"]
    code1, rep1 = run(args[:-1] + ["--seed", "12", "--out", prefix1])
    code2, rep2 = run(args[:-1] + ["--seed", "12", "--out", prefix2])
    assert code1 == code2 == EXIT_FEASIBLE
    with open(prefix1 + ".dist", "rb") as f1, open(prefix2 + ".dist", "rb") as f2:
        assert f1.read() == f2.read()
    a1 = load_assignment(prefix1 + ".npz")
    a2 = load_assignment(prefix2 + ".npz")
    assert np.array_equal(a1.matrix, a2.matrix)
    out = str(tmp_path / "model.txt")
    code, report = run(["gns", prefix1 + ".npz", "--out", out])
    assert code == EXIT_FEASIBLE
    assert "reconstructed dimension" in report
    assert os.path.exists(out)


def test_sample_requires_seed(tmp_path):
    code, report = run(["sample", "--scenario", "bilocal", "--out",
                        str(tmp_path / "x")])
    assert code == EXIT_PARSE
    assert "seed" in report


def test_export_roundtrip(tmp_path):
    path = str(tmp_path / "prob.dat-s")
    code, report = run(["export", "--scenario", "bilocal", "--hierarchy",
                        "standard", "--n", "2", "--out", path])
    assert code == EXIT_FEASIBLE
    parsed = parse_sdpa(path)
    assert parsed.dim == 25
    assert "constraints written" in report


def test_export_of_an_unpinnable_level_exit65(tmp_path):
    args = ["--scenario", "bilocal", "--hierarchy", "standard", "--n", "1",
            "shared_random_bit"]
    code, report = run(["test"] + args)
    assert code == EXIT_SCENARIO
    assert report.startswith("error: level n=1 cannot pin")
    path = tmp_path / "x.dat-s"
    code, report = run(["export"] + args[:-1] + ["--distribution", "shared_random_bit",
                                                  "--out", str(path)])
    assert code == EXIT_SCENARIO
    assert report.startswith("error: level n=1 cannot pin")
    assert not path.exists()


def test_info_scalar_index_size():
    code, report = run(["info", "--scenario", "bilocal", "--hierarchy",
                        "scalar", "--n", "3"])
    assert code == EXIT_FEASIBLE
    assert "index size: 416" in report


def test_info_matches_enumeration():
    from netnpa.words import enumerate_words
    from netnpa.scenarios import Scenario

    sc = Scenario("bilocal", (2, 2, 2), (1, 1, 1))
    expected = len(enumerate_words(sc.scalar_alphabet(3), 3))
    code, report = run(["info", "--scenario", "bilocal", "--hierarchy",
                        "scalar", "--n", "3"])
    assert f"index size: {expected}" in report


@pytest.mark.parametrize("argv", [
    "info --scenario bilocal --n 0",
    "export --scenario bilocal --n 0 --out {out}",
    "sample --scenario bilocal --n 0 --seed 1 --out {out}",
    "info --scenario star4 --hierarchy star --n 3",
    "export --scenario triangle --hierarchy factorisation --out {out}",
    "test --scenario bilocal --budget 3 shared_random_bit",
    "info --scenario bilocal --budget 3",
    "export --scenario bilocal --budget 3 --out {out}",
    "sample --scenario bilocal --budget 3 --seed 1 --out {out}",
    "info --scenario triangle --hierarchy inflation --n 2 --m 4",
])
def test_build_errors_exit65_with_a_one_line_report(argv, tmp_path):
    code, report = run(argv.format(out=tmp_path / "x").split())
    assert code == EXIT_SCENARIO
    assert report.startswith("error: ") and "\n" not in report
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("hierarchy, build", [
    ("standard", build_standard),
    ("factorisation", build_factorisation_bilocal),
    ("scalar", build_scalar_extension),
])
def test_sampled_assignment_round_trips(hierarchy, build, tmp_path):
    prefix = str(tmp_path / "s")
    code, _report = run(["sample", "--scenario", "bilocal", "--hierarchy",
                         hierarchy, "--n", "2", "--seed", "3", "--out", prefix])
    assert code == EXIT_FEASIBLE
    sc = Scenario("bilocal", (2, 2, 2), (1, 1, 1))
    expected = oracle_assignment(
        build(sc, 2), MomentOracle(random_strategy(sc, (2, 2, 2, 2), 3)))
    loaded = load_assignment(prefix + ".npz")
    assert loaded.problem.hierarchy == expected.problem.hierarchy
    assert loaded.problem.dim == expected.problem.dim
    assert np.array_equal(loaded.matrix, expected.matrix)


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "netnpa", "info", "--scenario", "bilocal"]
    ok = subprocess.run(argv + ["--n", "2"], env=env, capture_output=True,
                        text=True, timeout=120)
    assert ok.returncode == EXIT_FEASIBLE, ok.stderr
    assert "index size: 25" in ok.stdout
    bad = subprocess.run(argv + ["--n", "0"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert bad.returncode == EXIT_SCENARIO
    assert bad.stdout.startswith("error: n must be >= 1")


def test_literal_paper_mode_assignment_round_trips_without_rows(tmp_path):
    prefix = str(tmp_path / "s")
    code, report = run(["sample", "--scenario", "bilocal", "--n", "2", "--seed",
                        "1", "--literal-paper-mode", "--out", prefix])
    assert code == EXIT_FEASIBLE
    assert "  linear rows: 0" in report.splitlines()
    loaded = load_assignment(prefix + ".npz")
    assert not loaded.problem.completeness
    assert len(loaded.problem.rows) == 0


def test_gns_of_an_assignment_over_its_stored_budget_exit64(tmp_path):
    prefix = str(tmp_path / "s")
    code, _report = run(["sample", "--scenario", "bilocal", "--n", "2", "--seed",
                         "1", "--out", prefix])
    assert code == EXIT_FEASIBLE
    with np.load(prefix + ".npz") as data:
        stored = dict(data)
    assert int(stored["budget"]) == 5000
    stored["budget"] = 10
    np.savez(prefix + ".npz", **stored)
    code, report = run(["gns", prefix + ".npz"])
    assert code == EXIT_PARSE
    assert report == ("error: cannot load assignment: index size 25 exceeds "
                      "budget 10 (standard_npa, n=2)")


def test_gns_of_an_unbuildable_stored_assignment_exit64(tmp_path):
    path = str(tmp_path / "a.npz")
    np.savez(path, matrix=np.zeros((1, 1)), topology="triangle",
             outputs=np.array([2, 2, 2]), inputs=np.array([1, 1, 1]),
             hierarchy="inflation", n=2, m=4)
    code, report = run(["gns", path])
    assert code == EXIT_PARSE
    assert report.startswith("error: cannot load assignment: inflation order")
