"""CLI: exit codes, report structure, file outputs, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netnpa import moment, sdp
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
    Distribution,
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


def _config_block(report):
    lines = report.splitlines()
    return lines[lines.index("config:"):lines.index("problem:")]


def test_config_block_prints_every_option(tmp_path):
    # each subcommand echoes its own options, in parser order, and no other
    shared = ["  scenario: bilocal", "  outputs: -", "  inputs: -"]
    code, report = run(["test", "--scenario", "bilocal", "--outputs", "2,2,2",
                        "--inputs", "1 1 1", "--n", "2", "--tol", "2.5e-8",
                        "--literal-paper-mode", "uniform_product"])
    assert code == EXIT_FEASIBLE
    assert _config_block(report) == [
        "config:",
        "  command: test",
        "  scenario: bilocal",
        "  outputs: 2,2,2",
        "  inputs: 1,1,1",
        "  hierarchy: standard",
        "  n: 2",
        "  m: -",
        "  budget: 5000",
        "  literal_paper_mode: true",
        "  tol: 2.5e-08",
        "  infeasibility_margin: 0.0001",
        "  distribution: uniform_product",
    ]
    code, report = run(["sample", "--scenario", "bilocal", "--hierarchy",
                        "factorisation", "--n", "2", "--seed", "0", "--dims",
                        "2,3,2,2", "--out", str(tmp_path / "s")])
    assert code == EXIT_FEASIBLE
    assert _config_block(report) == [
        "config:",
        "  command: sample",
        *shared,
        "  hierarchy: factorisation",
        "  n: 2",
        "  m: -",
        "  budget: 5000",
        "  literal_paper_mode: false",
        "  seed: 0",
        "  dims: 2,3,2,2",
        f"  output_path: {tmp_path / 's'}",
    ]
    code, report = run(["export", "--scenario", "bilocal", "--n", "2",
                        "--out", str(tmp_path / "x.dat-s")])
    assert code == EXIT_FEASIBLE
    assert _config_block(report) == [
        "config:",
        "  command: export",
        *shared,
        "  hierarchy: standard",
        "  n: 2",
        "  m: -",
        "  budget: 5000",
        "  literal_paper_mode: false",
        "  distribution: -",
        f"  output_path: {tmp_path / 'x.dat-s'}",
    ]
    code, report = run(["info", "--scenario", "bilocal", "--n", "2"])
    assert code == EXIT_FEASIBLE
    assert _config_block(report) == [
        "config:",
        "  command: info",
        *shared,
        "  hierarchy: standard",
        "  n: 2",
        "  m: -",
        "  budget: 5000",
        "  literal_paper_mode: false",
    ]


def test_gns_names_the_problem_it_rebuilt_from_the_file(tmp_path):
    prefix = str(tmp_path / "run1")
    code, _report = run(["sample", "--scenario", "bilocal", "--hierarchy",
                         "factorisation", "--n", "4", "--seed", "12", "--out",
                         prefix])
    assert code == EXIT_FEASIBLE
    code, report = run(["gns", prefix + ".npz"])
    assert code == EXIT_FEASIBLE
    lines = report.splitlines()
    at = lines.index("rebuilt problem:")
    assert lines[lines.index("config:"):at] == [
        "config:",
        "  command: gns",
        f"  assignment: {prefix}.npz",
        "  output_path: -",
    ]
    assert lines[at + 1:at + 4] == [
        "  hierarchy: factorisation_bilocal",
        "  scenario: bilocal outputs=2,2,2 inputs=1,1,1",
        "  level: n=4",
    ]
    # no problem or solver option is read, so none is echoed
    assert "hierarchy: standard" not in report and "n: 3" not in report


@pytest.mark.parametrize("argv", [
    "gns --n 3 {path}",
    "gns --hierarchy standard {path}",
    "info --scenario bilocal --tol 1e-7",
    "info --scenario bilocal --infeasibility-margin 1e-3",
    "export --scenario bilocal --tol 1e-7 --out {path}",
    "sample --scenario bilocal --seed 1 --tol 1e-7 --out {path}",
])
def test_options_a_subcommand_does_not_read_are_unknown_exit64(argv, tmp_path):
    path = tmp_path / "x"
    assert run(argv.format(path=path).split()) == (EXIT_PARSE, "")
    assert list(tmp_path.iterdir()) == []


def test_reports_name_the_copy_blocks_and_the_engine_they_select(monkeypatch):
    built = []
    copy_blocks = moment._copy_blocks

    def record(p):
        built.append([name for name, _ in p.generators])
        return copy_blocks(p)

    monkeypatch.setattr(moment, "_copy_blocks", record)
    code, report = run(["test", "--scenario", "triangle", "--hierarchy",
                        "inflation", "--n", "2", "--m", "2", "uniform_product"])
    assert code == EXIT_FEASIBLE
    # the uniform product is solved on its stabiliser, the flips of A, B
    # and C: p = 180 and sum r_b^2 = 1129 on the full problem.  The report
    # prints the blocks of the restricted problem the solve ran on, and
    # the full problem's are never built
    assert "(r = 91, sum r_b^2 = 283)" in report
    assert "  copy blocks: [10, 1, 1, 2, 1, 2, 2, 4, 1, 1, 2, " in report
    assert built == [[f"copy swap of source {s}" for s in ("pi", "rho", "sigma")]
                     + [f"flip {f}" for f in ("A[0]", "B[0]", "C[0]")]]
    assert ("  symmetry: stabiliser of order 8 generated by A[0], B[0], C[0]; "
            "restricted p = 69, sum r_b^2 = 283") in report
    assert ("  gate: (p + 1)*sum r_b^2 = 19810 for p = 69 (limit 33554432) "
            "-> interior point") in report
    code, report = run(["info", "--scenario", "bilocal", "--hierarchy",
                        "inflation", "--n", "2", "--m", "2"])
    assert code == EXIT_FEASIBLE
    assert "  copy blocks: [14, 9, 9, 9] (r = 41, sum r_b^2 = 439)" in report
    # 2**25 // 439 = 76433
    assert "p = dim ker R <= 76432 after the pins" in report
    # a verdict the linear layers reach leaves no route: the engine
    # section is one line, and no copy blocks are built for it
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "factorisation", "--n", "3", "shared_random_bit"])
    assert "\nengine: none run (decided before the phase-1 search)\n" in report
    assert "copy blocks:" not in report and "  gate: " not in report
    assert "  symmetry: " not in report
    # so does the interlacing bound's reject of the triangle (2,2) SRB
    built.clear()
    code, report = run(["test", "--scenario", "triangle", "--hierarchy",
                        "inflation", "--n", "2", "--m", "2", "shared_random_bit"])
    assert code == EXIT_INFEASIBLE
    assert built == []


def test_info_says_when_the_blocks_alone_exceed_the_budget(monkeypatch):
    monkeypatch.setattr(sdp, "INTERIOR_MAX_ENTRIES", 400)
    code, report = run(["info", "--scenario", "bilocal", "--hierarchy",
                        "inflation", "--n", "2", "--m", "2"])
    assert code == EXIT_FEASIBLE
    assert ("  gate: the blocks alone exceed the interior point's budget: "
            "sum r_b^2 = 439 > 400, so no engine runs") in report
    assert "<= -1" not in report


def test_test_factors_the_rows_once_and_reports_the_route_of_the_solve(
        monkeypatch):
    calls = []
    factor_rows = sdp._ClassSystem.factor_rows

    def count(cs):
        calls.append(cs)
        return factor_rows(cs)

    monkeypatch.setattr(sdp._ClassSystem, "factor_rows", count)
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "inflation", "--n", "2", "--m", "2", "uniform_product"])
    assert code == EXIT_FEASIBLE
    assert len(calls) == 1
    assert "-> interior point" in report


def test_gate_line_names_no_engine_when_the_interlacing_bound_decides():
    code, report = run(["test", "--scenario", "triangle", "--hierarchy",
                        "inflation", "--n", "2", "--m", "2", "shared_random_bit"])
    assert code == EXIT_INFEASIBLE
    assert "(interlacing bound)" in report
    engine = [ln for ln in report.splitlines() if ln.startswith("engine")]
    assert engine == ["engine: none run (decided before the phase-1 search)"]
    assert "copy blocks:" not in report and "  gate: " not in report
    assert "-> interior point" not in report


def test_engine_and_max_iter_options_are_gone():
    for option in (["--engine", "auto"], ["--max-iter", "2000"]):
        assert run(["test", "--scenario", "bilocal", *option,
                    "shared_random_bit"]) == (EXIT_PARSE, "")
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "factorisation", "--n", "3", "shared_random_bit"])
    assert code == EXIT_INFEASIBLE
    assert "max_iter" not in report


def test_report_timing_line_splits_build_pin_and_solve():
    _code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                         "factorisation", "--n", "3", "shared_random_bit"])
    timing = [ln for ln in report.splitlines() if ln.startswith("timing:")]
    assert len(timing) == 1
    assert " s (build " in timing[0] and ", pin " in timing[0] \
        and ", solve " in timing[0]


def test_seesaw_inner_solves_get_the_solver_settings(tmp_path, monkeypatch):
    # A with two inputs and C with two: some factor pairs stay bilinear, so
    # the CLI runs the frozen-scalar solve
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
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy",
                        "factorisation", "--n", "2", "--tol", "2e-7",
                        "--infeasibility-margin", "3e-4", str(path)])
    assert code == EXIT_FEASIBLE
    assert "verdict: FEASIBLE" in report
    assert "bilinear after linearization: 64" in report
    assert "\nengine:\n" in report and "\n  gate: " in report
    assert len(calls) == 2          # the warm start and the frozen solve
    assert all(kw == {"tol": 2e-7, "infeasibility_margin": 3e-4}
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


@pytest.mark.parametrize("entries", [
    "q 0 0 0 | 0 0 0 = nan\nq 1 1 1 | 0 0 0 = 0.5\n",
    "q 0 0 | 0 0 0 = 0.5\nq 1 1 1 | 0 0 0 = 0.5\n",
    "q 0 0 5 | 0 0 0 = 0.5\nq 1 1 1 | 0 0 0 = 0.5\n",
    "q -1 -1 -1 | 0 0 0 = 0.5\nq 0 0 0 | 0 0 0 = 0.5\n",
], ids=["nan", "short", "too-large", "negative"])
def test_invalid_distribution_entries_exit64(tmp_path, entries):
    path = tmp_path / "bad.dist"
    path.write_text("scenario: bilocal\noutputs: 2 2 2\ninputs: 1 1 1\n" + entries)
    code, report = run(["test", "--scenario", "bilocal", "--n", "2", str(path)])
    assert code == EXIT_PARSE
    assert report.startswith("error: cannot read distribution:")
    assert len(report.splitlines()) == 1


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


def test_sample_with_dims_of_the_wrong_length_exit64(tmp_path):
    code, report = run(["sample", "--scenario", "bilocal", "--n", "2", "--seed",
                        "1", "--dims", "2,2,2", "--out", str(tmp_path / "x")])
    assert (code, report) == (
        EXIT_PARSE, "error: tensor_bilocal dims are (dA, dBL, dBR, dC), got (2, 2, 2)")


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


@pytest.mark.parametrize("settings, option", [
    ("--infeasibility-margin -1", "--infeasibility-margin"),
    ("--infeasibility-margin 1e-8", "--infeasibility-margin"),
    ("--tol 1e-3 --infeasibility-margin 1e-4", "--infeasibility-margin"),
    ("--infeasibility-margin nan", "--infeasibility-margin"),
    ("--infeasibility-margin inf", "--infeasibility-margin"),
    ("--tol nan", "--tol"),
    ("--tol 0", "--tol"),
    ("--tol=-1e-7", "--tol"),
    ("--tol inf", "--tol"),
])
def test_solver_settings_that_could_invert_a_verdict_exit64(settings, option):
    # a margin below tol would overlap the FEASIBLE and INFEASIBLE bands
    code, report = run(["test", "--scenario", "bilocal", "--hierarchy", "standard",
                        "--n", "2", *settings.split(), "uniform_product"])
    assert code == EXIT_PARSE
    assert report.startswith(f"error: {option} must be") and "\n" not in report


@pytest.mark.parametrize("option, value", [
    ("--tol", "-1e-7"),
    ("--infeasibility-margin", "-1e-4"),
])
def test_negative_settings_reach_the_range_check_in_either_form(option, value):
    argv = ["test", "--scenario", "bilocal", "--hierarchy", "standard", "--n", "2"]
    spaced = run([*argv, option, value, "uniform_product"])
    joined = run([*argv, f"{option}={value}", "uniform_product"])
    assert spaced == joined
    code, report = spaced
    assert code == EXIT_PARSE
    assert report.startswith(f"error: {option} must be") and "\n" not in report


def test_solver_settings_at_their_bounds_are_accepted():
    code, _report = run(["test", "--scenario", "bilocal", "--hierarchy", "standard",
                        "--n", "2", "--tol", "1e-6", "--infeasibility-margin",
                        "1e-6", "uniform_product"])
    assert code == EXIT_FEASIBLE


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


def test_a_closed_stdout_pipe_ends_the_report_quietly():
    # as under ``netnpa info ... | head -n 0``: the reader is gone before
    # the report is written, and the exit code is the report's own
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "netnpa", "info", "--scenario",
                             "bilocal", "--n", "2"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_FEASIBLE, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


_CHSH_MAXIMUM = """
import numpy as np
from netnpa import moment, sdp
from netnpa.scenarios import Scenario
from netnpa.words import EMPTY_WORD, Letter, concat, word
p = moment.build_standard(Scenario('bell3', (2, 2, 1), (2, 2, 1)), 2)
objective = {}
for x, y, a, b in np.ndindex(2, 2, 2, 2):
    cls = p.class_of_cell(EMPTY_WORD, concat(word([Letter('measurement', 'A', a, x)]),
                                             word([Letter('measurement', 'B', b, y)])))
    objective[cls] = objective.get(cls, 0.0) + (-1.0) ** (a + b + x * y)
value, _ = sdp.maximize_linear(p, objective)
assert abs(value - 2 * np.sqrt(2)) < 1e-6, value
"""


def test_a_presolve_verdict_loads_no_scipy(tmp_path):
    # every verdict runs on numpy alone: each run below is made in a
    # process in which importing scipy fails
    born = str(tmp_path / "born.txt")
    write_distribution(born_eval(random_strategy(
        Scenario("bilocal", (2, 2, 2), (1, 1, 1)), (2, 2, 2, 2), 0)), born)
    # the Born table of the console script's interior-point accept
    s3 = str(tmp_path / "s3")
    assert run(["sample", "--scenario", "bilocal", "--hierarchy", "standard",
                "--n", "2", "--seed", "3", "--out", s3])[0] == EXIT_FEASIBLE
    # the noisy PR box at v = 0.725, outside the quantum set
    pr_box = str(tmp_path / "pr.txt")
    table = np.zeros((2, 2, 1, 2, 2, 1))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        table[a, b, 0, x, y, 0] = 0.725 * 0.5 * ((a ^ b) == (x & y)) + 0.275 / 4
    write_distribution(Distribution(Scenario("bell3", (2, 2, 1), (2, 2, 1)), table),
                       pr_box)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        (["--scenario", "bilocal", "--hierarchy", "factorisation", "--n", "2",
          "shared_random_bit"], ["evidence: violated factorisation"]),
        (["--scenario", "bilocal", "--hierarchy", "standard", "--n", "3", born],
         ["evidence: fully determined by the linear constraints"]),
        # an interior-point accept after one iteration
        (["--scenario", "bilocal", "--hierarchy", "inflation", "--n", "2", "--m", "2",
          s3 + ".dist"], ["evidence: interior point witness", "iterations: 1"]),
        # the restricted problem's phase-1 start is the witness
        (["--scenario", "triangle", "--hierarchy", "inflation", "--n", "2", "--m", "2",
          "uniform_product"], ["restricted p = 69", "iterations: 0"]),
        # an interior-point reject
        (["--hierarchy", "standard", "--n", "2", pr_box],
         ["verdict: INFEASIBLE", "(interior point)"]),
    ]
    scripts = [
        "from netnpa.cli import run\n"
        f"code, report = run(['test', *{args!r}])\n"
        + "".join(f"assert {text!r} in report, report\n" for text in texts)
        for args, texts in runs] + [_CHSH_MAXIMUM]
    for script in scripts:
        blocked = "import sys\nsys.modules['scipy'] = None\n" + script
        done = subprocess.run([sys.executable, "-c", blocked], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def test_sample_fills_an_inflation_assignment_from_the_inflated_oracle(tmp_path):
    prefix = str(tmp_path / "s")
    code, _report = run(["sample", "--scenario", "bilocal", "--hierarchy",
                         "inflation", "--n", "2", "--m", "2", "--seed", "1",
                         "--out", prefix])
    assert code == EXIT_FEASIBLE
    loaded = load_assignment(prefix + ".npz")
    assert loaded.problem.hierarchy == "inflation" and loaded.problem.m == 2
    report = moment.check_assignment(loaded.problem, loaded)
    assert max(report.families().values()) <= 1e-9, report


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
