"""Command-line front end.

Subcommands
-----------
``test``     build the requested hierarchy for a distribution and solve;
             prints FEASIBLE / INFEASIBLE / INCONCLUSIVE and exits 0/1/2.
``export``   write the compiled problem in SDPA sparse format.
``sample``   emit a seeded random strategy's distribution and its oracle
             moment assignment.
``gns``      reconstruct an operator model from a stored assignment.
``info``     print index size and constraint counts for a would-be problem.

A FEASIBLE verdict at level n means only that no obstruction exists at
level n.  Exit code 1 comes only with an INFEASIBLE verdict.  64 flags
unreadable inputs (a stored assignment that ``gns`` cannot load or
rebuild included), unknown options, and ``test``'s solver settings
outside their range (``--tol`` finite and > 0, ``--infeasibility-margin``
finite and >= ``--tol``); 65 flags any error building or pinning the
requested problem in ``test``, ``export``, ``sample`` and ``info`` (a
scenario mismatch, an invalid level, the index budget).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import factorisation, gns, sdp
from .moment import (
    DEFAULT_INDEX_BUDGET,
    BudgetError,
    MomentAssignment,
    MomentProblem,
    build_factorisation_bilocal,
    build_inflation,
    build_scalar_extension,
    build_standard,
    build_star_factorisation,
    oracle_assignment,
    pin_distribution,
)
from .scenarios import (
    Distribution,
    InflatedBilocalOracle,
    Scenario,
    ScenarioError,
    SignallingError,
    MomentOracle,
    TOPOLOGIES,
    point_distribution,
    product_distribution,
    random_strategy,
    read_distribution,
    shared_random_bit,
    write_distribution,
)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 64
EXIT_SCENARIO = 65

# --hierarchy name -> (the MomentProblem.hierarchy it builds, its builder)
BUILDERS = {
    "standard": ("standard_npa", build_standard),
    "factorisation": ("factorisation_bilocal", build_factorisation_bilocal),
    "scalar": ("scalar_extension", build_scalar_extension),
    "inflation": ("inflation", build_inflation),
    "star": ("factorisation_star", build_star_factorisation),
}


def _show(value) -> str:
    """An option's value as a report prints it."""
    if value is None or value == ():
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _config_lines(cfg: argparse.Namespace) -> list[str]:
    """The config block: the command, then its own options in parser
    order, the order in which argparse sets their defaults."""
    return ["config:"] + [f"  {name}: {_show(value)}"
                          for name, value in vars(cfg).items()]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _check_solver_settings(cfg: argparse.Namespace) -> None:
    """A FEASIBLE verdict needs t* >= -tol and an INFEASIBLE one
    t* < -margin, so a margin below tol would let the two bands overlap."""
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise CliError(f"--tol must be finite and > 0, got {cfg.tol:g}",
                       EXIT_PARSE)
    margin = cfg.infeasibility_margin
    if not (math.isfinite(margin) and margin >= cfg.tol):
        raise CliError(f"--infeasibility-margin must be finite and >= --tol "
                       f"({cfg.tol:g}), got {margin:g}", EXIT_PARSE)


def _builtin_distribution(name: str, topology: str) -> Distribution:
    n_parties = len(TOPOLOGIES[topology].parties)
    if name == "shared_random_bit":
        return shared_random_bit(topology)
    if name == "uniform_product":
        sc = Scenario(topology, (2,) * n_parties, (1,) * n_parties)
        return product_distribution(sc, [np.full((2, 1), 0.5)] * n_parties)
    if name == "point":
        sc = Scenario(topology, (2,) * n_parties, (1,) * n_parties)
        return point_distribution(sc, (0,) * n_parties)
    raise CliError(f"unknown builtin distribution {name!r} "
                   "(try shared_random_bit, uniform_product, point)", EXIT_PARSE)


def _load_distribution(cfg: argparse.Namespace) -> Distribution:
    if cfg.distribution is None:
        raise CliError("a distribution (file or builtin name) is required",
                       EXIT_PARSE)
    if os.path.exists(cfg.distribution):
        try:
            dist = read_distribution(cfg.distribution)
        except (ScenarioError, OSError, ValueError) as exc:
            raise CliError(f"cannot read distribution: {exc}", EXIT_PARSE)
    else:
        if cfg.scenario is None:
            raise CliError("builtin distributions need --scenario", EXIT_PARSE)
        dist = _builtin_distribution(cfg.distribution, cfg.scenario)
    if cfg.scenario is not None and dist.scenario.topology != cfg.scenario:
        raise CliError(
            f"distribution is over {dist.scenario.topology!r}, requested "
            f"{cfg.scenario!r}", EXIT_SCENARIO)
    if cfg.outputs is not None and dist.scenario.outputs != cfg.outputs:
        raise CliError("distribution outputs do not match --outputs",
                       EXIT_SCENARIO)
    if cfg.inputs is not None and dist.scenario.inputs != cfg.inputs:
        raise CliError("distribution inputs do not match --inputs",
                       EXIT_SCENARIO)
    return dist


def _build(hierarchy: str, scenario: Scenario, n: int, m: int | None,
           **kw) -> MomentProblem:
    build = BUILDERS[hierarchy][1]
    if hierarchy != "inflation":
        return build(scenario, n, **kw)
    if m is None:
        raise CliError("--m is required for the inflation hierarchy",
                       EXIT_PARSE)
    return build(scenario, n, m, **kw)


def _problem(cfg: argparse.Namespace, scenario: Scenario,
             dist: Distribution | None = None, *,
             linearize: bool = False) -> tuple[MomentProblem, float]:
    """Build the configured hierarchy over ``scenario``, pin ``dist`` if
    given and, with ``linearize``, linearize the factor pairs.  Returns the
    problem and the ``perf_counter`` reading at the end of the build.  Any
    build or pin error exits 65."""
    try:
        problem = _build(cfg.hierarchy, scenario, cfg.n, cfg.m,
                         completeness=not cfg.literal_paper_mode,
                         budget=cfg.budget)
        t_built = time.perf_counter()
        if dist is not None:
            problem = pin_distribution(problem, dist)
        if linearize:
            problem = factorisation.pin_linearize(problem)
    except (ValueError, BudgetError) as exc:  # SignallingError is a ValueError
        raise CliError(str(exc), EXIT_SCENARIO) from None
    return problem, t_built


def _problem_lines(problem: MomentProblem) -> list[str]:
    lines = [
        "problem:",
        f"  index size: {problem.dim}",
        f"  equality classes: {problem.n_classes}",
        f"  linear rows: {len(problem.rows)}",
        f"  pinned classes: {len(problem.pinned)}",
        f"  factor pairs: {len(problem.factor_pairs)}",
        f"  factor triples: {len(problem.factor_triples)}",
    ]
    if problem.flagged_bilinear:
        lines.append(f"  bilinear after linearization: "
                     f"{len(problem.flagged_bilinear)}")
    return lines


def _engine_lines(blocks: tuple[int, ...], gate: str,
                  symmetry: str | None = None) -> list[str]:
    """The engine section: the copy-block sizes ``blocks``, then the
    symmetry line, if any, and the gate line."""
    lines = ["engine:",
             f"  copy blocks: {list(blocks)} (r = {sum(blocks)}, "
             f"sum r_b^2 = {sdp.EngineRoute(None, blocks).squares})"]
    if symmetry is not None:
        lines.append(f"  symmetry: {symmetry}")
    return lines + [f"  gate: {gate}"]


def _route_lines(outcome: sdp.FeasibilityOutcome) -> list[str]:
    """The engine section of a solve, read from its route alone: the
    blocks the route was gated on (a restricted problem's when the solve
    ran on a stabiliser), the stabiliser with the p and sum r_b^2 of the
    problem solved, and the gate.  A layer that decides before the
    phase-1 search leaves no route, and the section is one line."""
    route, found = outcome.route, outcome.symmetry
    if route is None:
        return ["engine: none run (decided before the phase-1 search)"]
    sizes = f"p = {route.p}, sum r_b^2 = {route.squares}"
    symmetry = (f"trivial stabiliser; {sizes}" if found is None else
                f"stabiliser of order {found.order} generated by "
                f"{', '.join(found.generators)}; restricted {sizes}")
    engine = ("interior point" if route.interior
              else "none (too large for the interior point)")
    gate = (f"(p + 1)*sum r_b^2 = {route.entries} for p = {route.p} "
            f"(limit {sdp.INTERIOR_MAX_ENTRIES}) -> {engine}")
    return _engine_lines(route.blocks, gate, symmetry)


def _unpinned_gate(problem: MomentProblem) -> str:
    """The gate line of a problem no distribution is pinned to: the
    largest p = dim ker R that the interior point takes.  (p itself is
    known once the rows are pinned and factored; see ``test``.)"""
    route = sdp.EngineRoute(None, problem.copy_blocks.sizes)
    if route.max_p < 0:
        return (f"the blocks alone exceed the interior point's budget: "
                f"sum r_b^2 = {route.squares} > {sdp.INTERIOR_MAX_ENTRIES}, "
                f"so no engine runs")
    return (f"the interior point runs when (p + 1)*sum r_b^2 <= "
            f"{sdp.INTERIOR_MAX_ENTRIES}, i.e. p = dim ker R <= "
            f"{route.max_p} after the pins; else no engine runs")


def cmd_test(cfg: argparse.Namespace) -> tuple[int, str]:
    _check_solver_settings(cfg)
    t0 = time.perf_counter()
    dist = _load_distribution(cfg)
    problem, t_built = _problem(cfg, dist.scenario, dist, linearize=True)
    t_pinned = time.perf_counter()
    settings = dict(tol=cfg.tol, infeasibility_margin=cfg.infeasibility_margin)
    if problem.flagged_bilinear:
        outcome = factorisation.solve_frozen(problem, **settings)
    else:
        outcome = sdp.solve_feasibility(problem, **settings)
    t_solved = time.perf_counter()
    verdict = outcome.verdict.upper()
    lines = ["netnpa test report"]
    lines += _config_lines(cfg)
    lines += _problem_lines(problem)
    lines += [
        f"verdict: {verdict}",
        f"  t_star: {outcome.t_star:.6g}",
        f"  evidence: {outcome.evidence or '-'}",
        f"  iterations: {outcome.iterations}",
    ]
    if verdict == "FEASIBLE":
        lines.append("  note: feasible at this level means no obstruction "
                     "at this level")
    if outcome.residuals is not None:
        lines.append(str(outcome.residuals))
    lines += _route_lines(outcome)
    lines.append(f"timing: {t_solved - t0:.2f} s (build {t_built - t0:.2f} s, "
                 f"pin {t_pinned - t_built:.2f} s, solve {t_solved - t_pinned:.2f} s)")
    code = {"FEASIBLE": EXIT_FEASIBLE, "INFEASIBLE": EXIT_INFEASIBLE,
            "INCONCLUSIVE": EXIT_INCONCLUSIVE}[verdict]
    return code, "\n".join(lines)


def cmd_export(cfg: argparse.Namespace) -> tuple[int, str]:
    dist = _load_distribution(cfg) if cfg.distribution is not None else None
    scenario = dist.scenario if dist is not None else _scenario_from_flags(cfg)
    problem, _ = _problem(cfg, scenario, dist, linearize=True)
    if problem.flagged_bilinear:
        raise CliError(
            "cannot export: bilinear factorisation pairs remain after "
            "linearization (export the standard hierarchy instead)",
            EXIT_PARSE)
    compiled = sdp.compile(problem)
    sdp.export_sdpa(compiled, cfg.output_path)
    lines = ["netnpa export report"]
    lines += _config_lines(cfg)
    lines += _problem_lines(problem)
    lines += [f"constraints written: {len(compiled.rows)}",
              f"file: {cfg.output_path}"]
    return EXIT_FEASIBLE, "\n".join(lines)


def _scenario_from_flags(cfg: argparse.Namespace) -> Scenario:
    if cfg.scenario is None:
        raise CliError("--scenario is required", EXIT_PARSE)
    n_parties = len(TOPOLOGIES[cfg.scenario].parties)
    outputs = cfg.outputs or (2,) * n_parties
    inputs = cfg.inputs or (1,) * n_parties
    try:
        return Scenario(cfg.scenario, outputs, inputs)
    except ScenarioError as exc:
        raise CliError(str(exc), EXIT_PARSE)


def save_assignment(assignment: MomentAssignment, path: str,
                    budget: int) -> None:
    """Store the matrix with all that rebuilds its problem."""
    p = assignment.problem
    np.savez(path, matrix=assignment.matrix, topology=p.scenario.topology,
             outputs=np.array(p.scenario.outputs),
             inputs=np.array(p.scenario.inputs),
             hierarchy=p.hierarchy, n=p.n, m=p.m if p.m is not None else -1,
             completeness=p.completeness, budget=budget)


def load_assignment(path: str) -> MomentAssignment:
    """Rebuild a stored assignment's problem (by default with completeness
    rows and the default budget, for files that do not store them)."""
    data = np.load(path, allow_pickle=False)
    scenario = Scenario(str(data["topology"]),
                        tuple(int(x) for x in data["outputs"]),
                        tuple(int(x) for x in data["inputs"]))
    names = {h: name for name, (h, _) in BUILDERS.items()}
    completeness = bool(data["completeness"]) if "completeness" in data else True
    budget = int(data["budget"]) if "budget" in data else DEFAULT_INDEX_BUDGET
    problem = _build(names[str(data["hierarchy"])], scenario, int(data["n"]),
                     int(data["m"]), completeness=completeness, budget=budget)
    return MomentAssignment(problem, data["matrix"])


def cmd_sample(cfg: argparse.Namespace) -> tuple[int, str]:
    if cfg.seed is None:
        raise CliError("sample requires an explicit --seed", EXIT_PARSE)
    scenario = _scenario_from_flags(cfg)
    strategy = random_strategy(scenario, tuple(cfg.dims), cfg.seed)
    dist = MomentOracle(strategy).born()
    problem, _ = _problem(cfg, scenario, dist)
    # an inflated problem's words act on copies of the strategy
    oracle = (InflatedBilocalOracle(strategy, cfg.m) if cfg.hierarchy == "inflation"
              else MomentOracle(strategy))
    assignment = oracle_assignment(problem, oracle)
    dist_path = cfg.output_path + ".dist"
    asg_path = cfg.output_path + ".npz"
    write_distribution(dist, dist_path)
    save_assignment(assignment, asg_path, cfg.budget)
    lines = ["netnpa sample report"]
    lines += _config_lines(cfg)
    lines += _problem_lines(problem)
    lines += [f"distribution file: {dist_path}", f"assignment file: {asg_path}"]
    return EXIT_FEASIBLE, "\n".join(lines)


def cmd_gns(cfg: argparse.Namespace) -> tuple[int, str]:
    try:
        assignment = load_assignment(cfg.assignment)
    except (OSError, KeyError, ValueError, BudgetError) as exc:
        raise CliError(f"cannot load assignment: {exc}", EXIT_PARSE)
    try:
        model = gns.reconstruct(assignment)
    except gns.GnsError as exc:
        raise CliError(f"reconstruction failed: {exc}", EXIT_PARSE)
    residuals = gns.verify_model(model, assignment)
    p = assignment.problem
    lines = ["netnpa gns report"]
    lines += _config_lines(cfg)
    lines += ["rebuilt problem:", f"  hierarchy: {p.hierarchy}",
              f"  scenario: {p.scenario.topology} "
              f"outputs={_show(p.scenario.outputs)} inputs={_show(p.scenario.inputs)}",
              f"  level: n={p.n}" + (f" m={p.m}" if p.m else "")]
    lines += [f"reconstructed dimension: {model.dimension}",
              str(residuals)]
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(gns.model_dump(model, residuals) + "\n")
        lines.append(f"model dump: {cfg.output_path}")
    return EXIT_FEASIBLE, "\n".join(lines)


def cmd_info(cfg: argparse.Namespace) -> tuple[int, str]:
    problem, _ = _problem(cfg, _scenario_from_flags(cfg))
    lines = ["netnpa info report"]
    lines += _config_lines(cfg)
    lines += _problem_lines(problem)
    lines += _engine_lines(problem.copy_blocks.sizes, _unpinned_gate(problem))
    return EXIT_FEASIBLE, "\n".join(lines)


def _parse_cards(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netnpa",
        description="moment-matrix hierarchy tests for quantum network "
                    "compatibility")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", choices=sorted(TOPOLOGIES))
        p.add_argument("--outputs", type=_parse_cards)
        p.add_argument("--inputs", type=_parse_cards)
        p.add_argument("--hierarchy", choices=BUILDERS,
                       default="standard")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--m", type=int)
        p.add_argument("--budget", type=int, default=DEFAULT_INDEX_BUDGET)
        p.add_argument("--literal-paper-mode", action="store_true",
                       help="drop the completeness rows (matrices exactly as "
                            "defined, marginal pins not derivable)")

    p_test = sub.add_parser("test", help="hierarchy feasibility test")
    common(p_test)
    p_test.add_argument("--tol", type=float, default=sdp.DEFAULT_TOL)
    p_test.add_argument("--infeasibility-margin", type=float,
                        default=sdp.DEFAULT_MARGIN)
    p_test.add_argument("distribution", help="distribution file or builtin name")

    p_export = sub.add_parser("export", help="write SDPA sparse file")
    common(p_export)
    p_export.add_argument("--distribution")
    p_export.add_argument("--out", dest="output_path", required=True)

    p_sample = sub.add_parser("sample", help="seeded random strategy fixture")
    common(p_sample)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--dims", type=_parse_cards, default=(2, 2, 2, 2))
    p_sample.add_argument("--out", dest="output_path", required=True,
                          help="output path prefix")

    p_gns = sub.add_parser("gns", help="reconstruct a model from a stored "
                                       "assignment")
    p_gns.add_argument("assignment", help="assignment .npz path")
    p_gns.add_argument("--out", dest="output_path",
                       help="write a model dump here")

    p_info = sub.add_parser("info", help="problem size without solving")
    common(p_info)
    return parser


# argparse reads a value such as "-1e-7" as an option, not as the value
# of the option before it; attached to its option ("--tol=-1e-7"), a
# negative setting reaches the range checks
SOLVER_SETTINGS = ("--tol", "--infeasibility-margin")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_settings(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in SOLVER_SETTINGS and arg.startswith("-") \
                and _is_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run(argv: list[str]) -> tuple[int, str]:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_settings(argv))
    except SystemExit as exc:
        return (EXIT_PARSE if exc.code not in (0, None) else 0), ""
    handlers = {"test": cmd_test, "export": cmd_export, "sample": cmd_sample,
                "gns": cmd_gns, "info": cmd_info}
    try:
        return handlers[args.command](args)
    except CliError as exc:
        return exc.code, f"error: {exc}"
    except (ScenarioError, SignallingError) as exc:
        return EXIT_PARSE, f"error: {exc}"


def main() -> None:
    code, report = run(sys.argv[1:])
    if report:
        try:
            print(report, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe (``netnpa ... | head``): point
            # stdout at devnull, so the exit's own flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
