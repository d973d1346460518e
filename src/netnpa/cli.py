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
rebuild included); 65 flags any error building or pinning the requested
problem in ``test``, ``export``, ``sample`` and ``info`` (a scenario
mismatch, an invalid level, the index budget).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

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
    pin_distribution,
)
from .scenarios import (
    Distribution,
    Scenario,
    ScenarioError,
    SignallingError,
    MomentOracle,
    TOPOLOGIES,
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


@dataclass
class RunConfig:
    command: str
    scenario: str | None = None
    outputs: tuple[int, ...] | None = None
    inputs: tuple[int, ...] | None = None
    hierarchy: str = "standard"
    n: int = 3
    m: int | None = None
    tol: float = sdp.DEFAULT_TOL
    max_iter: int = sdp.DEFAULT_MAX_ITER
    infeasibility_margin: float = sdp.DEFAULT_MARGIN
    budget: int = DEFAULT_INDEX_BUDGET
    literal_paper_mode: bool = False
    seed: int | None = None
    distribution: str | None = None
    output_path: str | None = None
    dims: tuple[int, ...] = (2, 2, 2, 2)

    def report_lines(self) -> list[str]:
        return [
            "config:",
            f"  command: {self.command}",
            f"  scenario: {self.scenario or '-'}",
            f"  outputs: {','.join(map(str, self.outputs)) if self.outputs else '-'}",
            f"  inputs: {','.join(map(str, self.inputs)) if self.inputs else '-'}",
            f"  hierarchy: {self.hierarchy}",
            f"  n: {self.n}",
            f"  m: {self.m if self.m is not None else '-'}",
            f"  tol: {self.tol:g}",
            f"  max_iter: {self.max_iter}",
            f"  infeasibility_margin: {self.infeasibility_margin:g}",
            f"  budget: {self.budget}",
            f"  literal_paper_mode: {str(self.literal_paper_mode).lower()}",
            f"  seed: {self.seed if self.seed is not None else '-'}",
            f"  distribution: {self.distribution or '-'}",
        ]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _builtin_distribution(name: str, topology: str) -> Distribution:
    n_parties = len(TOPOLOGIES[topology].parties)
    if name == "shared_random_bit":
        return shared_random_bit(topology)
    if name == "uniform_product":
        sc = Scenario(topology, (2,) * n_parties, (1,) * n_parties)
        return product_distribution(sc, [np.full((2, 1), 0.5)] * n_parties)
    if name == "point":
        sc = Scenario(topology, (2,) * n_parties, (1,) * n_parties)
        from .scenarios import point_distribution
        return point_distribution(sc, (0,) * n_parties)
    raise CliError(f"unknown builtin distribution {name!r} "
                   "(try shared_random_bit, uniform_product, point)", EXIT_PARSE)


def _load_distribution(cfg: RunConfig) -> Distribution:
    if cfg.distribution is None:
        raise CliError("a distribution (file or builtin name) is required",
                       EXIT_PARSE)
    import os

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


def _problem(cfg: RunConfig, scenario: Scenario,
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


def cmd_test(cfg: RunConfig) -> tuple[int, str]:
    t0 = time.perf_counter()
    dist = _load_distribution(cfg)
    problem, t_built = _problem(cfg, dist.scenario, dist, linearize=True)
    t_pinned = time.perf_counter()
    settings = dict(tol=cfg.tol, max_iter=cfg.max_iter,
                    infeasibility_margin=cfg.infeasibility_margin)
    seesaw_note = ""
    if problem.flagged_bilinear:
        outcome, state = factorisation.seesaw(problem, **settings)
        seesaw_note = state.dump()
    else:
        outcome = sdp.solve_feasibility(problem, **settings)
    t_solved = time.perf_counter()
    verdict = outcome.verdict.upper()
    lines = ["netnpa test report"]
    lines += cfg.report_lines()
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
    if seesaw_note:
        lines.append(seesaw_note)
    lines.append(f"timing: {t_solved - t0:.2f} s (build {t_built - t0:.2f} s, "
                 f"pin {t_pinned - t_built:.2f} s, solve {t_solved - t_pinned:.2f} s)")
    code = {"FEASIBLE": EXIT_FEASIBLE, "INFEASIBLE": EXIT_INFEASIBLE,
            "INCONCLUSIVE": EXIT_INCONCLUSIVE}[verdict]
    return code, "\n".join(lines)


def cmd_export(cfg: RunConfig) -> tuple[int, str]:
    if cfg.output_path is None:
        raise CliError("export needs --out", EXIT_PARSE)
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
    lines += cfg.report_lines()
    lines += _problem_lines(problem)
    lines += [f"constraints written: {len(compiled.rows)}",
              f"file: {cfg.output_path}"]
    return EXIT_FEASIBLE, "\n".join(lines)


def _scenario_from_flags(cfg: RunConfig) -> Scenario:
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


def cmd_sample(cfg: RunConfig) -> tuple[int, str]:
    if cfg.seed is None:
        raise CliError("sample requires an explicit --seed", EXIT_PARSE)
    if cfg.output_path is None:
        raise CliError("sample needs --out (a path prefix)", EXIT_PARSE)
    scenario = _scenario_from_flags(cfg)
    strategy = random_strategy(scenario, tuple(cfg.dims), cfg.seed)
    oracle = MomentOracle(strategy)
    dist = oracle.born()
    problem, _ = _problem(cfg, scenario, dist)
    from .moment import oracle_assignment

    assignment = oracle_assignment(problem, oracle)
    dist_path = cfg.output_path + ".dist"
    asg_path = cfg.output_path + ".npz"
    write_distribution(dist, dist_path)
    save_assignment(assignment, asg_path, cfg.budget)
    lines = ["netnpa sample report"]
    lines += cfg.report_lines()
    lines += [f"  dims: {','.join(map(str, cfg.dims))}"]
    lines += _problem_lines(problem)
    lines += [f"distribution file: {dist_path}", f"assignment file: {asg_path}"]
    return EXIT_FEASIBLE, "\n".join(lines)


def cmd_gns(cfg: RunConfig) -> tuple[int, str]:
    if cfg.distribution is None:
        raise CliError("gns needs the stored assignment path as its argument",
                       EXIT_PARSE)
    try:
        assignment = load_assignment(cfg.distribution)
    except (OSError, KeyError, ValueError, BudgetError) as exc:
        raise CliError(f"cannot load assignment: {exc}", EXIT_PARSE)
    try:
        model = gns.reconstruct(assignment)
    except gns.GnsError as exc:
        raise CliError(f"reconstruction failed: {exc}", EXIT_PARSE)
    residuals = gns.verify_model(model, assignment)
    lines = ["netnpa gns report"]
    lines += cfg.report_lines()
    lines += [f"reconstructed dimension: {model.dimension}",
              str(residuals)]
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(gns.model_dump(model, residuals) + "\n")
        lines.append(f"model dump: {cfg.output_path}")
    return EXIT_FEASIBLE, "\n".join(lines)


def cmd_info(cfg: RunConfig) -> tuple[int, str]:
    problem, _ = _problem(cfg, _scenario_from_flags(cfg))
    lines = ["netnpa info report"]
    lines += cfg.report_lines()
    lines += _problem_lines(problem)
    return EXIT_FEASIBLE, "\n".join(lines)


def _parse_cards(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netnpa",
        description="moment-matrix hierarchy tests for quantum network "
                    "compatibility")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_dist=False):
        p.add_argument("--scenario", choices=sorted(TOPOLOGIES))
        p.add_argument("--outputs", type=_parse_cards)
        p.add_argument("--inputs", type=_parse_cards)
        p.add_argument("--hierarchy", choices=BUILDERS,
                       default="standard")
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--m", type=int)
        p.add_argument("--tol", type=float, default=sdp.DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=sdp.DEFAULT_MAX_ITER)
        p.add_argument("--infeasibility-margin", type=float,
                       default=sdp.DEFAULT_MARGIN)
        p.add_argument("--budget", type=int, default=DEFAULT_INDEX_BUDGET)
        p.add_argument("--literal-paper-mode", action="store_true",
                       help="drop the completeness rows (matrices exactly as "
                            "defined, marginal pins not derivable)")
        if with_dist:
            p.add_argument("distribution",
                           help="distribution file or builtin name")

    p_test = sub.add_parser("test", help="hierarchy feasibility test")
    common(p_test, with_dist=True)

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
    common(p_gns)
    p_gns.add_argument("distribution", metavar="assignment",
                       help="assignment .npz path")
    p_gns.add_argument("--out", dest="output_path",
                       help="write a model dump here")

    p_info = sub.add_parser("info", help="problem size without solving")
    common(p_info)
    return parser


def run(argv: list[str]) -> tuple[int, str]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_PARSE if exc.code not in (0, None) else 0), ""
    cfg = RunConfig(**vars(args))
    handlers = {"test": cmd_test, "export": cmd_export, "sample": cmd_sample,
                "gns": cmd_gns, "info": cmd_info}
    try:
        return handlers[cfg.command](cfg)
    except CliError as exc:
        return exc.code, f"error: {exc}"
    except (ScenarioError, SignallingError) as exc:
        return EXIT_PARSE, f"error: {exc}"


def main() -> None:
    code, report = run(sys.argv[1:])
    if report:
        print(report)
    sys.exit(code)


if __name__ == "__main__":
    main()
