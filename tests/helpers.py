"""Shared test machinery: brute-force word oracles, cached problem builds,
hand-built strategies and loop references used as independent checks."""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace

import numpy as np

from netnpa.moment import (
    FlatRows,
    MomentProblem,
    PinConflictError,
    ResidualReport,
    _diagonal_check_products,
    _min_key,
    _scalar_identifications,
    _source_nodes,
    _source_parties,
    build_factorisation_bilocal,
    build_inflation,
    build_scalar_extension,
    build_standard,
    build_star_factorisation,
)
from netnpa.scenarios import (
    Distribution,
    QuantumStrategy,
    Scenario,
    UnionFind,
    linked_components,
)
from netnpa.words import (
    Letter,
    Word,
    act_permutation,
    concat,
    enumerate_words,
    involute,
    letters_commute,
    word,
)


def meas(party: str, output: int = 0, input: int = 0, copies=None) -> Letter:
    return Letter("measurement", party, output, input, copies)


# ---------------------------------------------------------------------------
# brute-force rewrite closure (the independent oracle for canonical forms)
# ---------------------------------------------------------------------------

def rewrite_closure(seq: tuple[Letter, ...]) -> set[tuple[Letter, ...]]:
    """All letter sequences reachable by swapping commuting adjacent pairs
    and collapsing equal adjacent measurement letters."""
    seen = {tuple(seq)}
    frontier = [tuple(seq)]
    while frontier:
        s = frontier.pop()
        for i in range(len(s) - 1):
            a, b = s[i], s[i + 1]
            if a != b and letters_commute(a, b):
                t = s[:i] + (b, a) + s[i + 2:]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
            if a == b and a.is_measurement:
                t = s[:i] + (a,) + s[i + 2:]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def seq_key(s: tuple[Letter, ...]):
    return (len(s), tuple(l.sort_key() for l in s))


def brute_canonical(seq: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return min(rewrite_closure(seq), key=seq_key)


def all_sequences(letters, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


# ---------------------------------------------------------------------------
# cached problem builds (structures are immutable; pins copy them)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cached_problem(hierarchy: str, topology: str, outputs: tuple, inputs: tuple,
                   n: int, m: int | None = None, completeness: bool = True):
    sc = Scenario(topology, outputs, inputs)
    builders = {
        "standard": lambda: build_standard(sc, n, completeness=completeness),
        "factorisation": lambda: build_factorisation_bilocal(
            sc, n, completeness=completeness),
        "scalar": lambda: build_scalar_extension(sc, n, completeness=completeness),
        "inflation": lambda: build_inflation(sc, n, m, completeness=completeness),
        "star": lambda: build_star_factorisation(sc, n, completeness=completeness),
    }
    return builders[hierarchy]()


BILOCAL_111 = ("bilocal", (2, 2, 2), (1, 1, 1))
TRIANGLE_111 = ("triangle", (2, 2, 2), (1, 1, 1))


def dense_rows(cs) -> np.ndarray:
    """The reduced rows of an ``sdp._ClassSystem`` as a dense matrix."""
    starts, cols, vals = cs.R
    R = np.zeros((len(starts) - 1, len(cs.free)))
    for i in range(len(starts) - 1):
        for e in range(starts[i], starts[i + 1]):
            R[i, cols[e]] = vals[e]
    return R


# ---------------------------------------------------------------------------
# linear rows one at a time
# ---------------------------------------------------------------------------

def loop_rows(rows: FlatRows) -> list[tuple]:
    """The rows of ``rows`` one at a time, as (classes, coefficients, rhs,
    family) with the classes and coefficients in lists."""
    out = []
    for k in range(len(rows)):
        a, e = int(rows.starts[k]), int(rows.starts[k + 1])
        out.append((rows.classes[a:e].tolist(), rows.coeffs[a:e].tolist(),
                    float(rows.rhs[k]), rows.families[k]))
    return out


def loop_flat_rows(rows) -> FlatRows:
    """Rows given one at a time as (classes, coefficients, rhs, family),
    laid out as ``FlatRows`` entry after entry."""
    classes, coeffs, at, starts = [], [], [], [0]
    for k, (cls, co, _rhs, _family) in enumerate(rows):
        classes += list(cls)
        coeffs += [float(c) for c in co]
        at += [k] * len(cls)
        starts.append(len(classes))
    return FlatRows(classes=np.array(classes, dtype=np.intp),
                    coeffs=np.array(coeffs, dtype=float),
                    row=np.array(at, dtype=np.intp),
                    starts=np.array(starts, dtype=np.intp),
                    rhs=np.array([r[2] for r in rows], dtype=float),
                    families=tuple(r[3] for r in rows))


# ---------------------------------------------------------------------------
# hand-built strategies
# ---------------------------------------------------------------------------

def singlet_pauli_strategy() -> QuantumStrategy:
    """Two singlet sources; A and C measure X or Z, B measures in the Bell
    basis.  Real matrices throughout."""
    sc = Scenario("bilocal", outputs=(2, 4, 2), inputs=(2, 1, 2))
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.diag([1.0, -1.0])
    pvms = {}
    for party in ("A", "C"):
        for x, obs in enumerate((X, Z)):
            w, v = np.linalg.eigh(obs)
            order = np.argsort(-w)  # outcome 0 = +1 eigenvalue
            pvms[(party, x)] = [np.outer(v[:, order[o]], v[:, order[o]])
                                for o in range(2)]
    bell = np.array([
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ]) / np.sqrt(2.0)
    pvms[("B", 0)] = [np.outer(bell[k], bell[k]) for k in range(4)]
    return QuantumStrategy(model="tensor_bilocal", scenario=sc,
                           dims=(2, 2, 2, 2), pvms=pvms, rho=rho, sigma=rho.copy())


def classical_mixture_strategy(weights, atoms, inputs_free: int = 1) -> QuantumStrategy:
    """Diagonal commuting model for a mixture of deterministic points:
    q = sum_k weights[k] * [atoms[k]] over the bilocal parties."""
    sc = Scenario("bilocal", outputs=(2, 2, 2), inputs=(1, 1, 1))
    k = len(weights)
    tau = np.diag(np.asarray(weights, dtype=float))
    pvms = {}
    for p_idx, party in enumerate(sc.parties):
        ops = []
        for o in range(2):
            ops.append(np.diag([1.0 if atoms[j][p_idx] == o else 0.0
                                for j in range(k)]))
        pvms[(party, 0)] = ops
    return QuantumStrategy(model="commutator_general", scenario=sc, dims=(k,),
                           pvms=pvms, tau=tau)


# ---------------------------------------------------------------------------
# loop reference for moment.check_assignment
# ---------------------------------------------------------------------------

def loop_cells(labels: np.ndarray, count: int) -> list[list[int]]:
    """The flat positions of the cells of each of ``count`` labels, one
    cell at a time in row-major order."""
    cells: list[list[int]] = [[] for _ in range(count)]
    for flat, label in enumerate(labels.reshape(-1).tolist()):
        cells[label].append(flat)
    return cells


def loop_check_assignment(problem, assignment) -> ResidualReport:
    """Per-family residuals, one Hankel group, class, pin and row at a time."""
    X = assignment.matrix
    flat = X.reshape(-1)
    hankel = 0.0
    merge_res = 0.0
    group_means = np.zeros(len(problem.group_keys))
    class_groups: list[list[int]] = [[] for _ in range(problem.n_classes)]
    for g, cls in enumerate(problem.group_class.tolist()):
        class_groups[cls].append(g)
    class_cells = loop_cells(problem.cell_class, problem.n_classes)
    for g, cells in enumerate(loop_cells(problem.cell_group,
                                         len(problem.group_keys))):
        vals = flat[cells]
        group_means[g] = vals.mean()
        if len(vals) > 1:
            hankel = max(hankel, float(vals.max() - vals.min()))
    class_vals = np.zeros(problem.n_classes)
    for cls in range(problem.n_classes):
        gs = class_groups[cls]
        means = group_means[gs]
        class_vals[cls] = means.mean()
        if len(gs) > 1:
            merge_res = max(merge_res, float(means.max() - means.min()))
    pins = 0.0
    for cls, val in problem.pinned.items():
        pins = max(pins, float(np.abs(flat[class_cells[cls]] - val).max()))
    completeness = 0.0
    for classes, coeffs, rhs, _family in loop_rows(problem.active_rows):
        s = sum(c * class_vals[k] for k, c in zip(classes, coeffs))
        completeness = max(completeness, abs(s - rhs))
    fact = 0.0
    for fc in problem.factor_pairs + problem.factor_triples:
        fact = max(fact, abs(class_vals[fc.cls_prod]
                             - class_vals[fc.cls_row] * class_vals[fc.cls_col]))
    ext = 0.0
    for cls_prod, factors in problem.check_products:
        prod = 1.0
        for c in factors:
            prod *= class_vals[c]
        ext = max(ext, abs(class_vals[cls_prod] - prod))
    eigmin = float(np.linalg.eigvalsh((X + X.T) / 2).min())
    return ResidualReport(hankel=hankel, merges=merge_res, pins=pins,
                          completeness=completeness, factorisation=fact,
                          extended_products=ext, min_eigenvalue=eigmin)


# ---------------------------------------------------------------------------
# loop reference for moment.pin_distribution
# ---------------------------------------------------------------------------

def _pinnable_value(scenario: Scenario, dist: Distribution, key: Word,
                    inflated: bool,
                    marginal_cache: dict) -> float | None:
    """Value forced on a class by distribution compatibility, or None.

    The key word is split into connected components through shared source
    copies.  A component is a fresh copy of a sub-network when each party
    occurs once and parties adjacent to a common source use a common copy
    of it; its value is then the corresponding marginal of the
    distribution, and the word's value is the product over components.
    """
    letters = key.letters
    if any(not l.is_measurement for l in letters):
        return None
    if not letters:
        return 1.0
    nodes_of = [_source_nodes(scenario, l, inflated) for l in letters]
    comps = linked_components(nodes_of)
    total = 1.0
    for members in comps:
        parties = [letters[li].party for li in members]
        if len(set(parties)) != len(parties):
            return None
        if inflated:
            # parties sharing a source in the network must share its copy
            copy_used: dict[str, set[int]] = {}
            for li in members:
                for src, cp in nodes_of[li]:
                    copy_used.setdefault(src, set()).add(cp)
            for src, cps in copy_used.items():
                feeders = set(_source_parties(scenario, src)) & set(parties)
                if len(feeders) >= 2 and len(cps) >= 2:
                    return None
        sub = tuple(sorted(parties))
        if sub not in marginal_cache:
            marginal_cache[sub] = dist.marginal(sub)
        marg = marginal_cache[sub]
        order = {p: k for k, p in enumerate(sub)}
        outs = [0] * len(sub)
        ins = [0] * len(sub)
        for li in members:
            l = letters[li]
            outs[order[l.party]] = l.output
            ins[order[l.party]] = l.input
        total *= float(marg[tuple(outs) + tuple(ins)])
    return total


def loop_pin_distribution(problem: MomentProblem, dist: Distribution,
                          *, tol: float = 1e-9) -> MomentProblem:
    """``moment.pin_distribution`` one class and one key at a time, with
    the structure of every key worked out again for each distribution."""
    if dist.scenario.topology != problem.scenario.topology or \
            dist.scenario.outputs != problem.scenario.outputs or \
            dist.scenario.inputs != problem.scenario.inputs:
        raise ValueError("distribution and problem scenarios differ")
    nparties = len(problem.scenario.parties)
    if 2 * problem.n < nparties and problem.hierarchy != "inflation":
        # full-correlator words appear as cell products of length <= 2n
        raise ValueError(
            f"level n={problem.n} cannot pin the full correlators of "
            f"{nparties} parties")
    inflated = problem.hierarchy == "inflation"
    cache: dict = {}
    pinned = dict(problem.pinned)
    for cls in range(problem.n_classes):
        values = []
        for g in problem.class_groups(cls):
            v = _pinnable_value(problem.scenario, dist, problem.group_keys[g],
                                inflated, cache)
            if v is not None:
                values.append((problem.group_keys[g], v))
        if not values:
            continue
        vmin = min(v for _, v in values)
        vmax = max(v for _, v in values)
        if vmax - vmin > tol:
            wa = [w for w, v in values if v == vmin][0]
            wb = [w for w, v in values if v == vmax][0]
            raise PinConflictError(
                f"keys {wa!r} and {wb!r} of one class pin to {vmin} != {vmax}")
        if cls in pinned and abs(pinned[cls] - values[0][1]) > tol:
            raise PinConflictError(
                f"class {cls} already pinned to {pinned[cls]}, got {values[0][1]}")
        pinned[cls] = values[0][1]
    return replace(problem, pinned=pinned)


# ---------------------------------------------------------------------------
# loop reference for the linear presolve of sdp._ClassSystem
# ---------------------------------------------------------------------------

def _loop_row_evidence(problem, known, classes, coeffs, rhs, family, resid) -> str:
    from netnpa.words import render_word

    terms = " + ".join(
        f"{c:g}*G[{render_word(problem.representative_key(int(k)))}]"
        f"(={known[int(k)]:.6g})"
        for k, c in zip(classes, coeffs))
    return (f"violated {family} row: {terms} = {rhs:g} "
            f"(residual {resid:.3e})")


def loop_propagate(problem: MomentProblem, linear_tol: float = 1e-9):
    """The presolve one row at a time, each pass over the pending rows
    seeing the values set earlier in the same pass.  Returns the class
    values (NaN where free), the indices of the rows left pending, in row
    order, and the first contradiction, if any."""
    known = np.full(problem.n_classes, np.nan)
    for cls, val in problem.pinned.items():
        known[cls] = val
    pending = [(np.asarray(classes, dtype=int), np.asarray(coeffs, dtype=float),
                rhs, family, index)
               for index, (classes, coeffs, rhs, family)
               in enumerate(loop_rows(problem.active_rows))]
    progress = True
    while progress:
        progress = False
        remaining = []
        for classes, coeffs, rhs, family, index in pending:
            vals = known[classes]
            unknown = np.isnan(vals)
            n_unk = int(unknown.sum())
            if n_unk == 0:
                resid = float(np.dot(coeffs, vals) - rhs)
                if abs(resid) > linear_tol:
                    return known, [], _loop_row_evidence(
                        problem, known, classes, coeffs, rhs, family, resid)
                progress = True
            elif n_unk == 1:
                i = int(np.flatnonzero(unknown)[0])
                rest = float(np.dot(coeffs[~unknown], vals[~unknown]))
                if coeffs[i] == 0.0:
                    if abs(rhs - rest) > linear_tol:
                        return known, [], _loop_row_evidence(
                            problem, known, classes, coeffs, rhs, family,
                            rest - rhs)
                    progress = True
                    continue
                known[classes[i]] = (rhs - rest) / coeffs[i]
                progress = True
            else:
                remaining.append((classes, coeffs, rhs, family, index))
        pending = remaining
    return known, [row[4] for row in pending], None


def loop_reduced_rows(problem: MomentProblem, known: np.ndarray,
                      pending: list[int]):
    """The pending rows over the free classes, one row at a time, with the
    free positions looked up in a dict; returned as flat (starts, free
    positions, coefficients) and the rhs less the known part."""
    rows = loop_rows(problem.active_rows)
    free_pos = {int(c): i for i, c in enumerate(np.flatnonzero(np.isnan(known)))}
    starts, cols, vals, b = [0], [], [], []
    for index in pending:
        classes = np.asarray(rows[index][0], dtype=int)
        coeffs = np.asarray(rows[index][1], dtype=float)
        v = known[classes]
        unknown = np.isnan(v)
        r: dict[int, float] = {}
        for cls, co in zip(classes[unknown].tolist(), coeffs[unknown].tolist()):
            j = free_pos[cls]
            r[j] = r.get(j, 0.0) + co
        for j, co in r.items():
            if co != 0.0:
                cols.append(j)
                vals.append(co)
        starts.append(len(cols))
        b.append(rows[index][2] - float(np.dot(coeffs[~unknown], v[~unknown])))
    return ((np.array(starts, dtype=np.intp), np.array(cols, dtype=np.intp),
             np.array(vals, dtype=float)), np.asarray(b, dtype=float))


def loop_submatrix_words(known: np.ndarray, cell_class: np.ndarray) -> list[int]:
    """The words of the interlacing bound, with every candidate checked
    against each word chosen so far."""
    cell_known = ~np.isnan(known)[cell_class]
    chosen: list[int] = []
    for i in np.argsort(-cell_known.sum(axis=1)):
        if cell_known[i, i] and all(cell_known[i, j] for j in chosen):
            chosen.append(int(i))
    return chosen


# ---------------------------------------------------------------------------
# loop reference for factorisation.pin_linearize
# ---------------------------------------------------------------------------

def loop_pin_linearize(problem: MomentProblem) -> MomentProblem:
    """``factorisation.pin_linearize`` one factor pair at a time."""
    from netnpa.sdp import propagated_values

    if not (problem.factor_pairs or problem.factor_triples):
        return problem
    known, _contradiction = propagated_values(problem)
    rows = loop_rows(problem.linear_factor_rows)
    flagged = []
    for fc in problem.factor_pairs + problem.factor_triples:
        lhs, rhs = known[fc.cls_row], known[fc.cls_col]
        if not np.isnan(lhs) and not np.isnan(rhs):
            rows.append(((fc.cls_prod,), (1.0,), float(lhs * rhs),
                         "factorisation (linearized)"))
        elif not np.isnan(lhs):
            if lhs == 0.0:
                rows.append(((fc.cls_prod,), (1.0,), 0.0,
                             "factorisation (linearized)"))
            else:
                rows.append(((fc.cls_prod, fc.cls_col), (1.0, -float(lhs)),
                             0.0, "factorisation (half-linearized)"))
        elif not np.isnan(rhs):
            if rhs == 0.0:
                rows.append(((fc.cls_prod,), (1.0,), 0.0,
                             "factorisation (linearized)"))
            else:
                rows.append(((fc.cls_prod, fc.cls_row), (1.0, -float(rhs)),
                             0.0, "factorisation (half-linearized)"))
        else:
            flagged.append(fc)
    return problem.derive(linear_factor_rows=loop_flat_rows(rows),
                          flagged_bilinear=tuple(flagged))


def loop_scalar_rows(problem: MomentProblem, scalars: dict) -> FlatRows:
    """``factorisation._scalar_rows`` one flagged pair at a time."""
    rows = []

    def tie(prod, other, s):
        if s == 0.0:
            return ((prod,), (1.0,), 0.0, "seesaw")
        return ((prod, other), (1.0, -s), 0.0, "seesaw")

    for fc in problem.flagged_bilinear:
        s_row, s_col = scalars.get(fc.cls_row), scalars.get(fc.cls_col)
        if s_row is not None:
            rows.append(tie(fc.cls_prod, fc.cls_col, s_row))
        if s_col is not None:
            rows.append(tie(fc.cls_prod, fc.cls_row, s_col))
        if s_row is not None and s_col is not None:
            rows.append(((fc.cls_prod,), (1.0,), s_row * s_col, "seesaw"))
    return loop_flat_rows(rows)


# ---------------------------------------------------------------------------
# loop references for the moment-problem builders
# ---------------------------------------------------------------------------

def loop_build_groups(index):
    """Hankel groups one cell at a time: the canonical product of every
    upper-triangle cell, in row-major order, keyed on the smaller of it and
    its involute."""
    n = len(index)
    invols = [involute(w) for w in index]
    key_of: dict[Word, int] = {}
    keys: list[Word] = []
    cell_group = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            k = _min_key(concat(invols[i], index[j]))
            g = key_of.get(k)
            if g is None:
                g = len(keys)
                key_of[k] = g
                keys.append(k)
            cell_group[i, j] = cell_group[j, i] = g
    return keys, key_of, cell_group


def loop_copy_orbit_edges(keys, key_of, alphabet, m):
    """Edges (g, g') joining each group key to its image under every
    generator of the copy-relabelling group (S_m)^sources, one source at a
    time: the transposition (1 2), plus the m-cycle when m >= 3."""
    gens = [{1: 2, 2: 1}] if m >= 2 else []
    if m >= 3:
        gens.append({i: i % m + 1 for i in range(1, m + 1)})
    out = []
    for src in alphabet.sources():
        for gen in gens:
            perms_by_source = {src: gen}
            for g, k in enumerate(keys):
                img = _min_key(act_permutation(
                    k, None, alphabet=alphabet, perms_by_source=perms_by_source))
                g2 = key_of.get(img)
                if g2 is None:
                    raise RuntimeError(
                        f"copy relabelling {perms_by_source} maps key {k!r} to "
                        f"{img!r}, which is not a key: the key set is not "
                        "closed under relabelling")
                if g2 != g:
                    out.append((g, g2))
    return out


def loop_completeness_rows(alphabet, index, cell_class):
    """Rows sum_a G[w, A_{a|x} v] = G[w, v], one (v, PVM, w) at a time,
    deduplicated at class level, first occurrence kept."""
    n = len(index)
    pos = {w: i for i, w in enumerate(index)}
    pvm: dict[tuple, list[Letter]] = {}
    for l in alphabet.letters:
        if l.is_measurement:
            pvm.setdefault((l.party, l.copies, l.input), []).append(l)
    rows: dict = {}
    for j, v in enumerate(index):
        for letters in pvm.values():
            targets = []
            for l in sorted(letters, key=Letter.sort_key):
                tj = pos.get(concat(word([l]), v))
                if tj is None:
                    break
                targets.append(tj)
            else:
                for i in range(n):
                    coeffs: dict[int, float] = {}
                    for tj in targets:
                        c = int(cell_class[i, tj])
                        coeffs[c] = coeffs.get(c, 0.0) + 1.0
                    c0 = int(cell_class[i, j])
                    coeffs[c0] = coeffs.get(c0, 0.0) - 1.0
                    coeffs = {c: w for c, w in coeffs.items() if w != 0.0}
                    if not coeffs:
                        continue
                    classes = tuple(sorted(coeffs))
                    row = (classes, tuple(coeffs[c] for c in classes), 0.0,
                           "completeness")
                    rows.setdefault(row[:2], row)
    return loop_flat_rows(list(rows.values()))


def loop_structure(problem: MomentProblem) -> dict:
    """The structure of ``problem`` built again from its index by the loop
    references, with the classes joined by a union-find."""
    index = enumerate_words(problem.alphabet, problem.n)
    keys, key_of, cell_group = loop_build_groups(index)
    if problem.hierarchy == "inflation":
        merges = loop_copy_orbit_edges(keys, key_of, problem.alphabet, problem.m)
    elif problem.hierarchy == "scalar_extension":
        merges = zip(*_scalar_identifications(problem.alphabet, problem.n, keys))
    else:
        merges = ()
    uf = UnionFind()
    for g1, g2 in merges:
        uf.union(int(g1), int(g2))
    root_to_cls: dict[int, int] = {}
    group_class = np.zeros(len(keys), dtype=np.int32)
    for g in range(len(keys)):
        group_class[g] = root_to_cls.setdefault(uf.find(g), len(root_to_cls))
    cell_class = group_class[cell_group]
    rows = (loop_completeness_rows(problem.alphabet, index, cell_class)
            if problem.completeness else loop_flat_rows([]))
    structure = replace(problem, group_keys=tuple(keys), cell_group=cell_group,
                        group_class=group_class, cell_class=cell_class,
                        rows=rows)
    return dict(index=structure.index, group_keys=structure.group_keys,
                cell_group=cell_group, group_class=group_class,
                cell_class=cell_class, rows=structure.rows,
                check_products=tuple(_diagonal_check_products(structure))
                if problem.hierarchy == "inflation" else ())


# ---------------------------------------------------------------------------
# loop reference for sdp.compile
# ---------------------------------------------------------------------------

def loop_class_rep_cells(problem: MomentProblem) -> list[tuple[int, int]]:
    """The representative cell of each class: its smallest flat position,
    one class at a time."""
    n = problem.dim
    reps = []
    for cells in loop_cells(problem.cell_class, problem.n_classes):
        i, j = divmod(min(cells), n)
        reps.append((min(i, j), max(i, j)))
    return reps


def loop_compile_rows(problem: MomentProblem) -> tuple:
    """The rows of ``sdp.compile(problem)``, with the Hankel ties made one
    class and one cell at a time."""
    from netnpa.sdp import SdpRow, _cell_weight

    n = problem.dim
    reps = loop_class_rep_cells(problem)
    rows = []
    for cls, cells in enumerate(loop_cells(problem.cell_class, problem.n_classes)):
        ri, rj = reps[cls]
        for flat in sorted(set(cells)):
            i, j = divmod(flat, n)
            if i > j or (i, j) == (ri, rj):
                continue
            rows.append(SdpRow(
                ((min(i, j), max(i, j)), (ri, rj)),
                (_cell_weight(i, j), -_cell_weight(ri, rj)), 0.0))
    for cls, val in sorted(problem.pinned.items()):
        ri, rj = reps[cls]
        rows.append(SdpRow(((ri, rj),), (_cell_weight(ri, rj),), float(val)))
    for classes, coeffs, rhs, _family in loop_rows(problem.active_rows):
        cells = tuple(reps[c] for c in classes)
        coeffs = tuple(co * _cell_weight(*reps[c])
                       for c, co in zip(classes, coeffs))
        rows.append(SdpRow(cells, coeffs, rhs))
    return tuple(rows)
