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
    _relation_complement,
    _scalar_identifications,
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
    SignallingError,
)
from netnpa.words import (
    Letter,
    Word,
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


def plain_commute(a: Letter, b: Letter) -> bool:
    """Whether ``ab == ba``, read off the two letters' fields."""
    if not (a.is_measurement and b.is_measurement) or a.party != b.party:
        return True
    if a.copies is None or b.copies is None:
        return False
    return all(x != y for x, y in zip(a.copies, b.copies))


def plain_canonical(seq) -> tuple[Letter, ...]:
    """The canonical form on ``Letter``s alone: the scalars sorted, then
    per party the least representative of its block's trace (the least
    letter free of a non-commuting predecessor, repeatedly) with equal
    adjacent letters collapsed, until the block no longer changes."""
    out = sorted((l for l in seq if l.is_scalar), key=Letter.sort_key)
    for party in "ABCD":
        block = [l for l in seq if l.is_measurement and l.party == party]
        while True:
            rest, least = list(block), []
            while rest:
                free = [i for i, l in enumerate(rest)
                        if all(plain_commute(p, l) for p in rest[:i])]
                least.append(rest.pop(min(free, key=lambda i: rest[i].sort_key())))
            collapsed = [l for i, l in enumerate(least)
                         if i == 0 or l != least[i - 1]]
            if collapsed == block:
                break
            block = collapsed
        out += block
    return tuple(out)


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
    starts, cols, vals = cs.plan.R
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
    for cls_prod, *factors in problem.check_products:
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

class UnionFind:
    """Disjoint sets over hashable items; an item is a singleton until it
    is first joined."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        while self.parent.get(x, x) != x:
            x = self.parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def linked_components(nodes_of) -> list[list[int]]:
    """The item indices of each group of items sharing a node, transitively,
    in order of their first item; ``nodes_of[i]`` lists item i's nodes."""
    uf = UnionFind()
    for nodes in nodes_of:
        for nd in nodes[1:]:
            uf.union(nodes[0], nd)
    comps: dict = {}
    for i, nodes in enumerate(nodes_of):
        comps.setdefault(uf.find(nodes[0]), []).append(i)
    return list(comps.values())


def _source_nodes(scenario: Scenario, l: Letter,
                  inflated: bool) -> list[tuple[str, int]]:
    """(source, copy) pairs a letter uses; a global pseudo-source otherwise."""
    if not inflated:
        return [("__global__", 1)]
    slots = scenario.topo.party_sources[l.party]
    return [(src, l.copies[i]) for i, src in enumerate(slots)]


def _source_parties(scenario: Scenario, source: str) -> tuple[str, ...]:
    if source == "__global__":
        return scenario.parties
    return scenario.topo.sources[source]


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


def round_propagate(problem: MomentProblem, linear_tol: float = 1e-9):
    """The presolve's round loop on values, with no plan: each round reads
    the known values of every active row's entries, checks the rows with
    no unknown class (and those whose one unknown has coefficient 0) and
    solves every row with one unknown, the first in row order setting a
    class that several rows solve.  Returns the class values (NaN where
    free), the rows still active (those of the round that found the
    contradiction, if one did) and the first contradiction, if any."""
    rows = problem.active_rows
    known = np.full(problem.n_classes, np.nan)
    known[list(problem.pinned)] = list(problem.pinned.values())
    contradiction = None
    active = np.arange(len(rows))
    cls, coef, at = rows.classes, rows.coeffs, rows.row
    while True:
        m = len(active)
        vals = known[cls]
        unknown = np.isnan(vals)
        n_unknown = np.bincount(at[unknown], minlength=m)
        have = ~unknown
        rest = np.bincount(at[have], weights=coef[have] * vals[have],
                           minlength=m)
        rhs = rows.rhs[active]
        single = np.flatnonzero(unknown & (n_unknown == 1)[at])
        s_row, s_cls, s_coef = at[single], cls[single], coef[single]
        zero = s_coef == 0.0
        checked = n_unknown == 0
        checked[s_row[zero]] = True
        violated = checked & (np.abs(rest - rhs) > linear_tol)
        if violated.any():
            k = int(violated.argmax())
            r = int(active[k])
            e = slice(rows.starts[r], rows.starts[r + 1])
            contradiction = _loop_row_evidence(
                problem, known, rows.classes[e], rows.coeffs[e], rows.rhs[r],
                rows.families[r], float(rest[k] - rhs[k]))
            break
        s_row, s_cls, s_coef = s_row[~zero], s_cls[~zero], s_coef[~zero]
        solved, first = np.unique(s_cls, return_index=True)
        known[solved] = ((rhs[s_row] - rest[s_row]) / s_coef)[first]
        checked[s_row[first]] = True
        keep = ~checked
        kept = keep[at]
        active = active[keep]
        cls, coef = cls[kept], coef[kept]
        at = (np.cumsum(keep) - 1)[at[kept]]
        if not len(solved):
            break
    return known, active, contradiction


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

    if not (problem.factor_pairs or problem.factor_triples) \
            or problem.linear_factor_rows or problem.flagged_bilinear:
        return problem
    known, _contradiction = propagated_values(problem)
    rows = []
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


def copy_generators(m: int) -> list[dict[int, int]]:
    """The transposition (1 2), plus the m-cycle when m >= 3."""
    gens = [{1: 2, 2: 1}] if m >= 2 else []
    if m >= 3:
        gens.append({i: i % m + 1 for i in range(1, m + 1)})
    return gens


def plain_relabel(w: Word, alphabet, perms_by_source) -> Word:
    """The copy relabelling on ``Letter``s alone: each inflated measurement
    letter rebuilt with the copy in each slot mapped by the permutation of
    that slot's source (missing sources and indices fixed), then the word
    canonicalised."""
    out = []
    for l in w.letters:
        if not l.is_measurement or l.copies is None:
            out.append(l)
            continue
        slots = alphabet.party_sources[l.party]
        out.append(Letter("measurement", l.party, l.output, l.input, tuple(
            perms_by_source.get(src, {}).get(c, c)
            for src, c in zip(slots, l.copies))))
    return word(out)


def plain_copy_generators(index, alphabet, m) -> list[list[np.ndarray]]:
    """The index permutation of each generator of (S_m)^sources from
    :func:`plain_relabel`: one list per generator of
    :func:`copy_generators`, each with one permutation per source."""
    pos = {w: i for i, w in enumerate(index)}
    return [[np.array([pos[plain_relabel(w, alphabet, {src: gen})] for w in index])
             for src in alphabet.sources()]
            for gen in copy_generators(m)]


def plain_flip_permutations(index, scenario) -> list[np.ndarray]:
    """The index permutation of each output flip of ``scenario``, one per
    two-output (party, input) in party and input order, from a plain
    per-word relabelling: each letter P[a|x] of the flipped party and
    input, any copies, rebuilt as P[1-a|x], then the word canonicalised."""
    pos = {w: i for i, w in enumerate(index)}
    flips = [(p, x) for k, p in enumerate(scenario.parties)
             if scenario.outputs[k] == 2 for x in range(scenario.inputs[k])]
    out = []
    for party, x in flips:
        def image(w: Word) -> Word:
            return word([Letter("measurement", l.party, 1 - l.output, l.input, l.copies)
                         if l.is_measurement and l.party == party and l.input == x
                         else l for l in w.letters])

        out.append(np.array([pos[image(w)] for w in index]))
    return out


def loop_copy_orbit_edges(keys, key_of, alphabet, m):
    """Edges (g, g') joining each group key to its image under every
    generator of the copy-relabelling group (S_m)^sources, one source at a
    time (:func:`copy_generators`)."""
    out = []
    for src in alphabet.sources():
        for gen in copy_generators(m):
            perms_by_source = {src: gen}
            for g, k in enumerate(keys):
                img = _min_key(plain_relabel(k, alphabet, perms_by_source))
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
    """Rows sum_a G[w, A_{a|x} v] = G[w, v], one (v, PVM, w) at a time, then
    rows sum_a G[w, v A_{a|x}] = G[w, v] for the (v, PVM) whose relation
    is not already a left one, deduplicated at class level, first
    occurrence kept; and the column relations met on the way, one per
    complete (v, PVM): the positions of A_{a|x} v (then of v A_{a|x}),
    padded with -1 to the largest PVM, then v."""
    n = len(index)
    pos = {w: i for i, w in enumerate(index)}
    pvm: dict[tuple, list[Letter]] = {}
    for l in alphabet.letters:
        if l.is_measurement:
            pvm.setdefault((l.party, l.copies, l.input), []).append(l)
    width = max((len(letters) for letters in pvm.values()), default=0)
    rows: dict = {}
    relations = []
    for side in ("left", "right"):
        for j, v in enumerate(index):
            for letters in pvm.values():
                targets = []
                for l in sorted(letters, key=Letter.sort_key):
                    lw = word([l])
                    tj = pos.get(concat(lw, v) if side == "left" else concat(v, lw))
                    if tj is None:
                        break
                    targets.append(tj)
                else:
                    relation = targets + [-1] * (width - len(targets)) + [j]
                    if side == "right" and relation in relations:
                        continue
                    relations.append(relation)
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
    return (loop_flat_rows(list(rows.values())),
            np.array(relations, dtype=np.intp).reshape(-1, width + 1))


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
    rows, relations = (
        loop_completeness_rows(problem.alphabet, index, cell_class)
        if problem.completeness
        else (loop_flat_rows([]), np.zeros((0, 1), dtype=np.intp)))
    structure = replace(problem, group_keys=tuple(keys), cell_group=cell_group,
                        group_class=group_class, cell_class=cell_class,
                        rows=rows)
    return dict(index=structure.index, group_keys=structure.group_keys,
                cell_group=cell_group, group_class=group_class,
                cell_class=cell_class, rows=structure.rows,
                column_relations=relations,
                check_products=_diagonal_check_products(structure)
                if problem.hierarchy == "inflation"
                else np.zeros((0, 3), dtype=np.intp))


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


# ---------------------------------------------------------------------------
# Gram reference for the interior point's range
# ---------------------------------------------------------------------------

def gram_range(cs) -> np.ndarray:
    """An orthonormal basis of the range of X(y0)^2 + sum_j D_j^2 for an
    ``sdp._ClassSystem`` whose rows are factored: the complement of the
    common kernel of every matrix of its affine set, found numerically,
    with the eigenvalues below 1e-10 of the largest taken as zero."""
    X0 = cs.assemble(cs.y0)
    gram = X0 @ X0
    y = np.zeros(cs.problem.n_classes)
    for j in range(cs.N.shape[1]):
        y[cs.free] = cs.N[:, j]
        D = y[cs.cell_class]
        gram += D @ D
    w, U = np.linalg.eigh(gram)
    return U[:, w > 1e-10 * w[-1]]


# ---------------------------------------------------------------------------
# dense reference for the copy blocks' orbit sums
# ---------------------------------------------------------------------------

def dense_bases(blocks) -> list[np.ndarray]:
    """The bases U_b = Q_b W_b, (dim, r_b), of a ``moment.CopyBlocks``
    formed dense from its sparse orbit sums (Q = I where it holds none,
    W_b = I where it holds none)."""
    bases = []
    for cols, W in zip(blocks.columns, blocks.complements):
        Q = (np.eye(len(blocks.cell_class)) if blocks.sums is None
             else blocks.sums[cols].T.toarray())
        bases.append(Q if W is None else Q @ W)
    return bases


def relation_complement(p: MomentProblem) -> np.ndarray:
    """An orthonormal basis V, (dim, r), of the complement of the column
    relations on the whole index, by one SVD (Q = I): the one copy block
    of a problem without copy swaps, and the span of every problem's copy
    blocks."""
    return _relation_complement(p.column_relations, np.eye(p.dim))


def dense_congruence(blocks, M: np.ndarray) -> list[np.ndarray]:
    """U_b' M U_b for every block, as dense products over the whole
    index."""
    return [U.T @ M @ U for U in dense_bases(blocks)]


def block_list(blocks, stacks) -> list[np.ndarray]:
    """The blocks of ``stacks``, laid out as ``blocks.stacks`` decides
    (one stack per block size, ascending, each group of blocks at its
    slice), in block order: each block's (..., r_b, r_b) entries."""
    by_size = dict(zip(sorted(set(blocks.sizes)), stacks))
    out = {}
    for group, *_, r, at in blocks.stacks:
        for i, b in enumerate(group):
            out[b] = by_size[r][..., at.start + i, :, :]
    return [out[b] for b in range(len(blocks.sizes))]


def packed_stacks(A: np.ndarray, blocks) -> list[np.ndarray]:
    """The (m, n, r, r) views of the packed rows ``A`` that
    ``interior.solve_lmi`` reads, one per stack of ``blocks``: the n
    blocks of each size r, sizes ascending."""
    shapes = [(blocks.sizes.count(r), r) for r in sorted(set(blocks.sizes))]
    bounds = np.cumsum([0] + [n * r * r for n, r in shapes])
    return [A[:, a:e].reshape(len(A), n, r, r)
            for (n, r), a, e in zip(shapes, bounds, bounds[1:])]


def loop_phase1_rows(cs) -> list[np.ndarray]:
    """Per copy block U_b, the (p, r_b, r_b) stack of U_b' D_j U_b over the
    kernel directions j, for D_j the matrix whose free classes take the
    values N[:, j] and whose other classes are zero: dense products over
    the whole index, one direction at a time."""
    bases = dense_bases(cs.problem.copy_blocks)
    y = np.zeros(cs.problem.n_classes)
    out = [[] for _ in bases]
    for j in range(cs.N.shape[1]):
        y[cs.free] = cs.N[:, j]
        D = y[cs.cell_class]
        for blocks, U in zip(out, bases):
            blocks.append(U.T @ D @ U)
    return [np.array(blocks) for blocks in out]


# ---------------------------------------------------------------------------
# single-block reference for the interior point on copy blocks
# ---------------------------------------------------------------------------

def dense_solve_lmi(C: np.ndarray, A: np.ndarray, b: np.ndarray,
                    tol: float = 1e-9, max_iter: int = 100, start=None):
    """``interior.solve_lmi`` on one dense r x r block, ``A`` of shape
    (m, r, r): the form it had before it took a list of blocks, with the
    same optional dual start y = ``start``, S = C - A'(y), X = S^-1 / tr S^-1.
    Returns (status, y, primal objective, primal infeasibility)."""
    import scipy.linalg

    def sym(M):
        return (M + M.T) / 2

    def max_step(L, D):
        W = scipy.linalg.solve_triangular(L, D, lower=True)
        W = scipy.linalg.solve_triangular(L, W.T, lower=True)
        lam = float(np.linalg.eigvalsh(sym(W))[0])
        return -1.0 / lam if lam < 0 else np.inf

    m, r = A.shape[0], C.shape[0]
    Af = A.reshape(m, r * r)
    norm_b, norm_c = np.linalg.norm(b), np.linalg.norm(C)
    norm_a = np.linalg.norm(Af, axis=1)
    xi = max(10.0, np.sqrt(r),
             r * float(np.max((1 + np.abs(b)) / (1 + norm_a), initial=0.0)))
    eta = max(10.0, np.sqrt(r), norm_c, float(np.max(norm_a, initial=0.0)))
    X, S, y = xi * np.eye(r), eta * np.eye(r), np.zeros(m)
    if start is not None:
        y = np.array(start, dtype=float)
        S = sym(C - (y @ Af).reshape(r, r))
        S_inv = sym(np.linalg.inv(S))
        X = S_inv / np.trace(S_inv)

    def result(status):
        return (status, y, float(np.vdot(C, X)),
                float(np.linalg.norm(rp) / (1 + norm_b)))

    for it in range(max_iter + 1):
        rp = b - Af @ X.reshape(-1)
        Rd = C - S - (y @ Af).reshape(r, r)
        p_obj, d_obj = float(np.vdot(C, X)), float(b @ y)
        gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))
        if max(gap, np.linalg.norm(rp) / (1 + norm_b),
               np.linalg.norm(Rd) / (1 + norm_c)) <= tol:
            return result("optimal")
        if it == max_iter:
            return result("max_iter")
        try:
            Lx = np.linalg.cholesky(X)
            Ls = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            return result("stalled")
        Ls_inv = scipy.linalg.solve_triangular(Ls, np.eye(r), lower=True)
        T = (Ls_inv @ A @ Lx).reshape(m, r * r)
        M = T @ T.T
        # the least shift eps*max(diag M)*10^k (k <= 7), if any, that
        # factors M, as interior._shifted_cholesky
        top, shift = float(M.diagonal().max()), 0.0
        while True:
            try:
                schur = scipy.linalg.cho_factor(M + shift * np.eye(m))
                break
            except scipy.linalg.LinAlgError:
                shift = 10 * shift if shift else np.finfo(float).eps * top
                if shift > 1e7 * np.finfo(float).eps * top:
                    return result("stalled")
        S_inv = Ls_inv.T @ Ls_inv
        XRdSi = X @ Rd @ S_inv

        def direction(G):
            v = rp - Af @ G.reshape(-1) + Af @ XRdSi.reshape(-1)
            dy = scipy.linalg.cho_solve(schur, v)
            if shift:  # one refinement step towards M^-1 v
                dy = dy + scipy.linalg.cho_solve(schur, v - M @ dy)
            dS = Rd - (dy @ Af).reshape(r, r)
            return G - sym(X @ dS @ S_inv), dy, dS

        mu = float(np.vdot(X, S)) / r
        dX, dy, dS = direction(-X)
        ap = min(1.0, max_step(Lx, dX))
        ad = min(1.0, max_step(Ls, dS))
        mu_aff = float(np.vdot(X + ap * dX, S + ad * dS)) / r
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        G = sigma * mu * S_inv - X - sym(dX @ dS @ S_inv)
        gamma = 0.9 + 0.09 * min(ap, ad)
        dX, dy, dS = direction(G)
        ap = min(1.0, gamma * max_step(Lx, dX))
        ad = min(1.0, gamma * max_step(Ls, dS))
        X = sym(X + ap * dX)
        y = y + ad * dy
        S = sym(S + ad * dS)


def single_block_phase1(cs, tol: float = 1e-7):
    """The phase-1 search of an ``sdp._ClassSystem`` whose rows are
    factored, on the whole range V = :func:`relation_complement` as one
    dense block: max t s.t. V' X(z) V - t*1 >= 0, with V' D_j V formed one
    direction at a time, from the same dual start as
    ``sdp._interior_phase1``: z = 0, t = lambda_min(V' X(y0) V) - 1.
    Returns (status, primal objective, primal infeasibility)."""
    p = cs.problem
    V = relation_complement(p)
    P, r = cs.N.shape[1], V.shape[1]
    B = np.empty((P, r, r))
    y = np.zeros(cs.problem.n_classes)
    for j in range(P):
        y[cs.free] = cs.N[:, j]
        B[j] = V.T @ y[cs.cell_class] @ V
    A = np.concatenate([-B, np.eye(r)[None]])
    b = np.zeros(P + 1)
    b[-1] = 1.0
    C = V.T @ cs.assemble(cs.y0) @ V
    start = np.zeros(P + 1)
    start[-1] = np.linalg.eigvalsh(C)[0] - 1.0
    status, _y, p_obj, p_infeas = dense_solve_lmi(C, A, b, tol=tol * 1e-2,
                                                  start=start)
    return status, p_obj, p_infeas


# ---------------------------------------------------------------------------
# reference for Distribution.marginals
# ---------------------------------------------------------------------------

def loop_marginal(dist: Distribution, parties, tol: float = 1e-9) -> np.ndarray:
    """``Distribution.marginal`` checking every dropped party's input axis,
    one input of its own or not."""
    sc = dist.scenario
    n = len(sc.parties)
    keep = [sc.party_index(p) for p in parties]
    drop = [i for i in range(n) if i not in keep]
    summed = dist.table.sum(axis=tuple(drop))
    in_axes = {i: len(keep) + i for i in range(n)}
    order = (list(range(len(keep))) + [in_axes[i] for i in keep]
             + [in_axes[i] for i in drop])
    arranged = summed.transpose(order)
    for k, i_drop in enumerate(drop):
        ax = len(keep) * 2 + k
        spread = arranged.max(axis=ax) - arranged.min(axis=ax)
        if spread.max() > tol:
            deviation = np.abs(arranged - arranged.take([0], axis=ax))
            worst = int(np.moveaxis(deviation, ax, 0)
                        .reshape(sc.inputs[i_drop], -1).max(axis=1).argmax())
            raise SignallingError(
                f"marginal over {tuple(parties)} depends on the input of party "
                f"{sc.parties[i_drop]} (inputs 0 vs {worst}; "
                f"max deviation {spread.max():.3e})")
    return arranged[(Ellipsis,) + (0,) * len(drop)]


# ---------------------------------------------------------------------------
# references for the oracles' vectors and for scenarios.embed_operator
# ---------------------------------------------------------------------------

def word_keyed_vectors(psi: np.ndarray, act):
    """w -> w_hat |psi>, built as ``act(first letter, vector of the rest)``
    with the rest made a word again through ``word()``; kept per word."""
    vecs = {Word(()): psi}

    def vec(w: Word) -> np.ndarray:
        if w not in vecs:
            vecs[w] = act(w.letters[0], vec(word(w.letters[1:])))
        return vecs[w]

    return vec


def gram_of(vectors) -> np.ndarray:
    V = np.column_stack([np.ravel(v) for v in vectors])
    G = (V.conj().T @ V).real
    return (G + G.T) / 2


def oracle_word_gram(oracle, words) -> np.ndarray:
    """The Gram matrix of a ``MomentOracle`` from :func:`word_keyed_vectors`;
    a scalar letter multiplies by <psi|payload_hat|psi>."""
    def act(l: Letter, tail: np.ndarray) -> np.ndarray:
        if l.is_scalar:
            return complex(np.vdot(oracle.psi, vec(l.payload))) * tail
        return oracle._lift(oracle.letter_op(l)) @ tail

    vec = word_keyed_vectors(oracle.psi, act)
    return gram_of([vec(w) for w in words])


def transposed_embed(op: np.ndarray, positions, dims) -> np.ndarray:
    """kron(op, I_rest) with the tensor factors transposed into place."""
    n = len(dims)
    rest = [i for i in range(n) if i not in positions]
    k = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    order = list(positions) + rest
    shape = [dims[i] for i in order]
    inv = np.argsort(order)
    kt = k.reshape(shape + shape).transpose(list(inv) + [n + i for i in inv])
    D = int(np.prod(dims))
    return np.ascontiguousarray(kt.reshape(D, D))
