"""Brute-force oracles, independent of the library's simplex path.

Feasibility is decided by exhaustive exact hull membership: a target
lies in the convex hull of finitely many points exactly when some
subset of at most ``dimension + 1`` points with linearly independent
lifted columns carries a nonnegative barycentric solution, found here
by Gaussian elimination over Fractions.  The same enumeration lists all
vertices of the solution polytope, which gives the exact maximum of any
linear functional over it, and in particular the maximal conditioning
masses that drive the recursive coherence re-check.

Row construction is also re-derived from scratch: assignments are
grouped by their per-member (inside, value) signature rather than by
the library's cell labels.

Event semantics have a per-assignment reference too: the ``brute_*``
event queries below enumerate every total assignment, as the library
did before it moved to truth tables.  They take events as predicates
(callables from an assignment mapping to a truth value), so a test can
pass semantics written independently of the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from previsions.coherence import Assessment

ZERO = Fraction(0)
ONE = Fraction(1)


def brute_rows(assessment):
    """(points, membership) derived by direct evaluation of the members."""
    members = assessment.members
    previsions = assessment.previsions
    universe = members[0].universe
    used = set()
    for m in members:
        used |= m.conditioning.atoms
        for event, _ in m.cells:
            used |= event.atoms
    names = [a for a in universe.atoms if a in used]

    groups = {}
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        signature = []
        for m in members:
            if m.conditioning.evaluate(assignment):
                signature.append((True, m.value_at(assignment)))
            else:
                signature.append((False, None))
        signature = tuple(signature)
        if any(inside for inside, _ in signature):
            groups[signature] = True

    points = []
    membership = []
    for signature in groups:
        row = []
        present = set()
        for i, (inside, value) in enumerate(signature):
            if inside:
                row.append(value)
                present.add(i)
            else:
                row.append(previsions[i])
        points.append(tuple(row))
        membership.append(frozenset(present))
    return points, membership


def solve_unique(columns, rhs):
    """Unique solution of ``columns . x = rhs`` or None.

    ``columns`` is a list of column vectors.  Returns None when the
    columns are linearly dependent or the system is inconsistent, so a
    non-None result with nonnegative entries is a polytope vertex for the
    support the columns came from.
    """
    k = len(columns)
    rows = len(rhs)
    aug = [[columns[j][i] for j in range(k)] + [rhs[i]] for i in range(rows)]
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, rows) if aug[i][col] != 0), None)
        if pivot is None:
            return None  # dependent columns
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][col] != 0:
                coef = aug[i][col]
                aug[i] = [a - coef * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    if r < k:
        return None
    for i in range(r, rows):
        if aug[i][k] != 0:
            return None  # inconsistent
    return tuple(aug[i][k] for i in range(k))


def polytope_vertices(points, target):
    """All vertices of {w >= 0, sum w = 1, sum w*point = target}.

    Every vertex has a support of at most ``len(target) + 1`` points with
    independent lifted columns, so enumerating those supports is
    exhaustive.
    """
    n = len(target)
    rhs = list(target) + [ONE]
    lifted = [list(p) + [ONE] for p in points]
    vertices = []
    for size in range(1, min(n + 1, len(points)) + 1):
        for support in itertools.combinations(range(len(points)), size):
            solution = solve_unique([lifted[h] for h in support], rhs)
            if solution is not None and all(v >= 0 for v in solution):
                weights = [ZERO] * len(points)
                for h, v in zip(support, solution):
                    weights[h] = v
                vertices.append(tuple(weights))
    return vertices


def brute_feasible(points, target):
    return bool(polytope_vertices(points, target))


def brute_masses(points, membership, target):
    """Exact maximal conditioning masses via vertex enumeration."""
    vertices = polytope_vertices(points, target)
    if not vertices:
        raise ValueError("system is infeasible")
    masses = []
    for j in range(len(target)):
        masses.append(
            max(
                sum(w for h, w in enumerate(vertex) if j in membership[h])
                for vertex in vertices
            )
        )
    return masses


def brute_coherent(assessment: Assessment) -> bool:
    """Recursive coherence decision built only on the machinery above."""
    indices = tuple(range(len(assessment)))
    while True:
        sub = assessment.sub(indices)
        points, membership = brute_rows(sub)
        vertices = polytope_vertices(points, sub.previsions)
        if not vertices:
            return False
        zero_mass = []
        for j in range(len(indices)):
            best = max(
                sum(w for h, w in enumerate(vertex) if j in membership[h])
                for vertex in vertices
            )
            if best == 0:
                zero_mass.append(indices[j])
        if not zero_mass:
            return True
        indices = tuple(zero_mass)


# -- event semantics by enumeration --------------------------------------------


def brute_reproduces(rows, target, weights) -> bool:
    """Whether ``weights`` is a probability vector with ``rows[i] . w =
    target[i]`` for every row, all in Fractions: a witness check written
    without the library's common denominator."""
    if any(len(row) != len(weights) for row in rows) or any(w < 0 for w in weights):
        return False
    if sum(weights, ZERO) != ONE:
        return False
    dots = [sum((c * w for c, w in zip(row, weights)), ZERO) for row in rows]
    return dots == list(target)


def truth_assignments(names):
    """Every total assignment over ``names``, False before True, first
    name slowest."""
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def brute_is_impossible(event, names):
    return not any(event(a) for a in truth_assignments(names))


def brute_is_sure(event, names):
    return all(event(a) for a in truth_assignments(names))


def brute_implies(first, second, names):
    return all(second(a) for a in truth_assignments(names) if first(a))


def brute_equivalent(first, second, names):
    return all(first(a) == second(a) for a in truth_assignments(names))


def brute_logically_independent(events, names):
    patterns = {tuple(e(a) for e in events) for a in truth_assignments(names)}
    return len(patterns) == 2 ** len(events)


def brute_constituents(family, names):
    """``(outside, inside)`` of the partition a family of ``(cells,
    conditioning)`` predicates generates over ``names``.

    ``outside`` is the bool tuples of the assignments outside every
    conditioning (None if there are none); ``inside`` lists ``(labels,
    assignments)`` per block, ordered by least assignment.  Raises
    ValueError for an impossible conditioning or cells that do not
    partition their conditioning, naming the first offending assignment.
    """
    for _, conditioning in family:
        if brute_is_impossible(conditioning, names):
            raise ValueError("conditioning event is impossible")
    groups = {}
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        labels = []
        for cells, conditioning in family:
            if not conditioning(assignment):
                labels.append(None)
                continue
            hits = [j for j, cell in enumerate(cells) if cell(assignment)]
            if len(hits) != 1:
                raise ValueError(
                    "cells must partition the conditioning event "
                    f"(assignment {assignment} matched {len(hits)} cells)"
                )
            labels.append(hits[0])
        groups.setdefault(tuple(labels), []).append(bits)
    outside = groups.pop((None,) * len(family), None)
    inside = sorted(groups.items(), key=lambda item: item[1][0])
    return (
        None if outside is None else tuple(outside),
        [(labels, tuple(bits)) for labels, bits in inside],
    )


def lifted_blocks(partition, names):
    """A partition's blocks, the outside one first (None when absent), as
    ``(labels, mask)`` with each mask lifted to ``names``, a superset of
    the partition's atoms: bit ``i`` is set when assignment ``i`` over
    ``names``, restricted to the partition's atoms, lies in the block."""
    atoms = partition.atoms
    spots = [
        sum(a[name] << (len(atoms) - 1 - k) for k, name in enumerate(atoms))
        for a in truth_assignments(names)
    ]
    return [
        None
        if block is None
        else (block.labels, sum(1 << i for i, j in enumerate(spots) if block.mask >> j & 1))
        for block in (partition.outside, *partition.inside)
    ]


def brute_value(quantity, assignment):
    """Amount a ``(conditioning, [(cell, value)], prevision)`` quantity of
    predicates pays at an assignment."""
    conditioning, cells, prevision = quantity
    if not conditioning(assignment):
        return prevision
    return next(value for cell, value in cells if cell(assignment))


def brute_values_agree(first, second, names):
    """Whether two such quantities pay alike wherever either conditioning holds."""
    return all(
        brute_value(first, a) == brute_value(second, a)
        for a in truth_assignments(names)
        if first[0](a) or second[0](a)
    )
