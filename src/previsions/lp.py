"""Exact linear programming over the rationals, on the probability simplex.

A dense two-phase primal simplex for ``A x = b, sum(x) = 1, x >= 0``,
with no tolerances anywhere.  Every program the library poses weights
points on the simplex, so callers pass ``A`` and ``b`` alone and
:func:`solve` appends ``sum(x) = 1`` as the last row, which bounds them.

The two phases are separate calls.  :func:`solve` runs phase 1 on the
constraints alone: it minimizes the sum of one artificial variable per
row, then drives the artificials left in the basis out of it and drops
the rows where that is impossible, which are redundant.  Its result is
either a Farkas certificate or a basic feasible point, and a feasible
result also carries that final tableau.  :func:`optimize` runs phase 2
for one objective on a copy of it, so any number of objectives over the
same constraints share one phase 1.

Phase 1 enters on Bland's rule, the first column with a negative reduced
cost, because its basic solution is the returned feasible point.  Phase
2 enters on Dantzig's rule, the most negative reduced cost, which takes
far fewer pivots; after :data:`DEGENERATE_RUN` consecutive degenerate
pivots it falls back to Bland's rule for good, so it cannot cycle
(Bland 1977).  Both phases leave by the minimum ratio, ties going to the
smallest basic index.  Phase 2 hands on only the optimal value, which
every optimal basis shares.  On the simplex no objective passes its
least cost (greatest, to maximize), so phase 2 stops as soon as the
objective reaches that cost, at once and with no reduced-cost row if the
phase-1 point already does.

Equal columns take one tableau column.  :func:`solve` groups equal
columns of its integer rows and keeps the first of each group.  A
pivot updates a column from its own entries, the pivot row and the
pivot column alone, so at every step a repeated column would have the
same tableau column and reduced cost as its first copy.  Bland's rule
and the drive-out of the artificials both take the first eligible
column, so neither would ever pick a repeat: the phase-1 pivots, the
feasible point (0 at every repeat) and the Farkas certificate are those
of the full tableau.  In phase 2 the copies of a column differ only in
cost, and weight moved within a group to a cheapest copy stays feasible
and costs no more; so :func:`optimize` prices each group by its
cheapest copy, the first among equals, and puts the group's weight
there.  The optimal value is the full problem's.  A mass objective thus
gives each group the union of its copies' memberships, and an interval
endpoint gives each group its extreme value.

Inputs are integers, each row with its positive scale: ``rows[i]`` and
``rhs[i]`` are ``scales[i]`` times the rational row and right-hand side,
and an objective's costs are ``scale`` times the rational costs, taken
as they are; ``sum(x) = 1`` comes at scale 1.  The tableau is kept
fraction-free: an integer matrix ``M`` over one common positive
denominator ``d``, so that the rational tableau is exactly ``M / d``
after every pivot.  ``d`` starts at the product of the scales, so the
first tableau is ``d`` times the oriented rational rows: a scale changes
``d`` and the integers, never the rational tableau, the pivots, the
point or the certificate.  A pivot on ``M[r][c]`` replaces every other
entry by ``(M[r][c] * M[i][j] - M[i][c] * M[r][j]) / d`` and makes
``M[r][c]`` the new ``d`` (Edmonds' all-integer form of Bareiss's
elimination); the division is always exact because each entry is a
minor of the scaled input.  A negative pivot, which only the step that
drives artificial variables out of the basis can meet, negates the
whole matrix so that ``d`` stays positive.  The integer reduced costs
are the rational ones times a positive factor, so both entering rules
read them directly, and the ratio test compares ``M[i][rhs] / M[i][c]``
by cross-multiplication; the pivot sequence is the one the rational
tableau would take.  Pivots replace rows rather than edit them, so a
copy of the row list is a copy of the tableau.  Only the returned
solution, objective and certificate are built as
:class:`fractions.Fraction`\\ s, and :func:`optimize` builds the optimal
point only when asked.  Input that is not integers with positive scales,
such as a missing scale or a ``Fraction`` entry, raises ``ValueError``.

When a system is infeasible the solver returns a Farkas certificate: a
vector ``y``, one entry per row and the last for ``sum(x) = 1``, with
``y . (A_j, 1) <= 0`` for every column ``A_j`` of ``A`` while ``y . (b,
1) > 0``, which witnesses that ``b`` is no convex combination of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Consecutive degenerate phase-2 pivots after which Dantzig's entering
# rule gives way to Bland's for the rest of the solve.
DEGENERATE_RUN = 16


@dataclass(frozen=True)
class LPResult:
    """Outcome of one exact solve.

    A feasible result of :func:`solve` also holds its final phase-1
    tableau, one column per group of equal columns, and those groups:
    the start of every :func:`optimize`.
    """

    status: str
    solution: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    certificate: tuple[Fraction, ...] | None = None
    _tableau: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def feasible(self) -> bool:
        return self.status == OPTIMAL


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int], scales: Sequence[int]) -> LPResult:
    """Phase 1 for ``rows . x = rhs, sum(x) = 1, x >= 0``, the last row
    appended here, where ``rows[i]`` and ``rhs[i]`` are ``scales[i] > 0``
    times the rational row and right-hand side: infeasible with a Farkas
    certificate, or a basic feasible point ready for :func:`optimize`."""
    neq = len(rows)
    if neq == 0:
        raise ValueError("no constraints")
    nvar = len(rows[0])
    if any(len(row) != nvar for row in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != neq:
        raise ValueError("rhs length does not match constraint count")
    if len(scales) != neq:
        raise ValueError("scales length does not match constraint count")
    if nvar == 0:
        raise ValueError("no variables")
    if not all(isinstance(s, int) and s > 0 for s in scales):
        raise ValueError("scales must be positive ints")
    # Orient every row so the right-hand side is nonnegative, remembering
    # the sign flips so the Farkas certificate can be mapped back.
    signs = [-1 if value < 0 else 1 for value in rhs] + [1]

    # One tableau column per group of equal columns, the group's first;
    # scaling a row is one-to-one, so equal scaled columns are equal ones,
    # and the sum row is 1 in every column.
    index: dict[tuple[int, ...], int] = {}
    firsts = []
    repeats = []
    for j, column in enumerate(zip(*rows)):
        g = index.setdefault(column, len(firsts))
        if g < len(firsts):
            repeats.append((g, j))
        else:
            firsts.append(j)
    width = len(firsts)

    # Phase 1 tableau d * [A | I | b], rows oriented, the sum row last, one
    # artificial variable per row; below it the reduced costs, also times d.
    d = prod(scales)
    neq += 1
    total = width + neq
    tableau = []
    for i, (row, b, s, sign) in enumerate(zip(rows, rhs, scales, signs)):
        k = sign * (d // s)
        unit = [0] * neq
        unit[i] = d
        tableau.append([k * row[j] for j in firsts] + unit + [k * b])
    tableau.append([d] * width + [0] * (neq - 1) + [d, d])
    bottom = [-sum(col) for col in zip(*tableau)]
    # Each entry sums a kept column (a repeat equals one) or the right-hand
    # side: a Fraction among them, which "//" would floor, makes it no int.
    if not all(isinstance(v, int) for v in bottom):
        raise ValueError("constraint entries must be ints")
    bottom[width:total] = [0] * neq
    tableau.append(bottom)
    basis = [width + i for i in range(neq)]

    d = _minimize(tableau, basis, d)
    bottom = tableau[-1]
    if bottom[total] != 0:
        # Infeasible; read the simplex multipliers off the artificial columns.
        certificate = tuple(Fraction(signs[i] * (d - bottom[width + i]), d) for i in range(neq))
        return LPResult(INFEASIBLE, certificate=certificate)

    # Drive leftover artificial variables out of the basis; rows where that
    # is impossible are redundant (all-zero over the structural columns).
    for r in range(neq):
        if basis[r] >= width:
            for j in range(width):
                if tableau[r][j] != 0:
                    d = _pivot(tableau, basis, d, r, j)
                    break

    keep = [r for r in range(neq) if basis[r] < width]
    tableau = tuple(tuple(tableau[r][:width]) + (tableau[r][total],) for r in keep)
    basis = tuple(basis[r] for r in keep)
    solution = _extract(tableau, [firsts[bv] for bv in basis], nvar, d)
    return LPResult(OPTIMAL, solution=solution, _tableau=(tableau, basis, d, firsts, repeats))


def optimize(
    first: LPResult,
    costs: Sequence[int],
    scale: int,
    maximize: bool = False,
    point: bool = False,
) -> LPResult:
    """Phase 2: ``min/max objective . x`` over the constraints ``first`` solved.

    ``costs`` are ``scale > 0`` times the objective, taken as they are,
    and ``first`` is the result of :func:`solve`; an infeasible one is
    returned as it is.  The solve stops as soon as the objective equals
    its least cost (greatest, to maximize), which on the simplex proves
    the point optimal, at once if the phase-1 point does.  The optimal
    point is built only when ``point`` asks for it.
    """
    if not first.feasible:
        return first
    if first._tableau is None:
        raise ValueError("optimize needs the feasible result of solve(rows, rhs, scales)")
    rows, basis, d, firsts, repeats = first._tableau
    if len(costs) != len(firsts) + len(repeats):
        raise ValueError("objective length does not match variable count")
    try:  # one type check of the sum, an int only if every cost is one
        ints = isinstance(sum(costs), int)
    except TypeError:  # a str cost, say
        ints = False
    if not (ints and isinstance(scale, int) and scale > 0):
        raise ValueError("costs must be ints over a positive int scale")
    # Integer costs (negated to maximize); each tableau column takes the
    # cheapest copy of its group, the first among equals.
    sign = -1 if maximize else 1
    chosen = list(firsts)
    group = [sign * costs[j] for j in firsts]
    for g, j in repeats:
        cost = sign * costs[j]
        if cost < group[g]:
            group[g] = cost
            chosen[g] = j
    # On the simplex sign * scale * (c . x) is at least the least cost; a
    # phase-1 point at it is optimal, read off the right-hand sides alone.
    width = len(firsts)
    at = sum(group[bv] * row[width] for row, bv in zip(rows, basis))
    floor = min(group)
    if at != floor * d:
        # The reduced-cost row below the tableau is d times those costs
        # reduced by the basis.
        bottom = [d * v for v in group] + [-at]
        for row, bv in zip(rows, basis):
            coef = group[bv]
            if coef != 0:
                for j in range(width):
                    bottom[j] -= coef * row[j]
        tableau = [*rows, bottom]
        basis = list(basis)
        d = _minimize(tableau, basis, d, dantzig=True, floor=floor)
        rows, at = tableau, -tableau[-1][width]
    value = Fraction(sign * at, d * scale)
    solution = None
    if point:
        solution = _extract(rows, [chosen[bv] for bv in basis], width + len(repeats), d)
    return LPResult(OPTIMAL, solution=solution, objective=value)


def _minimize(
    tableau: list[list[int]],
    basis: list[int],
    d: int,
    dantzig: bool = False,
    floor: int | None = None,
) -> int:
    """Run simplex iterations until optimal; the program must be bounded.

    The last row of ``tableau`` holds the reduced costs, its last entry
    ``-d`` times the objective.  Enters on Bland's rule, or on Dantzig's
    until :data:`DEGENERATE_RUN` consecutive degenerate pivots; stops
    early once the objective equals ``floor``.  Returns the final common
    denominator.
    """
    bottom = tableau[-1]
    width = len(bottom) - 1
    columns = range(width)
    constraints = len(basis)
    degenerate = 0
    while True:
        if floor is not None and bottom[-1] + floor * d == 0:
            return d
        if dantzig and degenerate < DEGENERATE_RUN:
            enter = min(columns, key=bottom.__getitem__)
            if bottom[enter] >= 0:
                return d
        else:
            enter = next((j for j in columns if bottom[j] < 0), None)
            if enter is None:
                return d
        leave = None
        for r in range(constraints):
            row = tableau[r]
            coef = row[enter]
            if coef > 0:
                if leave is None:
                    leave, num, den = r, row[-1], coef
                    continue
                # row[-1] / coef against num / den, both denominators positive.
                lhs = row[-1] * den
                rhs = num * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, row[-1], coef
        if leave is None:  # pragma: no cover - impossible
            raise AssertionError("a bounded program has a leaving row")
        degenerate = degenerate + 1 if num == 0 else 0
        d = _pivot(tableau, basis, d, leave, enter)
        bottom = tableau[-1]


def _pivot(tableau: list[list[int]], basis: list[int], d: int, r: int, c: int) -> int:
    """Fraction-free pivot on ``tableau[r][c]``; returns the new denominator."""
    pivot_row = tableau[r]
    p = pivot_row[c]
    if p < 0:
        # Negating the pivot row first yields the negated update, so the
        # new denominator -p stays positive.
        pivot_row = tableau[r] = [-v for v in pivot_row]
        p = -p
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f:
            tableau[i] = [(p * v - f * w) // d for v, w in zip(row, pivot_row)]
        elif p != d:
            tableau[i] = [p * v // d for v in row]
    basis[r] = c
    return p


def _extract(tableau, columns, nvar: int, d: int) -> tuple[Fraction, ...]:
    """The basic solution, row ``r``'s value at input column ``columns[r]``."""
    x = [Fraction(0)] * nvar
    for r, j in enumerate(columns):
        x[j] = Fraction(tableau[r][-1], d)
    return tuple(x)
