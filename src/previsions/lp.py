"""Exact linear programming over the rationals, on the probability simplex.

A two-phase primal simplex for ``A x = b, sum(x) = 1, x >= 0``, with no
tolerances anywhere.  Every program the library poses weights points on
the simplex, so callers pass ``A`` and ``b`` alone and :func:`solve`
appends ``sum(x) = 1`` as the last row, which bounds them.

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

Equal columns take one tableau column, the first of their group: a
repeat would keep its first copy's tableau column and reduced cost, and
Bland's rule and the drive-out take the first eligible column, so the
phase-1 pivots, point (0 at every repeat) and certificate are those of
the full tableau.  Copies differ only in cost, so :func:`optimize`
prices each group by its cheapest copy, the first among equals, and
puts the group's weight there.

Inputs are integers, each row with its positive scale: ``rows[i]`` and
``rhs[i]`` are ``scales[i]`` times the rational row and right-hand side,
and an objective's costs ``scale`` times the rational costs; ``sum(x) =
1`` comes at scale 1.  The tableau is an integer matrix ``M`` over one
common positive denominator ``d``, the rational tableau ``M / d``;
``d`` starts at the product of the scales, which so change no pivot,
point or certificate.  A pivot on ``M[r][c]`` replaces every other entry
by ``(M[r][c] * M[i][j] - M[i][c] * M[r][j]) / d`` and makes ``M[r][c]``
the new ``d`` (Edmonds' all-integer form of Bareiss's elimination); the
division is exact.  A negative pivot, which only the drive-out can meet,
negates the whole matrix so that ``d`` stays positive.  Both entering
rules read the integer reduced costs, ``d`` times the rational ones, and
the ratio test cross-multiplies: the pivots are the rational tableau's.
Input that is not integers with positive scales raises ``ValueError``.

Each row of ``M``, the reduced costs included, is one Python int:
column ``k`` is a signed field of ``W`` bits at bit ``k * W``, the
right-hand side the next field.  Packing is linear, so a pivot is a few
whole-int operations per row, ``(p * R - f * P) // d``, ``p * R // d``
if ``f`` is 0, or ``-P`` on a negative pivot: the product packs ``d``
times the new entries, its fields overflowing or not, so ``//`` is exact
and leaves their packing.  Adding ``2**(W - 1)`` to every field makes
each nonnegative, so no carry crosses a field: a field minus that bias is
the entry, and its top bit is clear exactly where the entry is negative.
Bland's rule takes the lowest clear top bit of the biased reduced costs,
Dantzig's their least.

``W`` is the least multiple of 64 whose fields hold a bound proven per
:func:`solve`.  Let ``S`` have the ``m`` rows ``[scaled row i | s_i e_i
| scaled rhs i]``, ``sum(x) = 1`` among them, so ``S / s_i`` row by row
is the oriented rational system.  At a basis ``B``, ``d = |det S_B|``
and ``M = +-adj(S_B) S``: by Cramer's rule every entry, ``d`` included,
is +- an ``m``-minor of ``S``, and ``d`` times a reduced cost one of
``S`` with the cost row ``c`` appended (0 on the artificials in phase
2).  Such a minor's rows have at most ``m + 1`` entries, so by
Hadamard's inequality no entry exceeds the product over ``i`` of
``sqrt(m + 1) * max|S_i|``, times ``sqrt(m + 1) * max|c|`` for a reduced
cost.  Phase 1's costs are 0 and 1; :func:`optimize` widens the rows
once if an objective's costs exceed that headroom.

When a system is infeasible the solver returns a Farkas certificate: a
vector ``y``, one entry per row and the last for ``sum(x) = 1``, with
``y . (A_j, 1) <= 0`` for every column ``A_j`` of ``A`` while ``y . (b,
1) > 0``, which witnesses that ``b`` is no convex combination of them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


class _Layout:
    """Rows of ``count`` fields of ``bits`` bits, the right-hand side last."""

    def __init__(self, bits: int, count: int):
        self.bits, self.count, self.size = bits, count, count * bits // 8
        self.half, self.mask, self.rhs = 1 << (bits - 1), (1 << bits) - 1, (count - 1) * bits
        self.bias = (1 << count * bits) // self.mask * self.half  # half in every field
        self.tops = self.bias - (self.half << self.rhs)  # the columns' top bits
        self.signed = struct.Struct(f"<{count - 1}q") if bits == 64 else None  # the columns
        self.struct = struct.Struct(f"<{count - 1}Q") if bits == 64 else None  # biased

    def pack(self, values: Sequence[int], rhs: int = 0) -> int:
        """The row of the column entries ``values`` and right-hand side ``rhs``."""
        if self.signed:
            data = self.signed.pack(*values)
        else:
            data = b"".join(v.to_bytes(self.bits // 8, "little", signed=True) for v in values)
        word = int.from_bytes(data, "little")  # 2**W too much above each negative field
        return word - ((word & self.bias) << 1) + (rhs << self.rhs)

    def columns(self, word: int) -> Sequence[int]:
        """The fields of ``word`` but its right-hand side; none is negative."""
        data, size = word.to_bytes(self.size, "little"), self.bits // 8
        if self.struct:
            return self.struct.unpack_from(data)
        return [int.from_bytes(data[k : k + size], "little") for k in range(0, self.rhs // 8, size)]

    def unpack(self, row: int) -> list[int]:
        """The entries of a row, the right-hand side last."""
        word = row + self.bias
        return [v - self.half for v in (*self.columns(word), word >> self.rhs)]


_layout = lru_cache(maxsize=64)(_Layout)  # one per width and field count


def _bits(square: int) -> int:
    """The least multiple of 64 whose signed fields hold ``isqrt(square)``."""
    return 64 * ((square.bit_length() + 1) // 128 + 1)  # isqrt(square) has half the bits


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
    firsts, repeats = [], []
    for j, column in enumerate(zip(*rows)):
        g = index.setdefault(column, len(firsts))
        if g < len(firsts):
            repeats.append((g, j))
        else:
            firsts.append(j)
    width = len(firsts)
    if repeats:
        rows = list(zip(*index))  # the kept columns, row by row

    # Hadamard's bound, squared, with m = neq + 1 rows (the sum row's 1s).
    neq += 1
    total = width + neq
    square = (neq + 1) ** (neq + 1)
    for row, b, s in zip(rows, rhs, scales):
        if not isinstance(sum(row, b), int):  # an int only if every entry is one
            raise ValueError("constraint entries must be ints")
        ordered = sorted(row)  # sorted compares ints faster than max does
        square *= max(ordered[-1], -ordered[0], s, abs(b)) ** 2
    layout = _layout(_bits(square), total + 1)
    bits, bias, half = layout.bits, layout.bias, layout.half
    out = _layout(bits, width + 1)  # phase 2's

    # Phase 1 tableau d * [A | I | b], rows oriented, the sum row last, one
    # artificial variable per row; below it the reduced costs, also times
    # d, 0 on the artificial columns.
    d = prod(scales)
    ones = (out.tops >> bits - 1) + (1 << layout.rhs)
    tableau, bottom = [], -d * ones
    for i, (row, b, s, sign) in enumerate(zip(rows, rhs, scales, signs)):
        word = sign * (d // s) * (out.pack(row) + (b << layout.rhs))
        tableau.append(word + (d << (width + i) * bits))
        bottom -= word
    tableau += [d * ones + (d << (total - 1) * bits), bottom]
    basis = list(range(width, total))

    d = _minimize(tableau, basis, d, layout)
    bottom = tableau.pop()
    if (bottom + bias) >> layout.rhs != half:
        # Infeasible; read the simplex multipliers off the artificial columns.
        ys = layout.unpack(bottom)[width:total]
        certificate = tuple(Fraction(sign * (d - y), d) for sign, y in zip(signs, ys))
        return LPResult(INFEASIBLE, certificate=certificate)

    # Drive leftover artificial variables out of the basis; rows where that
    # is impossible are redundant (all-zero over the structural columns).
    # Those fields come first and the row's own artificial entry is d != 0,
    # so its lowest set bit is in its first nonzero structural column, if any.
    for r in range(neq):
        if basis[r] >= width:
            j = ((tableau[r] & -tableau[r]).bit_length() - 1) // bits
            if 0 <= j < width:
                column = [((row + bias) >> j * bits & layout.mask) - half for row in tableau]
                d = _pivot(tableau, basis, d, r, j, column)

    # Phase 2's rows: the structural columns and the right-hand side.
    words = [row + bias for row, bv in zip(tableau, basis) if bv < width]
    values = [(word >> layout.rhs) - half for word in words]
    low = (1 << out.rhs) - 1
    rows = tuple((word & low) - out.tops + (v << out.rhs) for word, v in zip(words, values))
    basis = tuple(bv for bv in basis if bv < width)
    solution = _extract(values, [firsts[bv] for bv in basis], nvar, d)
    first = (rows, basis, d, firsts, repeats, out, values, square)
    return LPResult(OPTIMAL, solution=solution, _tableau=first)


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
    rows, basis, d, firsts, repeats, layout, values, square = first._tableau
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
    at = sum(group[bv] * value for value, bv in zip(values, basis))
    floor = min(group)
    if at != floor * d:
        top = max(max(group), -floor)
        if top > 1 and _bits(square * top * top) > layout.bits:  # phase 1's headroom is 1
            wide = _layout(_bits(square * top * top), layout.count)
            rows, layout = [wide.pack(v[:-1], v[-1]) for v in map(layout.unpack, rows)], wide
        # Below the rows, d times the costs reduced by the basis, and -at.
        rows_cost = sum(group[bv] * row for row, bv in zip(rows, basis) if group[bv])
        bottom = d * layout.pack(group) - rows_cost
        tableau, basis = [*rows, bottom], list(basis)
        d = _minimize(tableau, basis, d, layout, dantzig=True, floor=floor)
        at = layout.half - (tableau.pop() + layout.bias >> layout.rhs)
        if point:
            values = [(row + layout.bias >> layout.rhs) - layout.half for row in tableau]
    value = Fraction(sign * at, d * scale)
    solution = _extract(values, [chosen[bv] for bv in basis], len(costs), d) if point else None
    return LPResult(OPTIMAL, solution=solution, objective=value)


def _minimize(
    tableau: list[int],
    basis: list[int],
    d: int,
    layout: _Layout,
    dantzig: bool = False,
    floor: int | None = None,
) -> int:
    """Pivot the bounded program ``tableau``, rows in ``layout`` and last
    the reduced costs, its right-hand side ``-d`` times the objective,
    until optimal or the objective equals ``floor``, on Bland's rule or
    on Dantzig's until :data:`DEGENERATE_RUN` degenerate pivots in a
    row.  Returns the final common denominator."""
    bits, bias, mask, half, rhs = layout.bits, layout.bias, layout.mask, layout.half, layout.rhs
    constraints = range(len(basis))
    degenerate = 0
    while True:
        bottom = tableau[-1] + bias
        if floor is not None and (bottom >> rhs) - half + floor * d == 0:
            return d
        if dantzig and degenerate < DEGENERATE_RUN:
            costs = layout.columns(bottom)
            least = min(costs)
            if least >= half:
                return d
            enter = costs.index(least)
        else:
            clear = layout.tops & ~bottom
            if not clear:
                return d
            enter = ((clear & -clear).bit_length() - 1) // bits
        # The pivot column, read once per row for the ratio test and the
        # update, and each candidate row's right-hand side.
        shift = enter * bits
        column = [(((row + bias) >> shift) & mask) - half for row in tableau]
        leave = None
        for r in constraints:
            coef = column[r]
            if coef > 0:
                value = ((tableau[r] + bias) >> rhs) - half
                if leave is None:
                    leave, num, den = r, value, coef
                    continue
                # value / coef against num / den, both denominators positive.
                lhs, right = value * den, num * coef
                if lhs < right or (lhs == right and basis[r] < basis[leave]):
                    leave, num, den = r, value, coef
        if leave is None:  # pragma: no cover - impossible
            raise AssertionError("a bounded program has a leaving row")
        degenerate = degenerate + 1 if num == 0 else 0
        d = _pivot(tableau, basis, d, leave, enter, column)


def _pivot(tableau: list[int], basis: list[int], d: int, r: int, c: int, column: list[int]) -> int:
    """Fraction-free pivot on entry ``c`` of row ``r``, ``column`` holding
    every row's entry ``c``; returns the new denominator."""
    pivot_row = tableau[r]
    p = column[r]
    if p < 0:
        # Negating the pivot row first yields the negated update, so the
        # new denominator -p stays positive.
        pivot_row = tableau[r] = -pivot_row
        p = -p
    for i, f in enumerate(column):
        if f:
            if i != r:
                tableau[i] = (p * tableau[i] - f * pivot_row) // d
        elif p != d:
            tableau[i] = p * tableau[i] // d
    basis[r] = c
    return p


def _extract(values, columns, nvar: int, d: int) -> tuple[Fraction, ...]:
    """The basic solution: ``values[r] / d`` at input column ``columns[r]``."""
    x = [Fraction(0)] * nvar
    for r, j in enumerate(columns):
        x[j] = Fraction(values[r], d)
    return tuple(x)
