"""Command-line front end and the on-disk document formats.

Assessment documents are JSON: a list of atom names, a list of members
(an event expression or a cell-to-value map, the conditioning event,
and a prevision), and optionally compounds built from member pairs.
All rationals travel as strings, either "p/q" or a finite decimal, so
no binary floating point ever enters the persistence layer.  Reports
are JSON too, printed with sorted keys so identical inputs produce byte
identical output.

Exit codes: 0 coherent / success, 1 incoherent, 2 parse or validation
errors, 3 internal error (a failed self-check or any other fault of the
program, reported as one line on standard error).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import reprlib
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from . import bounds, crq, simulate
from .coherence import Assessment, CoherenceReport, IncoherentAssessmentError, check_coherence
from .crq import ConditionalRandomQuantity
from .events import DEFAULT_ATOM_LIMIT, InputError, Universe, used_atoms

ATOM_CAP_ENV = "PREVISIONS_ATOM_CAP"

# No operand pair check: each command checks a family holding both operands.
_COMPOUND_BUILDERS = {
    "conjunction": crq._conjoin,
    "disjunction": crq._disjoin,
    "quasi-conjunction": crq.quasi_conjunction,
}


class DocumentError(InputError):
    """Anything wrong with an input document or command arguments."""


# The documented forms, "p/q" or a finite decimal in ASCII digits, read
# the same on every Python: ``Fraction``'s own grammar changes between
# versions (underscores, spaces around "/") and takes any Unicode digit.
# Exponent notation is refused too: a ten-character "1e-3000000" expands
# to a million-digit denominator that no check finishes with.
# Its groups are the sign, the integer digits, the denominator, and the
# decimals after the integer digits or after a bare point.
_RATIONAL = re.compile(r"([-+]?)(?:(\d+)(?:/(\d+)|\.(\d*))?|\.(\d+))", re.ASCII)


def _integer(text: str) -> int:
    """Parse an integer in ASCII digits, as documents spell rationals:
    ``int`` alone takes "1_0" (as 10) and any Unicode digit."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(text)
    return int(text)


_integer.__name__ = "int"  # argparse's refusal reads "invalid int value"


def parse_rational(text: Any) -> Fraction:
    """Parse "p/q" or a finite decimal string into an exact rational."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise DocumentError(f"expected a rational string, got {reprlib.repr(text)}")
    source = str(text)
    # From 3.10.7 on, Python refuses an int of a longer digit run (in a longer text).
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if 0 < limit < len(source) and max(map(len, re.findall(r"\d+", source)), default=0) > limit:
        shown = reprlib.repr(text)  # at most a few dozen characters
        raise DocumentError(f"rational {shown} has over {limit} digits in a row, Python's limit")
    match = _RATIONAL.fullmatch(source.strip())
    if match:
        sign, whole, below, decimals, bare = match.groups()
        decimals = decimals or bare or ""  # read apart from ``whole``, within the limit
        scale = 10 ** len(decimals)
        numerator = int(whole or 0) * scale + int(decimals or 0)
        denominator = scale if below is None else int(below)
        if denominator:
            return Fraction(-numerator if sign == "-" else numerator, denominator)
    raise DocumentError(f"malformed rational {reprlib.repr(text)}")


@dataclass(frozen=True)
class MemberSpec:
    """One family member as written in a document."""

    quantity: str | dict[str, Fraction]
    given: str
    prevision: Fraction


@dataclass(frozen=True)
class CompoundSpec:
    kind: str
    operands: tuple[int, int]
    prevision: Fraction | None


def _compound_spec(entry: Any, member_count: int, where: str) -> CompoundSpec:
    """A compound's kind, two member indices in range and optional prevision."""
    if not isinstance(entry, Mapping):
        raise DocumentError(f"{where} must be an object")
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _COMPOUND_BUILDERS:
        raise DocumentError(f"{where} kind must be one of {sorted(_COMPOUND_BUILDERS)}")
    operands = entry.get("operands")
    if (
        not isinstance(operands, list)
        or len(operands) != 2
        or not all(isinstance(j, int) and not isinstance(j, bool) for j in operands)
    ):
        raise DocumentError(f"{where} 'operands' must be two member indices")
    lo, hi = operands
    if not (0 <= lo < member_count and 0 <= hi < member_count):
        raise DocumentError(f"{where} operand index out of range")
    prevision = entry.get("prevision")
    return CompoundSpec(
        kind, (lo, hi), None if prevision is None else parse_rational(prevision)
    )


@dataclass(frozen=True)
class AssessmentDocument:
    """Parsed form of an input file, still textual on the event side."""

    atoms: tuple[str, ...]
    members: tuple[MemberSpec, ...]
    compounds: tuple[CompoundSpec, ...]

    @classmethod
    def from_payload(cls, payload: Any) -> "AssessmentDocument":
        if not isinstance(payload, Mapping):
            raise DocumentError("document must be a JSON object")
        atoms = payload.get("atoms", [])
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise DocumentError("'atoms' must be a list of names")
        seen: set[str] = set()
        for name in atoms:
            if name in seen:
                raise DocumentError(f"atom {reprlib.repr(name)} is listed twice")
            seen.add(name)
        raw_members = payload.get("members")
        if not isinstance(raw_members, list) or not raw_members:
            raise DocumentError("'members' must be a nonempty list")
        members = []
        for i, entry in enumerate(raw_members):
            if not isinstance(entry, Mapping):
                raise DocumentError(f"member {i} must be an object")
            try:
                quantity = entry["quantity"]
                given = entry["given"]
                prevision = parse_rational(entry["prevision"])
            except KeyError as missing:
                raise DocumentError(f"member {i} is missing {missing}") from None
            if isinstance(quantity, Mapping):
                quantity = {
                    str(cell): parse_rational(value) for cell, value in quantity.items()
                }
                if not quantity:
                    raise DocumentError(f"member {i} has an empty value map")
            elif not isinstance(quantity, str):
                raise DocumentError(f"member {i} 'quantity' must be text or a map")
            if not isinstance(given, str):
                raise DocumentError(f"member {i} 'given' must be an expression")
            members.append(MemberSpec(quantity, given, prevision))
        raw_compounds = payload.get("compounds")
        if not isinstance(raw_compounds, (list, type(None))):
            raise DocumentError("'compounds' must be a list")
        compounds = [
            _compound_spec(entry, len(members), f"compound {i}")
            for i, entry in enumerate(raw_compounds or [])
        ]
        return cls(tuple(atoms), tuple(members), tuple(compounds))

    @classmethod
    def load(cls, path: str) -> "AssessmentDocument":
        try:
            with open(path, encoding="utf-8") as handle:
                try:
                    payload = json.load(handle)
                except (ValueError, RecursionError) as exc:
                    # Malformed JSON, bytes that are not UTF-8, an integer
                    # literal past Python's int-string digit limit, or
                    # nesting deeper than the decoder's recursion.
                    raise DocumentError(f"invalid JSON in {path}: {exc}") from None
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}") from None
        return cls.from_payload(payload)


def _atom_cap() -> int:
    raw = os.environ.get(ATOM_CAP_ENV)
    if raw is None:
        return DEFAULT_ATOM_LIMIT
    try:
        return _integer(raw)  # a cap below 1 is refused by Universe
    except ValueError:
        raise DocumentError(f"{ATOM_CAP_ENV} must be an integer, got {raw!r}") from None


def realize(document: AssessmentDocument) -> tuple[Universe, list[ConditionalRandomQuantity]]:
    """Build the universe and the member quantities of a document.

    Every member is parsed first, up to the first one that fails; the
    parsed ones are then built in order from one fold of all their
    events, so a member's own error still comes before a later member's
    parse error."""
    universe = Universe(atom_limit=_atom_cap())
    for name in document.atoms:
        universe.atom(name)  # an invalid atom name, or too many atoms
    parsed, failure = [], None
    for i, spec in enumerate(document.members):
        try:
            given = universe.parse(spec.given)
            if isinstance(spec.quantity, str):
                cells = crq._indicator(universe.parse(spec.quantity), given)
            else:
                cells = [(universe.parse(cell), value) for cell, value in spec.quantity.items()]
        except InputError as exc:
            failure = DocumentError(f"member {i}: {exc}")
            break
        parsed.append((given, cells, spec.prevision))
    members: list[ConditionalRandomQuantity] = []
    try:
        for member in crq._family(parsed):
            members.append(member)
    except InputError as exc:
        raise DocumentError(f"member {len(members)}: {exc}") from None
    if failure is not None:
        raise failure
    return universe, members


def build_compound(
    members: Sequence[ConditionalRandomQuantity], spec: CompoundSpec
) -> ConditionalRandomQuantity:
    i, j = spec.operands
    compound = _COMPOUND_BUILDERS[spec.kind](members[i], members[j])
    if spec.prevision is not None:
        compound = compound.with_prevision(spec.prevision)
    return compound


@contextlib.contextmanager
def _exact_text():
    """Let ``str`` write ints of any length inside the block, restoring
    Python's limit (3.10.7 on) afterwards: an exact result can have far
    more digits than any input it came from.  Input keeps the limit (see
    :func:`parse_rational`)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def report_payload(
    report: CoherenceReport,
    interval: bounds.ExtensionInterval | None = None,
    diagnostics: Sequence[str] = (),
) -> dict[str, Any]:
    """The JSON object of a coherence report and an optional interval."""

    def rationals(values):
        return None if values is None else [str(v) for v in values]

    book = report.dutch_book
    with _exact_text():
        return {
            "verdict": "coherent" if report.coherent else "incoherent",
            "trace": [
                {
                    "members": list(level.members),
                    "solvable": level.solvable,
                    "zero_mass": list(level.zero_mass),
                    "witness": rationals(level.witness),
                    "masses": rationals(level.masses),
                }
                for level in report.levels
            ],
            "dutch_book": None
            if book is None
            else {
                "members": list(book.members),
                "coefficients": rationals(book.coefficients),
                "gains": rationals(book.gains),
            },
            "interval": None
            if interval is None
            else {
                "lower": str(interval.lower),
                "upper": str(interval.upper),
                "endpoints_verified": interval.attained,
            },
            "diagnostics": list(diagnostics),
        }


def _emit(payload: Mapping[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_check(args: argparse.Namespace) -> int:
    document = AssessmentDocument.load(args.file)
    _, members = realize(document)
    if any(spec.prevision is None for spec in document.compounds):
        raise DocumentError("compounds need previsions for checking")
    compounds = [build_compound(members, spec) for spec in document.compounds]
    family = Assessment(members + compounds)
    report = check_coherence(family)
    if not report.coherent and compounds:
        # A coherent family has a coherent base, so the base is checked only here.
        base = check_coherence(family.sub(range(len(members))))
        report = report if base.coherent else base
    _emit(report_payload(report))
    return 0 if report.coherent else 1


def cmd_extend(args: argparse.Namespace) -> int:
    document = AssessmentDocument.load(args.file)
    _, members = realize(document)
    target = build_compound(members, _parse_target(args.target, len(members)))
    base = Assessment(members)
    try:
        interval = bounds.extension_interval(base, target)
    except IncoherentAssessmentError as error:
        _emit(report_payload(base.report, diagnostics=(str(error),)))
        return 1
    _emit(report_payload(base.report, interval))
    return 0


def cmd_conjoin(args: argparse.Namespace) -> int:
    document = AssessmentDocument.load(args.file)
    _, members = realize(document)
    entry = {"kind": "conjunction", "operands": [args.i, args.j]}
    i, j = _compound_spec(entry, len(members), "conjoin").operands
    try:
        compound = crq.conjunction(members[i], members[j])
    except IncoherentAssessmentError:
        _emit({"verdict": "incoherent", "detail": "operand previsions are incoherent"})
        return 1
    with _exact_text():
        cases = [{"on": e.to_text(), "value": str(value)} for e, value in compound.cells]
    payload = {
        "kind": "conjunction",
        "operands": [i, j],
        "given": compound.conditioning.to_text(),
        "cases": cases,
    }
    _emit(payload)
    return 0


def cmd_constituents(args: argparse.Namespace) -> int:
    document = AssessmentDocument.load(args.file)
    _, members = realize(document)
    partition = Assessment(members).partition
    # The report leaves out atoms of the frame that only dropped cells use.
    atoms = used_atoms(e for cells, given in partition.family for e in (given, *cells))
    keep = [k for k, name in enumerate(partition.atoms) if name in atoms]

    def block_payload(block):
        shown = dict.fromkeys(tuple(bits[k] for k in keep) for bits in block.assignments)
        return {"labels": list(block.labels), "assignments": [dict(zip(atoms, b)) for b in shown]}

    payload = {
        "atoms": list(atoms),
        "outside": None if partition.outside is None else block_payload(partition.outside),
        "inside": [block_payload(b) for b in partition.inside],
    }
    _emit(payload)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    pa = parse_rational(args.pa)
    pac = parse_rational(args.pac)
    if not 0 < pa <= 1:
        raise DocumentError("--pa must lie in (0, 1]")
    if not 0 <= pac <= pa:
        raise DocumentError("--pac must lie in [0, --pa]")
    universe = Universe(atom_limit=_atom_cap())
    antecedent = universe.atom("A")
    consequent = universe.atom("C")
    # Complete the joint by making the consequent independent of the
    # antecedent; the target P(C|A) = pac/pa does not depend on the choice.
    dist = simulate.JointDistribution.independent(universe, {"A": pa, "C": pac / pa})
    estimate = simulate.simulate_conditional(
        dist, antecedent, consequent, args.trials, args.max_len, args.seed
    )
    with _exact_text():
        exact = str(pac / pa)
    _emit(
        {
            "mean": estimate.mean,
            "std_error": estimate.std_error,
            "indeterminate_fraction": estimate.indeterminate_fraction,
            "trials": estimate.trials,
            "exact": exact,
            "seed": args.seed,
        }
    )
    return 0


def _parse_target(text: str, member_count: int) -> CompoundSpec:
    """``KIND:I,J`` as a compound without prevision, checked like a
    document's compounds."""
    kind, _, rest = text.partition(":")
    operands: list[Any] = rest.split(",")
    with contextlib.suppress(ValueError):  # text is refused as no index
        operands = [_integer(part) for part in operands]
    return _compound_spec({"kind": kind, "operands": operands}, member_count, "--target")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and then shared."""
    parser = argparse.ArgumentParser(
        prog="previsions",
        description="Coherence checking and extension bounds for conditional "
        "prevision assessments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="check a document for coherence")
    check.add_argument("file")
    check.set_defaults(func=cmd_check)

    extend = subparsers.add_parser(
        "extend", help="coherent prevision interval for a compound target"
    )
    extend.add_argument("file")
    extend.add_argument("--target", required=True, metavar="KIND:I,J")
    extend.set_defaults(func=cmd_extend)

    conjoin = subparsers.add_parser(
        "conjoin", help="realize the conjunction of two members"
    )
    conjoin.add_argument("file")
    conjoin.add_argument("--i", type=_integer, required=True)
    conjoin.add_argument("--j", type=_integer, required=True)
    conjoin.set_defaults(func=cmd_conjoin)

    consts = subparsers.add_parser(
        "constituents", help="list the constituents generated by the members"
    )
    consts.add_argument("file")
    consts.set_defaults(func=cmd_constituents)

    sim = subparsers.add_parser(
        "simulate", help="first-success estimate of a conditional probability"
    )
    sim.add_argument("--pa", required=True, help="antecedent probability")
    sim.add_argument("--pac", required=True, help="joint probability")
    sim.add_argument("--trials", type=_integer, default=100_000)
    sim.add_argument("--max-len", type=_integer, default=40, dest="max_len")
    sim.add_argument("--seed", type=_integer, required=True)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        # Input errors, marked as InputError where they are checked, are
        # exit code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Anything else is a fault of the program, never a verdict: only
        # 0 (coherent), 1 (incoherent), 2 (error) and 3 (internal) escape.
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
