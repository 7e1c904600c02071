"""Time ``check_coherence`` on a seeded members/atoms ladder of coherent families.

    python3 tools/ladder.py 6/8 8/10 [10/12 ...] [--seed N]

Each rung ``M/A`` is one family of ``M`` conditional events over ``A``
atoms: every member is a random 1-2-literal event given a random
1-2-literal conditioning (literals on distinct atoms, joined by ``&`` or
``|``), priced by its exact conditional probability under a product
distribution whose atom marginals are drawn from tenths in (0, 1).
Previsions of one distribution are coherent, and every such family is
checked in one level.  The script prints one line per rung (levels,
constituents inside the conditionings, the distinct level-1 columns
among them, wall seconds of the check).  Equal level-1 points share one
column of ``lp.solve``'s tableau, so a rung whose distinct columns equal
its level-1 points gains nothing from that.

A second line per rung times the same members priced by an agreeing
pair ``(P0, P1)`` (Coletti & Scozzafava, *Probabilistic Logic in a
Coherent Setting*, 2002), plus members that pin atoms and force zero
mass (see :func:`family`), so its check reaches a second level; the line
gives the members per level.  Such previsions are coherent too.  The
script exits 1 if any verdict is not coherent or no family reaches two
levels.  The library is imported from the ``src/`` next to this
directory.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from previsions import (  # noqa: E402
    Assessment,
    JointDistribution,
    Universe,
    check_coherence,
    conditional_event,
)


def rung(text: str) -> tuple[int, int]:
    members, _, atoms = text.partition("/")
    try:
        pair = int(members), int(atoms)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not MEMBERS/ATOMS") from None
    if pair[0] < 1 or pair[1] < 2:
        raise argparse.ArgumentTypeError(f"{text!r} needs at least 1 member and 2 atoms")
    return pair


def family(
    members: int, atoms: int, seed: int, agreeing: bool = False
) -> tuple[Assessment, str]:
    """The seeded family of one rung, priced by its product distribution,
    and a note for its line that names any atoms the pricing fixes.

    With ``agreeing``, the same members are priced by an agreeing pair
    instead: ``P0`` is the product with one or two atoms fixed at 0 or 1,
    and a member whose conditioning has ``P0``-mass 0 takes its price from
    the full-support product ``P1``.  Each fixed atom ``a_k`` adds the
    member ``a_k | 1`` priced by ``P0``, which pins every solution of
    level 1 to ``P0``'s side of ``a_k``, and one member conditioned on the
    other side, the ``P0``-null literal, which that forces to zero mass.
    """
    rng = random.Random(f"{members}/{atoms}/{seed}")
    universe = Universe()
    names = [f"a{i}" for i in range(atoms)]
    atom = [universe.atom(name) for name in names]
    marginals = {name: Fraction(rng.randint(1, 9), 10) for name in names}
    dist = JointDistribution.independent(universe, marginals)

    def small():
        chosen = rng.sample(range(atoms), rng.randint(1, 2))
        literals = [atom[i] if rng.random() < 0.5 else ~atom[i] for i in chosen]
        if len(literals) == 1:
            return literals[0]
        return literals[0] & literals[1] if rng.random() < 0.5 else literals[0] | literals[1]

    drawn = [(small(), small()) for _ in range(members)]
    pricing = [dist]
    note = ""
    if agreeing:
        fixed = {i: rng.randint(0, 1) for i in rng.sample(range(atoms), rng.randint(1, 2))}
        pinned = {**marginals, **{names[i]: value for i, value in fixed.items()}}
        pricing.insert(0, JointDistribution.independent(universe, pinned))
        for i, value in fixed.items():
            drawn.append((atom[i], universe.true()))
            drawn.append((small(), ~atom[i] if value else atom[i]))
        note = " (agreeing pair, " + ", ".join(f"{names[i]}={v}" for i, v in fixed.items()) + ")"

    quantities = []
    for event, given in drawn:
        first = next(p for p in pricing if p.probability(given))
        prevision = first.conditional_probability(event, given)
        quantities.append(conditional_event(event, given, prevision))
    return Assessment(quantities), note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rungs", nargs="+", type=rung, metavar="MEMBERS/ATOMS")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failed = 0
    deepest = 0
    for members, atoms in args.rungs:
        for agreeing in (False, True):
            assessment, note = family(members, atoms, args.seed, agreeing)
            start = perf_counter()
            report = check_coherence(assessment)
            seconds = perf_counter() - start
            failed += not report.coherent
            deepest = max(deepest, len(report.levels))
            line = f"{members}/{atoms} seed {args.seed}{note}: "
            line += f"{'coherent' if report.coherent else 'INCOHERENT'}, "
            line += f"{len(report.levels)} level(s)"
            if agreeing:
                sizes = "+".join(str(len(level.members)) for level in report.levels)
                line += f" of {sizes} members"
            else:
                points = sum(len(level.witness) for level in report.levels if level.witness)
                distinct = len(set(assessment.system.points))
                line += f", {points} points ({distinct} distinct at level 1)"
            print(f"{line}, {seconds:.4f} s", flush=True)
    if deepest < 2:
        print("no family reached a second level", flush=True)
    return 1 if failed or deepest < 2 else 0


if __name__ == "__main__":
    sys.exit(main())
