"""Time ``check_coherence`` on a seeded members/atoms ladder of coherent families.

    python3 tools/ladder.py 6/8 8/10 [10/12 ...] [--seed N]

Each rung ``M/A`` is one family of ``M`` conditional events over ``A``
atoms: every member is a random 1-2-literal event given a random
1-2-literal conditioning (literals on distinct atoms, joined by ``&`` or
``|``), priced by its exact conditional probability under a product
distribution whose atom marginals are drawn from tenths in (0, 1).
Previsions of one distribution are coherent, so every verdict must be
coherent; the script prints one line per rung (levels, constituents
inside the conditionings, the distinct level-1 columns among them, wall
seconds of the check) and exits 1 if any verdict is not.  Equal level-1
points share one column of ``lp.solve``'s tableau, so a rung whose
distinct columns equal its level-1 points gains nothing from that.  The
library is imported from the ``src/`` next to this directory.
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


def family(members: int, atoms: int, seed: int) -> Assessment:
    """The seeded family of one rung, priced by its product distribution."""
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

    quantities = []
    for _ in range(members):
        event, given = small(), small()
        prevision = dist.conditional_probability(event, given)
        quantities.append(conditional_event(event, given, prevision))
    return Assessment(quantities)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rungs", nargs="+", type=rung, metavar="MEMBERS/ATOMS")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failed = 0
    for members, atoms in args.rungs:
        assessment = family(members, atoms, args.seed)
        start = perf_counter()
        report = check_coherence(assessment)
        seconds = perf_counter() - start
        points = sum(len(level.witness) for level in report.levels if level.witness)
        distinct = len(set(assessment.system.points))
        verdict = "coherent" if report.coherent else "INCOHERENT"
        failed += not report.coherent
        print(
            f"{members}/{atoms} seed {args.seed}: {verdict}, {len(report.levels)} level(s), "
            f"{points} points ({distinct} distinct at level 1), {seconds:.4f} s",
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
