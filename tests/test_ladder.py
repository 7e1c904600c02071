"""The Bland path at ladder scale, pinned.

``PHASE_ONE_DIGEST`` in ``test_lp.py`` covers systems of a few rows and
columns.  Here the full coherence reports (every level's members,
witness, masses and zero-mass set) of both family lines of
``tools/ladder.py`` are hashed at rungs 8/10 and 10/12, seeds 1-3: any
change to the LP's pivot sequence, its witnesses or its masses at
hundreds of columns changes a hash.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from previsions import check_coherence

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_text(report) -> str:
    """The report as text, each rational as ``p/q``."""

    def rationals(values):
        return "-" if values is None else ",".join(str(v) for v in values)

    lines = [f"coherent {report.coherent}"]
    for level in report.levels:
        lines.append(
            f"members {rationals(level.members)} solvable {level.solvable}"
            f" witness {rationals(level.witness)} masses {rationals(level.masses)}"
            f" zero {rationals(level.zero_mass)}"
        )
    book = report.dutch_book
    if book is not None:
        lines.append(f"book {rationals(book.coefficients)} gains {rationals(book.gains)}")
    return "\n".join(lines)


# sha256 of ``report_text`` per (members, atoms, seed), product line then
# agreeing-pair line.
LADDER_DIGESTS = {
    (8, 10, 1): (
        "56342cce7a9289046794e9ce14b5e8bbeabfa2c76de741ae12d374e6f968a7ef",
        "86b7f70548bb1ec1e0f146fd391aaa1d44229112c8fd59c4e1338453435205c8",
    ),
    (8, 10, 2): (
        "002be39673a6cc549da1688a1dbfe782a3b006514528183ab0fdbf71961ba35c",
        "3910c99e39164ac8b3dbd353bcd3e11eed0b25807b47c9185f439e7e18c4b94a",
    ),
    (8, 10, 3): (
        "6929c74f6d1c82f3e115b2b30d6f10052a88eec9d6dfb9f094f7e549565a2fc8",
        "273c716693b65d8231f44a576adcdae7366090059edbe2638a2fd92d1857f7ff",
    ),
    (10, 12, 1): (
        "16e2a4bd2bec76d74c846f99a61b0f0de765b5089c5065602baff2aed211669c",
        "a53c5bbe564943d58a6818afcc08ec19d8ea72d5cdfdd1750f2349a7523a7000",
    ),
    (10, 12, 2): (
        "03807e6cab149506933d0908902dbd4b7d13d3aa3892c004d223db4ee29ddef4",
        "0de600edbf039d6520da28dfabe7be4721b536dbe6f74e45ee6afa1e0b2386f6",
    ),
    (10, 12, 3): (
        "069c78bed6dcabaca364deb614d5f13c84d0b46e528e34a4580f9ca261a3d3f5",
        "8a4e09d0e763c527474b36a89cbe88813cdcec5bea39ec1099ef0eec755161a8",
    ),
}


@pytest.mark.parametrize("members, atoms, seed", sorted(LADDER_DIGESTS))
def test_ladder_reports_are_pinned(members, atoms, seed):
    ladder = load_ladder()
    digests = []
    for agreeing in (False, True):
        assessment, _ = ladder.family(members, atoms, seed, agreeing)
        text = report_text(check_coherence(assessment))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == LADDER_DIGESTS[members, atoms, seed]
