"""Golden CLI reports: exact stdout bytes and exit codes, pinned in files.

Each ``tests/golden/<name>.json`` is an input document and
``<name>.out`` the report the CLI printed for it when it was recorded.
Unlike a two-runs-agree check, this catches a report that changes
across versions of the code: a different witness, mass, Dutch Book or
interval, or a different formatting of any of them.  The documents come
from the benchmark's generators (random single-level families, 0/1
multi-level families, ``extend`` families) plus hand-written compound,
value-map and 20-atom three-level cases, and ``conjoin`` and
``constituents`` on a document with a value-map member and an atom no
member uses.  ``conjoin-third-member`` conjoins two members that leave
out an atom a third member uses, and ``conjoin-incoherent-operands``
conjoins two previsions of one conditional event that no assessment
can hold together, so its operand check exits 1.
``constituents-empty-cell`` has a member whose cell empty inside its
conditioning is the only one to use an atom.  ``extend-two-level-base``
extends a base whose check has two levels, and
``extend-incoherent-base`` a base incoherent at its second level, with
a target that does not cover the base, so the incoherent base is
reported before the coverage error.  Each command also runs as a real
``python -m previsions.cli`` process, so the entry point is held to the
same exit status and bytes.

To re-record after an intended change of output, run the command in
``REPORTS`` on the document and write its standard output to the
``.out`` file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from previsions import bounds, cli, coherence, crq, events, lp
from previsions.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "check-random-family": (["check"], 0),
    "check-zero-mass-coherent": (["check"], 0),
    "check-zero-mass-incoherent": (["check"], 1),
    "check-compound-coherent": (["check"], 0),
    "check-compound-dutch-book": (["check"], 1),
    "check-compound-incoherent-base": (["check"], 1),
    "check-value-map": (["check"], 0),
    "check-twenty-atoms": (["check"], 0),
    "extend-conjunction": (["extend", "--target", "conjunction:0,1"], 0),
    "extend-disjunction": (["extend", "--target", "disjunction:0,1"], 0),
    "extend-quasi-conjunction": (["extend", "--target", "quasi-conjunction:0,1"], 0),
    "extend-two-level-base": (["extend", "--target", "conjunction:1,2"], 0),
    "extend-incoherent-base": (["extend", "--target", "conjunction:0,1"], 1),
}

# Every golden command; the work counts below run on the check and extend ones.
REPORTS = {
    **CASES,
    "conjoin-value-map": (["conjoin", "--i", "0", "--j", "1"], 0),
    "conjoin-third-member": (["conjoin", "--i", "0", "--j", "1"], 0),
    "conjoin-incoherent-operands": (["conjoin", "--i", "0", "--j", "1"], 1),
    "constituents-value-map": (["constituents"], 0),
    "constituents-empty-cell": (["constituents"], 0),
}


def test_every_golden_file_has_a_case():
    stems = {path.stem for path in GOLDEN.iterdir()}
    assert stems == set(REPORTS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name, capsys):
    (command, *options), code = REPORTS[name]
    assert main([command, str(GOLDEN / f"{name}.json"), *options]) == code
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_entry_point_bytes(name):
    (command, *options), code = REPORTS[name]
    argv = [command, str(GOLDEN / f"{name}.json"), *options]
    done = subprocess.run(
        [sys.executable, "-m", "previsions.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == code
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


def count_calls(name, monkeypatch):
    """Run a golden command; return, by kind, the sizes of the families it
    checks in full and of those whose constituents it refines, the levels
    of each check, the row counts of its phase-1 solves, the summed sizes
    of each check's solvable levels, the integer costs of its phase-2
    solves, the row counts of those that build a reduced-cost row (call
    ``lp._minimize`` with a floor, from ``lp.optimize``) and the root
    counts of its truth-table folds.  The LP is counted at ``lp.solve`` and
    ``lp.optimize``, patched positional-only: the benchmark's tracer reads
    ``lp.solve``'s arguments by position, so a keyword call fails here.
    ``extensions`` holds the base size of each ``bounds.extension_interval``
    call."""
    kinds = (
        "checks", "enumerations", "levels", "solves", "solvable", "optimizes", "reduced", "folds",
        "extensions",
    )
    counts = {kind: [] for kind in kinds}
    check, refine, fold = coherence.check_coherence, crq.refine, events._fold
    solve, optimize, minimize = lp.solve, lp.optimize, lp._minimize
    extend = bounds.extension_interval

    def counting_check(assessment):
        counts["checks"].append(len(assessment))
        report = check(assessment)
        counts["levels"].append(len(report.levels))
        solvable = sum(len(level.members) for level in report.levels if level.solvable)
        counts["solvable"].append(solvable)
        return report

    def counting_refinement(atoms, members, family):
        counts["enumerations"].append(len(family))
        return refine(atoms, members, family)

    def counting_fold(roots, atom, full):
        counts["folds"].append(len(roots))
        return fold(roots, atom, full)

    def counting_solve(rows, rhs, scales, /):
        counts["solves"].append(len(rows))
        return solve(rows, rhs, scales)

    def counting_optimize(first, costs, scale, maximize=False, point=False, /):
        counts["optimizes"].append(costs)
        return optimize(first, costs, scale, maximize, point)

    def counting_minimize(tableau, basis, d, layout, floor=None):
        if floor is not None:  # phase 2
            counts["reduced"].append(len(basis))
        return minimize(tableau, basis, d, layout, floor)

    def counting_extension(base, target):
        counts["extensions"].append(len(base))
        return extend(base, target)

    for module in (coherence, cli, bounds):
        monkeypatch.setattr(module, "check_coherence", counting_check)
    monkeypatch.setattr(crq, "refine", counting_refinement)
    monkeypatch.setattr(events, "_fold", counting_fold)
    monkeypatch.setattr(lp, "solve", counting_solve)
    monkeypatch.setattr(lp, "optimize", counting_optimize)
    monkeypatch.setattr(lp, "_minimize", counting_minimize)
    monkeypatch.setattr(bounds, "extension_interval", counting_extension)
    (command, *options), code = REPORTS[name]
    assert main([command, str(GOLDEN / f"{name}.json"), *options]) == code
    return counts


@pytest.mark.parametrize(
    "name, checks",
    [
        ("check-twenty-atoms", 1),
        ("check-compound-coherent", 1),
        ("check-compound-dutch-book", 2),
        ("check-compound-incoherent-base", 2),
        ("extend-conjunction", 1),
        ("extend-disjunction", 1),
        ("extend-quasi-conjunction", 1),
        ("extend-two-level-base", 1),
        ("extend-incoherent-base", 1),
    ],
)
def test_check_count(name, checks, monkeypatch, capsys):
    """Each family is checked once: a family with compounds, then its base
    only when the family is incoherent; for ``extend`` the base alone,
    since the interval endpoints are certified rather than re-checked and
    there is no separate operand pair check."""
    assert len(count_calls(name, monkeypatch)["checks"]) == checks


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_extension_count(name, monkeypatch, capsys):
    """``extend`` runs the public ``bounds.extension_interval`` once, on
    the document's members; no other command runs it."""
    (command, *_), _ = REPORTS[name]
    calls = 1 if command == "extend" else 0
    assert len(count_calls(name, monkeypatch)["extensions"]) == calls


# Partitions each golden command refines, in sorted order of the goldens.
REFINEMENTS = {
    "check-compound-coherent": 1,
    "check-compound-dutch-book": 2,
    "check-compound-incoherent-base": 3,
    "check-random-family": 1,
    "check-twenty-atoms": 3,
    "check-value-map": 1,
    "check-zero-mass-coherent": 2,
    "check-zero-mass-incoherent": 3,
    "conjoin-incoherent-operands": 1,
    "conjoin-third-member": 1,
    "conjoin-value-map": 1,
    "constituents-empty-cell": 1,
    "constituents-value-map": 1,
    "extend-conjunction": 1,
    "extend-disjunction": 1,
    "extend-incoherent-base": 2,
    "extend-quasi-conjunction": 1,
    "extend-two-level-base": 2,
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_enumeration_count(name, monkeypatch, capsys):
    """One refinement per partition a command reads: each level of each
    check refines its own blocks from its members' tables, on the
    family's frame, and ``extend`` reads its target's values off its base check's
    level-1 blocks.  Only ``constituents`` refines a partition besides,
    the members', without checking them."""
    counts = count_calls(name, monkeypatch)
    extra = REPORTS[name][0][0] == "constituents"
    assert len(counts["enumerations"]) == REFINEMENTS[name] == sum(counts["levels"]) + extra


@pytest.mark.parametrize("name", sorted(CASES))
def test_phase_one_count(name, monkeypatch, capsys):
    """One phase 1 per level of each check a command runs, and none
    besides: ``extend`` optimizes its interval on the base check's level
    1.  A command that runs one check prints that check's levels."""
    counts = count_calls(name, monkeypatch)
    assert len(counts["solves"]) == sum(counts["levels"])
    if len(counts["checks"]) == 1:
        assert counts["levels"] == [len(json.loads(capsys.readouterr().out)["trace"])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_phase_two_count(name, monkeypatch, capsys):
    """One phase 2 per member of each solvable level, for its mass, and
    for an ``extend`` that exits 0 two more, the interval's endpoints;
    one that exits 1 reports its incoherent base and optimizes no endpoint."""
    counts = count_calls(name, monkeypatch)
    (command, *_), code = CASES[name]
    endpoints = 2 if command == "extend" and code == 0 else 0
    assert len(counts["optimizes"]) == sum(counts["solvable"]) + endpoints


# Phase 2s that build a reduced-cost row, of those test_phase_two_count
# pins; each of the others starts at a phase-1 point whose cost is
# already the least (greatest) on the simplex.
REDUCED = {
    "check-compound-coherent": 3,
    "check-compound-dutch-book": 1,
    "check-compound-incoherent-base": 2,
    "check-random-family": 6,
    "check-twenty-atoms": 13,
    "check-value-map": 1,
    "check-zero-mass-coherent": 4,
    "check-zero-mass-incoherent": 6,
    "extend-conjunction": 4,
    "extend-disjunction": 6,
    "extend-incoherent-base": 2,
    "extend-quasi-conjunction": 6,
    "extend-two-level-base": 3,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduced_cost_row_count(name, monkeypatch, capsys):
    counts = count_calls(name, monkeypatch)
    assert len(counts["reduced"]) == REDUCED[name] <= len(counts["optimizes"])


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_fold_count(name, monkeypatch, capsys):
    """One truth-table fold per golden command: ``realize`` folds every
    event of the document at once, over the atoms its members use.  Each
    compound, each partition and ``conjoin``'s operand pair check take
    the members' tables over that shared frame, also for a pair that
    leaves out an atom a third member uses."""
    assert len(count_calls(name, monkeypatch)["folds"]) == 1
