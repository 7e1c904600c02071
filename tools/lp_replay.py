"""Replay the library's LP calls through two ``lp.py`` files, interleaved.

    python3 tools/lp_replay.py --baseline tests/dense_lp.py [--candidate PATH]
        [--repeats 5] [--check]

Records every ``lp.solve`` and ``lp.optimize`` call that the library in
``src/`` makes while it runs the first 30 documents of seeds 1 and 2 of
each benchmark workload (``bench/workloads.py``, loaded read-only), and
while ``check_coherence`` checks the ``tools/ladder.py`` families of
each rung in :data:`LADDER` at seeds 1 to 3, both lines of each: the
benchmark's systems have at most about 60 columns and 96-bit fields,
the ladder's thousands of columns and wider fields.  It then replays
those calls through the two files, each loaded as a module of its own
(``--candidate`` defaults to ``src/previsions/lp.py``), and compares
status, solution, objective and certificate call by call: it prints the
first call that differs and exits 1.  ``--check`` stops there.
When both files are packed kernels it also prints, per workload and
rung, how many phase-1 runs (one per ``solve``) and phase-2 runs (one
per ``optimize`` that does not return at its start) run at each field
width in bits, call by call as ``baseline->candidate``, and how many of
them run wider in the candidate.
Otherwise it also times ``--repeats`` passes, each document (a ladder
family counts as one) through both files in turn with the first of the
two alternating, and prints per workload and rung the fastest pass's
milliseconds per document, split into ``solve`` and ``optimize``, with
the candidate's ratio to the baseline.  Replaying in one process keeps
the host's speed swings, which reach tens of percent between separate
benchmark processes, out of the comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from previsions import check_coherence, cli, lp  # noqa: E402

SEEDS = (1, 2)
DOCS = 30
LADDER = ((8, 10), (10, 12), (12, 14))  # members/atoms
LADDER_SEEDS = (1, 2, 3)


def load(path: Path, name: str):
    """The module of the file ``path``, under the module name ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def record(runs) -> list[list[tuple]]:
    """Per run, a function of no arguments, its LP calls in order:
    ``("solve", rows, rhs, scales)`` and ``("optimize", k, costs, scale,
    maximize, point)``, where ``k`` indexes the run's solve whose result
    it optimizes."""
    solve, optimize = lp.solve, lp.optimize
    calls: list[tuple] = []
    solved: dict[int, int] = {}
    kept = []  # keeps each solve's result alive, so its id stays its own

    def recording_solve(rows, rhs, scales):
        result = solve(rows, rhs, scales)
        solved[id(result)] = sum(call[0] == "solve" for call in calls)
        kept.append(result)
        calls.append(("solve", rows, rhs, scales))
        return result

    def recording_optimize(first, costs, scale, maximize=False, point=False):
        calls.append(("optimize", solved[id(first)], costs, scale, maximize, point))
        return optimize(first, costs, scale, maximize, point)

    documents = []
    lp.solve, lp.optimize = recording_solve, recording_optimize
    try:
        for run in runs:
            calls, solved = [], {}
            run()
            documents.append(calls)
    finally:
        lp.solve, lp.optimize = solve, optimize
    return documents


def workload_calls(workloads, workload: str, seeds, docs: int) -> list[list[tuple]]:
    """The LP calls of the first ``docs`` documents of ``workload`` at
    each seed, each run through ``cli.main`` from a file."""
    with tempfile.TemporaryDirectory() as work:

        def run(i, case):
            path = Path(work) / f"{i}.json"
            path.write_text(json.dumps(case.payload), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([case.command, str(path), *case.extra_args])

        cases = [case for seed in seeds for case in workloads.generate(workload, seed, docs)]
        return record([lambda i=i, case=case: run(i, case) for i, case in enumerate(cases)])


def ladder_calls(ladder, members: int, atoms: int, seeds) -> list[list[tuple]]:
    """The LP calls of checking the ladder family of ``members/atoms`` at
    each seed, on its one-level line and then on its agreeing-pair line."""
    pairs = [(seed, agreeing) for seed in seeds for agreeing in (False, True)]
    return record(
        [
            lambda seed=seed, agreeing=agreeing: check_coherence(
                ladder.family(members, atoms, seed, agreeing)[0]
            )
            for seed, agreeing in pairs
        ]
    )


def replay(module, calls) -> tuple[list, float, float]:
    """The results of one document's calls through ``module`` and the
    seconds its solves and its optimizes took."""
    results, solves = [], []
    solve_s = optimize_s = 0.0
    for call in calls:
        start = perf_counter()
        if call[0] == "solve":
            result = module.solve(*call[1:])
            solve_s += perf_counter() - start
            solves.append(result)
        else:
            k, costs, scale, maximize, point = call[1:]
            result = module.optimize(solves[k], costs, scale, maximize, point)
            optimize_s += perf_counter() - start
        results.append(result)
    return results, solve_s, optimize_s


@contextlib.contextmanager
def field_widths(module):
    """While it runs, the phase, ``"solve"`` or ``"phase 2"``, and the
    field width of each run of ``module``'s simplex loop, ``_minimize``;
    none if ``module`` is no packed kernel."""
    runs: list[tuple[str, int]] = []
    if not hasattr(module, "_Layout"):
        yield runs
        return
    minimize = module._minimize

    def recording(tableau, basis, d, layout, floor=None):
        runs.append(("solve" if floor is None else "phase 2", layout.bits))
        return minimize(tableau, basis, d, layout, floor)

    module._minimize = recording
    try:
        yield runs
    finally:
        module._minimize = minimize


def outcome(result) -> tuple:
    return result.status, result.solution, result.objective, result.certificate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--candidate", type=Path, default=ROOT / "src" / "previsions" / "lp.py")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--check", action="store_true", help="compare only, time nothing")
    args = parser.parse_args(argv)

    workloads = load(ROOT / "bench" / "workloads.py", "lp_replay_workloads")
    ladder = load(ROOT / "tools" / "ladder.py", "lp_replay_ladder")
    baseline = load(args.baseline, "lp_replay_baseline")
    candidate = load(args.candidate, "lp_replay_candidate")
    sources = [(name, lambda name=name: workload_calls(workloads, name, SEEDS, DOCS))
               for name in workloads.WORKLOADS]
    sources += [(f"ladder {m}/{a}", lambda m=m, a=a: ladder_calls(ladder, m, a, LADDER_SEEDS))
                for m, a in LADDER]
    for name, source in sources:
        documents = source()
        count = sum(map(len, documents))
        widths: Counter = Counter()
        for d, calls in enumerate(documents):
            with field_widths(baseline) as was:
                expected, _, _ = replay(baseline, calls)
            with field_widths(candidate) as now:
                found, _, _ = replay(candidate, calls)
            widths.update(zip(was, now))
            for c, (want, got) in enumerate(zip(expected, found)):
                if outcome(want) != outcome(got):
                    print(f"{name} document {d} call {c} ({calls[c][0]}): "
                          f"baseline {outcome(want)} candidate {outcome(got)}")
                    return 1
        line = f"{name:16s} {len(documents)} documents, {count} LP calls agree"
        if not args.check:
            best = {side: [float("inf"), float("inf")] for side in ("baseline", "candidate")}
            for repeat in range(args.repeats):
                spent = {side: [0.0, 0.0] for side in best}
                for d, calls in enumerate(documents):
                    order = (("baseline", baseline), ("candidate", candidate))
                    for side, module in order if (repeat + d) % 2 == 0 else order[::-1]:
                        _, solve_s, optimize_s = replay(module, calls)
                        spent[side][0] += solve_s
                        spent[side][1] += optimize_s
                for side, (solve_s, optimize_s) in spent.items():
                    best[side] = [min(best[side][0], solve_s), min(best[side][1], optimize_s)]
            per_doc = {side: [1000 * s / len(documents) for s in v] for side, v in best.items()}
            (bs, bo), (cs, co) = per_doc["baseline"], per_doc["candidate"]
            line += (
                f"; ms/doc, fastest of {args.repeats}: solve {bs:.4f} -> {cs:.4f} (x{cs / bs:.3f})"
                f", optimize {bo:.4f} -> {co:.4f} (x{co / bo:.3f})"
                f", both {bs + bo:.4f} -> {cs + co:.4f} (x{(cs + co) / (bs + bo):.3f})"
            )
        print(line, flush=True)
        for phase in ("solve", "phase 2") if widths else ():
            pairs = sorted((a[1], b[1], n) for (a, b), n in widths.items() if a[0] == phase)
            wider = sum(n for a, b, n in pairs if b > a)
            runs = ", ".join(f"{a}->{b} {n}" for a, b, n in pairs)
            print(f"{'':16s} {phase} field widths: {runs or 'none'}; {wider} wider", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
