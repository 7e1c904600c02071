"""Replay the benchmark's LP calls through two ``lp.py`` files, interleaved.

    python3 tools/lp_replay.py --baseline tests/dense_lp.py [--candidate PATH]
        [--repeats 5] [--check]

Records every ``lp.solve`` and ``lp.optimize`` call that the library in
``src/`` makes while it runs the first 30 documents of seeds 1 and 2 of
each benchmark workload (``bench/workloads.py``, loaded read-only).
It then replays those calls through the two files, each loaded as a
module of its own (``--candidate`` defaults to ``src/previsions/lp.py``),
and compares status, solution, objective and certificate call by call:
it prints the first call that differs and exits 1.  ``--check`` stops
there.  Otherwise it also times ``--repeats`` passes, each document
through both files in turn with the first of the two alternating, and
prints per workload the fastest pass's milliseconds per document, split
into ``solve`` and ``optimize``, with the candidate's ratio to the
baseline.  Replaying in one process keeps the host's speed swings, which
reach tens of percent between separate benchmark processes, out of the
comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from previsions import cli, lp  # noqa: E402

SEEDS = (1, 2)
DOCS = 30


def load(path: Path, name: str):
    """The module of the file ``path``, under the module name ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def record(workloads, workload: str, seed: int, docs: int) -> list[list[tuple]]:
    """Per document, its LP calls in order: ``("solve", rows, rhs,
    scales)`` and ``("optimize", k, costs, scale, maximize, point)``,
    where ``k`` indexes the document's solve whose result it optimizes."""
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
        with tempfile.TemporaryDirectory() as work:
            for i, case in enumerate(workloads.generate(workload, seed, docs)):
                path = Path(work) / f"{i}.json"
                path.write_text(json.dumps(case.payload), encoding="utf-8")
                calls, solved = [], {}
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main([case.command, str(path), *case.extra_args])
                documents.append(calls)
    finally:
        lp.solve, lp.optimize = solve, optimize
    return documents


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
    baseline = load(args.baseline, "lp_replay_baseline")
    candidate = load(args.candidate, "lp_replay_candidate")
    for name in workloads.WORKLOADS:
        documents = [doc for seed in SEEDS for doc in record(workloads, name, seed, DOCS)]
        count = sum(map(len, documents))
        for d, calls in enumerate(documents):
            expected, _, _ = replay(baseline, calls)
            found, _, _ = replay(candidate, calls)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
