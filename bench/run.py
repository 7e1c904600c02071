"""Benchmark of the previsions CLI: ``check`` and ``extend`` on seeded documents.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One closed-loop client: a single process and thread calls
``previsions.cli.main(argv)`` in-process, one command at a time, so
interpreter start-up is not timed.  The library is imported from the
in-tree ``src/``; nothing is installed.

``--trace 0`` runs commands until ``--seconds`` have passed and reports
the end-to-end metrics, every time scaled to a fixed host speed by a
reference computation timed between commands (:func:`reference`).
``--trace 1`` runs a fixed batch, sized from
``--seconds``, once untraced and once with spans around the library's
public functions (see ``tracing.py``), and reports the per-layer metrics
and the tracing overhead.  ``--workload all`` runs all four workloads
both ways, plus a second traced run that must repeat every count and the
report digest exactly.

Every report is checked against expectations computed from the
benchmark's own truth tables (``workloads.py``).  The last line of
standard output is one JSON object; the exit code is 0 only when every
report was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Seed 7919 is held out: leave it unused while writing a change, then use
# it to confirm a claimed gain.
DEFAULT_SEED = 1
WARM_UP_SEED = 0
SETUP_REPEATS = 3

# Seconds the reference computation takes on the host of the recorded
# figures at its full speed.  That host's speed drifts by up to 70% within
# a minute, so every timed end-to-end metric is the wall time scaled by
# REFERENCE_S over the reference's own time measured next to it: seconds
# at that host's full speed.  The wall times are printed beside them.
REFERENCE_S = 0.006
REFERENCE_WINDOW_S = 0.5

# Mean seconds per command of the library as of the benchmark's first
# commit (x86-64, 2 cores, Python 3.11).  They only size the document pool
# (twice the run length) and the traced batch (half of it), so a faster
# library cycles through the pool.
NOMINAL_SECONDS = {
    "check-random": 0.16,
    "check-zero-mass": 0.043,
    "check-wide": 1.1,
    "extend-compound": 0.16,
}


def reference() -> float:
    """Seconds taken by a fixed computation in exact rational arithmetic,
    the library's main work, that does not touch the library."""
    start = perf_counter()
    step, total = Fraction(1, 3), Fraction(0)
    for i in range(1000):
        total = (total + step * Fraction(i % 7 + 1, i % 5 + 2)) / 2
    return perf_counter() - start


def run_command(main, case, path):
    """Run one CLI command; return (exit code or crash text, stdout, seconds)."""
    argv = [case.command, path, *case.extra_args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the command, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def check(case, code, out) -> str | None:
    if not isinstance(code, int):
        return f"crashed: {code}"
    try:
        return workloads.verify(case, code, json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"


def fresh_import():
    """Import the library from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "previsions" or n.startswith("previsions.")]:
        del sys.modules[name]
    return importlib.import_module("previsions.cli")


def setup(workload, seed, count, work, warm_up):
    """Import, generate and write the documents, and run one untimed
    warm-up command on document ``warm_up`` of the seed-independent
    warm-up set, so that set-up time does not vary with ``seed``."""
    start = perf_counter()
    cli = fresh_import()
    pool = []
    for i, case in enumerate(workloads.generate(workload, seed, count)):
        path = os.path.join(work, f"{i:05d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case.payload, handle)
        pool.append((case, path))
    case = workloads.generate(workload, WARM_UP_SEED, warm_up + 1)[warm_up]
    path = os.path.join(work, "warm-up.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(case.payload, handle)
    run_command(cli.main, case, path)
    return cli, pool, perf_counter() - start


def tail_percentile(workload, seconds) -> int:
    """The percentile ``cmd_tail_s`` reports: the highest whole one with at
    least ten samples beyond it in a run that completes half the commands
    NOMINAL_SECONDS predicts (on the recorded host at its slowest, a
    25-second ``check-random`` run completed 76 of the 139), but not below
    the median.  It is fixed by workload and run length, so that two
    commits are compared at the same percentile however many commands each
    completes."""
    n = seconds / NOMINAL_SECONDS[workload] / 2
    return max(50, math.floor(100 * (n - 10) / n))


def tail(latencies, pct):
    """Latency at percentile ``pct`` and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def local_references(stamps, references, window=REFERENCE_WINDOW_S):
    """For each command, the median of the references timed within
    ``window`` seconds of it.  ``references[j]`` was timed at ``stamps[j]``,
    just before command ``j`` and after command ``j - 1``, so the two beside
    a command always count.  One reference can be disturbed; the host's
    speed changes more slowly."""
    result = []
    for i in range(len(references) - 1):
        lo, hi = i, i + 1
        while lo > 0 and stamps[i] - stamps[lo - 1] <= window:
            lo -= 1
        while hi + 1 < len(references) and stamps[hi + 1] - stamps[i + 1] <= window:
            hi += 1
        result.append(statistics.median(references[lo : hi + 1]))
    return result


def timed_run(cli, pool, seconds, setups, pct):
    """Run commands in turn until ``seconds`` have passed, timing the
    reference between every two commands.  A command's latency is scaled
    by the references timed around it (:func:`local_references`)."""
    latencies, references, stamps, problems = [], [reference()], [perf_counter()], []
    deadline = perf_counter() + seconds
    while not latencies or perf_counter() < deadline:
        index = len(latencies) % len(pool)
        case, path = pool[index]
        code, out, elapsed = run_command(cli.main, case, path)
        stamps.append(perf_counter())
        references.append(reference())
        latencies.append(elapsed)
        problem = check(case, code, out)
        if problem:
            problems.append(f"document {index}: {problem}")
    local = local_references(stamps, references)
    scaled = [t * REFERENCE_S / ref for t, ref in zip(latencies, local)]
    setup_scaled = [t * REFERENCE_S / ref for t, ref in setups]
    n = len(latencies)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    for prefix, lat, setup_s in (("", scaled, setup_scaled), ("wall.", latencies, [t for t, _ in setups])):
        value, beyond = tail(lat, pct)
        metrics[prefix + "cmd_per_s"] = (n / sum(lat), "1/s", "")
        metrics[prefix + "cmd_p50_s"] = (statistics.median(lat), "s", "")
        metrics[prefix + "cmd_tail_s"] = (value, "s", f"p{pct}, {beyond} samples beyond, n={n}")
        metrics[prefix + "setup_s"] = (statistics.median(setup_s), "s", f"median of {len(setups)}")
    ref_q = statistics.quantiles(references, n=4)
    metrics["reference_s"] = (
        statistics.median(references), "s",
        f"quartiles {ref_q[0]:.4g} {ref_q[2]:.4g}, {len(references)} samples; scale = {REFERENCE_S} s / reference",
    )
    metrics["fail_ratio"] = (len(problems) / n, "ratio", f"{len(problems)} of {n}")
    metrics["peak_rss_mb"] = (rss, "MB", "")
    return n, problems, metrics, []


def traced_run(cli, pool, batch, workload, seed):
    """Run each document untraced and traced, in alternating order so that
    drift in machine speed cancels out of the overhead."""
    batch = pool[:batch]
    tracer = tracing.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    untraced, traced = [], []
    for i, (case, path) in enumerate(batch):
        tracer.command = i
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tracing.instrument(tracer):
                    traced.append(run_command(main, case, path))
            else:
                untraced.append(run_command(cli.main, case, path))

    problems = []
    digest = hashlib.sha256()
    for i, ((case, _), plain, spanned) in enumerate(zip(batch, untraced, traced)):
        digest.update(plain[1].encode())
        problem = check(case, *plain[:2])
        if problem:
            problems.append(f"document {i} untraced: {problem}")
        problem = check(case, *spanned[:2])
        if not problem and plain[:2] != spanned[:2]:
            problem = "tracing changed the report"
        if problem:
            problems.append(f"document {i} traced: {problem}")

    metrics = {
        name: (value, unit, "")
        for name, (value, unit) in tracing.summarize(tracer.spans, len(batch)).items()
    }
    plain_s = sum(r[2] for r in untraced) / len(batch)
    metrics["trace.untraced_command_s"] = (plain_s, "s", "")
    metrics["trace.overhead_s"] = (metrics["trace.command_s"][0] - plain_s, "s", "")
    accounted = sum(metrics[f"layer.{layer}.self_s"][0] for layer in tracing.LAYERS)
    metrics["trace.unaccounted_s"] = (metrics["trace.command_s"][0] - accounted, "s", "")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    notes = [f"digest {digest.hexdigest()}", f"spans {spans_file.relative_to(ROOT)}"]
    return 2 * len(batch), problems, metrics, notes


def run_one(args) -> int:
    if not (SRC / "previsions" / "cli.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nominal = NOMINAL_SECONDS[args.workload]
    cycle = len(workloads.COMPOUND_KINDS)
    pool_size = cycle * math.ceil(args.seconds / nominal * 2 / cycle)
    batch = min(pool_size, cycle * math.ceil(args.seconds / 2 / nominal / cycle))
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as work:
        setups = []
        # Each repeat warms up on another document, so the median does not
        # rest on one document's cost.
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            before = reference()
            cli, pool, elapsed = setup(args.workload, args.seed, pool_size, work, repeat)
            setups.append((elapsed, (before + reference()) / 2))
        if args.trace:
            attempted, problems, metrics, notes = traced_run(cli, pool, batch, args.workload, args.seed)
        else:
            attempted, problems, metrics, notes = timed_run(
                cli, pool, args.seconds, setups, tail_percentile(args.workload, args.seconds)
            )

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
        f"  python {platform.python_version()}  nproc {os.cpu_count()}"
        "  client: closed loop, 1 process, 1 thread"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {note}")
    for line in notes + problems[:20]:
        print(f"  {line}")
    wanted = exported_names(args.trace)
    missing = sorted(wanted - metrics.keys())
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems and not missing,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                    if name in wanted
                },
            }
        )
    )
    return 0 if not problems and not missing else 1


def exported_names(trace: int) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload untraced and traced, with a traced re-run that must
    repeat every count and the report digest.  Stops at the first failure."""
    for workload in workloads.WORKLOADS:
        traced = []
        for run, trace in enumerate((0, 1, 1)):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if run < 2:
                sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode:
                return done.returncode
            if trace:
                lines = done.stdout.splitlines()
                metrics = json.loads(lines[-1])["metrics"]
                traced.append(
                    (
                        [l for l in lines if l.strip().startswith("digest")],
                        {k: v for k, v in metrics.items() if v["unit"] not in ("s", "s/s")},
                    )
                )
        if traced[0] != traced[1]:
            print(f"  determinism {workload}: MISMATCH")
            return 1
        print(f"  determinism {workload}: counts and digest repeat")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
