"""Spans around the library's public functions, recorded from outside it.

:func:`instrument` replaces each function in :data:`TRACED` with a wrapper
that records a span, wherever the loaded ``previsions`` modules hold a
reference to it, and puts the originals back on exit.  Spans live in
memory; :func:`summarize` turns them into the per-layer metrics.

A span records the command it belongs to, its name, start, end and
parent.  A layer is the module a span's name starts with.  Self time is a
span's duration minus the time covered by its children, so the self times
of all spans of a command add up to the command's time.  Counters read
the arguments and result of a call; they run in a ``trace.count`` span of
their own, so their cost is charged to tracing, not to the layer counted.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from time import perf_counter


class Span:
    __slots__ = ("command", "name", "start", "end", "parent", "info")

    def __init__(self, command: int, name: str, start: float, parent: int | None):
        self.command = command
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.command, name, perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                counting = self.open("trace.count")
                try:
                    self.spans[index].info = count(result, *args, **kwargs)
                finally:
                    self.close(counting)
            return result

        return traced


def _bits(values) -> int:
    """Largest numerator or denominator bit length among ints and Fractions."""
    top = 0
    for v in values:
        top = max(top, v.numerator.bit_length(), v.denominator.bit_length())
    return top


def _count_lp(result, rows, rhs, objective=None, maximize=False):
    bits = max(_bits(v for row in rows for v in row), _bits(rhs), _bits(objective or ()))
    for field in (result.solution, result.certificate):
        bits = max(bits, _bits(field or ()))
    if result.objective is not None:
        bits = max(bits, _bits((result.objective,)))
    return {"rows": len(rows), "cols": len(rows[0]), "bits": bits}


def _count_partition(partition, family):
    blocks = len(partition.inside) + (partition.outside is not None)
    return {"assignments": 1 << len(partition.atoms), "blocks": blocks}


def _count_system(system, assessment):
    return {"points": len(system.points)}


def _count_report(report, assessment):
    return {"levels": len(report.levels), "coherent": report.coherent}


# (module, attribute, span name, counter).  ``simulate`` is not on the
# check/extend path and is deliberately left out.
TRACED = (
    ("cli", "AssessmentDocument.load", "cli.load", None),
    ("cli", "realize", "cli.realize", None),
    ("events", "constituents", "events.constituents", _count_partition),
    ("crq", "ConditionalRandomQuantity.__init__", "crq.ConditionalRandomQuantity", None),
    ("crq", "conjunction", "crq.compound", None),
    ("crq", "disjunction", "crq.compound", None),
    ("crq", "quasi_conjunction", "crq.compound", None),
    ("coherence", "check_coherence", "coherence.check_coherence", _count_report),
    ("coherence", "build_system", "coherence.build_system", _count_system),
    ("coherence", "upper_conditioning_masses", "coherence.upper_conditioning_masses", None),
    ("coherence", "random_gain", "coherence.random_gain", None),
    ("lp", "solve", "lp.solve", _count_lp),
    ("bounds", "extension_interval", "bounds.extension_interval", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every traced function for the duration of the block."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "previsions"]
    undo = []

    def replace(holder, key, new, old, setter):
        undo.append((holder, key, old, setter))
        setter(holder, key, new)

    def set_item(holder, key, value):
        holder[key] = value

    for module_name, attribute, span, count in TRACED:
        module = sys.modules[f"previsions.{module_name}"]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span, raw.__func__, count))
            else:
                wrapped = tracer.wrap(span, raw, count)
            replace(cls, method, wrapped, raw, setattr)
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(span, original, count)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    replace(holder, key, wrapped, original, setattr)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            replace(value, k, wrapped, original, set_item)
    try:
        yield tracer
    finally:
        for holder, key, old, setter in reversed(undo):
            setter(holder, key, old)


# -- summary -------------------------------------------------------------------

LAYERS = ("cli", "events", "crq", "coherence", "lp", "bounds", "trace")


def summarize(spans: list[Span], commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced batch, as ``name -> (value, unit)``.

    Times and counts are per command; ``*_share``, ``*_mean`` and
    ``*_per_*`` are ratios of totals over the batch.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    def duration(i):
        return spans[i].end - spans[i].start

    def self_time(i):
        return duration(i) - child_time[i]

    def has_ancestor(i, test):
        parent = spans[i].parent
        while parent is not None:
            if test(spans[parent].name):
                return True
            parent = spans[parent].parent
        return False

    def covered(test):
        """Time covered by spans whose name passes ``test``."""
        return sum(
            duration(i)
            for i, s in enumerate(spans)
            if test(s.name) and not has_ancestor(i, test)
        )

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def info(name, key):
        return [spans[i].info[key] for i in named(name)]

    per = 1 / commands
    command_time = covered(lambda n: n == "cli.main")
    checks = named("coherence.check_coherence")
    levels = info("coherence.check_coherence", "levels")
    solves = named("lp.solve")
    lp_cols = info("lp.solve", "cols")
    assignments = sum(info("events.constituents", "assignments"))
    check_points = [
        spans[i].info["points"]
        for i in named("coherence.build_system")
        if spans[spans[i].parent].name == "coherence.check_coherence"
    ]

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "lp.solve",
        "coherence.check_coherence",
        "coherence.build_system",
        "coherence.upper_conditioning_masses",
        "coherence.random_gain",
        "bounds.extension_interval",
        "events.constituents",
        "crq.ConditionalRandomQuantity",
        "crq.compound",
        "cli.load",
        "cli.realize",
    ):
        out[f"{name}.calls"] = (len(named(name)) * per, "count")
        out[f"{name}.s"] = (covered(lambda n, name=name: n == name) * per, "s")

    out["lp.solve.cells"] = (sum(r * c for r, c in zip(info("lp.solve", "rows"), lp_cols)) * per, "count")
    out["lp.solve.bits_max"] = (max(info("lp.solve", "bits"), default=0), "bits")
    out["lp.solve.cols_mean"] = (sum(lp_cols) / max(len(solves), 1), "count")
    in_check = sum(has_ancestor(i, lambda n: n == "coherence.check_coherence") for i in solves)
    out["lp.solves_per_level"] = (in_check / max(sum(levels), 1), "ratio")

    out["coherence.levels"] = (sum(levels) / max(len(checks), 1), "count")
    out["coherence.build_system.points"] = (sum(info("coherence.build_system", "points")) * per, "count")
    out["coherence.checks_per_command"] = (len(checks) * per, "ratio")
    out["coherence.multi_level_share"] = (sum(n > 1 for n in levels) / max(len(checks), 1), "ratio")
    incoherent = sum(not c for c in info("coherence.check_coherence", "coherent"))
    out["coherence.incoherent_share"] = (incoherent / max(len(checks), 1), "ratio")
    out["coherence.constituents_per_check"] = (sum(check_points) / max(len(checks), 1), "count")

    rechecks = sum(has_ancestor(i, lambda n: n == "bounds.extension_interval") for i in checks)
    out["bounds.rechecks"] = (rechecks * per, "count")
    out["bounds.extension_interval.self_s"] = (
        sum(self_time(i) for i in named("bounds.extension_interval")) * per,
        "s",
    )

    out["events.constituents.assignments"] = (assignments * per, "count")
    out["events.constituents.blocks"] = (sum(info("events.constituents", "blocks")) * per, "count")
    out["events.blocks_per_assignment"] = (
        sum(info("events.constituents", "blocks")) / max(assignments, 1),
        "ratio",
    )

    out["cli.self_s"] = (sum(self_time(i) for i in named("cli.main")) * per, "s")
    for layer in LAYERS:
        total = sum(self_time(i) for i, s in enumerate(spans) if s.name.split(".")[0] == layer)
        out[f"layer.{layer}.self_s"] = (total * per, "s")
    out["trace.command_s"] = (command_time * per, "s")
    out["trace.spans"] = (len(spans) * per, "count")
    # Shares are of command time without the counters' own spans.
    work = command_time - out["layer.trace.self_s"][0] * commands
    out["share.lp_solve"] = (covered(lambda n: n == "lp.solve") / work, "s/s")
    front = covered(lambda n: n.startswith(("events.", "crq.")) or n == "cli.realize")
    out["share.events_crq_realize"] = (front / work, "s/s")
    return out
