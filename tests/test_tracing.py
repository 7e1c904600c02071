"""The benchmark tracer's contract with the library.

``bench/tracing.py`` wraps library functions by name and reads
``lp.solve``'s arguments by position.  Two golden commands run under it
here: a traced command must print the golden's bytes, and the spans must
count what the tracer's metrics assume, one ``lp.solve`` and one
``coherence.build_system`` per level, each solve with one row per member
of its level.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from previsions.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
GOLDEN = ROOT / "tests" / "golden"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, options",
    [
        ("check-zero-mass-coherent", ["check"]),
        ("extend-conjunction", ["extend", "--target", "conjunction:0,1"]),
    ],
)
def test_traced_command(name, options):
    tracing = load_tracing()
    command, *rest = options
    out = io.StringIO()
    with tracing.instrument(tracing.Tracer()) as tracer, contextlib.redirect_stdout(out):
        assert main([command, str(GOLDEN / f"{name}.json"), *rest]) == 0
    assert out.getvalue().encode() == (GOLDEN / f"{name}.out").read_bytes()

    members = [len(level["members"]) for level in json.loads(out.getvalue())["trace"]]
    solves = [span.info["rows"] for span in tracer.spans if span.name == "lp.solve"]
    systems = [span for span in tracer.spans if span.name == "coherence.build_system"]
    assert solves == members
    assert len(systems) == len(members)
