"""README's quick tour runs as written: its ``python`` blocks execute in
order in one namespace, print what their comments say, and do the work
the text around them claims."""

import contextlib
import io
import re
from pathlib import Path

from test_bounds import counted_work

README = Path(__file__).resolve().parent.parent / "README.md"


def test_tour_runs_as_documented():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with counted_work() as work:
            for block in blocks[:2]:
                exec(block, namespace)
            # Each extension reuses base's check, but conjunction and
            # disjunction each check their operand pair themselves.
            assert work() == (3, 3, 12)
        for block in blocks[2:]:
            exec(block, namespace)
    assert out.getvalue().splitlines()[:4] == ["3/10 3/5", "H | K", "7/10 1", "0 3/10"]
    bad, book, random_gain = namespace["bad"], namespace["book"], namespace["random_gain"]
    assert all(g < 0 for g in random_gain(bad.sub(book.members), book.coefficients))
