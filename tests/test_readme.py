"""README's Library example runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # The example is the README's one block of library code: an API change
    # that leaves it stale fails here.
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    deviation, v_coherent, v_thermal = map(float, out.getvalue().split())
    # The eigh trace against the exact route, and two visibility minima.
    assert deviation < 1e-11
    assert 0.0 < v_coherent < 1.0 and 0.0 < v_thermal < 1.0
