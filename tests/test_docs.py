"""The README's Python examples and the package docstring run as written."""

import doctest
import re
from pathlib import Path

import pytest

import gofmetrics

README = Path(__file__).resolve().parents[1] / "README.md"
# a line whose comment is one whole float literal, as in "f(cm)  # 0.2256692880123802"
PINNED = re.compile(r"^(?P<expr>\S.*?)\s+#\s*(?P<value>[-+]?\d+\.\d+(?:[eE][-+]?\d+)?)$")


def test_readme_python_blocks_run_and_match_their_pinned_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace, pinned = {}, 0
    for block in blocks:  # one namespace, in order, as a reader runs them
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            match = PINNED.match(line.rstrip())
            if match:
                # 4 ulp: LAPACK builds may round the determinant's LU differently
                expected = pytest.approx(float(match["value"]), rel=4 * 2.0**-52, abs=0)
                assert eval(match["expr"], namespace) == expected, line
                pinned += 1
    assert pinned


def test_package_docstring_doctest():
    failed, attempted = doctest.testmod(gofmetrics)
    assert attempted and not failed
