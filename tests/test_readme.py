"""README's Library example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_library_example_prints_what_it_says():
    """The one python block, run from the repository root, prints the
    cosets its comment names and one SequenceLengths per ordering."""
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.splitlines() == [
        "(('0',), ('1',), ('2',))",
        "(SequenceLengths(order=('+', '*'), lengths=(), constant=None, series_count=0, "
        "anomalies=()), SequenceLengths(order=('*', '+'), lengths=(1,), constant=1, "
        "series_count=1, anomalies=('TERMINAL_MISMATCH: terminal {0, 1} != {0}',)))",
    ]
    assert "# (('0',), ('1',), ('2',))" in blocks[0]
