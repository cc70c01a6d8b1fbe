"""The shipped examples run as documented: both demos, and the code
block under "Library" in the README.

Each demo's stdout is compared whole against
``tests/golden/demo-DEMO.txt``.  To regenerate one after an intended
change of output, run ``PYTHONPATH=src python3 demos/DEMO.py`` from the
repository root and redirect it there.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo, verdicts", [
    ("retract_walkthrough.py",
     ["whitehead verdict: certified", "search verdict: equivalent"]),
    ("deformation_walkthrough.py",
     ["ambient whitehead verdict: certified", "comparison (functor-pair): verified"]),
])
def test_demo_runs(demo, verdicts):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN / f"demo-{pathlib.Path(demo).stem}.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")
    lines = proc.stdout.splitlines()
    for verdict in verdicts:
        assert verdict in lines, verdict


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})
