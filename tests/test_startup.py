"""Importing the package, and running any command but the DP oracle, leaves numpy unloaded.

numpy is about half the start-up time of `import feaslab`, and only
`oracle.min_tree_table` uses it, so that function imports it when called.
A module-level `import numpy` anywhere in the package, or in anything it
imports, would put the cost back on every CLI call; this test runs a fresh
interpreter, since the test process itself has numpy loaded long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import feaslab
from test_oracle import MIN_LINES

SRC = str(Path(feaslab.__file__).resolve().parent.parent)

SCRIPT = """
import contextlib, io, json, sys
import feaslab, feaslab.cli
report = {"after_import": "numpy" in sys.modules}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["gen_rc"] = feaslab.cli.main(["gen", "square-cut", "3"])
report["gen_out"] = out.getvalue()
report["after_gen"] = "numpy" in sys.modules
c = feaslab.min_tree_table(16)
report["after_table"] = "numpy" in sys.modules
report["dtype"] = str(c.dtype)
report["table"] = [int(x) for x in c]
print(json.dumps(report))
"""


def test_numpy_loads_only_for_the_dp_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["after_import"] is False
    assert report["gen_rc"] == 0
    assert report["gen_out"] == "F(256), lines=35, cuts=11, contractions=3\n"
    assert report["after_gen"] is False
    assert report["after_table"] is True
    assert report["dtype"] == "int64"
    assert report["table"] == MIN_LINES
