"""Importing the package and running its commands, the DP oracle included, never loads numpy.

The package depends on nothing outside the standard library: numpy was
once imported for `oracle.min_tree_table` alone, at about half the
start-up time of `import feaslab`.  A stray `import numpy` anywhere in the
package, or in anything it imports, would put that cost back; this test
runs a fresh interpreter, since the test process itself may have numpy
loaded long before.
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
c = feaslab.min_tree_table(4096)
report["after_table"] = "numpy" in sys.modules
report["table_type"] = type(c).__name__
report["table"] = c[:17]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["oracle_rc"] = feaslab.cli.main(["oracle", "4096"])
report["oracle_out"] = out.getvalue()
report["after_oracle"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def test_no_command_loads_numpy():
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
    assert report["after_table"] is False
    assert report["table_type"] == "list"
    assert report["table"] == MIN_LINES
    assert report["oracle_rc"] == 0
    assert report["oracle_out"] == "min-lines F(4096) = 35\n"
    assert report["after_oracle"] is False
