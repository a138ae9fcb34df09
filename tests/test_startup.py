"""Importing the package and running its commands, the DP oracle included,
never loads numpy, `dataclasses`, `inspect` or `ast`.

The package depends on nothing outside the standard library: numpy was
once imported for `oracle.min_tree_table` alone, at about half the
start-up time of `import feaslab`.  Its records were once dataclasses, and
`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize` and compiles
the records' generated methods at import: 1 MB of peak memory and 16-18 ms
of start-up in every process (Python 3.11).  A stray import of any of these
anywhere in the package, or in anything it imports, would put that cost
back; this test runs a fresh interpreter, since the test process itself
has them loaded long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import feaslab
from test_oracle import MIN_LINES

SRC = str(Path(feaslab.__file__).resolve().parent.parent)
HEAVY = ("numpy", "dataclasses", "inspect", "ast")

SCRIPT = """
import contextlib, io, json, sys
HEAVY = %r
def loaded():
    return [m for m in HEAVY if m in sys.modules]
import feaslab, feaslab.cli
report = {"after_import": loaded()}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["gen_rc"] = feaslab.cli.main(["gen", "square-cut", "3"])
report["gen_out"] = out.getvalue()
report["after_gen"] = loaded()
c = feaslab.min_tree_table(4096)
report["after_table"] = loaded()
report["table_type"] = type(c).__name__
report["table"] = c[:17]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["oracle_rc"] = feaslab.cli.main(["oracle", "4096"])
report["oracle_out"] = out.getvalue()
report["after_oracle"] = loaded()
print(json.dumps(report))
""" % (HEAVY,)

STAGES = ("after_import", "after_gen", "after_table", "after_oracle")


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_no_command_loads_numpy(report):
    for stage in STAGES:
        assert "numpy" not in report[stage], stage
    assert report["gen_rc"] == 0
    assert report["gen_out"] == "F(256), lines=35, cuts=11, contractions=3\n"
    assert report["table_type"] == "list"
    assert report["table"] == MIN_LINES
    assert report["oracle_rc"] == 0
    assert report["oracle_out"] == "min-lines F(4096) = 35\n"


def test_no_command_loads_dataclasses_inspect_or_ast(report):
    for stage in STAGES:
        assert report[stage] == [], stage
