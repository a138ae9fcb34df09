"""The mutant table of tools/mutants.py cannot rot.

Running the mutants takes minutes, so tier 1 checks only that each
mutant's text still occurs exactly once in its file of src/feaslab: an
edit that moves or rewords a mutated line must update the table.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_text_occurs_once():
    for m in mutants.MUTANTS:
        source = (ROOT / "src" / "feaslab" / m.file).read_text()
        assert source.count(m.text) == 1, m.name
