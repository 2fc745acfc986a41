"""The mutation table: each row breaks one line of `src/` on purpose and
names the tests that must catch it.

A row is (module, exact old text, new text, node ids).  The test copies
`src/` to a temporary directory, checks that the old text occurs exactly
once there (so a row breaks loudly when the code it mutates moves), applies
the mutant and runs the named node ids against the copy in a subprocess,
Hypothesis seeded so each run draws the same examples.  They must fail:
exit status 1, which pytest gives for failed tests and not for a collection
error or an unknown node id."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

MUTANTS = (
    ("lazy-text-at-ambient-precision", "intervals.py",
     "return mpi_str(x._mpi_, bits) if bits else str(x)",
     "return mpi_str(x._mpi_, iv.prec) if bits else str(x)",
     ["test_intervals.py::"
      "test_certify_cmp_formats_only_the_deciding_evaluation"]),
    ("equality-ignores-enclosures", "intervals.py",
     "return self.verdict, self.prec_bits, self.lhs, self.rhs",
     "return self.verdict, self.prec_bits",
     ["test_intervals.py::"
      "test_certificates_differing_in_an_enclosure_compare_unequal"]),
    ("exact-rounding-swapped", "intervals.py",
     "(from_rational(n, d, iv.prec, round_floor),\n"
     "                        from_rational(n, d, iv.prec, round_ceiling))",
     "(from_rational(n, d, iv.prec, round_ceiling),\n"
     "                        from_rational(n, d, iv.prec, round_floor))",
     ["test_intervals.py::test_exact_rounds_each_end_once"]),
)


@pytest.mark.parametrize("name,module,old,new,node_ids", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_mutant_is_caught(name, module, old, new, node_ids, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "repgrowth" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{name}: old text not found exactly once"
    path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0",
         *(str(TESTS / node) for node in node_ids)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, (f"{name}: exit {run.returncode}, not 1\n"
                                 f"{run.stdout}{run.stderr}")
