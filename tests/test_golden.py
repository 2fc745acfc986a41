"""Byte-for-byte golden outputs of the command line.

Every case runs ``repgrowth.cli.main`` in process and compares stdout,
stderr and the exit code with the files under ``tests/golden/``:
``<case>.out`` holds stdout, ``<case>.err`` stderr and ``<case>.code`` the
exit code.  The files pin the behaviour contract (check ids, claims,
verdicts, details and both output formats), so a refactor must reproduce
them exactly.  Rewrite them only when the contract is meant to change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repgrowth.cli import main

GOLDEN = Path(__file__).with_name("golden")

_BASE = {
    "verify-all-desk": ["verify", "--suite", "all"],
    "verify-all-extended": ["verify", "--suite", "all", "--scale", "extended"],
    "bound-interval": ["bound", "--family", "E", "--rank", "6", "--n", "30",
                       "--p", "7"],
    "witness-a5": ["witness", "a5", "--weight", "0,0,25,0,0"],
    # a_3 < 25, so the family's base is fed by _feed_centre first
    "witness-a5-bracket": ["witness", "a5", "--weight", "9,8,14,8,0"],
    "witness-good": ["witness", "good", "--rank", "5", "--weight",
                     "1,2,3,2,1"],
    "enumerate-premet-overflow": ["enumerate", "--family", "A", "--rank",
                                  "2", "--p", "5", "--n-max", "3", "--bound",
                                  "premet", "--cap", "10"],
    "enumerate-premet-g2": ["enumerate", "--family", "G", "--rank", "2",
                            "--p", "5", "--n-max", "30", "--bound",
                            "premet"],
    "enumerate-premet-b3": ["enumerate", "--family", "B", "--rank", "3",
                            "--p", "3", "--n-max", "40", "--bound",
                            "premet"],
    # rank 4: every weight of the box reads the full 70-term polynomial
    "enumerate-premet-f4": ["enumerate", "--family", "F", "--rank", "4",
                            "--p", "3", "--n-max", "40", "--bound",
                            "premet"],
    "mullineux": ["mullineux", "--p", "5", "--partition", "5,4,2,2,1"],
    "error-hypothesis": ["witness", "incr", "--rank", "3", "--weight",
                         "1,1,1", "--m", "1"],
}
CASES = {f"{name}-{fmt}": argv + ["--format", fmt]
         for name, argv in _BASE.items() for fmt in ("json", "csv")}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), f"{code}\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    got = _run(CASES[case])
    want = tuple((GOLDEN / f"{case}{ext}").read_bytes().decode("utf-8")
                 for ext in (".out", ".err", ".code"))
    assert got == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for ext, text in zip((".out", ".err", ".code"), _run(argv)):
            (GOLDEN / f"{case}{ext}").write_bytes(text.encode("utf-8"))
        print(case, file=sys.stderr)
