"""Run the mutation table in forked children of one process.

Reads rows (name, module, old, new, node ids) as JSON on standard input.
For each row it copies `src/` to a temporary directory, applies the mutant
once its old text is found there exactly once, and forks: the child puts
the copy first on `sys.path` and in `PYTHONPATH`, works in the temporary
directory, runs `pytest.main` on the row's node ids with Hypothesis seeded,
and exits with pytest's status.  One more child, the control, runs every
row's node ids together on an unmutated copy, and must exit 0.  Two
children run at a time.  Writes {"rows": {name: [status, output]},
"control": [status, output, failed node ids]} as JSON on standard output.

This process imports pytest, Hypothesis and mpmath once, so no child pays
for them, and never imports `repgrowth`, so each child imports its own
copy.  Bytecode goes under one temporary prefix for the whole table, so
the test modules are compiled, and their asserts rewritten, once.  A child
that finds Hypothesis already imported would have pytest warn that
`_hypothesis_globals` cannot be rewritten, and the repository's
`filterwarnings = error` would turn that warning into exit 1, the status a
caught mutant gives; so the children ignore that one warning class.

    python tests/mutant_runner.py < rows.json
"""

import json
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

import hypothesis  # noqa: F401  imported once, for every child
import mpmath  # noqa: F401
import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CHILD_TIMEOUT_S = 120
WORKERS = 2  # children at a time


class Failures:
    """Pytest plugin that keeps the node ids of failed reports."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def start(node_ids, mutant=None):
    """Fork a child that runs the node ids on a fresh copy of src/, mutated
    by mutant = (module, old, new) when given; (pid, its directory), or
    (None, why) when the old text does not occur exactly once."""
    tmp = Path(tempfile.mkdtemp())
    src = tmp / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        module, old, new = mutant
        path = src / "repgrowth" / module
        text = path.read_text()
        if text.count(old) != 1:
            shutil.rmtree(tmp)
            return None, "old text not found exactly once"
        path.write_text(text.replace(old, new))
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        _child(src, node_ids, stop_first=mutant is not None)
    return pid, tmp


def finish(tmp, status):
    """(exit status, output, failed node ids) of a child that has ended."""
    failed = tmp / "failed.json"
    ids = json.loads(failed.read_text()) if failed.exists() else []
    output = (tmp / "output.txt").read_text()
    shutil.rmtree(tmp)
    return os.waitstatus_to_exitcode(status), output, ids


def _child(src, node_ids, stop_first):
    status = 3
    try:
        fd = os.open(src.parent / "output.txt",
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        signal.alarm(CHILD_TIMEOUT_S)
        os.chdir(src.parent)
        os.environ["PYTHONPATH"] = str(src)
        sys.path.insert(0, str(src))
        plugin = Failures()
        status = pytest.main(
            ["-q", *(["-x"] if stop_first else []), "-p", "no:cacheprovider",
             "--hypothesis-seed=0",
             "-W", "ignore::pytest.PytestAssertRewriteWarning",
             *(str(TESTS / node) for node in node_ids)], plugins=[plugin])
        (src.parent / "failed.json").write_text(json.dumps(plugin.ids))
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(int(status))


def main():
    rows = json.load(sys.stdin)
    control = list(dict.fromkeys(node for *_, nodes in rows for node in nodes))
    # the control first: it is the longest job
    jobs = [(None, control, None)] + [
        (name, nodes, (module, old, new))
        for name, module, old, new, nodes in rows]
    result, running = {}, {}

    def wait_one():
        pid, status = os.wait()
        name, tmp = running.pop(pid)
        result[name] = finish(tmp, status)

    with tempfile.TemporaryDirectory() as cache:
        sys.pycache_prefix, sys.dont_write_bytecode = cache, False
        for name, nodes, mutant in jobs:
            if len(running) == WORKERS:
                wait_one()
            pid, where = start(nodes, mutant)
            if pid is None:
                result[name] = (None, where, [])
            else:
                running[pid] = (name, where)
        while running:
            wait_one()
    print(json.dumps({"rows": {name: result[name][:2] for name, *_ in rows},
                      "control": result[None]}))


if __name__ == "__main__":
    main()
