"""The package root and its command module: what importing them and running
a command costs, and what the root's names are."""

import csv
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repgrowth

# The layer that defines each public name, written out here so that a
# wrong row in the package's own table shows.
LAYER_OF = {"BoundReport": "bounds", "n_lambda": "bounds",
            "premet_lower": "bounds", "rn_upper": "bounds",
            "HypothesisError": "dominance", "WitnessChain": "dominance",
            "Certificate": "intervals", "certify_less": "intervals",
            "RootDatum": "rootdata", "root_datum": "rootdata"}
LAYERS = ("bounds", "dominance", "intervals", "rootdata")


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter on this checkout's src/, run with args."""
    src = str(Path(repgrowth.__file__).parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))


def test_combinatorial_layers_import_without_the_interval_stack():
    # dataclasses would bring inspect, ast, dis and tokenize; modules that
    # the interpreter (or a site .pth) loaded before the imports are not
    # the layers' doing
    code = """
import sys
before = set(sys.modules)
import repgrowth, repgrowth.rootdata, repgrowth.dominance, repgrowth.witness
import repgrowth.partitions
print(sorted(m for m in ("mpmath", "repgrowth.bounds", "repgrowth.intervals",
                         "repgrowth.checks", "dataclasses", "inspect")
             if m in sys.modules and m not in before))
"""
    for flags in ((), ("-S",)):
        done = _fresh(*flags, "-c", code)
        assert (flags, done.returncode, done.stderr, done.stdout) == (
            flags, 0, "", "[]\n")


def test_the_parser_help_and_usage_errors_load_no_layer():
    done = _fresh("-c", """
import contextlib, io, sys
from repgrowth import cli
cli.build_parser()
for argv in (["--help"], ["bound", "--help"], ["verify"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
print(sorted(m for m in sys.modules if m == "mpmath"
             or m.startswith("repgrowth.") and m != "repgrowth.cli"))
""")
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


@pytest.mark.parametrize("argv,header,layer,unused", [
    (("witness", "good", "--rank", "3", "--weight", "2,2,2"),
     "engine,rank,m,input,witness,", "repgrowth.witness",
     {"repgrowth.partitions"}),
    (("mullineux", "--p", "3", "--partition", "5,3,1"),
     "p,partition,image,", "repgrowth.partitions", set()),
], ids=("witness", "mullineux"))
def test_a_witness_command_loads_no_certification_layer(argv, header, layer,
                                                        unused):
    # -X importtime names on stderr each module the run imports
    done = _fresh("-X", "importtime", "-m", "repgrowth", *argv,
                  "--format", "csv")
    assert done.returncode == 0
    assert done.stdout.startswith(header)
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"repgrowth.cli", layer} <= loaded
    assert loaded.isdisjoint({"mpmath", "repgrowth.bounds",
                              "repgrowth.intervals", "repgrowth.checks",
                              *unused})


def test_partition_bound_is_the_bounds_layers_own():
    from repgrowth import bounds, partitions

    assert partitions.partition_bound is bounds.partition_bound
    assert "partition_bound" not in vars(partitions)
    with pytest.raises(AttributeError, match="no_such_name"):
        partitions.no_such_name


def test_each_public_name_is_its_layers_own_object():
    assert repgrowth.__all__ == sorted(LAYER_OF)
    listed = dir(repgrowth)
    for name, layer in LAYER_OF.items():
        module = importlib.import_module(f"repgrowth.{layer}")
        served = getattr(repgrowth, name)
        assert served is vars(module)[name]
        assert served.__module__ == module.__name__
        assert name in listed
    for layer in LAYERS:
        assert getattr(repgrowth, layer) is sys.modules[f"repgrowth.{layer}"]
        assert layer in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        repgrowth.no_such_name


def test_a_name_rebound_in_its_layer_is_served_at_once(monkeypatch):
    from repgrowth import bounds

    def stand_in():
        pass

    monkeypatch.setattr(bounds, "premet_lower", stand_in)
    assert repgrowth.premet_lower is stand_in
    monkeypatch.undo()
    assert repgrowth.premet_lower is bounds.premet_lower
    assert "premet_lower" not in vars(repgrowth)


def test_python_dash_m_runs_the_cli():
    done = _fresh("-m", "repgrowth", "mullineux", "--p", "3",
                  "--partition", "5,3,1", "--format", "csv")
    assert (done.returncode, done.stderr) == (0, "")
    [row] = csv.DictReader(io.StringIO(done.stdout))
    assert (row["partition"], row["image"]) == ("5,3,1", "3,2,2,1,1")
