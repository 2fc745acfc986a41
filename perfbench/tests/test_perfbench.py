"""Tests of the benchmark itself: its checks, its tracer and its contract.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def pkg():
    return run.Package()


def _first(ops, kind):
    return next(op for op in ops if op.kind.startswith(kind))


# -- checks -----------------------------------------------------------------

def _wrong_premet(out):
    return out + 1


def _wrong_chain_list(out):
    return out[:-1]


def _wrong_witness(out):
    mu, chain = out
    return (mu[0] + 1,) + tuple(mu[1:]), chain


def _answer_instead_of_refusal(out):
    return ((0,), None)


def _unknown_verdict(out):
    return dataclasses.replace(out, verdict="unknown")


def _failed_check(out):
    code, text, err = out
    return code, text.replace('"verdict": "pass"', '"verdict": "fail"', 1), err


def _wrong_twist(out):
    code, text, err = out
    payload = json.loads(text)
    payload["image"] = payload["partition"][::-1] + [1]
    return code, json.dumps(payload), err


WRONG = (
    ("saturated", "premet_lower", _wrong_premet),
    ("saturated", "saturated_dominant_set", _wrong_chain_list),
    ("witness", "good.produced", _wrong_witness),
    ("witness", "incr.refused", _answer_instead_of_refusal),
    ("certify", "contains.zeta", _unknown_verdict),
    ("certify", "f4_vs_power", _unknown_verdict),
    ("cli", "verify.json", _failed_check),
    ("cli", "mullineux.json", _wrong_twist),
)


@pytest.mark.parametrize("workload,kind,corrupt", WRONG,
                         ids=[f"{w}-{k}" for w, k, _ in WRONG])
def test_wrong_answer_fails_check(pkg, workload, kind, corrupt):
    op = _first(workloads.build(workload, SEED, pkg), kind)
    try:
        out = op.call()
    except Exception as exc:
        out = exc
    assert op.check(out) is True
    assert op.check(corrupt(out)) is False
    assert op.check(RuntimeError("unexpected")) is False


def test_wrong_answers_count_in_a_pass(pkg):
    """A package that answers wrongly shows up in the failure count."""
    ops = [op for op in workloads.build("saturated", SEED, pkg)
           if op.kind.startswith("premet_lower")][:20]
    real = pkg.bounds.premet_lower
    pkg.bounds.premet_lower = lambda datum, w, p: real(datum, w, p) + 1
    try:
        _, failed = run.run_pass(ops)
    finally:
        pkg.bounds.premet_lower = real
    assert failed == len(ops)
    assert run.run_pass(ops)[1] == 0


def test_passes_are_large_and_seeded(pkg):
    for workload in workloads.WORKLOADS:
        kinds = [op.kind for op in workloads.build(workload, SEED, pkg)]
        assert len(kinds) >= 1000
        assert kinds == [op.kind for op in
                         workloads.build(workload, SEED, pkg)]
        assert kinds != [op.kind for op in
                         workloads.build(workload, SEED + 1, pkg)]


# -- tracer -----------------------------------------------------------------

def test_tracer_restores_every_binding(pkg):
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("repgrowth")}
    engines = dict(pkg.cli._SINGLE_ENGINES)
    method = pkg.rootdata.RootDatum.root_combination
    tracer = tracing.Tracer()
    tracer.install()
    assert pkg.dominance.sub is pkg.rootdata.sub is not before[
        "repgrowth.rootdata"]["sub"]
    assert pkg.cli._SINGLE_ENGINES["good"][0] is pkg.witness.good_witness
    tracer.uninstall()
    assert pkg.cli._SINGLE_ENGINES == engines
    assert pkg.rootdata.RootDatum.root_combination is method
    for name, names in before.items():
        for key, value in names.items():
            assert vars(sys.modules[name])[key] is value, (name, key)


def test_missing_names_are_reported_not_fatal(pkg):
    targets = tuple(
        (name, module, "RootDatum.renamed" if name ==
         "rootdata.root_combination" else attr, mode, opts)
        for name, module, attr, mode, opts in tracing.TARGETS)
    targets += (("bounds.gone", "bounds", "no_such_function",
                 tracing.SPAN, {}),)
    ops = [op for op in workloads.build("witness", SEED, pkg)][:100]
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        _, failed = run.run_pass(ops, tracer=tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert tracer.missing == {"rootdata.root_combination", "bounds.gone"}
    values = tracing.layer_values([tracer])
    assert values["rootdata.root_combination.calls"] is None
    assert values["rootdata.root_combination.self_s"] is None
    assert values["dominance.verify.calls"] > 0


def _traced_counts(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls", "_ratio", ".evaluations",
                              ".unknown", ".per_witness"))
            or ".decided_at." in name}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced_counts(workload), _traced_counts(workload)
    assert first == second
    assert any(first.values())


# -- contract ---------------------------------------------------------------

def test_benchmark_json_names_the_metrics_it_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [(name, unit, better)
             for name, unit, better, *_ in tracing.LAYER_METRICS]
    layer.append(("trace.overhead_s", "s", "lower"))
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mib"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
