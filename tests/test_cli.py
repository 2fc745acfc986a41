"""End-to-end command line checks, run in process (one also runs each
request in a fresh process and compares)."""

import argparse
import csv
import io
import json
import os
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repgrowth
from repgrowth.bounds import partition_bound, sym_rn_bound
from repgrowth.cli import BOUND_RANK_MAX, N_DIGITS_MAX, main, record


def parse_csv(text: str) -> list[dict]:
    """Round-trip parser for the CSV output format."""
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if None in row or any(v is None for v in row.values()):
            raise ValueError("ragged row in csv input")
    return rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _never_build_datum(monkeypatch):
    """Make building a root datum fail the test: a refusal must come first."""
    from repgrowth import rootdata

    def refuse(family, rank):
        raise AssertionError(f"root datum {family}{rank} built")
    monkeypatch.setattr(rootdata, "root_datum", refuse)


# --- bound -------------------------------------------------------------------

def test_bound_trivial_one(capsys):
    code, out, _ = run(capsys, "bound", "--family", "B", "--rank", "3",
                       "--n", "1", "--p", "5")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "trivial-one"
    assert data["value"] == {"kind": "exact", "value": 1}
    assert data["valid"] is True


def test_bound_family_square(capsys):
    code, out, _ = run(capsys, "bound", "--family", "C", "--rank", "2",
                       "--n", "3", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "family-pow-2"
    assert data["value"] == {"kind": "exact", "value": 9}
    assert "threshold n >= 4" in data["guard_detail"]
    assert "not met" in data["guard_detail"]


def test_bound_interval_tags_precision(capsys):
    code, out, _ = run(capsys, "bound", "--family", "E", "--rank", "6",
                       "--n", "30", "--p", "7", "--prec", "64")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "family-pow-5/2"
    value = data["value"]
    assert value["kind"] == "interval"
    assert value["prec_bits"] == 64
    assert float(value["lo"]) <= float(value["hi"])


def test_bound_precision_clamped(capsys):
    code, out, _ = run(capsys, "bound", "--family", "E", "--rank", "6",
                       "--n", "30", "--p", "7", "--prec", "999999")
    assert code == 0
    assert json.loads(out)["value"]["prec_bits"] == 1024
    code, out, _ = run(capsys, "bound", "--family", "E", "--rank", "6",
                       "--n", "30", "--p", "7", "--prec", "1")
    assert json.loads(out)["value"]["prec_bits"] == 16


def test_bound_csv_roundtrip(capsys):
    code, out, _ = run(capsys, "bound", "--family", "C", "--rank", "2",
                       "--n", "3", "--p", "3", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["name"] == "family-pow-2"
    assert rows[0]["value_kind"] == "exact"
    assert rows[0]["value"] == "9"


def test_bound_rejects_composite_characteristic(capsys):
    code, _, err = run(capsys, "bound", "--family", "A", "--rank", "3",
                       "--n", "10", "--p", "6")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "hypothesis"
    assert "prime" in error["message"]


# A root-datum error is a ValueError, and reaches the command line as an
# input error.
@pytest.mark.parametrize("argv,message", [
    (("bound", "--family", "E", "--rank", "5", "--n", "5", "--p", "5"),
     "unsupported root datum E5"),
    (("enumerate", "--family", "E", "--rank", "5", "--p", "2", "--n-max",
      "3"), "unsupported root datum E5"),
    (("witness", "incr", "--rank", "3", "--weight", "1,1", "--m", "1"),
     "weight (1, 1) is not an integer 3-tuple"),
], ids=["bound", "enumerate", "witness"])
def test_root_datum_errors_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"type": "input", "message": message}}


def test_bound_large_rank_prints_d1_by_symbol(capsys):
    # d1(14500) has 4,364 digits, past Python's default limit for str(int).
    code, out, _ = run(capsys, "bound", "--family", "A", "--rank", "14500",
                       "--n", "50", "--p", "5")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "a-general"
    assert "(d1 = C(14501, 7250), 4364 digits)" in data["guard_detail"]


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("family,rank", (("C", "2"), ("G", "2"), ("F", "4")))
def test_bound_prints_the_exact_square_at_the_n_budget(capsys, family, rank,
                                                       fmt):
    n = 10 ** N_DIGITS_MAX
    code, out, err = run(capsys, "bound", "--family", family, "--rank", rank,
                         "--n", str(n), "--p", "3", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["value"] == {"kind": "exact", "value": n * n}
    else:
        row, = parse_csv(out)
        assert (row["value_kind"], row["value"]) == ("exact", str(n * n))


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("n", (str(10 ** N_DIGITS_MAX + 1), "9" * 2200),
                         ids=("one-over", "2200-nines"))
def test_bound_refuses_n_over_the_budget(capsys, monkeypatch, n, fmt):
    from repgrowth import bounds

    def refuse(*args, **kw):
        raise AssertionError("a bound was computed")
    monkeypatch.setattr(bounds, "rn_upper", refuse)
    code, out, err = run(capsys, "bound", "--family", "C", "--rank", "2",
                         "--n", n, "--p", "3", "--format", fmt)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": f"--n is over the budget of 10^{N_DIGITS_MAX}"}


def test_n_help_states_the_budget(capsys):
    with pytest.raises(SystemExit):
        main(["bound", "--help"])
    assert f"at most 10^{N_DIGITS_MAX}" in capsys.readouterr().out


@pytest.mark.parametrize("family", ("A", "B"))
@pytest.mark.parametrize("rank", (str(BOUND_RANK_MAX + 1), "3000000"))
def test_bound_refuses_ranks_over_the_budget(capsys, monkeypatch, family,
                                             rank):
    from repgrowth import bounds

    def refuse(*args, **kw):
        raise AssertionError("a bound was computed")
    monkeypatch.setattr(bounds, "rn_upper", refuse)
    code, out, err = run(capsys, "bound", "--family", family, "--rank", rank,
                         "--n", "50", "--p", "5")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": f"rank {rank} is over the bound budget of rank "
                   f"{BOUND_RANK_MAX}"}


def test_bound_runs_at_the_rank_budget(capsys):
    code, out, _ = run(capsys, "bound", "--family", "A", "--rank",
                       str(BOUND_RANK_MAX), "--n", "50", "--p", "5")
    assert code == 0
    assert json.loads(out)["name"] == "a-general"


def test_rank_help_states_the_budget(capsys):
    with pytest.raises(SystemExit):
        main(["bound", "--help"])
    assert f"at most {BOUND_RANK_MAX}" in capsys.readouterr().out


# --- witness ------------------------------------------------------------------

def test_witness_good(capsys):
    code, out, _ = run(capsys, "witness", "good", "--rank", "5",
                       "--weight", "1,2,3,2,1")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == [3, 1, 1, 1, 3]
    assert data["verified"] is True
    assert any("every coefficient positive: True" in line
               for line in data["transcript"])


def test_witness_incr(capsys):
    code, out, _ = run(capsys, "witness", "incr", "--rank", "3",
                       "--weight", "3,1,0", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == [1, 2, 0]
    assert any("bracket: 5 -> 5" in line for line in data["transcript"])


_ENGINE_PINS = [
    ("incr", 3, 1, [3, 1, 0], [1, 2, 0], [1, 0, 0],
     ["engine incr on weight [3, 1, 0] with m = 1",
      "chain: witness = input - (1*a1); re-verified: True",
      "bracket: 5 -> 5"]),
    ("middle", 5, 2, [0, 1, 5, 1, 0], [1, 2, 1, 2, 1], [0, 1, 3, 1, 0],
     ["engine middle on weight [0, 1, 5, 1, 0] with m = 2",
      "chain: witness = input - (1*a2 + 3*a3 + 1*a4); re-verified: True",
      "bracket: 19 -> 13"]),
    ("m-good", 6, 1, [9, 0, 0, 0, 0, 9], [0, 1, 2, 1, 1, 3],
     [6, 3, 1, 1, 2, 4],
     ["engine m-good on weight [9, 0, 0, 0, 0, 9] with m = 1",
      "chain: witness = input - (6*a1 + 3*a2 + 1*a3 + 1*a4 + 2*a5 "
      "+ 4*a6); re-verified: True",
      "bracket: 18 -> 16"]),
    ("middle2", 5, None, [4, 0, 0, 0, 1], [1, 0, 1, 0, 1], [2, 1, 0, 0, 0],
     ["engine middle2 on weight [4, 0, 0, 0, 1]",
      "chain: witness = input - (2*a1 + 1*a2); re-verified: True",
      "bracket: 5 -> 5",
      "witness has a positive centre coefficient: True"]),
    ("middle2", 5, None, [1, 0, 0, 0, 4], [1, 0, 1, 0, 1], [0, 0, 0, 1, 2],
     ["engine middle2 on weight [1, 0, 0, 0, 4]",
      "chain: witness = input - (1*a4 + 2*a5); re-verified: True",
      "bracket: 5 -> 5",
      "witness has a positive centre coefficient: True"]),
    ("good", 5, None, [1, 2, 3, 2, 1], [3, 1, 1, 1, 3], [0, 2, 3, 2, 0],
     ["engine good on weight [1, 2, 3, 2, 1]",
      "chain: witness = input - (2*a2 + 3*a3 + 2*a4); re-verified: True",
      "bracket: 19 -> 13",
      "witness has every coefficient positive: True"]),
]


@pytest.mark.parametrize("engine,rank,m,w,mu,coeffs,transcript", _ENGINE_PINS)
def test_witness_engine_json_pinned(capsys, engine, rank, m, w, mu, coeffs,
                                    transcript):
    argv = ["witness", engine, "--rank", str(rank),
            "--weight", ",".join(map(str, w))]
    if m is not None:
        argv += ["--m", str(m)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {
        "engine": engine, "rank": rank, "m": m, "input": w, "witness": mu,
        "root_coeffs": coeffs, "verified": True, "transcript": transcript}


# JSON of reports that carry an interval and an exact certificate, captured
# when certificates were still formatted as they were built.
_REPORT_PINS = (
    (lambda: partition_bound(20),
     '{"name": "partition-envelope", "inputs": {"n": "20"}, "value": '
     '{"kind": "interval", "lo": "95939.6300594213504434919", "hi": '
     '"95939.6300594213504434919", "prec_bits": 256}, "valid": true, '
     '"guard_detail": "exact p(20) = 627 compared against the envelope", '
     '"certificates": [{"verdict": "true", "prec_bits": 64, "lhs": '
     '"[627.0, 627.0]", "rhs": "[95939.630059421350281923, '
     '95939.630059421350537718]"}]}'),
    (lambda: sym_rn_bound(13, 64, 5, "cover"),
     '{"name": "cover-class-count", "inputs": {"r": "13", "n": "64", "p": '
     '"5", "group": "cover"}, "value": {"kind": "exact", "value": 404}, '
     '"valid": true, "guard_detail": "n >= 2^((r-3)/2) = 32: the class '
     'count 4*p(r); certificate compares squares against n^5", '
     '"certificates": [{"verdict": "true", "prec_bits": 0, "lhs": "163216", '
     '"rhs": "1073741824"}]}'),
)


@pytest.mark.parametrize("make,text", _REPORT_PINS,
                         ids=["interval", "exact"])
def test_report_record_keeps_certificate_text(make, text):
    assert json.dumps(record(make())) == text


def test_witness_hypothesis_failure(capsys):
    code, _, err = run(capsys, "witness", "incr", "--rank", "3",
                       "--weight", "1,1,1", "--m", "1")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "hypothesis"
    assert "Σ i·a_i > m" in error["message"]


def test_witness_m_flag_rules(capsys):
    code, _, err = run(capsys, "witness", "middle2", "--rank", "4",
                       "--weight", "2,0,0,1", "--m", "1")
    assert code == 1
    assert "takes no --m" in json.loads(err)["error"]["message"]
    code, _, err = run(capsys, "witness", "incr", "--rank", "3",
                       "--weight", "3,1,0")
    assert code == 1
    assert "--m" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("flags,message", [
    (("--rank", "4"), "engine a5 is fixed at rank 5"),
    (("--m", "1"), "engine a5 takes no --m"),
], ids=["rank", "m"])
def test_witness_a5_flag_rules(capsys, flags, message):
    code, out, err = run(capsys, "witness", "a5", *flags,
                         "--weight", "0,0,25,0,0")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "hypothesis",
                                        "message": message}


def test_witness_a5(capsys):
    code, out, _ = run(capsys, "witness", "a5", "--weight", "0,0,25,0,0")
    assert code == 0
    data = json.loads(out)
    assert data["members"] == 243
    assert data["orbit_total"] == 174960
    assert data["all_verified"] is True


@pytest.mark.parametrize("rank", ["301", "1000000000000000000000"])
def test_witness_refuses_ranks_over_the_budget(capsys, monkeypatch, rank):
    from repgrowth.cli import WITNESS_RANK_MAX

    assert WITNESS_RANK_MAX == 300
    _never_build_datum(monkeypatch)
    code, out, err = run(capsys, "witness", "good", "--rank", rank,
                         "--weight", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": f"rank {rank} is over the witness budget of rank 300"}


def test_witness_runs_at_the_rank_budget(capsys):
    code, out, _ = run(capsys, "witness", "middle2", "--rank", "300",
                       "--weight", ",".join(["1"] * 300))
    assert code == 0
    assert json.loads(out)["witness"] == [1] * 300


def test_witness_weight_parse_error(capsys):
    code, _, err = run(capsys, "witness", "good", "--rank", "3",
                       "--weight", "1,x,3")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "hypothesis"


@pytest.mark.parametrize("argv", [
    ("witness", "good", "--rank", "3", "--weight", "1,,2,1"),
    ("witness", "good", "--rank", "3", "--weight", "1,2,1,"),
    ("witness", "incr", "--rank", "3", "--m", "1", "--weight", ",1,2,1"),
    ("mullineux", "--p", "5", "--partition", "3,,1"),
    ("mullineux", "--p", "5", "--partition", "3, ,1"),
    ("mullineux", "--p", "5", "--partition", ","),
])
def test_empty_entries_rejected(capsys, argv):
    """An empty entry between commas is an error, not a dropped entry."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    flag, text = argv[-2:]
    assert json.loads(err)["error"] == {
        "type": "hypothesis",
        "message": f"{flag} must be comma-separated integers, got {text!r}"}


@pytest.mark.parametrize("blank", ["", "   "])
def test_mullineux_blank_partition_is_empty(capsys, blank):
    code, out, _ = run(capsys, "mullineux", "--p", "5", "--partition", blank)
    assert code == 0
    data = json.loads(out)
    assert data["image"] == []
    assert data["m_p"] == 0


# --- enumerate ------------------------------------------------------------------

def test_enumerate_rank_one_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--rank", "1",
                       "--p", "7", "--n-max", "7")
    assert code == 0
    data = json.loads(out)
    assert [row["count"] for row in data["rows"]] == [2, 2, 4, 4, 6, 6, 7]
    assert all(row["bound"]["kind"] for row in data["rows"])
    assert data["overflow"] == 0


def test_enumerate_empty_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--rank", "1",
                       "--p", "7", "--n-max", "0", "--format", "csv")
    assert code == 0
    assert out.strip() == ""
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--rank", "1",
                       "--p", "7", "--n-max", "0")
    assert json.loads(out)["rows"] == []


def test_enumerate_premet_route(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--rank", "2",
                       "--p", "3", "--n-max", "8", "--bound", "premet")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == "premet"
    counts = [row["count"] for row in data["rows"]]
    assert counts == sorted(counts)


@pytest.mark.parametrize("p", ["-3", "0", "1", "4"])
def test_enumerate_requires_prime(capsys, p):
    code, out, err = run(capsys, "enumerate", "--family", "A", "--rank", "1",
                         "--p", p, "--n-max", "3")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "hypothesis",
        "message": "enumeration needs a prime characteristic; the restricted "
                   "coefficient box is finite only then"}


@pytest.mark.parametrize("bound,family,rank,p,box", [
    ("nlambda", "A", "1000000000000000000000", "5", "5^1000000000000000000000"),
    ("nlambda", "A", "19", "2", "2^19"),
    ("nlambda", "A", "1", "1000000000000000003", "1000000000000000003^1"),
    ("premet", "G", "2", "23", "23^2"),
    ("premet", "E", "1000000", "7", "7^1000000"),
])
def test_enumerate_refuses_boxes_over_the_budget(capsys, monkeypatch, bound,
                                                 family, rank, p, box):
    from repgrowth.cli import BOX_MAX

    _never_build_datum(monkeypatch)
    code, out, err = run(capsys, "enumerate", "--family", family, "--rank",
                         rank, "--p", p, "--n-max", "3", "--bound", bound)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": f"box of {box} restricted weights is over the {bound} "
                   f"budget of {BOX_MAX[bound]} weights"}


def test_enumerate_walks_a_premet_box_at_the_budget(capsys):
    from repgrowth.cli import BOX_MAX

    assert BOX_MAX["premet"] >= 499
    code, out, _ = run(capsys, "enumerate", "--family", "A", "--rank", "1",
                       "--p", "499", "--n-max", "2", "--bound", "premet")
    assert code == 0
    assert [row["count"] for row in json.loads(out)["rows"]] == [1, 2]


def test_enumerate_checks_the_characteristic_before_the_datum(capsys,
                                                             monkeypatch):
    _never_build_datum(monkeypatch)
    code, _, err = run(capsys, "enumerate", "--family", "A", "--rank",
                       "1000000000000000000000", "--p", "1", "--n-max", "3")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "hypothesis"


def test_enumerate_refuses_rows_over_the_budget(capsys, monkeypatch):
    from repgrowth import bounds, cli

    def refuse(*args, **kw):
        raise AssertionError("a row was bounded")
    _never_build_datum(monkeypatch)
    monkeypatch.setattr(bounds, "rn_upper", refuse)
    assert cli.ROWS_MAX >= 30
    code, out, err = run(capsys, "enumerate", "--family", "A", "--rank", "1",
                         "--p", "3", "--n-max", str(cli.ROWS_MAX + 1))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "input", "message": f"--n-max {cli.ROWS_MAX + 1} is over "
                                    f"the budget of {cli.ROWS_MAX} rows"}


# --- a large prime characteristic ----------------------------------------------

@pytest.mark.parametrize("argv", [
    ("bound", "--family", "A", "--rank", "1", "--n", "5"),
    ("mullineux", "--partition", "1"),
], ids=("bound", "mullineux"))
def test_a_large_prime_characteristic_answers_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv, "--p", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv", [
    ("bound", "--family", "A", "--rank", "1", "--n", "5"),
    ("mullineux", "--partition", "1"),
], ids=("bound", "mullineux"))
def test_a_characteristic_past_the_primality_ceiling_is_refused(capsys, argv):
    from repgrowth.partitions import PRIME_CEILING

    code, out, err = run(capsys, *argv, "--p", str(PRIME_CEILING))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": f"primality is decided only below {PRIME_CEILING}"}


@pytest.mark.parametrize("command", ("bound", "enumerate", "mullineux"))
def test_p_help_states_the_primality_ceiling(capsys, command):
    from repgrowth.partitions import PRIME_CEILING

    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"below {PRIME_CEILING}" in " ".join(capsys.readouterr().out.split())


# --- mullineux --------------------------------------------------------------------

def test_mullineux_basic(capsys):
    code, out, _ = run(capsys, "mullineux", "--p", "3", "--partition", "2,1")
    assert code == 0
    data = json.loads(out)
    assert data["image"] == [3]
    assert data["involution_check"] == "ok"
    assert data["m_p"] == 3


def test_mullineux_zero_characteristic(capsys):
    code, out, _ = run(capsys, "mullineux", "--p", "0", "--partition", "3,2")
    assert code == 0
    data = json.loads(out)
    assert data["image"] == [2, 2, 1]
    assert "conjugation" in data["note"]


def test_mullineux_self_check_failure_is_a_json_error(capsys, monkeypatch):
    from repgrowth import partitions

    monkeypatch.setattr(partitions, "mullineux", lambda lam, p: (sum(lam),))
    code, out, err = run(capsys, "mullineux", "--p", "5", "--partition",
                         "3,1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "self-check",
        "message": "twist applied twice did not return the input"}


def test_mullineux_rejects_irregular(capsys):
    code, _, err = run(capsys, "mullineux", "--p", "3", "--partition", "2,2,2")
    assert code == 1
    assert "part 2 repeats 3 times (p = 3)" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("partition", ["1000000000", "9999,2"])
def test_mullineux_refuses_partitions_over_the_budget(capsys, partition):
    from repgrowth.cli import TWIST_CELLS_MAX

    cells = sum(map(int, partition.split(",")))
    code, out, err = run(capsys, "mullineux", "--p", "5", "--partition",
                         partition)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "input",
        "message": f"partition of {cells} cells is over the twist budget "
                   f"of {TWIST_CELLS_MAX} cells"}


def test_mullineux_twists_a_row_at_the_budget(capsys):
    code, out, _ = run(capsys, "mullineux", "--p", "5", "--partition",
                       "10000")
    assert code == 0
    assert json.loads(out)["image"] == [2500] * 4


@pytest.mark.parametrize("p,partition,m", [
    (5, "5,4,2,2,1", 5), (3, "2,1", 3), (0, "3,2", 3), (2, "4,1", 4),
    (7, "", 0),
])
def test_mullineux_twists_twice_per_request(capsys, monkeypatch, p,
                                            partition, m):
    from repgrowth import partitions

    calls = []
    twist = partitions.mullineux

    def counted(lam, p):
        calls.append(lam)
        return twist(lam, p)

    monkeypatch.setattr(partitions, "mullineux", counted)
    code, out, _ = run(capsys, "mullineux", "--p", str(p),
                       "--partition", partition)
    assert code == 0
    assert json.loads(out)["m_p"] == m
    assert len(calls) == 2


# --- verify ------------------------------------------------------------------------

def test_verify_char2_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "char2")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["fail"] == 0
    assert data["summary"]["unknown"] == 0
    assert data["summary"]["external-assumption"] >= 1
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for check in data["checks"]:
        if check["id"].split("-")[1].startswith("9"):
            assert check["verdict"] == "external-assumption"


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "char2", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert all(row["verdict"] in
               ("pass", "fail", "unknown", "external-assumption")
               for row in rows)
    assert any(row["verdict"] == "pass" for row in rows)


# --- argparse plumbing ---------------------------------------------------------------

def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--family", "A", "--rank", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["witness", "unknown-engine", "--weight", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_built_once_and_answers_as_a_fresh_process(capsys,
                                                          monkeypatch):
    from repgrowth import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "repgrowth":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at this width
    cli._parser_tree.cache_clear()
    # What one caller sets on its parser must not reach the next call.
    cli.build_parser().parse_args = None
    src = str(Path(repgrowth.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["bound", "--family", "A", "--rank", "3"],
                 ["bound", "--family", "A", "--rank", "7", "--n", "100",
                  "--p", "5"],
                 ["mullineux", "--p", "5", "--partition", "5,4,2,2,1"],
                 ["bound", "--family", "B", "--rank", "3", "--n", "40",
                  "--p", "7", "--format", "csv"],
                 ["mullineux", "--p", "3", "--partition", "2,1",
                  "--format", "csv"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        # bytes, so the CSV \r\n line ends reach the comparison as written
        fresh = subprocess.run([sys.executable, "-m", "repgrowth", *argv],
                               capture_output=True, env=env, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout.decode(),
                                    fresh.stderr.decode())
    assert len(built) == 1


def test_parser_literals_are_their_layers_values():
    from repgrowth import (checks, cli, dominance, intervals, partitions,
                           rootdata, witness)

    def accepts(family, rank):
        try:
            rootdata.root_datum(family, rank)
        except rootdata.RootDataError:
            return False
        return True

    assert cli.FAMILIES == tuple(f for f in string.ascii_uppercase
                                 if any(accepts(f, r) for r in range(1, 9)))
    assert cli.SUITE_NAMES == tuple(checks.SUITES)
    assert cli.ENGINE_NAMES == tuple(witness.ENGINES)
    assert cli.DEFAULT_REPORT_BITS == intervals.DEFAULT_REPORT_BITS
    assert cli.DEFAULT_CEILING_BITS == intervals.DEFAULT_CEILING_BITS
    assert cli.DEFAULT_CAP == dominance.DEFAULT_CAP
    assert cli.PRIME_CEILING == partitions.PRIME_CEILING


def test_engine_table_is_the_witness_layers_own():
    from repgrowth import cli, witness

    assert cli._SINGLE_ENGINES is witness.ENGINES
    assert "_SINGLE_ENGINES" not in vars(cli)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


@pytest.mark.parametrize("argv", [
    ["mullineux", "--p", "3", "--partition", "2,1", "--cap", "5"],
    ["bound", "--family", "A", "--rank", "2", "--n", "3", "--p", "3",
     "--scale", "extended"],
])
def test_flags_a_subcommand_does_not_read_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- flag limits and exit codes ---------------------------------------------------

def test_enumerate_rejects_negative_rows(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "A", "--rank", "2",
                         "--p", "5", "--n-max", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "hypothesis",
                                        "message": "--n-max must be >= 0"}


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_enumerate_rejects_cap_below_one(capsys, cap):
    code, out, err = run(capsys, "enumerate", "--family", "A", "--rank", "2",
                         "--p", "5", "--n-max", "3", "--bound", "premet",
                         "--cap", cap)
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "input"
    assert "--cap must be >= 1" in error["message"]


def test_verify_undecided_exits_three(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "typeA", "--prec", "16")
    assert code == 3
    data = json.loads(out)
    assert data["prec_bits"] == 16
    assert data["exit_code"] == 3
    undecided = [c for c in data["checks"] if c["verdict"] == "unknown"]
    assert [c["id"] for c in undecided] == ["a-061"]
    assert undecided[0]["detail"].endswith("(16 bits)")
    assert data["summary"]["fail"] == 0


def test_verify_prec_is_a_ceiling_below_the_start(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--prec", "24")
    assert code == 0
    data = json.loads(out)
    assert data["prec_bits"] == 24
    details = " ".join(c["detail"] for c in data["checks"])
    assert "(24 bits)" in details
    assert "64 bits" not in details
