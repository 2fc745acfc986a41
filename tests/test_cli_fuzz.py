"""Random small argv through ``main``: every run ends in a documented way.

Exit 0 on success, 1 with exactly one JSON error object on stderr, 2 only
from argparse's usage error, 3 for an undecided ``verify`` check.  Nothing
else may escape ``main``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repgrowth.cli import main

FAMILIES = st.sampled_from("ABCDEFG")
# mostly valid values, with the invalid ones near them mixed in
RANKS = st.integers(1, 4) | st.just(0)
PRIMES = st.sampled_from((2, 3, 5, 7)) | st.integers(0, 7)
TOKENS = st.one_of(st.integers(-1, 9).map(str),
                   st.sampled_from(["x", "", " ", "1.5", "2e3", "--"]))


def int_list(size=None):
    """Comma-joined small integers, now and then with malformed tokens."""
    clean = (st.lists(st.integers(0, 6).map(str), min_size=size,
                      max_size=size) if size is not None
             else st.lists(st.integers(1, 6).map(str), max_size=6))
    return st.one_of(clean, st.lists(TOKENS, max_size=6)).map(",".join)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ("bound", "witness", "enumerate", "verify", "mullineux")))
    if command == "bound":
        argv = ["--family", draw(FAMILIES), "--rank", str(draw(RANKS)),
                "--n", str(draw(st.integers(-1, 10 ** 6))),
                "--p", str(draw(PRIMES)),
                "--prec", str(draw(st.integers(0, 2048)))]
    elif command == "witness":
        engine = draw(st.sampled_from(
            ("incr", "middle", "m-good", "middle2", "good", "a5")))
        rank = draw(st.none() | RANKS)
        argv = [engine, "--weight", draw(int_list(rank))]
        if rank is not None:
            argv += ["--rank", str(rank)]
        m = draw(st.none() | st.integers(-1, 3))
        if m is not None:
            argv += ["--m", str(m)]
    elif command == "enumerate":
        rank = draw(RANKS)
        premet = rank <= 2 and draw(st.booleans())
        argv = ["--family", draw(FAMILIES), "--rank", str(rank),
                "--p", str(draw(PRIMES)),
                "--n-max", str(draw(st.integers(-1, 10))),
                "--bound", "premet" if premet else "nlambda"]
        cap = draw(st.none() | st.integers(-2, 50))
        if cap is not None:
            argv += ["--cap", str(cap)]
    elif command == "verify":
        argv = ["--suite", draw(st.sampled_from(
                    ("typeA", "char2", "nonA", "partitions", "symmetric",
                     "all"))),
                "--prec", str(draw(st.integers(0, 128)))]
    else:
        argv = ["--p", str(draw(PRIMES)), "--partition", draw(int_list())]
    return [command, *argv, "--format", draw(st.sampled_from(("json",
                                                              "csv")))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["mullineux", "--p", "5", "--partition", "1000000000"])
@example(["enumerate", "--family", "A", "--rank", "10" * 12, "--p", "7",
          "--n-max", "3"])
@example(["enumerate", "--family", "G", "--rank", "2", "--p", "23",
          "--n-max", "3", "--bound", "premet"])
@example(["enumerate", "--family", "D", "--rank", "10" * 12, "--p", "0",
          "--n-max", "3"])
@example(["witness", "good", "--rank", "10" * 12, "--weight", "1"])
@example(["witness", "incr", "--rank", "301", "--m", "1", "--weight", "1"])
@example(["bound", "--family", "C", "--rank", "2", "--n", "9" * 2200, "--p",
          "3", "--format", "csv"])
def test_main_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert "usage:" in err.getvalue()
            return
    assert code in (0, 1, 3), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        error = json.loads(lines[0])["error"]
        assert set(error) == {"type", "message"}
    else:
        assert err.getvalue() == ""
