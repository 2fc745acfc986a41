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

pytestmark = pytest.mark.mutants

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

MUTANTS = (
    ("lazy-text-at-ambient-precision", "intervals.py",
     "return mpi_str(x._mpi_, bits) if bits else str(x)",
     "return mpi_str(x._mpi_, iv.prec) if bits else str(x)",
     ["test_intervals.py::"
      "test_certify_cmp_formats_only_the_deciding_evaluation"]),
    ("equality-by-identity", "intervals.py",
     "@dataclass(frozen=True)", "@dataclass(frozen=True, eq=False)",
     ["test_intervals.py::"
      "test_certificates_differing_in_an_enclosure_compare_unequal"]),
    ("equality-ignores-enclosures", "intervals.py",
     "ends: tuple",
     'ends: tuple = __import__("dataclasses").field(compare=False)',
     ["test_intervals.py::"
      "test_certificates_differing_in_an_enclosure_compare_unequal"]),
    ("exact-rounding-swapped", "intervals.py",
     "(from_rational(n, d, iv.prec, round_floor),\n"
     "                        from_rational(n, d, iv.prec, round_ceiling))",
     "(from_rational(n, d, iv.prec, round_ceiling),\n"
     "                        from_rational(n, d, iv.prec, round_floor))",
     ["test_intervals.py::test_exact_rounds_each_end_once"]),
    ("window-admits-zero", "witness.py",
     "if m is not None and not 1 <= m <= k:",
     "if m is not None and not 0 <= m <= k:",
     ["test_witness.py::test_window_parameter_bounds"]),
    ("f4-least-argument-one", "bounds.py",
     '"f4": ("m", 0,', '"f4": ("m", 1,',
     ["test_bounds.py::test_f4_at_zero_is_two"]),
    ("cover-test-strict", "dominance.py",
     "if (high - need) & guard == guard:",
     "if (high - need) & guard:",
     ["test_dominance.py::test_saturation_cap_boundary[A-2-lam0-7]"]),
    ("width-drops-ht-theta", "dominance.py",
     "sum(positive_roots(datum)[-1][0]) * sum(lam)", "sum(lam)",
     ["test_dominance.py::test_saturated_walk_matches_full_walk[G-2-5]"]),
    ("width-drops-guard-bit", "dominance.py",
     ".bit_length() + 1", ".bit_length()",
     ["test_dominance.py::test_saturated_walk_matches_full_walk[A-1-4]"]),
    ("tail-remainder-zero", "intervals.py",
     "return total, Fraction(abs(last.numerator) * num, "
     "last.denominator * den)",
     "return total, Fraction(0)",
     ["test_intervals.py::test_tail_equals_the_fraction_sum_on_the_ladder"]),
    ("contains-start-rung-loosened", "intervals.py",
     "width * 2 ** (bits + 1) <= top",
     "width * 2 ** (bits - 1) <= top",
     ["test_intervals.py::test_contains_starts_at_the_band_rung"]),
    ("primality-base-dropped", "bounds.py",
     "19, 23, 29, 31, 37, 41)", "19, 23, 29, 31, 37)",
     ["test_bounds.py::test_is_prime_exposes_the_strong_pseudoprimes"]),
    ("fixed-power-never-exact", "intervals.py",
     "return lo, lo + (lo ** b * den != num)", "return lo, lo + 1",
     ["test_intervals.py::test_power_is_a_point_exactly_when_it_is_dyadic"]),
    ("signature-never-cancels", "partitions.py",
     "if minus:", "if False:",
     ["test_mullineux.py::test_library_matches_ladder_route_exhaustive"]),
    ("twist-rebuild-unnegated", "partitions.py",
     "_signature(neg, -i % p, p)", "_signature(neg, i % p, p)",
     ["test_mullineux.py::test_library_matches_ladder_route_exhaustive"]),
    ("twist-shortcut-at-p-equals-n", "partitions.py",
     "p > sum(lam)", "p >= sum(lam)",
     ["test_mullineux.py::test_library_matches_ladder_route_exhaustive"]),
    ("run-multiplicity-one", "witness.py",
     "kvec[t - 1] += times", "kvec[t - 1] += 1",
     ["test_witness.py::test_middle_pins"]),
    ("pentagonal-sign-positive", "partitions.py",
     "else -1", "else 1",
     ["test_partitions.py::test_partition_count_matches_brute"]),
    ("regular-run-admits-p", "partitions.py",
     "new_run >= p", "new_run > p",
     ["test_partitions.py::test_regular_partitions_match_brute"]),
    ("k-table-skips-a-part", "partitions.py",
     "range(w, cap + 1)", "range(w + 1, cap + 1)",
     ["test_partitions.py::test_k_sum_exact_matches_brute"]),
    ("hook-length-off-by-one", "partitions.py",
     "- i - j + 1", "- i - j + 2",
     ["test_partitions.py::test_hook_length_matches_brute"]),
    ("conjugate-strict", "partitions.py",
     "a >= j", "a > j",
     ["test_partitions.py::test_conjugate_matches_brute"]),
    ("parabolic-height-shifted", "dominance.py",
     "height + 1", "height + 2",
     ["test_dominance.py::test_orbit_length_matches_brute_orbit"]),
    ("b-bond-reversed", "rootdata.py",
     "path[-1] = (rank - 2, rank - 1, 2)",
     "path[-1] = (rank - 1, rank - 2, 2)",
     ["test_rootdata.py::test_rows_match_oracle_cartan"]),
    ("f1-lead-ninths", "bounds.py",
     "(r + 1) ** 4, 8)", "(r + 1) ** 4, 9)",
     ["test_intervals.py::test_envelopes_enclose_the_reference"]),
    ("centre-feed-one-slot", "witness.py",
     "a[k:len(a) - k]", "a[k:k + 1]",
     ["test_witness.py::test_good_pins"]),
    ("majorant-sums-one-short", "partitions.py",
     "upto[cap - a]", "upto[cap - a - 1]",
     ["test_partitions.py::test_k_sum_majorant_pin"]),
    ("stars-and-bars-gap", "checks.py",
     "b - a - 1", "b - a",
     ["test_golden.py::test_golden[verify-all-desk-json]"]),
    ("need-floor-one", "rootdata.py",
     "max(a, 0)", "max(a, 1)",
     ["test_rootdata.py::test_positive_roots_need_is_exact"]),
    ("parabolic-ignores-zeros", "dominance.py",
     "z or k == 0", "k == 0",
     ["test_dominance.py::test_weyl_order_pins"]),
    ("stabilizer-zero-pattern", "dominance.py",
     "tuple(c == 0 for c in w)", "tuple(c <= 1 for c in w)",
     ["test_dominance.py::test_saturated_walk_matches_full_walk[G-2-5]"]),
    ("witness-reads-wrong-member", "dominance.py",
     "if nu == mu), None)", "if nu != mu), None)",
     ["test_dominance.py::test_dominance_witness_adjoint_a2"]),
    ("root-combination-drops-entry", "rootdata.py",
     "total += c * coeffs[j]", "total += coeffs[j]",
     ["test_rootdata.py::test_root_combination_matches_dense_product[A-3]"]),
    ("verify-catches-only-asserts", "cli.py",
     "except Exception as e:", "except AssertionError as e:",
     ["test_checks.py::test_verify_reports_a_raising_check_as_failed"]),
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
