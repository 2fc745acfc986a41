"""The mutation table: each row breaks one line of `src/` on purpose and
names the tests that must catch it.

A row is (name, module, exact old text, new text, node ids).  One helper
process, `mutant_runner.py`, runs the whole table: for each row it copies
`src/` to a temporary directory, checks that the old text occurs exactly
once there (so a row breaks loudly when the code it mutates moves),
applies the mutant and runs the named node ids against the copy in a
forked child, Hypothesis seeded so each run draws the same examples.  They
must fail: exit status 1, which pytest gives for failed tests and not for
a collection error or an unknown node id.  A control run of every row's
node ids on an unmutated copy, in the same environment, must pass: so a
row is not caught by a failure that has nothing to do with its mutant."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.mutants

TESTS = Path(__file__).resolve().parent

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
     ["test_intervals.py::test_exact_rounds_fixed_examples_each_end_once"]),
    ("exact-int-rounding-swapped", "intervals.py",
     "(from_int(q, iv.prec, round_floor),\n"
     "                            from_int(q, iv.prec, round_ceiling))",
     "(from_int(q, iv.prec, round_ceiling),\n"
     "                            from_int(q, iv.prec, round_floor))",
     ["test_intervals.py::test_exact_rounds_fixed_ints_each_end_once"]),
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
     "scale * abs(bern[terms]) * num", "0",
     ["test_intervals.py::test_tail_equals_the_fraction_sum_on_the_ladder"]),
    ("tail-upper-end-floored", "intervals.py",
     "-(-(td + rd << K) // d)", "(td + rd << K) // d",
     ["test_intervals.py::"
      "test_zeta_iv_reads_out_the_integers_of_the_fraction_tail[11/10-16]"]),
    ("zeta-order-back-to-p-over-13", "intervals.py",
     "return prec // 5, prec // 7", "return prec // 5, prec // 13 + 2",
     ["test_intervals.py::test_zeta_iv_is_as_narrow_as_its_rung"]),
    ("tangent-step-off-by-one", "intervals.py",
     "(j - k + 2) * t[j]", "(j - k + 1) * t[j]",
     ["test_intervals.py::"
      "test_bernoulli_numbers_match_mpmath_to_the_ladders_order"]),
    ("contains-start-rung-loosened", "intervals.py",
     "width * 2 ** (bits + 1) <= top",
     "width * 2 ** (bits - 1) <= top",
     ["test_intervals.py::test_contains_starts_at_the_band_rung"]),
    ("primality-base-dropped", "partitions.py",
     "19, 23, 29, 31, 37, 41)", "19, 23, 29, 31, 37)",
     ["test_bounds.py::test_is_prime_exposes_the_strong_pseudoprimes"]),
    ("fixed-power-never-exact", "intervals.py",
     "return lo, lo + (lo ** b * den != num)", "return lo, lo + 1",
     ["test_intervals.py::test_power_is_a_point_exactly_when_it_is_dyadic"]),
    ("signature-never-cancels", "partitions.py",
     "if minus:", "if False:",
     ["test_mullineux.py::test_library_matches_ladder_route_exhaustive[3]"]),
    ("twist-rebuild-unnegated", "partitions.py",
     "_signature(neg, -i % p, p)", "_signature(neg, i % p, p)",
     ["test_mullineux.py::test_library_matches_ladder_route_exhaustive[3]"]),
    ("twist-shortcut-at-p-equals-n", "partitions.py",
     "x < p or", "x <= p or",
     ["test_mullineux.py::test_core_test_matches_hook_lengths"]),
    ("core-bead-slides-p-minus-one", "partitions.py",
     "x - p in beta", "x - p + 1 in beta",
     ["test_mullineux.py::test_core_test_matches_hook_lengths"]),
    ("regular-check-admits-repeats", "partitions.py",
     "if p and (part := _first_repeat(lam, p)) is not None:",
     "if p and (part := None) is not None:",
     ["test_mullineux.py::test_twist_entry_errors_pinned"]),
    ("seed-hit-replays-nothing", "partitions.py",
     "neg = [-a for a in start] + [0]",
     "neg, path = [-a for a in start] + [0], []",
     ["test_mullineux.py::"
      "test_twist_levels_match_the_plain_twist_and_the_ladder[3]"]),
    ("seed-from-another-prime", "partitions.py",
     "seed.update(level)",
     "seed.update((lam, _twist(lam, p + 2)) for lam in level)",
     ["test_mullineux.py::"
      "test_twist_levels_match_the_plain_twist_and_the_ladder[3]"]),
    ("run-multiplicity-one", "witness.py",
     "kvec[t - 1] += times", "kvec[t - 1] += 1",
     ["test_witness.py::test_middle_pins"]),
    ("pentagonal-sign-positive", "partitions.py",
     "else -1", "else 1",
     ["test_partitions.py::test_partition_count_matches_brute"]),
    ("regular-run-admits-p", "partitions.py",
     "else 1) != p:", "else 1) != p + 1:",
     ["test_partitions.py::test_regular_partitions_match_brute"]),
    ("k-table-skips-a-part", "partitions.py",
     "range(w, cap + 1)", "range(w + 1, cap + 1)",
     ["test_partitions.py::test_k_sum_exact_matches_brute"]),
    ("hook-length-off-by-one", "partitions.py",
     "- i - j + 1", "- i - j + 2",
     ["test_partitions.py::test_hook_length_matches_brute"]),
    ("conjugate-strict", "partitions.py",
     "lam[i - 1] < j", "lam[i - 1] <= j",
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
     ["test_rootdata.py::test_root_combination_matches_simple_roots[A-3]"]),
    ("verify-catches-only-asserts", "cli.py",
     "except Exception as e:", "except AssertionError as e:",
     ["test_checks.py::test_verify_reports_a_raising_check_as_failed"]),
    ("name-table-wrong-layer", "__init__.py",
     '"dominance": ("HypothesisError", "WitnessChain"),',
     '"dominance": ("HypothesisError", "WitnessChain", "premet_lower"),',
     ["test_package.py::test_each_public_name_is_its_layers_own_object"]),
    ("package-imports-bounds", "__init__.py",
     "from importlib import import_module\n",
     "from importlib import import_module\nfrom . import bounds\n",
     ["test_package.py::"
      "test_combinatorial_layers_import_without_the_interval_stack"]),
    ("cli-imports-bounds", "cli.py",
     "from functools import cache\n",
     "from functools import cache\n\nfrom . import bounds\n",
     ["test_package.py::"
      "test_the_parser_help_and_usage_errors_load_no_layer"]),
    ("partitions-imports-bounds", "partitions.py",
     "    return q\n",
     "    return q\n\n\nfrom . import bounds  # noqa: E402, F401\n",
     ["test_package.py::"
      "test_combinatorial_layers_import_without_the_interval_stack"]),
    ("cli-family-literal-drops-G", "cli.py",
     '"F", "G")', '"F")',
     ["test_cli.py::test_parser_literals_are_their_layers_values"]),
    ("rebuild-step-reversed", "dominance.py",
     "step[parent - w]", "step[parent - w][::-1]",
     ["test_dominance.py::"
      "test_dominance_witness_matches_brute_search[B-2-lam2]"]),
    ("block-probe-reads-f-at-i", "checks.py",
     "certify_less(side(0, j), side(1, i),",
     "certify_less(side(0, i), side(1, i),",
     ["test_checks.py::"
      "test_a_monotone_claim_failing_inside_a_block_is_reported"]),
    ("key-check-always-passes", "checks.py",
     "if key[0] <= 0 or any(map(operator.gt, prev, key)):", "if False:",
     ["test_checks.py::test_a_base_that_dips_falls_back_and_reports_the_dip"]),
    ("side-memo-per-call", "checks.py",
     "    @cache\n    def side(", "    def side(",
     ["test_checks.py::"
      "test_monotone_sweeps_make_an_eighth_of_the_evaluations"]),
    ("block-probe-reads-the-end-twice", "checks.py",
     "rung and cert(j, i, rung)", "rung and cert(j, j, rung)",
     ["test_checks.py::"
      "test_a_monotone_claim_failing_inside_a_block_is_reported"]),
    ("block-end-left-uncertified", "checks.py",
     "if end.verdict == TRUE:", "if True:",
     ["test_checks.py::test_check_reports_fail[a-041-power]"]),
    ("ratio-memo-ignores-precision", "intervals.py",
     "if iv.prec not in values:\n"
     "            values[iv.prec] = fn()\n"
     "        return values[iv.prec]",
     "if 0 not in values:\n"
     "            values[0] = fn()\n"
     "        return values[0]",
     ["test_bounds.py::test_ratio_holds_matches_the_two_log_oracle",
      "test_intervals.py::test_contains_evaluates_once_per_rung",
      "test_intervals.py::test_per_precision_evaluates_once_per_precision"]),
    ("a5-step-of-reversed-delta", "witness.py",
     "datum.root_combination(delta))", "datum.root_combination(delta[::-1]))",
     ["test_witness.py::test_a5_family_canonical_input"]),
    ("unit-scan-starts-at-j", "witness.py",
     "i = j - 1", "i = j",
     ["test_witness.py::test_incr_pins"]),
    ("general-exponent-literal", "bounds.py",
     "power(n, A_EXPONENT), bits)", "power(n, Fraction(7, 2)), bits)",
     ["test_bounds.py::"
      "test_type_a_values_match_1500_bit_references[a-general]"]),
    ("general-guard-decimal-literal", "bounds.py",
     'f"n^{float(A_EXPONENT)}; rank', '"n^3.5; rank',
     ["test_bounds.py::"
      "test_type_a_values_match_1500_bit_references[a-general]"]),
    ("sublinear-floor-literal", "bounds.py",
     "if n >= SUBLINEAR_FROM:", "if n >= 1502:",
     ["test_partitions.py::test_sym_sublinear_from_1503"]),
)


@pytest.fixture(scope="module")
def table(request):
    """The helper's result for the rows selected in this session."""
    chosen = {item.callspec.params["name"] for item in request.session.items
              if item.originalname == "test_mutant_is_caught"}
    rows = [row for row in MUTANTS if row[0] in chosen] or list(MUTANTS)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(TESTS / "mutant_runner.py")],
                          input=json.dumps(rows), capture_output=True,
                          text=True, env=env, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    return rows, json.loads(done.stdout)


@pytest.mark.parametrize("name,module,old,new,node_ids", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_mutant_is_caught(name, module, old, new, node_ids, table):
    status, output = table[1]["rows"][name]
    assert status == 1, f"{name}: exit {status}, not 1\n{output}"


def test_every_row_passes_on_the_unmutated_copy(table):
    rows, result = table
    status, output, failed = result["control"]
    named = [name for name, *_, nodes in rows
             if any(f == f"tests/{node}" or f.startswith(f"tests/{node}[")
                    for node in nodes for f in failed)]
    assert status == 0, (f"control exit {status}; rows whose nodes fail "
                         f"unmutated: {named}\n{output}")
