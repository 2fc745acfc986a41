"""Independent brute-force oracles.

Everything here recomputes a quantity from first principles with a
different algorithm than the package uses, so agreement is evidence and
not an echo.  Oracles favor clarity over speed; keep inputs small.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

import mpmath
from mpmath import iv

from repgrowth.dominance import HypothesisError
from repgrowth.intervals import Certificate, certify_less, exact


# ---------------------------------------------------------------------------
# Partitions.

def brute_partitions(n: int, largest: int | None = None):
    """All partitions of n, parts bounded by largest, descending parts."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in brute_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _brute_count(m: int, cap: int) -> int:
    # partitions of m with parts at most cap, by their first part
    if m == 0:
        return 1
    return sum(_brute_count(m - first, first)
               for first in range(min(m, cap), 0, -1))


def brute_partition_count(n: int) -> int:
    # intermediate counts by (remaining, cap) recursion, no pentagonal step
    return _brute_count(n, n)


def brute_regular(n: int, p: int):
    """p-regular partitions of n by filtering the full list."""
    for lam in brute_partitions(n):
        if p == 0:
            yield lam
            continue
        if all(lam.count(v) < p for v in set(lam)):
            yield lam


def brute_conjugate(lam) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= c)
                 for c in range(1, lam[0] + 1))


def brute_weights_up_to(rank: int, total: int):
    """Coefficient tuples of length rank with sum at most total, in
    lexicographic order, one prefix extension at a time."""
    def rec(prefix: list[int], remaining: int):
        if len(prefix) == rank:
            yield tuple(prefix)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + [a], remaining - a)
    yield from rec([], total)


# ---------------------------------------------------------------------------
# Weighted tuple counts.

def _tuple_weights(r: int) -> list[int]:
    return [min(i, r + 1 - i) for i in range(1, r + 1)]


def brute_k_count(r: int, s: int) -> int:
    """Tuples in N^r with weighted coordinate sum exactly s, by direct
    enumeration over the coordinate box."""
    weights = _tuple_weights(r)
    ranges = [range(s // w + 1) for w in weights]
    return sum(1 for xs in product(*ranges)
               if sum(w * x for w, x in zip(weights, xs)) == s)


def brute_k_majorant(cap: int) -> int:
    """The rank-independent majorant as the double sum
    sum_{s<=cap} sum_a p(a)p(s-a), one convolution term at a time."""
    p = [brute_partition_count(n) for n in range(cap + 1)]
    return sum(p[a] * p[s - a] for s in range(cap + 1) for a in range(s + 1))


def brute_k_total(r: int, cap: int) -> int:
    """Tuples with weighted sum at most cap, by budgeted recursion
    (no table reuse)."""
    weights = _tuple_weights(r)

    def rec(i: int, budget: int) -> int:
        if i == len(weights):
            return 1
        w = weights[i]
        return sum(rec(i + 1, budget - w * x)
                   for x in range(budget // w + 1))

    return rec(0, cap)


def brute_g_count(r: int, d) -> int:
    """Tuples in N^r with prod (x_i + 1) <= d, by direct enumeration."""
    top = int(d)

    def rec(i: int, room) -> int:
        if i == r:
            return 1
        total = 0
        x = 0
        while (x + 1) <= room:
            total += rec(i + 1, room // (x + 1))
            x += 1
        return total

    return rec(0, top if top >= 1 else 0)


# ---------------------------------------------------------------------------
# Product-tuple counting.  No package code calls it, so it lives here; an
# N_sat count by tuples (ROADMAP) would give it a caller again.

class BudgetError(RuntimeError):
    """Enumeration exceeded its configured budget."""


def harmonic(d) -> tuple[Fraction, Certificate | None]:
    """Exact truncated harmonic sum h(d); for d >= 2 also a certificate
    that h(d) < 1 + log d."""
    d = Fraction(d)
    if d < 1:
        raise HypothesisError("harmonic sum needs d >= 1")
    top = int(d)
    value = sum((Fraction(1, k) for k in range(1, top + 1)), Fraction(0))
    cert = None
    if d >= 2:
        cert = certify_less(lambda: exact(value),
                            lambda: 1 + iv.log(exact(d)))
    return value, cert


def g_count(r: int, d, budget: int = 10 ** 7) -> tuple[int, Fraction, bool]:
    """Number of r-tuples of positive integers with product <= d, plus the
    exact envelope d*h(d)^(r-1) and whether the count stays below it."""
    if r < 1:
        raise HypothesisError("tuple length must be >= 1")
    d = Fraction(d)
    if d < 1:
        raise HypothesisError("product cap must be >= 1")
    memo: dict[tuple[int, int], int] = {}
    steps = 0

    def rec(rr: int, top: int) -> int:
        nonlocal steps
        if rr == 1:
            return top
        key = (rr, top)
        if key in memo:
            return memo[key]
        acc = 0
        j = 1
        while j <= top:
            q = top // j
            j_last = top // q
            steps += 1
            if steps > budget:
                raise BudgetError(f"tuple count exceeded budget {budget}")
            acc += (j_last - j + 1) * rec(rr - 1, q)
            j = j_last + 1
        memo[key] = acc
        return acc

    count = rec(r, int(d))
    hval, _ = harmonic(d)
    envelope = d * hval ** (r - 1)
    return count, envelope, count <= envelope


# ---------------------------------------------------------------------------
# The Cartan matrix from root lengths, and reflections straight from it.

def _dynkin(family: str, rank: int) -> tuple[list[set[int]], list[int]]:
    """Bourbaki's Dynkin diagram as neighbour sets of the nodes 1..rank
    (index 0 unused) and the squared length of each simple root, long
    roots at 2 (at 6 in G2), with index 0 unused too."""
    links = [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        links = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    elif family == "E":
        links = ([(1, 3), (3, 4), (2, 4)]
                 + [(i, i + 1) for i in range(4, rank)])
    neighbours = [set() for _ in range(rank + 1)]
    for i, j in links:
        neighbours[i].add(j)
        neighbours[j].add(i)
    lengths = {"B": [2] * (rank - 1) + [1],
               "C": [1] * (rank - 1) + [2],
               "F": [2, 2, 1, 1],
               "G": [2, 6]}.get(family, [2] * rank)
    return neighbours, [0] + lengths


@lru_cache(maxsize=None)
def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Dense Cartan matrix, entry [t][j] = <alpha_{j+1}, alpha_{t+1}^vee>
    = 2(alpha_{j+1}, alpha_{t+1}) / (alpha_{t+1}, alpha_{t+1}): column j
    holds alpha_{j+1} in fundamental-weight coordinates.  Joined simple
    roots meet at the obtuse angle with (alpha, beta) = -max(|alpha|^2,
    |beta|^2) / 2, so the longer root's length over the shorter one's is
    the bond multiplicity."""
    neighbours, length = _dynkin(family, rank)

    def entry(t: int, j: int) -> int:
        if t == j:
            return 2
        if j not in neighbours[t]:
            return 0
        q = Fraction(-max(length[t], length[j]), length[t])
        assert q.denominator == 1
        return int(q)

    return tuple(tuple(entry(t, j) for j in range(1, rank + 1))
                 for t in range(1, rank + 1))


def brute_orbit(datum, w) -> set[tuple[int, ...]]:
    """Full reflection orbit by closure under the simple reflections."""
    cartan = cartan_matrix(datum.family, datum.rank)
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        u = frontier.pop()
        for j in range(datum.rank):
            v = tuple(u[i] - u[j] * cartan[i][j]
                      for i in range(datum.rank))
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def dense_root_combination(datum, coeffs) -> tuple[int, ...]:
    """sum_j coeffs[j]*alpha_{j+1} in weight coordinates, as the product
    with the whole Cartan matrix of `cartan_matrix`, zero entries
    included."""
    cartan = cartan_matrix(datum.family, datum.rank)
    r = datum.rank
    assert len(coeffs) == r
    return tuple(sum(cartan[t][j] * coeffs[j] for j in range(r))
                 for t in range(r))


def brute_dominants_below(datum, lam, box: int = 24) -> list[tuple[int, ...]]:
    """Dominant weights mu with lam - mu a nonnegative root combination,
    by searching the coefficient box.  Asserts the box was large enough."""
    lam = tuple(lam)
    r = datum.rank
    found = []
    for cs in product(range(box + 1), repeat=r):
        drop = dense_root_combination(datum, cs)
        mu = tuple(lam[i] - drop[i] for i in range(r))
        if all(c >= 0 for c in mu):
            assert all(c < box for c in cs), "enlarge the search box"
            found.append(mu)
    return found


def simple_root_coefficients(datum, w) -> tuple[Fraction, ...]:
    """w in the simple-root basis, by Gauss-Jordan elimination over the
    dense Cartan matrix.  For dominant mu <= w these bound the
    coefficients of w - mu, as those of mu are nonnegative."""
    r = datum.rank
    rows = [[Fraction(x) for x in row] + [Fraction(y)]
            for row, y in zip(cartan_matrix(datum.family, r), w)]
    for col in range(r):
        piv = next(i for i in range(col, r) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(r):
            if i != col and rows[i][col]:
                rows[i] = [x - rows[i][col] * y
                           for x, y in zip(rows[i], rows[col])]
    return tuple(row[-1] for row in rows)


def brute_saturated_total(datum, lam, box: int = 24) -> int:
    """Size of the saturated hull: orbits of every dominant weight below."""
    return sum(len(brute_orbit(datum, mu))
               for mu in brute_dominants_below(datum, lam, box=box))


def brute_saturated_walk(datum, lam):
    """Every weight of the saturated set of lam, Weyl images included.

    Walks each simple-root string downward from every visited weight; by
    the string property this reaches the whole set, each weight once.
    Each weight carries the simple-root coefficients of lam minus it.
    Returns the dominant members with their coefficients, sorted
    descending, and the size of the whole set.
    """
    cartan = cartan_matrix(datum.family, datum.rank)
    lam = tuple(lam)
    r = datum.rank
    coeffs_of = {lam: (0,) * r}
    queue = deque([lam])
    while queue:
        w = queue.popleft()
        for i in range(r):
            v, coeffs = w, coeffs_of[w]
            for _ in range(w[i]):
                v = tuple(v[t] - cartan[t][i] for t in range(r))
                coeffs = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1:]
                if v not in coeffs_of:
                    coeffs_of[v] = coeffs
                    queue.append(v)
    dominants = sorted(((w, c) for w, c in coeffs_of.items()
                        if all(x >= 0 for x in w)), reverse=True)
    return dominants, len(coeffs_of)


# ---------------------------------------------------------------------------
# Riemann zeta term by term.

def divided_exact(q):
    """q enclosed as an interval division of its outward-rounded numerator
    and denominator, as `intervals.exact` enclosed a Fraction before it
    rounded each endpoint once."""
    q = Fraction(q)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _iv_power(base, expo):
    return iv.exp(divided_exact(expo) * iv.log(divided_exact(base)))


def direct_zeta_iv(s):
    """zeta(s) for rational s > 1 at the working interval precision: an exp
    and a log for every n <= M in the Dirichlet sum, and every
    Euler-Maclaurin correction enclosed on its own, the first omitted one
    bounding the remainder.  Same M and J as `intervals.zeta_iv`."""
    s = Fraction(s)
    prec = iv.prec
    sv = divided_exact(s)
    M = max(16, prec // 8)
    total = iv.mpf(0)
    for n in range(1, M + 1):
        total += _iv_power(n, -s)
    logM = iv.log(iv.mpf(M))
    total += iv.exp((1 - sv) * logM) / (sv - 1)
    total -= iv.exp(-sv * logM) / 2
    J = prec // 13 + 2
    rise = sv
    for j in range(1, J + 2):
        coef = (divided_exact(Fraction(*mpmath.bernfrac(2 * j)))
                / iv.mpf(factorial(2 * j)))
        term = coef * rise * iv.exp((1 - sv - 2 * j) * logM)
        if j <= J:
            total += term
        else:
            bound = max(abs(term.a), abs(term.b))
            total += iv.mpf(bound) * iv.mpf((-1, 1))
        rise = rise * (sv + (2 * j - 1)) * (sv + 2 * j)
    return total


def fraction_euler_maclaurin_tail(s, m: int, terms: int):
    """`intervals._euler_maclaurin_tail` as a running Fraction sum, one
    reduction per correction: the exact (T, R) it must return."""
    s = Fraction(s)
    a, b = s.numerator, s.denominator
    total = 1 / (s - 1) - Fraction(1, 2 * m)
    # s(s+1)...(s+2j-2) / ((2j)! m^2j) as num/den, here at j = 1
    num, den = a, 2 * m * m * b
    for j in range(1, terms + 2):
        term = Fraction(*mpmath.bernfrac(2 * j)) * Fraction(num, den)
        if j > terms:
            return total, abs(term)
        total += term
        num *= (a + (2 * j - 1) * b) * (a + 2 * j * b)
        den *= (2 * j + 1) * (2 * j + 2) * m * m * b * b


# ---------------------------------------------------------------------------
# The exponential envelopes as plain high-precision floats.

ENVELOPE_BITS = 1500


def envelope_reference(name: str, arg: int):
    """f1..f4 of `bounds.f_interval`, or exp(pi sqrt(2n/3)) for name
    "partition", from their formulas as an mpf at 1500 bits."""
    with mpmath.workprec(ENVELOPE_BITS):
        x = mpmath.mpf(arg)
        if name == "partition":
            return mpmath.exp(mpmath.pi * mpmath.sqrt(2 * x / 3))
        if name == "f1":
            lead, inner = (x + 1) ** 4 / 8, x * x / 6 + x / 3 - 0.5
        elif name == "f2" and arg % 2:
            lead = ((x * x + 11) / 6 + x) ** 2 / 2
            inner = (x * x - 1) / 18 + x / 3
        elif name == "f2":
            lead = (x * x / 6 + 2 * x) ** 2 / 2
            inner = x * x / 18 + (2 * x - 2) / 3
        elif name == "f3":
            lead, inner = 8 * x * x, (4 * x - 2) / 3
        else:
            assert name == "f4", name
            lead, inner = 2 * (x + 1) ** 2, 2 * x / 3
        return lead * mpmath.exp(2 * mpmath.pi * mpmath.sqrt(inner))


# ---------------------------------------------------------------------------
# Certified sweeps and the ratio inequality, one plain certificate at a time.

def pointwise_sweep(var: str, points, step, ok, bits: int, scale: str):
    """`checks.sweep` with no blocks and no shared evaluations: lhs(x) <
    rhs(x) on its own ladder at each point in order; (verdict, detail) of
    the first that is not certified, else the pass text with the highest
    precision used.  Takes a sweep row's args, then the run's bits and
    scale."""
    lhs, rhs, _ = step
    top = 0
    for x in points(scale) if callable(points) else points:
        cert = certify_less(lambda: lhs(x), lambda: rhs(x),
                            ceiling_bits=bits)
        if not cert.certified:
            verdict = "fail" if cert.verdict == "false" else "unknown"
            return verdict, (f"{var} = {x}: lhs = {cert.lhs}, rhs = "
                             f"{cert.rhs} ({cert.prec_bits} bits)")
        top = max(top, cert.prec_bits)
    text = ok(scale) if callable(ok) else ok
    return "pass", f"{text} (up to {top} bits)"


def ratio_two_logs(r: int, n: int, ceiling_bits: int) -> Certificate:
    """5(r+1) loglog n < 9 log n with each side taking its own log n."""
    return certify_less(
        lambda: iv.mpf(5 * (r + 1)) * iv.log(iv.log(iv.mpf(n))),
        lambda: iv.mpf(9) * iv.log(iv.mpf(n)), ceiling_bits=ceiling_bits)


# ---------------------------------------------------------------------------
# Standard tableaux by corner recursion (no hook products).

@lru_cache(maxsize=None)
def brute_syt_count(lam: tuple[int, ...]) -> int:
    if sum(lam) <= 1:
        return 1
    total = 0
    for i in range(len(lam)):
        if lam[i] >= 1 and (i + 1 == len(lam) or lam[i + 1] < lam[i]):
            smaller = tuple(part - (1 if j == i else 0)
                            for j, part in enumerate(lam))
            smaller = tuple(part for part in smaller if part > 0)
            total += brute_syt_count(smaller)
    return total


def brute_is_core(lam: tuple[int, ...], p: int) -> bool:
    """lam is a p-core: no cell of its diagram has a hook length divisible
    by p, each hook counted cell by cell (no beta-numbers)."""
    cells = {(r, c) for r, part in enumerate(lam) for c in range(part)}
    for r, c in cells:
        arm = sum(1 for cc in range(c + 1, lam[r]) if (r, cc) in cells)
        leg = sum(1 for rr in range(r + 1, len(lam)) if (rr, c) in cells)
        if (arm + leg + 1) % p == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# The ladder route to the sign twist: crystal operators on partitions.
#
# Residue of cell (row, col), both 1-based, is (col - row) mod p.  For a
# residue i, the signature lists addable cells as "+" and removable cells
# as "-", ordered by row; opposite adjacent signs cancel; the remove
# operator acts on the first surviving "-", the add operator on the last
# surviving "+".  The node order and the cancelling pattern are fixed by
# LADDER_CONVENTION, the convention the library's good-cell twist uses:
# exactly one of the four candidate conventions reproduces the library on
# all regular partitions of size at most 8 for p in {3, 5}, and the library
# itself is checked against the rim route below (see test_mullineux).

LADDER_CONVENTIONS = tuple((order, cancel)
                           for order in ("rowasc", "rowdesc")
                           for cancel in ("+-", "-+"))

LADDER_CONVENTION = ("rowdesc", "-+")


def _addable_cells(lam, i: int, p: int) -> list[tuple[int, int]]:
    out = []
    for row in range(1, len(lam) + 2):
        col = (lam[row - 1] if row <= len(lam) else 0) + 1
        if row > 1 and col > lam[row - 2]:
            continue
        if (col - row) % p == i:
            out.append((row, col))
    return out


def _removable_cells(lam, i: int, p: int) -> list[tuple[int, int]]:
    out = []
    for row in range(1, len(lam) + 1):
        col = lam[row - 1]
        if row < len(lam) and lam[row] == col:
            continue
        if col >= 1 and (col - row) % p == i:
            out.append((row, col))
    return out


def _signature(lam, i: int, p: int, conv) -> list[tuple[str, tuple[int, int]]]:
    order, _ = conv
    nodes = [("+", rc) for rc in _addable_cells(lam, i, p)]
    nodes += [("-", rc) for rc in _removable_cells(lam, i, p)]
    # same-residue addable and removable cells never share a row
    nodes.sort(key=lambda t: t[1][0], reverse=(order == "rowdesc"))
    return nodes


def _reduce(nodes, conv):
    _, cancel = conv
    first, second = cancel[0], cancel[1]
    out: list[tuple[str, tuple[int, int]]] = []
    for node in nodes:
        if out and out[-1][0] == first and node[0] == second:
            out.pop()
        else:
            out.append(node)
    return out


def _apply_at(lam, cell: tuple[int, int], delta: int) -> tuple[int, ...]:
    row = cell[0]
    parts = list(lam) + ([0] if row == len(lam) + 1 else [])
    parts[row - 1] += delta
    result = tuple(part for part in parts if part > 0)
    assert all(result[i] >= result[i + 1] for i in range(len(result) - 1))
    return result


def ladder_remove(lam, i: int, p: int, conv=LADDER_CONVENTION):
    """Remove the good cell of residue i, or return None if none survives."""
    survivors = _reduce(_signature(lam, i, p, conv), conv)
    minus = [node for node in survivors if node[0] == "-"]
    if not minus:
        return None
    return _apply_at(lam, minus[0][1], -1)


def ladder_add(lam, i: int, p: int, conv=LADDER_CONVENTION):
    """Add the good cell of residue i, or return None if none survives."""
    survivors = _reduce(_signature(lam, i, p, conv), conv)
    plus = [node for node in survivors if node[0] == "+"]
    if not plus:
        return None
    return _apply_at(lam, plus[-1][1], +1)


def ladder_mullineux(lam, p: int, conv=LADDER_CONVENTION):
    """Sign-twist image through the crystal recursion: remove the good
    cell of some residue i, recurse, add the good cell of residue -i."""
    lam = tuple(lam)
    if not lam:
        return ()
    for i in range(p):
        smaller = ladder_remove(lam, i, p, conv)
        if smaller is None:
            continue
        restored = ladder_add(smaller, i, p, conv)
        assert restored == lam, "add does not undo remove"
        image = ladder_mullineux(smaller, p, conv)
        result = ladder_add(image, (-i) % p, p, conv)
        assert result is not None, "no good cell to add on the image side"
        return result
    raise AssertionError(f"no removable good cell found on {lam}")


# ---------------------------------------------------------------------------
# The rim route to the sign twist: boundary-strip symbols.
#
# Strip boundary strips of length p (jumping to the next row after each
# full segment) until the diagram is empty, recording (strip size, row
# count) per layer; the twist keeps each size a and replaces the row count
# r by a - r + (0 if p divides a else 1); the image is rebuilt layer by
# layer by an exact search that inverts one strip.

def _rim_runs(nu) -> list[int]:
    # row i owns boundary columns max(nu[i+1], 1) .. nu[i]
    r = len(nu)
    return [nu[i] - max(nu[i + 1] if i + 1 < r else 0, 1) + 1
            for i in range(r)]


def _strip_levels(nu, p: int) -> list[int]:
    """Nodes removed per row by one boundary pass: segments of p along the
    boundary path, jumping to the next row after each full segment."""
    counts = []
    need = p
    for run in _rim_runs(nu):
        if run >= need:
            counts.append(need)
            need = p
        else:
            counts.append(run)
            need -= run
    return counts


def _strip_p_rim(nu, p: int) -> tuple[tuple[int, ...], int]:
    counts = _strip_levels(nu, p)
    rows = [nu[i] - counts[i] for i in range(len(nu))]
    mu = tuple(a for a in rows if a > 0)
    assert len(mu) == sum(1 for a in rows if a > 0) and \
        all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)), \
        f"strip of {nu} left a non-partition {rows}"
    return mu, sum(counts)


def rim_symbol(lam, p: int) -> tuple[tuple[int, int], ...]:
    """Pairs (strip size, row count) from iterated boundary stripping."""
    if p < 2:
        raise ValueError("stripping needs p >= 2")
    out = []
    cur = tuple(lam)
    while cur:
        mu, a = _strip_p_rim(cur, p)
        out.append((a, len(cur)))
        cur = mu
    return tuple(out)


def _add_p_rim(mu, a: int, r: int, p: int) -> tuple[int, ...]:
    """The unique nu with r rows whose boundary strip has size a and leaves
    mu; found by an exact search over per-row removal counts, then verified
    by stripping forward.

    The search runs bottom row up, carrying (length of the row below, need
    entering the row below).  In each row the walk either completed a
    segment (count = entering need, the row below started fresh at p) or
    exhausted the row's boundary run mid-segment (possible only when the
    base row length is exactly one short of the row below).  A short final
    segment can occur only in the bottom row, and only on an empty base row.
    The need entering the top row must come out as p.
    """
    if len(mu) > r or not r <= a <= r * p:
        raise ValueError(f"no strip layer with size {a} on {r} rows over {mu}")
    pad = list(mu) + [0] * (r - len(mu))
    sols: list[tuple[int, ...]] = []

    def settle(i: int, c: int, h: int, counts: list[int],
               used: int) -> None:
        if i == 0:
            if h == p and used == a:
                sols.append(tuple(counts))
            return
        up(i - 1, pad[i] + c, h, counts, used)

    def up(i: int, nu_next: int, h_next: int, counts: list[int],
           used: int) -> None:
        budget = a - used
        if not i + 1 <= budget <= (i + 1) * p:
            return
        floor_next = max(nu_next, 1) - 1
        lo = max(1, nu_next - pad[i])
        # segment completed in row i; the row below started fresh
        if h_next == p and pad[i] >= floor_next:
            for c in range(lo, p + 1):
                settle(i, c, c, [c] + counts, used + c)
        # row i's run exhausted mid-segment
        if pad[i] == floor_next and h_next < p:
            for c in range(lo, p - h_next + 1):
                settle(i, c, c + h_next, [c] + counts, used + c)

    bottom = r - 1
    if pad[bottom] > 0:
        pairs = [(c, c) for c in range(1, p + 1)]
    else:
        pairs = [(c, h) for c in range(1, p + 1)
                 for h in range(c, p + 1)]
    for c, h in pairs:
        settle(bottom, c, h, [c], c)

    nus = {tuple(pad[i] + c[i] for i in range(r)) for c in sols}
    assert len(nus) == 1, \
        f"strip layer ({a}, {r}) over {mu} has {len(nus)} solutions"
    nu = nus.pop()
    back, size = _strip_p_rim(nu, p)
    assert back == mu and size == a and len(nu) == r
    return nu


def rim_mullineux(lam, p: int) -> tuple[int, ...]:
    """Sign-twist image of a p-regular partition, p >= 3, through its rim
    symbol: twist every row count, then rebuild strip by strip."""
    twisted = tuple((a, a - rows + (0 if a % p == 0 else 1))
                    for a, rows in rim_symbol(lam, p))
    nu: tuple[int, ...] = ()
    for a, rows in reversed(twisted):
        nu = _add_p_rim(nu, a, rows, p)
    assert rim_symbol(nu, p) == twisted
    return nu
