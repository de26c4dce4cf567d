"""The paper's claims, each registered once, and the runner that checks them.

A registry entry is a Claim: the suite it belongs to, the names of the
claims it checks, a grid and a check.  The grid maps (n_max, d_max) to the
points the check runs at, each a pair (n, d), with None for a size the
check does not take.  The check maps one point to its report rows
(claim, n, d, expected, actual), one per claim name, so that claims about
one input, such as the d-ascent words and their hats, are checked from one
build of it per point.  Each grid caps its own sizes, at what its check
can afford, so that (n_max, d_max) only lowers them, except a _fixed
grid, which runs at its own points whatever the sizes.  `fishlab verify
--suite S` runs the entries of S in the order they are registered here,
`--suite all` every entry, and tests/test_acceptance.py runs each grid at
its caps, with n_max and d_max infinite.

A report is a dict with keys check, n, d, expected, actual, pass and
elapsed_ns, the time in nanoseconds since the previous row of its entry.
Expected values sourced from outside the library live in fixtures.py.
"""

import hashlib
import math
import random
import time
from collections import Counter
from typing import Callable, NamedTuple

from . import burge, dyck, fishburn, fixtures, hat, series
from . import sequences as seqs

# elements of each set difference that a failing report shows
WITNESSES = 3


def _digest(value, other):
    """Order-independent digest: a set reduces to its size plus a hash of
    its sorted serialization, so reports stay small and comparable.  When
    other is a different set, the digest also names a witness: the
    smallest WITNESSES elements of value that other lacks."""
    if not isinstance(value, (set, frozenset)):
        return value
    data = repr(sorted(value)).encode()
    digest = {"count": len(value), "sha256": hashlib.sha256(data).hexdigest()[:16]}
    if isinstance(other, (set, frozenset)) and value != other:
        digest["witness"] = sorted(value - other)[:WITNESSES]
    return digest


def _report(check, n, d, expected, actual, start):
    passed = expected == actual
    digest = _digest(expected, actual)
    return {
        "check": check,
        "n": n,
        "d": d,
        "expected": digest,
        # equal sets have equal digests: digest them once
        "actual": digest if passed and isinstance(actual, (set, frozenset))
        else _digest(actual, expected),
        "pass": passed,
        "elapsed_ns": time.perf_counter_ns() - start,
    }


class Claim(NamedTuple):
    suite: str
    names: tuple
    grid: Callable  # (n_max, d_max) -> [(n, d), ...]
    check: Callable  # (n, d) -> rows (claim, n, d, expected, actual)


REGISTRY = []


def _claim(suite, names, grid):
    """Register the decorated check for the space-separated claim names."""
    def register(check):
        REGISTRY.append(Claim(suite, tuple(names.split()), grid, check))
        return check
    return register


def _each_n(cap, d=None):
    """The grid (n, d) for every n <= n_max that is at most cap."""
    return lambda n_max, d_max: [(n, d) for n in range(min(n_max, cap) + 1)]


def _each_d_n(n_cap, d_cap):
    """The grid (n, d) for every d <= d_max and n <= n_max, each at most its cap."""
    return lambda n_max, d_max: [
        (n, d) for d in range(min(d_max, d_cap) + 1) for n in range(min(n_max, n_cap) + 1)
    ]


def _fixed(*points):
    return lambda n_max, d_max: list(points)


# ------------------------------------------------------------------- hat

@_claim("hat", "dasc-cardinality", lambda n_max, d_max: [
    (n, d) for d in range(min(d_max, 3) + 1) for n in range(min(n_max, d + 3) + 1)
])
def _dasc_cardinality(n, d):
    expected = (
        math.factorial(n) if n <= d + 2
        else math.factorial(d + 3) - math.factorial(d)
    )
    actual = len(hat.enumerate_d_asc(n, d))
    yield "dasc-cardinality", n, d, expected, actual


@_claim(
    "hat",
    "hat-image-equals-recursive hat-cayley-nub-max hat-last-two-letters hat-inv-roundtrip",
    _each_d_n(8, 3),
)
def _hat_images(n, d):
    words = hat.enumerate_d_asc(n, d)
    images = [hat.hat_d(w, d) for w in words]
    yield (
        "hat-image-equals-recursive", n, d,
        set(hat.enumerate_mod_d_asc(n, d)), set(images),
    )
    # each check is True, or its first counterexample [w, hat_d(w, d)]
    yield "hat-cayley-nub-max", n, d, True, next((
        [w, h] for w, h in zip(words, images) for dasc in (seqs.d_asc_set(w, d),)
        if not (seqs.is_cayley(h) and seqs.nub(h) == dasc and max(h, default=0) == len(dasc))
    ), True)
    # the last letter lifts the one before it exactly when it is a d-ascent
    # that is not an ascent
    yield "hat-last-two-letters", n, d, True, next((
        [w, h] for w, h in zip(words, images)
        if len(w) >= 2 and h[-2:] != (w[-2] + (w[-2] - d < w[-1] <= w[-2]), w[-1])
    ), True)
    yield "hat-inv-roundtrip", n, d, True, next((
        [w, h] for w, h in zip(words, images) if hat.hat_inv(h) != w
    ), True)


def _asc_is_nub_children(state):
    """The cayley_children of a state (left, top, missing, last letter)
    whose letter is a new value exactly when it ascends, and after which
    the missing values can still each be placed as an ascent.

    Position i is in the nub of a Cayley permutation c iff c_i is a value
    not seen before, and in its ascent set iff i = 1 or c_i > c_{i-1}; the
    two sets are equal iff they agree at every position, so no member
    extends a prefix that breaks this.  A letter v is new iff v > top or v
    is missing, and ascends iff v > last (last is 0 at the root).  With
    the second cut, every node above depth n has a child."""
    _, top, missing, last = state
    return [
        (v, child + (v,)) for v, child in seqs.cayley_children(state[:3])
        if (v > top or v in missing) == (v > last) and _can_place_missing(*child, v)
    ]


def _can_place_missing(left, top, missing, last):
    """Whether the values missing after a prefix that ends in last can
    each still be placed as an ascent in the left positions after it.

    They are new values, so they ascend, in increasing order.  When last
    is not below missing[0], the letters must first drop below it, by a
    repeat of a smaller value, and there is one iff missing[0] > 1."""
    if not missing or last < missing[0]:
        return len(missing) <= left
    return missing[0] > 1 and len(missing) < left


def _asc_is_nub_words(n):
    """The Cayley permutations c of length n with asc_set(c) == nub(c), as
    a list in lexicographic order: the side of modasc0-characterization
    that does not come from hat, which it never calls."""
    return seqs.tree_words(n, (n, 0, (), 0), _asc_is_nub_children)


@_claim("hat", "modasc0-characterization", _each_n(8, d=0))
def _modasc0_characterization(n, d):
    by_char = set(_asc_is_nub_words(n))
    yield "modasc0-characterization", n, d, by_char, set(hat.enumerate_mod_d_asc(n, 0))


# ----------------------------------------------------------------- orbit

@_claim("orbit", "orbit-disjoint orbit-hatinv-recovers", _each_n(8))
def _orbits(n, d):
    # True, or the first counterexample: [image, w', w] or [w, image]
    disjoint, roundtrip = True, True
    seen = {}
    for w in seqs.enumerate_inversion(n):
        for _, image in hat.h_orbit(w):
            if disjoint is True and (first := seen.setdefault(image, w)) != w:
                disjoint = [image, first, w]
            if roundtrip is True and hat.hat_inv(image) != w:
                roundtrip = [w, image]
    yield "orbit-disjoint", n, d, True, disjoint
    yield "orbit-hatinv-recovers", n, d, True, roundtrip


@_claim("orbit", "modinv-count", _each_n(8))
def _modinv_count(n, d):
    yield "modinv-count", n, d, fixtures.MODINV_COUNTS[n], len(hat.enumerate_modinv(n))


# ----------------------------------------------------------------- stats

@_claim("stats", "orbit-preserves-stats", _each_n(7))
def _orbit_stats(n, d):
    ok = all(
        seqs.asc_set(g) == asc
        and seqs.wdes_set(g) == wdes
        and seqs.rl_min_pairs(g) == rl_min
        for w in seqs.enumerate_inversion(n)
        for asc, wdes, rl_min in (
            (seqs.asc_set(w), seqs.wdes_set(w), seqs.rl_min_pairs(w)),
        )
        for _, g in hat.h_orbit(w)
    )
    yield "orbit-preserves-stats", n, d, True, ok


# ----------------------------------------------------------------- burge

@_claim("burge", "transpose-involution", _fixed((None, None)))
def _transpose_involution(n, d):
    rng = random.Random(0)
    ok = True
    for _ in range(200):
        size = rng.randint(1, 8)
        while True:
            k = rng.randint(1, size)
            word = tuple(rng.randint(1, k) for _ in range(size))
            if seqs.is_cayley(word):
                break
        tableau = (tuple(range(1, size + 1)), word)
        once = burge.burge_transpose(*tableau)
        ok = ok and burge.burge_transpose(*once) == tableau
    yield "transpose-involution", n, d, True, ok


@_claim("burge", "burget-inverts-perms", _each_n(6))
def _burget_inverts_perms(n, d):
    ok = all(
        burge.burget(p) == tuple(sorted(range(1, n + 1), key=lambda v: p[v - 1]))
        for p in fishburn.enumerate_perms(n)
    )
    yield "burget-inverts-perms", n, d, True, ok


@_claim("burge", "burget-injective-on-modasc", _each_d_n(8, 3))
def _burget_injective(n, d):
    images = [burge.burget(h) for h in hat.enumerate_mod_d_asc(n, d)]
    yield "burget-injective-on-modasc", n, d, len(images), len(set(images))


# ------------------------------------------------------------------- phi

@_claim(
    "phi",
    "phi-equals-burget-hat fishburn-equals-phi-image fishburn-equals-pattern-class",
    _each_d_n(7, 3),
)
def _phi(n, d):
    words = hat.enumerate_d_asc(n, d)
    images = [fishburn.phi_d(w, d) for w in words]
    yield "phi-equals-burget-hat", n, d, True, next((  # or the first counterexample
        [w, p, q] for w, p in zip(words, images) if p != (q := burge.burget(hat.hat_d(w, d)))
    ), True)
    # one sweep of S_n: each permutation's activity feeds both tests
    by_membership, by_pattern = set(), set()
    for p in fishburn.enumerate_perms(n):
        active = fishburn._active_mask(p, d)
        if fishburn._is_d_fishburn(p, active):
            by_membership.add(p)
        if not fishburn._contains_fishburn_pattern(p, active):
            by_pattern.add(p)
    yield "fishburn-equals-phi-image", n, d, by_membership, set(images)
    yield "fishburn-equals-pattern-class", n, d, by_membership, by_pattern


@_claim("phi", "fishburn-number", _each_n(len(fixtures.FISHBURN_NUMBERS) - 1, d=0))
def _fishburn_number(n, d):
    by_perms = sum(fishburn._is_d_fishburn(p, fishburn._active_mask(p, d))
                   for p in fishburn.enumerate_perms(n))
    by_words = len(hat.enumerate_d_asc(n, d))
    # both counts are the published number; a disagreement shows both
    actual = by_perms if by_perms == by_words else [by_perms, by_words]
    yield "fishburn-number", n, d, fixtures.FISHBURN_NUMBERS[n], actual


# --------------------------------------------------------------- subdiag

@_claim(
    "subdiag",
    "hatmax-ascseq-is-irsub hatmax-wdesc-is-drsub flat-step-mesh-correspondence",
    _each_n(8),
)
def _hat_max_images(n, d):
    perms = fishburn.enumerate_perms(n)  # read by unchecked predicates
    irsub = {p for p in perms if fishburn._subdiagonal(p, "increasing-runs")}
    image = {hat.hat_max(w) for w in hat.enumerate_d_asc(n, 0)}
    yield "hatmax-ascseq-is-irsub", n, d, irsub, image
    drsub = {p for p in perms if fishburn._subdiagonal(p, "decreasing-runs")}
    image = {hat.hat_max(w) for w in hat.enumerate_weak_descent(n)}
    yield "hatmax-wdesc-is-drsub", n, d, drsub, image
    yield "flat-step-mesh-correspondence", n, d, True, all(
        bool(seqs.flat_steps(w)) == fishburn._contains_mesh_a(hat.hat_max(w))
        for w in seqs.enumerate_inversion(n)
    )


@_claim("subdiag", "subdiag-insertion-law", _each_n(7))
def _insertion_law(n, d):
    ok = True
    for p in fishburn.enumerate_perms(n):
        in_irsub = fishburn._subdiagonal(p, "increasing-runs")
        nasc = len(seqs.asc_set(p))
        in_drsub = fishburn._subdiagonal(p, "decreasing-runs")
        nwdes = len(seqs.wdes_set(p))
        for a in range(1, n + 2):
            lifted = tuple(c + 1 if c >= a else c for c in p) + (a,)
            want = in_irsub and a <= 1 + nasc
            ok = ok and fishburn._subdiagonal(lifted, "increasing-runs") == want
            want = in_drsub and a <= 1 + nwdes
            ok = ok and fishburn._subdiagonal(lifted, "decreasing-runs") == want
    yield "subdiag-insertion-law", n, d, True, ok


# ----------------------------------------------------------------- trees

def _at_n_max(n_max, d_max):
    """The one point min(n_max, 8), for the counts at depths 1..n of a tree."""
    return [(min(n_max, 8), None)] if n_max >= 1 else []


@_claim("trees", "omega-counts-primitive", _at_n_max)
def _omega_counts(n, d):
    primitive = [
        sum(1 for w in hat.enumerate_d_asc(m, 0) if not seqs.flat_steps(w))
        for m in range(1, n + 1)
    ]
    yield "omega-counts-primitive", n, d, primitive, dyck.gen_tree_counts("Omega", n)


@_claim("trees", "theta-counts-wdesc", _at_n_max)
def _theta_counts(n, d):
    # Theta is the weak descent rule, so its other side is the definition
    wdesc = [
        sum(map(seqs.is_weak_descent_seq, seqs.enumerate_inversion(m)))
        for m in range(1, n + 1)
    ]
    yield "theta-counts-wdesc", n, d, wdesc, dyck.gen_tree_counts("Theta", n)


@_claim("trees", "tree-iso-child-multisets", _fixed((None, None)))
def _tree_iso(n, d):
    ok = True
    for a in range(1, 9):
        for ell in range(1, a + 1):
            image = dyck.tree_iso_map((a, ell), "omega-to-theta")
            ok = ok and dyck.tree_iso_map(image, "theta-to-omega") == (a, ell)
            want = Counter(c for _, c in hat.weak_descent_children(image))
            got = Counter(
                dyck.tree_iso_map(c, "omega-to-theta")
                for _, c in dyck.omega_children((a, ell))
            )
            ok = ok and want == got
    yield "tree-iso-child-multisets", n, d, True, ok


# ------------------------------------------------------------------ dyck

# a point (n, d_max): the avoiders of length n serve every d <= d_max
@_claim(
    "dyck",
    "phi213-bijective sigma-factor-transfer factor-distribution",
    lambda n_max, d_max: [(n, min(d_max, 3)) for n in range(min(n_max, 8) + 1)],
)
def _dyck(n, d_max):
    avoiders = dyck.enumerate_avoiders_213(n)
    paths = [dyck.phi_213(p) for p in avoiders]
    all_paths = dyck.enumerate_dyck_paths(n)
    image = set(paths)
    ok = len(image) == len(avoiders) and image == set(all_paths)
    yield "phi213-bijective", n, None, True, ok
    for d in range(d_max + 1):
        yield "sigma-factor-transfer", n, d, True, all(
            fishburn._contains_sigma(p, d) == (dyck.count_ddu_factor(path, d) > 0)
            for p, path in zip(avoiders, paths)
        )
        counts = Counter(dyck.count_ddu_factor(r, d) for r in all_paths)
        # both sides have q-degree <= n/2 (a factor owns two down-steps)
        yield "factor-distribution", n, d, True, all(
            sum(m * q**c for c, m in counts.items())
            == series.series_Q(d, q - 1, n).coeffs[n]
            for q in range(-1, max(2, n // 2) + 1)
        )


# ---------------------------------------------------------------- series

@_claim("series", "table-213-row", _fixed(*((12, d) for d in range(6))))
def _table_row(n, d):
    # Fractions, not int()s, so that a non-integer coefficient fails
    coeffs = list(series.series_Q(d, -1, n).coeffs)
    yield "table-213-row", n, d, fixtures.TABLE_213[d], coeffs


@_claim("series", "q0-closed-form", _fixed((12, 0)))
def _q0_closed_form(n, d):
    # (1 - x) / (1 - 2x), on coefficient lists
    inverse = series._inv_one_minus_x([2] + [0] * n, n)
    closed = series._product([1, -1] + [0] * n, inverse, n)
    yield "q0-closed-form", n, d, tuple(closed), series.series_Q(d, -1, n).coeffs


@_claim("series", "q-algebraic-residual", _fixed((12, 1), (12, 2)))
def _algebraic_residual(n, d):
    # (2(1 - x) - gQ)^2 = hQ^2, on coefficient lists of n + 1 terms
    q = series.series_Q(d, -1, n).coeffs
    g, h = (c + [0] * (n + 1 - len(c)) for c in fixtures.ALGEBRAIC_213[d])
    two_one_minus_x = [2, -2] + [0] * (n - 1)
    base = [a - b for a, b in zip(two_one_minus_x, series._product(g, q, n))]
    yield "q-algebraic-residual", n, d, True, (
        series._product(base, base, n) == series._product(h, series._product(q, q, n), n))


# the length-(d+3) pattern cannot occur while n <= d + 2
@_claim("series", "catalan-convergence", lambda n_max, d_max: [
    (n, max(n - 2, 0)) for n in range(min(n_max, 10) + 1)
])
def _catalan_convergence(n, d):
    coeff = series.series_Q(d, -1, n).coeffs[n]
    yield "catalan-convergence", n, d, fixtures.CATALAN[n], coeff


# at n <= 9 no d past 9 runs new code on either side: the length-(d+3)
# pattern fits only while d <= 6, every entry is d-active from d = 8 on,
# and from d = 9 on the series never reads its marked term below x^10
@_claim("series", "table-213-cross-check", _each_d_n(9, 9))
def _table_cross_check(n, d):
    # the coefficient `fishlab table` prints, against the 213-avoiders that
    # are d-Fishburn, counted by filtering
    count = sum(fishburn._is_d_fishburn(p, fishburn._active_mask(p, d))
                for p in dyck.enumerate_avoiders_213(n))
    yield "table-213-cross-check", n, d, series.series_Q(d, -1, n).coeffs[n], count


# the suites, in the order `--suite all` runs them
SUITES = tuple(dict.fromkeys(claim.suite for claim in REGISTRY))


def run_claim(claim: Claim, n_max: int, d_max: int):
    """The reports of one registry entry over its grid, as a generator.

    A check that raises ends its point with one failing report, whose
    actual is the exception's type and message, and the grid goes on.  Its
    check is the first of the entry's names with no report yet at that
    point, or its last name when each has one."""
    start = time.perf_counter_ns()
    for point in claim.grid(n_max, d_max):
        done = set()
        try:
            for check, n, d, expected, actual in claim.check(*point):
                done.add(check)
                yield _report(check, n, d, expected, actual, start)
                start = time.perf_counter_ns()
        except Exception as exc:
            check = next((name for name in claim.names if name not in done),
                         claim.names[-1])
            raised = f"{type(exc).__name__}: {exc}"
            yield _report(check, *point, None, raised, start)
            start = time.perf_counter_ns()


def claims_of(name: str) -> list:
    """The entries of suite name, or every entry for "all", in registry order."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    return [claim for claim in REGISTRY if name in ("all", claim.suite)]


def explore_conjectures(n_max: int):
    """Image-equality reports for the conjectured max-hat restrictions.

    Exploratory only: results are reported, never asserted.
    """
    reports = []
    for seq_pattern, perm_patterns in fixtures.CONJECTURED_RESTRICTIONS.items():
        for n in range(n_max + 1):
            start = time.perf_counter_ns()
            image = {
                hat.hat_max(w)
                for w in hat.enumerate_d_asc(n, 0)
                if not seqs.contains_word_pattern(w, seq_pattern)
            }
            target = {
                p for p in fishburn.enumerate_perms(n)
                if seqs.avoids_all(p, perm_patterns)
            }
            name = "conjecture-" + "".join(map(str, seq_pattern))
            report = _report(name, n, None, image, target, start)
            report["exploratory"] = True
            reports.append(report)
    return reports
