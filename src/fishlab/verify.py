"""Exhaustive desk-scale verification suites.

Each suite is a function (n_max, d_max) -> list of report dicts with
keys check, n, d, expected, actual, pass, elapsed_ms.  Expected values
sourced from outside the library live in fixtures.py.
"""

import hashlib
import math
import random
import time
from collections import Counter

from . import burge, dyck, fishburn, fixtures, hat, series
from . import sequences as seqs


def _digest(value):
    """Order-independent digest: sets reduce to their size plus a hash of
    the sorted serialization, so reports stay small and comparable."""
    if isinstance(value, (set, frozenset)):
        data = repr(sorted(value)).encode()
        return {"count": len(value), "sha256": hashlib.sha256(data).hexdigest()[:16]}
    return value


def _report(check, n, d, expected, actual, start):
    expected, actual = _digest(expected), _digest(actual)
    return {
        "check": check,
        "n": n,
        "d": d,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }


def suite_hat(n_max: int, d_max: int):
    reports = []
    for d in range(d_max + 1):
        for n in range(min(n_max, d + 3) + 1):
            start = time.monotonic()
            expected = (
                math.factorial(n) if n <= d + 2
                else math.factorial(d + 3) - math.factorial(d)
            )
            actual = sum(1 for _ in hat.enumerate_d_asc(n, d))
            reports.append(_report("dasc-cardinality", n, d, expected, actual, start))
    for d in range(d_max + 1):
        for n in range(n_max + 1):
            start = time.monotonic()
            words = list(hat.enumerate_d_asc(n, d))
            images = [hat.hat_d(w, d) for w in words]
            reports.append(_report(
                "hat-image-equals-recursive", n, d,
                set(hat.enumerate_mod_d_asc(n, d)), set(images), start))

            start = time.monotonic()
            ok = all(
                seqs.is_cayley(h)
                and seqs.nub(h) == seqs.d_asc_set(w, d)
                and (max(h) if h else 0) == len(seqs.d_asc_set(w, d))
                for w, h in zip(words, images)
            )
            reports.append(_report("hat-cayley-nub-max", n, d, True, ok, start))

            start = time.monotonic()
            ok = True
            for w, h in zip(words, images):
                if len(w) < 2:
                    continue
                lifted = w[-2] - d < w[-1] <= w[-2]
                want = (w[-2] + 1, w[-1]) if lifted else (w[-2], w[-1])
                ok = ok and h[-2:] == want
            reports.append(_report("hat-last-two-letters", n, d, True, ok, start))

            start = time.monotonic()
            ok = all(hat.hat_inv(h) == w for w, h in zip(words, images))
            reports.append(_report("hat-inv-roundtrip", n, d, True, ok, start))
    for n in range(min(n_max, 8) + 1):
        start = time.monotonic()
        by_char = {
            c for c in seqs.enumerate_cayley(n)
            if seqs.asc_set(c) == seqs.nub(c)
        }
        reports.append(_report(
            "modasc0-characterization", n, 0,
            by_char, set(hat.enumerate_mod_d_asc(n, 0)), start))
    return reports


def suite_orbit(n_max: int, d_max: int):
    reports = []
    for n in range(n_max + 1):
        start = time.monotonic()
        disjoint, roundtrip = True, True
        seen = {}
        for w in seqs.enumerate_inversion(n):
            for _, image in hat.h_orbit(w):
                if image in seen and seen[image] != w:
                    disjoint = False
                seen[image] = w
                roundtrip = roundtrip and hat.hat_inv(image) == w
        reports.append(_report("orbit-disjoint", n, None, True, disjoint, start))
        start = time.monotonic()
        reports.append(_report("orbit-hatinv-recovers", n, None, True, roundtrip, start))
    for n in range(min(n_max, 8) + 1):
        start = time.monotonic()
        reports.append(_report(
            "modinv-count", n, None,
            fixtures.MODINV_COUNTS[n], len(hat.enumerate_modinv(n)), start))
    return reports


def suite_stats(n_max: int, d_max: int):
    reports = []
    for n in range(n_max + 1):
        start = time.monotonic()
        ok = True
        for w in seqs.enumerate_inversion(n):
            for _, g in hat.h_orbit(w):
                ok = ok and (
                    seqs.asc_set(g) == seqs.asc_set(w)
                    and seqs.wdes_set(g) == seqs.wdes_set(w)
                    and seqs.rl_min_pairs(g) == seqs.rl_min_pairs(w)
                )
        reports.append(_report("orbit-preserves-stats", n, None, True, ok, start))
    return reports


def suite_burge(n_max: int, d_max: int):
    reports = []
    start = time.monotonic()
    rng = random.Random(0)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 8)
        while True:
            k = rng.randint(1, n)
            word = tuple(rng.randint(1, k) for _ in range(n))
            if seqs.is_cayley(word):
                break
        tableau = (tuple(range(1, n + 1)), word)
        once = burge.burge_transpose(*tableau)
        ok = ok and burge.burge_transpose(*once) == tableau
    reports.append(_report("transpose-involution", None, None, True, ok, start))
    for n in range(min(n_max, 6) + 1):
        start = time.monotonic()
        ok = all(
            burge.burget(p) == tuple(sorted(range(1, n + 1), key=lambda v: p[v - 1]))
            for p in fishburn.enumerate_perms(n)
        )
        reports.append(_report("burget-inverts-perms", n, None, True, ok, start))
    for d in range(d_max + 1):
        for n in range(n_max + 1):
            start = time.monotonic()
            images = [burge.burget(h) for h in hat.enumerate_mod_d_asc(n, d)]
            reports.append(_report(
                "burget-injective-on-modasc", n, d,
                len(images), len(set(images)), start))
    return reports


def suite_phi(n_max: int, d_max: int):
    reports = []
    for d in range(d_max + 1):
        for n in range(n_max + 1):
            start = time.monotonic()
            words = list(hat.enumerate_d_asc(n, d))
            via_phi = {w: fishburn.phi_d(w, d) for w in words}
            ok = all(
                via_phi[w] == burge.burget(hat.hat_d(w, d)) for w in words
            )
            reports.append(_report("phi-equals-burget-hat", n, d, True, ok, start))

            start = time.monotonic()
            by_membership = {
                p for p in fishburn.enumerate_perms(n) if fishburn.is_d_fishburn(p, d)
            }
            reports.append(_report(
                "fishburn-equals-phi-image", n, d,
                by_membership, set(via_phi.values()), start))

            start = time.monotonic()
            by_pattern = {
                p for p in fishburn.enumerate_perms(n)
                if not fishburn.contains_fishburn_pattern(p, d)
            }
            reports.append(_report(
                "fishburn-equals-pattern-class", n, d,
                by_membership, by_pattern, start))
    for n in range(n_max + 1):
        start = time.monotonic()
        count_f = sum(
            1 for p in fishburn.enumerate_perms(n) if fishburn.is_d_fishburn(p, 0)
        )
        count_a = sum(1 for _ in hat.enumerate_d_asc(n, 0))
        reports.append(_report("fishburn-number", n, 0, count_a, count_f, start))
    return reports


def suite_subdiag(n_max: int, d_max: int):
    reports = []
    for n in range(n_max + 1):
        start = time.monotonic()
        irsub = {
            p for p in fishburn.enumerate_perms(n)
            if fishburn.subdiagonal(p, "increasing-runs")
        }
        image = {hat.hat_max(w) for w in hat.enumerate_d_asc(n, 0)}
        reports.append(_report("hatmax-ascseq-is-irsub", n, None, irsub, image, start))

        start = time.monotonic()
        drsub = {
            p for p in fishburn.enumerate_perms(n)
            if fishburn.subdiagonal(p, "decreasing-runs")
        }
        image = {hat.hat_max(w) for w in hat.enumerate_weak_descent(n)}
        reports.append(_report("hatmax-wdesc-is-drsub", n, None, drsub, image, start))

        start = time.monotonic()
        ok = all(
            bool(seqs.flat_steps(w)) == fishburn.contains_mesh_a(hat.hat_max(w))
            for w in seqs.enumerate_inversion(n)
        )
        reports.append(_report("flat-step-mesh-correspondence", n, None, True, ok, start))
    for n in range(min(n_max, 7) + 1):
        start = time.monotonic()
        ok = True
        for p in fishburn.enumerate_perms(n):
            in_irsub = fishburn.subdiagonal(p, "increasing-runs")
            nasc = len(seqs.asc_set(p))
            in_drsub = fishburn.subdiagonal(p, "decreasing-runs")
            nwdes = len(seqs.wdes_set(p))
            for a in range(1, n + 2):
                lifted = tuple(c + 1 if c >= a else c for c in p) + (a,)
                want = in_irsub and a <= 1 + nasc
                ok = ok and fishburn.subdiagonal(lifted, "increasing-runs") == want
                want = in_drsub and a <= 1 + nwdes
                ok = ok and fishburn.subdiagonal(lifted, "decreasing-runs") == want
        reports.append(_report("subdiag-insertion-law", n, None, True, ok, start))
    return reports


def suite_trees(n_max: int, d_max: int):
    reports = []
    start = time.monotonic()
    primitive = [
        sum(1 for w in hat.enumerate_d_asc(n, 0) if not seqs.flat_steps(w))
        for n in range(1, n_max + 1)
    ]
    reports.append(_report(
        "omega-counts-primitive", n_max, None,
        primitive, dyck.gen_tree_counts("Omega", n_max), start))

    start = time.monotonic()
    wdesc = [
        sum(1 for _ in hat.enumerate_weak_descent(n)) for n in range(1, n_max + 1)
    ]
    reports.append(_report(
        "theta-counts-wdesc", n_max, None,
        wdesc, dyck.gen_tree_counts("Theta", n_max), start))

    start = time.monotonic()
    ok = True
    for a in range(1, 7):
        for ell in range(1, a + 1):
            image = dyck.tree_iso_map((a, ell), "omega-to-theta")
            ok = ok and dyck.tree_iso_map(image, "theta-to-omega") == (a, ell)
            want = Counter(dyck.theta_children(image))
            got = Counter(
                dyck.tree_iso_map(c, "omega-to-theta")
                for c in dyck.omega_children((a, ell))
            )
            ok = ok and want == got
    reports.append(_report("tree-iso-child-multisets", None, None, True, ok, start))
    return reports


def suite_dyck(n_max: int, d_max: int):
    reports = []
    for n in range(n_max + 1):
        start = time.monotonic()
        avoiders = list(dyck.enumerate_avoiders_213(n))
        paths = {dyck.phi_213(p) for p in avoiders}
        all_paths = set(dyck.enumerate_dyck_paths(n))
        ok = len(paths) == len(avoiders) and paths == all_paths
        reports.append(_report("phi213-bijective", n, None, True, ok, start))

        for d in range(d_max + 1):
            start = time.monotonic()
            ok = all(
                fishburn.contains_sigma(p, d)
                == (dyck.count_ddu_factor(dyck.phi_213(p), d) > 0)
                for p in avoiders
            )
            reports.append(_report("sigma-factor-transfer", n, d, True, ok, start))

            start = time.monotonic()
            counts = Counter(
                dyck.count_ddu_factor(r, d) for r in dyck.enumerate_dyck_paths(n)
            )
            ok = all(
                sum(m * q**c for c, m in counts.items())
                == series.series_Q(d, q - 1, n).coeffs[n]
                for q in (-1, 0, 1, 2)
            )
            reports.append(_report("factor-distribution", n, d, True, ok, start))
    return reports


def suite_series(n_max: int, d_max: int):
    reports = []
    for d in range(6):
        start = time.monotonic()
        coeffs = [int(c) for c in series.series_Q(d, -1, 12).coeffs]
        reports.append(_report(
            "table-213-row", 12, d, fixtures.TABLE_213[d], coeffs, start))

    start = time.monotonic()
    order = 12
    x = series.TruncSeries.x(order)
    closed = (1 - x) * (1 - 2 * x).reciprocal()
    reports.append(_report(
        "q0-closed-form", order, 0, closed.coeffs,
        series.series_Q(0, -1, order).coeffs, start))

    # (2(1-x) - g*Q)^2 = h*Q^2 with the algebraic data for d = 1, 2
    for d, g_coeffs, h_coeffs in (
        (1, [1, -2, 1], [1, -4, 2, 0, 1]),
        (2, [1, -2, 2], [1, -4, 0, 4]),
    ):
        start = time.monotonic()
        q = series.series_Q(d, -1, order)
        g = series.TruncSeries(g_coeffs, order)
        h = series.TruncSeries(h_coeffs, order)
        lhs = (2 * (1 - x) - g * q) ** 2
        rhs = h * q * q
        reports.append(_report(
            "q-algebraic-residual", order, d, True, lhs == rhs, start))

    # the length-(d+3) pattern cannot occur while n <= d + 2
    for n in range(min(n_max, 10) + 1):
        start = time.monotonic()
        d = max(n - 2, 0)
        coeff = int(series.series_Q(d, -1, n).coeffs[n])
        reports.append(_report(
            "catalan-convergence", n, d, fixtures.CATALAN[n], coeff, start))

    for d in range(min(d_max, 3) + 1):
        for n in range(min(n_max, 9) + 1):
            start = time.monotonic()
            count = sum(
                1 for p in dyck.enumerate_avoiders_213(n)
                if fishburn.is_d_fishburn(p, d)
            )
            reports.append(_report(
                "table-213-cross-check", n, d, fixtures.TABLE_213[d][n], count, start))
    return reports


SUITES = {
    "hat": suite_hat,
    "orbit": suite_orbit,
    "stats": suite_stats,
    "burge": suite_burge,
    "phi": suite_phi,
    "subdiag": suite_subdiag,
    "trees": suite_trees,
    "dyck": suite_dyck,
    "series": suite_series,
}


def run_suite(name: str, n_max: int, d_max: int):
    if name == "all":
        reports = []
        for suite in SUITES.values():
            reports.extend(suite(n_max, d_max))
        return reports
    return SUITES[name](n_max, d_max)


def explore_conjectures(n_max: int):
    """Image-equality reports for the conjectured max-hat restrictions.

    Exploratory only: results are reported, never asserted.
    """
    reports = []
    for seq_pattern, perm_patterns in fixtures.CONJECTURED_RESTRICTIONS.items():
        for n in range(n_max + 1):
            start = time.monotonic()
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
