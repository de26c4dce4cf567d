"""Ground truth for the benchmark's output checks.

Nothing here imports fishlab.  Counts are published sequences or the
paper's tables, copied in as constants; the rest is small reference code
written from the definitions (Dyck paths, d-ascent sequences, integer
polynomials), slow but independent of the code under test.  The sha256
pins record the exact stdout of the seed commit, so a change that alters
a single byte of output fails its check.
"""

import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb

# Fishburn numbers, OEIS A022493, n = 0..9
FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240]

# Fubini numbers (ordered set partitions = Cayley permutations), OEIS A000670
FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]

# modified inversion sequences of length n = 0..8 (the paper's count table)
MODINV = [1, 1, 3, 10, 43, 224, 1396, 10136, 84057]

# 213-avoiding d-Fishburn permutations of length n = 0..12, d = 0..5 (the
# paper's table); row d = 0 is 2^(n-1)
TABLE_213 = {
    0: [1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
    1: [1, 1, 2, 5, 13, 35, 97, 275, 794, 2327, 6905, 20705, 62642],
    2: [1, 1, 2, 5, 14, 41, 124, 384, 1212, 3885, 12614, 41400, 137132],
    3: [1, 1, 2, 5, 14, 42, 131, 420, 1375, 4576, 15434, 52639, 181230],
    4: [1, 1, 2, 5, 14, 42, 132, 428, 1420, 4796, 16432, 56966, 199448],
    5: [1, 1, 2, 5, 14, 42, 132, 429, 1429, 4851, 16718, 58331, 205632],
}

# algebraic data (g, h) with (2(1-x) - g Q)^2 = h Q^2 for Q = Q_d(x, -1)
ALGEBRAIC = {
    1: ([1, -2, 1], [1, -4, 2, 0, 1]),
    2: ([1, -2, 2], [1, -4, 0, 4]),
}

# sha256 of the exact output of each enumeration task at the seed commit
PINNED_SHA256 = {
    "fishburn-n8-d0":
        "808d1b054a4faa6ced34eb1678ae2eb9c0d47dcf87ea315103a0275fab70a9c9",
    "irsub-n8":
        "d3d251758c9384f897b0f283c83c6d07de3a7ee85e809bf22a2933fd374af69c",
    "modinv-n7":
        "7886ab48e065050f9dcd3e52845825c8851c0e0ee881e103ac668287eeed62e8",
    "modasc-n8-d1":
        "a8f708861bf416f75806d765fffb8643acc8a5b2dd0ecb48e8c7e4e42cfd89e9",
    "cayley-n7":
        "312c178344086be293b22d1d75f732f7501de593746627881747a8550525dfde",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def count_d_ascent(n: int, d: int) -> int:
    """Number of d-ascent sequences of length n, by dynamic programming
    over (position, last letter, d-ascents so far); the first letter is 1
    and counts as a d-ascent."""
    @lru_cache(maxsize=None)
    def tails(i, last, dasc):
        if i == n:
            return 1
        return sum(tails(i + 1, a, dasc + (a > last - d)) for a in range(1, dasc + 2))

    return 1 if n == 0 else tails(1, 1, 1)


def is_permutation(w) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def is_cayley(w) -> bool:
    return set(w) == set(range(1, max(w, default=0) + 1))


def ascent_bottoms(p) -> set:
    return {p[i] for i in range(len(p) - 1) if p[i] < p[i + 1]}


def dyck_paths(n: int):
    """All Dyck paths of semilength n as U/D strings."""
    out = []

    def grow(path, ups, downs):
        if downs == n:
            out.append(path)
            return
        if ups < n:
            grow(path + "U", ups + 1, downs)
        if downs < ups:
            grow(path + "D", ups, downs + 1)

    grow("", 0, 0)
    return out


@lru_cache(maxsize=None)
def factor_weight_sum(n: int, d: int, weight: Fraction) -> Fraction:
    """Sum over Dyck paths of semilength n of weight^(occurrences of the
    contiguous factor DDU^(d+1)); the coefficient of x^n in
    Q_d(x, weight - 1)."""
    target = "DD" + "U" * (d + 1)
    total = Fraction(0)
    for path in dyck_paths(n):
        k = sum(path.startswith(target, i) for i in range(len(path)))
        total += weight ** k
    return total


def poly_mul(a, b, order: int) -> list:
    """Product of two coefficient lists truncated after x^order."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] += ai * bj
    return out


def algebraic_residual_holds(q, d: int) -> bool:
    """(2(1-x) - g Q)^2 == h Q^2 modulo x^(len(q))."""
    order = len(q) - 1
    g, h = ALGEBRAIC[d]
    gq = poly_mul(g, q, order)
    base = [2, -2] + [0] * (order - 1)
    left = [b - c for b, c in zip(base[: order + 1], gq)]
    lhs = poly_mul(left, left, order)
    rhs = poly_mul(h, poly_mul(q, q, order), order)
    return lhs == rhs
