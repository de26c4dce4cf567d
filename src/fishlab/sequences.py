"""Words of positive integers and their basic statistics.

A word w = a_1 ... a_n is stored as a tuple of ints with 1 <= a_i <= n
(an endofunction of [n]).  All positions and values are 1-based; the
empty word () is valid everywhere.  Position 1 always counts as an
ascent (and a d-ascent).
"""

from itertools import combinations, product


def asc_set(w) -> tuple:
    """Positions i with i == 1 or a_i > a_{i-1}."""
    return tuple(i for i in range(1, len(w) + 1) if i == 1 or w[i - 1] > w[i - 2])


def d_asc_set(w, d: int) -> tuple:
    """Positions i with i == 1 or a_i > a_{i-1} - d."""
    return tuple(i for i in range(1, len(w) + 1) if i == 1 or w[i - 1] > w[i - 2] - d)


def wdes_set(w) -> tuple:
    """Weak descents: positions i >= 2 with a_i <= a_{i-1}."""
    return tuple(i for i in range(2, len(w) + 1) if w[i - 1] <= w[i - 2])


def nub(w) -> tuple:
    """Positions of the leftmost copy of each distinct value."""
    seen = set()
    out = []
    for i, a in enumerate(w, 1):
        if a not in seen:
            seen.add(a)
            out.append(i)
    return tuple(out)


def rl_min_pairs(w) -> tuple:
    """Pairs (i, a_i) such that a_i < a_j for every j > i."""
    out = []
    cur_min = None
    for i in range(len(w), 0, -1):
        a = w[i - 1]
        if cur_min is None or a < cur_min:
            out.append((i, a))
            cur_min = a
    return tuple(reversed(out))


def flat_steps(w) -> tuple:
    """Positions i with a_i = a_{i+1}."""
    return tuple(i for i in range(1, len(w)) if w[i - 1] == w[i])


def is_cayley(w) -> bool:
    """True iff the set of values is exactly {1, ..., max w}."""
    if not w:
        return True
    return set(w) == set(range(1, max(w) + 1))


def is_inversion(w) -> bool:
    """True iff 1 <= a_i <= i for every position i."""
    return all(1 <= a <= i for i, a in enumerate(w, 1))


def is_d_ascent_seq(w, d: int) -> bool:
    """True iff every entry satisfies a_i <= 1 + (number of d-ascents of the prefix)."""
    dasc = 0
    prev = None
    for a in w:
        if a > 1 + dasc:
            return False
        if prev is None or a > prev - d:
            dasc += 1
        prev = a
    return True


def is_weak_descent_seq(w) -> bool:
    """True iff a_1 = 1 and every a_i <= 1 + (number of weak descents of the prefix)."""
    wdes = 0
    prev = None
    for a in w:
        if a > 1 + wdes:
            return False
        if prev is not None and a <= prev:
            wdes += 1
        prev = a
    return True


def min_d(w) -> int:
    """Least d for which w is a d-ascent sequence; at most len(w)."""
    if not is_inversion(w):
        raise ValueError(f"not an inversion sequence: {w}")
    d = 0
    while not is_d_ascent_seq(w, d):
        d += 1
    return d


def word_pattern(w) -> tuple:
    """Canonical form of w: values replaced by their rank among distinct values."""
    rank = {v: r for r, v in enumerate(sorted(set(w)), 1)}
    return tuple(rank[a] for a in w)


def contains_word_pattern(w, p) -> bool:
    """True iff some subsequence of w is order-isomorphic to p.

    Equal letters of p must be matched by equal letters of w, so patterns
    are general words (e.g. 112), not just permutations.
    """
    if not p:
        raise ValueError("empty pattern")
    target = word_pattern(p)
    k = len(p)
    if k > len(w):
        return False
    return any(word_pattern(sub) == target for sub in combinations(w, k))


def avoids_all(w, patterns) -> bool:
    return not any(contains_word_pattern(w, p) for p in patterns)


def enumerate_inversion(n: int):
    """All inversion sequences of length n in lexicographic order."""
    yield from product(*(range(1, i + 1) for i in range(1, n + 1)))


def enumerate_cayley(n: int):
    """All Cayley permutations of length n, in lexicographic order.

    Built from ordered set partitions of the position set: block j holds
    the positions carrying value j.
    """
    def blocks(rest):
        if not rest:
            yield ()
            return
        rest = tuple(rest)
        for size in range(1, len(rest) + 1):
            for blk in combinations(rest, size):
                taken = set(blk)
                for tail in blocks(tuple(i for i in rest if i not in taken)):
                    yield (blk,) + tail

    out = []
    for osp in blocks(tuple(range(1, n + 1))):
        w = [0] * n
        for j, blk in enumerate(osp, 1):
            for i in blk:
                w[i - 1] = j
        out.append(tuple(w))
    return sorted(out)
