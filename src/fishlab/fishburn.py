"""d-active elements, d-Fishburn permutations, the insertion map and
subdiagonal permutations; both classes are enumerated from hat.FAMILIES."""

import math
from itertools import permutations

from .hat import _members
from .sequences import check_count, check_perm

SUBDIAGONAL_MODES = ("increasing-runs", "decreasing-runs")
_SHARED_SETS = {}  # an active set's mask -> its one frozenset; see d_active_elements


def d_active_elements(p, d: int) -> frozenset:
    """Values declared active by the sweep k = 1, ..., n.

    k is inactive when it sits left of k-1 with at least d active values
    between them; values > k are invisible at step k.  Defined exactly on
    the permutations p of [n] and the nonnegative integers d: any other
    input raises ValueError.  Checks d and p once, then sweeps: O(n^2).
    Equal sets of values all <= 10 are one shared frozenset, so at most
    2^10 are kept (well under 1 MiB); larger sets are built at each call."""
    mask = _checked_mask(p, d)
    active = _SHARED_SETS.get(mask)
    if active is None:
        # a frozenset built from a set gets a smaller table than from a list
        active = frozenset({k for k in range(mask.bit_length()) if mask >> k & 1})
        if mask < 1 << 11:
            _SHARED_SETS[mask] = active
    return active


def _checked_mask(p, d):
    check_count(d, "d")
    check_perm(p)
    return _active_mask(p, d)


def _active_mask(p, d):
    """The d-active values of p as an int, bit k for value k.  Unchecked."""
    pos = [0] * len(p)  # pos[k - 1]: the position of k
    for i, v in enumerate(p):
        pos[v - 1] = i
    flags = [False] * len(p)  # flags[i]: p[i] is active so far
    mask = 0
    prev = -1  # the position of k - 1
    for k, i in enumerate(pos, 1):
        # active values so far are all < k, hence in the k-restriction; at
        # d = 0 none between k and k - 1 can be too few
        if i > prev or (d and sum(flags[i + 1 : prev]) < d):
            flags[i] = True
            mask |= 1 << k
        prev = i
    return mask


def _ascent_bottoms(p):
    # the values are distinct, so the sum of their bits is their union
    return sum(1 << a for a, b in zip(p, p[1:]) if a < b)


def is_d_fishburn(p, d: int) -> bool:
    """True iff every ascent bottom of p is a d-active element."""
    return _is_d_fishburn(p, _checked_mask(p, d))


def _is_d_fishburn(p, active):
    return not _ascent_bottoms(p) & ~active


def contains_fishburn_pattern(p, d: int) -> bool:
    """An adjacent rise p_i < p_{i+1} with p_i - 1 further right and p_i
    d-inactive; the other two entries are unconstrained.

    This is `not is_d_fishburn(p, d)` on every permutation, so the claim
    fishburn-equals-pattern-class checks a one-line lemma: an inactive
    ascent bottom v = p_i is not 1, which is always active, and v - 1 lies
    right of it, or v would be active, and not at i + 1, where p_{i+1} > v."""
    return _contains_fishburn_pattern(p, _checked_mask(p, d))


def _contains_fishburn_pattern(p, active):
    pos = {v: i for i, v in enumerate(p)}
    for i in range(len(p) - 1):
        v = p[i]
        if v < p[i + 1] and v - 1 in pos and pos[v - 1] >= i + 2 and not active >> v & 1:
            return True
    return False


def _has_increasing_subseq(values, k: int) -> bool:
    """True iff values contains a strictly increasing subsequence of length k.
    Not bisect: bench/selftest.py times this search as fishburn's own work."""
    if k == 0:
        return True
    tails = []
    for v in values:
        lo, hi = 0, len(tails)
        while lo < hi:
            mid = (lo + hi) // 2
            if tails[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(tails):
            tails.append(v)
            if len(tails) >= k:
                return True
        else:
            tails[lo] = v
    return False


def contains_sigma(p, d: int) -> bool:
    """Occurrence of the length-(d+3) pattern: an adjacent rise p_i < p_{i+1},
    the value p_i - 1 at some later position j, and d increasing entries
    below p_i - 1 strictly between positions i+1 and j, in the permutation p."""
    check_count(d, "d")
    check_perm(p)
    return _contains_sigma(p, d)


def _contains_sigma(p, d):
    pos = {v: i for i, v in enumerate(p)}
    for i in range(len(p) - 1):
        v = p[i]
        if v < p[i + 1] and v - 1 in pos and pos[v - 1] >= i + 2:
            j = pos[v - 1]
            window = [x for x in p[i + 2 : j] if x < v - 1]
            if _has_increasing_subseq(window, d):
                return True
    return False


def contains_mesh_a(p) -> bool:
    """An adjacent descent p_i > p_{i+1} with no earlier entry strictly
    between the two values, in the permutation p."""
    check_perm(p)
    return _contains_mesh_a(p)


def _contains_mesh_a(p):
    for i in range(len(p) - 1):
        if p[i] > p[i + 1] and not any(p[i + 1] < p[j] < p[i] for j in range(i)):
            return True
    return False


def active_site_gaps(p, d: int) -> tuple:
    """Gap indices (0..n) that are active: the gap before p and the gap
    just after each d-active element."""
    active = _checked_mask(p, d)
    return (0,) + tuple(i + 1 for i, v in enumerate(p) if active >> v & 1)


def phi_d(w, d: int) -> tuple:
    """Build a permutation by inserting each new maximum into the active
    site labeled by the corresponding letter of w.

    The new maximum m is d-active iff position m of w is a d-ascent, i.e.
    a_m > a_{m-1} - d.  The entries under m keep their activity, and
    a_{m-1} - 1 active entries lie left of m - 1 while a_m - 1 lie left of
    m's gap.  So m lands right of m - 1 when a_m > a_{m-1}, and otherwise
    left of it with a_{m-1} - a_m active entries between them.  The active
    values, kept in position order, are thus one per d-ascent read so far,
    and site a is the gap after the (a-1)-th of them.  Checks d, then each
    letter of w, an int and no bool, as it reads it; each insertion is one
    index and at most two list inserts: O(n)."""
    check_count(d, "d")
    p = []
    act = []  # the active values, in position order
    prev = 0  # so that position 1 is a d-ascent for every d >= 0
    for m, a in enumerate(w, 1):
        if type(a) is not int or not 1 <= a <= 1 + len(act):
            raise ValueError(f"not a {d}-ascent sequence: {w}")
        p.insert(p.index(act[a - 2]) + 1 if a > 1 else 0, m)
        if a > prev - d:
            act.insert(a - 1, m)
        prev = a
    return tuple(p)


def enumerate_d_fishburn(n: int, d: int) -> list:
    """All d-Fishburn permutations of [n], as a sorted list: the phi_d
    images of the d-ascent sequences, folded along their tree, at O(n)
    per node."""
    check_count(d, "d")
    check_count(n, "n")
    return _members("fishburn", n, d)


def phi_d_parent(p, d: int):
    """Remove the maximum from p; return the parent and the 1-based label
    of the active site of the parent that held it.

    One activity sweep, over p: the sweep never sees n before its last
    step, so every other entry is as active in the parent as in p.  The
    entry left of n is an ascent bottom, hence active once p is
    d-Fishburn, so n sits in the site right after it, and the label is 1
    plus the number of active values left of n."""
    if not p:
        raise ValueError("the empty permutation has no parent")
    active = _checked_mask(p, d)
    if _ascent_bottoms(p) & ~active:
        raise ValueError(f"not a {d}-Fishburn permutation: {p}")
    gap = p.index(len(p))
    return tuple(p[:gap] + p[gap + 1 :]), 1 + sum(active >> v & 1 for v in p[:gap])


def subdiagonal(p, mode: str) -> bool:
    """Decompose p into maximal increasing or decreasing runs and require
    every entry of block i to be at most n + 1 - i.

    One pass that keeps the cap n + 1 - i of the current block i and
    returns at the first entry above it.  A block ends where its run
    breaks: at v <= prev for increasing runs, at v >= prev for decreasing
    ones.  Defined exactly on the permutations p."""
    if mode not in SUBDIAGONAL_MODES:
        raise ValueError(f"unknown mode: {mode}")
    check_perm(p)
    return _subdiagonal(p, mode)


def _subdiagonal(p, mode):
    increasing = mode == "increasing-runs"
    cap = len(p) + 1
    # a sentinel that no first entry continues the run of
    prev = math.inf if increasing else -math.inf
    for v in p:
        if v <= prev if increasing else v >= prev:
            cap -= 1
        if v > cap:
            return False
        prev = v
    return True


def enumerate_subdiagonal(n: int, mode: str) -> list:
    """The permutations of [n] that subdiagonal(p, mode) accepts, as a list
    in lexicographic order: hat_max of the ascent sequences, for increasing
    runs, or of the weak descent sequences, folded along their tree at O(n)
    per node, which hatmax-ascseq-is-irsub and hatmax-wdesc-is-drsub check."""
    if mode not in SUBDIAGONAL_MODES:
        raise ValueError(f"unknown mode: {mode}")
    check_count(n, "n")
    return _members("irsub" if mode == "increasing-runs" else "drsub", n)


def enumerate_perms(n: int) -> list:
    """All permutations of [n], as a list in lexicographic order."""
    check_count(n, "n")
    return list(permutations(range(1, n + 1)))
