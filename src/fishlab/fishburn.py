"""d-active elements, d-Fishburn permutations, the insertion map and
subdiagonal permutations."""

from itertools import permutations

from .sequences import is_d_ascent_seq


def check_perm(p) -> None:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of [{len(p)}]: {p}")


def d_active_elements(p, d: int) -> frozenset:
    """Values declared active by the sweep k = 1, ..., n.

    k is inactive when it sits left of k-1 with at least d active values
    between them; values > k are invisible at step k.
    """
    pos = {v: i for i, v in enumerate(p)}
    active = set()
    for k in range(1, len(p) + 1):
        if k == 1 or pos[k] > pos[k - 1]:
            active.add(k)
        else:
            # active values so far are all < k, hence in the k-restriction
            between = sum(1 for v in p[pos[k] + 1 : pos[k - 1]] if v in active)
            if between < d:
                active.add(k)
    return frozenset(active)


def _ascent_bottoms(p):
    return frozenset(p[i] for i in range(len(p) - 1) if p[i] < p[i + 1])


def is_d_fishburn(p, d: int) -> bool:
    """True iff every ascent bottom of p is a d-active element."""
    check_perm(p)
    return _ascent_bottoms(p) <= d_active_elements(p, d)


def contains_fishburn_pattern(p, d: int) -> bool:
    """An adjacent rise p_i < p_{i+1} with p_i - 1 further right and p_i
    d-inactive; the other two entries are unconstrained."""
    pos = {v: i for i, v in enumerate(p)}
    active = d_active_elements(p, d)
    for i in range(len(p) - 1):
        v = p[i]
        if v < p[i + 1] and v - 1 in pos and pos[v - 1] >= i + 2 and v not in active:
            return True
    return False


def _has_increasing_subseq(values, k: int) -> bool:
    """True iff values contains a strictly increasing subsequence of length k."""
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
    below p_i - 1 strictly between positions i+1 and j."""
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
    between the two values."""
    for i in range(len(p) - 1):
        if p[i] > p[i + 1] and not any(p[i + 1] < p[j] < p[i] for j in range(i)):
            return True
    return False


def active_site_gaps(p, d: int) -> tuple:
    """Gap indices (0..n) that are active: the gap before p and the gap
    just after each d-active element."""
    active = d_active_elements(p, d)
    return (0,) + tuple(i + 1 for i, v in enumerate(p) if v in active)


def phi_d(w, d: int) -> tuple:
    """Build a permutation by inserting each new maximum into the active
    site labeled by the corresponding letter of w."""
    if not is_d_ascent_seq(w, d):
        raise ValueError(f"not a {d}-ascent sequence: {w}")
    p = []
    for m, a in enumerate(w, 1):
        gaps = active_site_gaps(tuple(p), d)
        p.insert(gaps[a - 1], m)
    return tuple(p)


def phi_d_parent(p, d: int):
    """Remove the maximum from p; return the parent and the 1-based label
    of the active site of the parent that held it."""
    check_perm(p)
    if not p:
        raise ValueError("the empty permutation has no parent")
    if not is_d_fishburn(p, d):
        raise ValueError(f"not a {d}-Fishburn permutation: {p}")
    n = len(p)
    gap = p.index(n)
    parent = tuple(v for v in p if v != n)
    gaps = active_site_gaps(parent, d)
    if gap not in gaps:
        raise ValueError(f"maximum of {p} does not sit in an active site")
    return parent, gaps.index(gap) + 1


def _runs(p, increasing: bool):
    blocks = []
    for v in p:
        if blocks and (blocks[-1][-1] < v if increasing else blocks[-1][-1] > v):
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return blocks


def subdiagonal(p, mode: str) -> bool:
    """Decompose p into maximal increasing or decreasing runs and require
    every entry of block i to be at most n + 1 - i."""
    if mode not in ("increasing-runs", "decreasing-runs"):
        raise ValueError(f"unknown mode: {mode}")
    n = len(p)
    blocks = _runs(p, increasing=(mode == "increasing-runs"))
    return all(c <= n + 1 - i for i, blk in enumerate(blocks, 1) for c in blk)


def enumerate_perms(n: int):
    """All permutations of [n] in lexicographic order."""
    yield from permutations(range(1, n + 1))
