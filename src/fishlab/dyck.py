"""Dyck paths, the 213-avoider bijection, factor counting and the two
generating trees with their label isomorphism.

Paths are ASCII strings over U and D.
"""

from itertools import islice

from .fishburn import check_perm
from .sequences import check_n, level_sizes


def is_dyck(path: str) -> bool:
    h = 0
    for s in path:
        if s == "U":
            h += 1
        elif s == "D":
            h -= 1
        else:
            return False
        if h < 0:
            return False
    return h == 0


def phi_213(p) -> str:
    """Recursive first-letter decomposition p = p_1 L R -> U phi(L) D phi(R).
    Defined exactly on the 213-avoiding permutations: those whose entries
    above p_1 (L) all precede those below it (R) at each step."""
    check_perm(p)

    def rec(q):
        if not q:
            return ""
        v = q[0]
        k = 1 + sum(x > v for x in q)  # L is q[1:k] iff nothing below v is in it
        if any(x < v for x in q[1:k]):
            raise ValueError(f"permutation contains 213: {p}")
        return "U" + rec(q[1:k]) + "D" + rec(q[k:])

    return rec(tuple(p))


def count_ddu_factor(path: str, d: int) -> int:
    """Occurrences of the contiguous factor DDU^(d+1), counted window-wise."""
    target = "DD" + "U" * (d + 1)
    k = len(target)
    return sum(path[i : i + k] == target for i in range(len(path) - k + 1))


def enumerate_dyck_paths(n: int) -> list:
    """All Dyck paths of semilength n, as a list, U before D at each step."""
    check_n(n)
    out = []

    def grow(path, height, ups):
        if len(path) == 2 * n:
            out.append(path)
            return
        if ups < n:
            grow(path + "U", height + 1, ups + 1)
        if height > 0:
            grow(path + "D", height - 1, ups)

    grow("", 0, 0)
    del grow  # break the cycle grow -> its closure -> grow, which holds out
    return out


def enumerate_avoiders_213(n: int) -> list:
    """All 213-avoiding permutations of [n], as a list in lexicographic
    order: first entry, then the larger values, then the smaller ones."""
    check_n(n)

    def rec(values):
        if not values:
            return [()]
        out = []
        for i, v in enumerate(values):
            rights = rec(values[:i])
            for left in rec(values[i + 1 :]):
                out += [(v,) + left + right for right in rights]
        return out

    return rec(tuple(range(1, n + 1)))


OMEGA_ROOT = (1, 1)
THETA_ROOT = (0, 1)


def omega_children(label):
    a, ell = label
    return [(a, i) for i in range(1, ell)] + [(a + 1, i) for i in range(ell + 1, a + 2)]


def theta_children(label):
    w, u = label
    return [(w + 1, i) for i in range(1, u + 1)] + [(w, i) for i in range(u + 1, w + 2)]


def gen_tree_counts(rule: str, depth: int):
    """The first depth level sizes of the generating tree."""
    trees = {"Omega": (OMEGA_ROOT, omega_children), "Theta": (THETA_ROOT, theta_children)}
    if rule not in trees:
        raise ValueError(f"unknown rule: {rule}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return list(islice(level_sizes(*trees[rule]), depth))


def tree_iso_map(label, direction: str):
    """The linear bijection between Omega labels (a, l) and Theta labels
    (w, u): w = a - 1, u = a - l + 1."""
    if direction == "omega-to-theta":
        a, ell = label
        if not 1 <= ell <= a:
            raise ValueError(f"invalid Omega label: {label}")
        return (a - 1, a - ell + 1)
    if direction == "theta-to-omega":
        w, u = label
        if not 1 <= u <= w + 1:
            raise ValueError(f"invalid Theta label: {label}")
        return (w + 1, w + 2 - u)
    raise ValueError(f"unknown direction: {direction}")
