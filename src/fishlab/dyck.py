"""Dyck paths, the 213-avoider bijection, factor counting, and the Omega
generating tree with its label isomorphism onto Theta, the weak descent
tree of hat.

Paths are ASCII strings over U and D.
"""

import math
from itertools import islice

from .hat import weak_descent_children
from .sequences import check_count, check_perm, level_sizes, tree_words


def phi_213(p) -> str:
    """First-letter decomposition p = p_1 L R -> U phi(L) D phi(R).
    Defined exactly on the 213-avoiding permutations: those whose entries
    above p_1 (L) all precede those below it (R) at each step.  Then an
    entry's D ends its L, at the next entry below it: one pass over p pops,
    at each v, the entries above v, a D each, then pushes v with its U.  A
    213 b a c shows as a c above the last entry popped, which is b or less."""
    check_perm(p)
    out = []
    due = []
    floor = math.inf  # the last entry popped
    for v in p:
        if v > floor:
            raise ValueError(f"permutation contains 213: {p}")
        while due and due[-1] > v:
            floor = due.pop()
            out.append("D")
        due.append(v)
        out.append("U")
    out.append("D" * len(due))
    return "".join(out)


def count_ddu_factor(path: str, d: int) -> int:
    """Occurrences of the factor DDU^(d+1) in a path over U and D: DD lies
    only at its start, so no two overlap, and str.count finds each."""
    check_count(d, "d")
    if type(path) is not str or path.strip("UD"):
        raise ValueError(f"not a path over U and D: {path!r}")
    return path.count("DD" + "U" * (d + 1))


def dyck_children(state):
    """The Dyck path tree on states (height, up steps left), root (0, n)
    for semilength n: U while an up step is left, then D above the axis."""
    height, ups = state
    out = [("U", (height + 1, ups - 1))] if ups else []
    if height:
        out.append(("D", (height - 1, ups)))
    return out


def enumerate_dyck_paths(n: int) -> list:
    """All Dyck paths of semilength n, as a list, U before D at each step."""
    check_count(n, "n")
    return list(map("".join, tree_words(2 * n, (0, n), dyck_children)))


def avoider_213_children(unused):
    """The 213-avoider tree on states the unused values, increasing, root
    (1, ..., n).  A letter v is refused iff a used u lies between it and the
    largest unused m, as u v m would be a 213: the next letter lies in the
    top run of consecutive unused values.  No other 213 arises: in a 213
    u x v, x was refused, as u lay between x and the then unused v."""
    k = len(unused) - 1
    while k > 0 and unused[k - 1] + 1 == unused[k]:
        k -= 1
    return [(unused[i], unused[:i] + unused[i + 1 :]) for i in range(k, len(unused))]


def enumerate_avoiders_213(n: int) -> list:
    """All 213-avoiding permutations of [n], as a list in lexicographic
    order: the leaves of the avoider_213_children tree."""
    check_count(n, "n")
    return tree_words(n, tuple(range(1, n + 1)), avoider_213_children)


# the labels (a, l) and (w, u) end in the last letter.  Theta is the weak
# descent rule hat.weak_descent_children, whose state (w, u) is the weak
# descents and the last letter, from the root (0, 1)
def omega_children(label):
    a, ell = label
    return [(i, (a, i)) for i in range(1, ell)] + [(i, (a + 1, i)) for i in range(ell + 1, a + 2)]


def gen_tree_counts(rule: str, depth: int):
    """The first depth level sizes of the generating tree."""
    trees = {"Omega": ((1, 1), omega_children), "Theta": ((0, 1), weak_descent_children)}
    if rule not in trees:
        raise ValueError(f"unknown rule: {rule}")
    check_count(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return list(islice(level_sizes(*trees[rule]), depth))


def tree_iso_map(label, direction: str):
    """The linear bijection between Omega labels (a, l) and Theta labels
    (w, u): w = a - 1, u = a - l + 1.  A label is a pair of ints, no bool."""
    pair = type(label) is tuple and len(label) == 2 and all(type(c) is int for c in label)
    if direction == "omega-to-theta":
        if not pair or not 1 <= label[1] <= label[0]:
            raise ValueError(f"invalid Omega label: {label}")
        a, ell = label
        return (a - 1, a - ell + 1)
    if direction == "theta-to-omega":
        if not pair or not 1 <= label[1] <= label[0] + 1:
            raise ValueError(f"invalid Theta label: {label}")
        w, u = label
        return (w + 1, w + 2 - u)
    raise ValueError(f"unknown direction: {direction}")
