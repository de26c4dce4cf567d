"""Words of positive integers and their basic statistics.

A word w = a_1 ... a_n is stored as a tuple of ints with 1 <= a_i <= n
(an endofunction of [n]).  All positions and values are 1-based; the
empty word () is valid everywhere.  Position 1 always counts as an
ascent (and a d-ascent).

It also holds the one generating-tree layer.  A tree is a root state and
a children rule, which maps a state to its children as (letter, state)
pairs, the state holding only what the rule reads.  level_sizes counts
the levels by a DP on the states, and tree_words lists the words of the
leaves, building the subtrees below half the depth once per state.  The
rules: cayley_children here, weak_descent_children and hat_tree_children
(at lo = hi = d, the d-ascent sequence tree) in hat, subdiagonal_children
in fishburn, and dyck_children and avoider_213_children in dyck.
"""

from collections import Counter
from itertools import combinations, product


def check_count(x, name: str) -> None:
    """Raise ValueError unless the count x, a length n, a difference d, a
    series order or a tree depth, is a nonnegative integer; a bool is not one."""
    if type(x) is not int or x < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {x!r}")


def check_perm(p) -> None:
    """Raise ValueError unless p is a permutation of [len(p)]: entries that
    sum to an int, as no float among them does, and sort to 1, ..., n, of
    which the 1 is no bool."""
    try:
        ok = type(sum(p)) is int and sorted(p) == list(range(1, len(p) + 1))
    except TypeError:  # an entry that cannot be added or compared
        ok = False
    # True sums and sorts as 1, and False fails the sort, so once the sort
    # passes the entry equal to 1 is the one a bool can stand for
    if not ok or p and p[p.index(1)] is True:
        raise ValueError(f"not a permutation of [{len(p)}]: {p}")


def d_asc_set(w, d: int) -> tuple:
    """Positions i with i == 1 or a_i > a_{i-1} - d."""
    check_count(d, "d")
    return tuple(i for i in range(1, len(w) + 1) if i == 1 or w[i - 1] > w[i - 2] - d)


def asc_set(w) -> tuple:
    """Positions i with i == 1 or a_i > a_{i-1}: the 0-ascents."""
    return d_asc_set(w, 0)


def d_asc_thresholds(w) -> tuple:
    """The d >= 0 at which the d-ascent set of w can change, increasing,
    0 first: position i >= 2 is a d-ascent iff d >= a_{i-1} - a_i + 1."""
    rises = (w[i - 1] - w[i] + 1 for i in range(1, len(w)))
    return tuple(sorted({0}.union(t for t in rises if t > 0)))


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
    """True iff every entry satisfies 1 <= a_i <= 1 + (d-ascents of the prefix)."""
    check_count(d, "d")
    dasc = 0
    prev = None
    for a in w:
        if not 1 <= a <= 1 + dasc:
            return False
        if prev is None or a > prev - d:
            dasc += 1
        prev = a
    return True


def is_weak_descent_seq(w) -> bool:
    """True iff every entry satisfies 1 <= a_i <= 1 + (weak descents of the prefix)."""
    wdes = 0
    prev = None
    for a in w:
        if not 1 <= a <= 1 + wdes:
            return False
        if prev is not None and a <= prev:
            wdes += 1
        prev = a
    return True


def min_d(w) -> int:
    """Least d for which w is a d-ascent sequence; at most len(w)."""
    if not is_inversion(w):
        raise ValueError(f"not an inversion sequence: {w}")
    # the d-ascent set, and with it membership, changes only at a threshold
    return next(d for d in d_asc_thresholds(w) if is_d_ascent_seq(w, d))


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


def level_sizes(root, children):
    """The level sizes, from depth 0 on and without end, of the generating
    tree whose root state sits at depth 0 and whose node in state x has
    one child per pair in children(x): a DP on the state multiplicities."""
    level = Counter({root: 1})
    while True:
        yield sum(level.values())
        nxt = Counter()
        for state, mult in level.items():
            for _, child in children(state):
                nxt[child] += mult
        level = nxt


def tree_words(n: int, root, children) -> list:
    """The leaves at depth n of a generating tree (see level_sizes), as a
    list in the order of the children, each the word of the letters on its
    path; the states at depth n are never asked for their children.

    Two nodes in one state have the same subtrees.  So the prefixes down
    to depth n // 2 are built level by level, which keeps their order, and
    below that depth the words of length m under a state, its tails, are
    built once per (state, m), from the tails of its children.  A prefix
    then takes the tails of its state by one concatenation per leaf."""
    check_count(n, "n")
    if n == 0:
        return [()]
    split = n // 2
    heads = [((), root)]
    for _ in range(split):
        heads = [(word + (letter,), child)
                 for word, state in heads for letter, child in children(state)]
    tails = {}

    def grow(state, length):
        key = state, length
        words = tails.get(key)
        if words is None:
            if length == 1:
                words = [(letter,) for letter, _ in children(state)]
            else:
                words = []
                for letter, child in children(state):
                    letter = letter,
                    words += [letter + tail for tail in grow(child, length - 1)]
            tails[key] = words
        return words

    out = []
    for word, state in heads:
        out.extend([word + tail for tail in grow(state, n - split)])
    del grow, tails  # break the cycle grow -> its closure -> grow; free the tails
    return out


def enumerate_inversion(n: int) -> list:
    """All inversion sequences of length n, as a list in lexicographic order."""
    check_count(n, "n")
    return list(product(*(range(1, i + 1) for i in range(1, n + 1))))


def cayley_children(state):
    """The Cayley permutation tree on states (left, top, missing), root
    (n, 0, ()) for words of length n: left positions to fill, top the
    largest letter so far and missing the values of [1, top] not yet used,
    increasing.  The letters 1..top are tried in increasing order, then
    each new top above it; a child is cut once the values missing after it
    outnumber the positions left after it.  Every node above depth n
    therefore has a child, and its leaves are the members."""
    left, top, missing = state
    left -= 1  # positions left after the child's letter
    out = []
    repeat = len(missing) <= left  # room for a letter that is no new value
    for v in range(1, top + 1):
        if v in missing:
            i = missing.index(v)
            out.append((v, (left, top, missing[:i] + missing[i + 1:])))
        elif repeat:
            out.append((v, (left, top, missing)))
    for v in range(top + 1, top + 2 + left - len(missing)):
        out.append((v, (left, v, missing + tuple(range(top + 1, v)))))
    return out


def enumerate_cayley(n: int) -> list:
    """All Cayley permutations of length n, as a sorted list: the leaves
    of the cayley_children tree, O(n) per word."""
    return tree_words(n, (n, 0, ()), cayley_children)
