"""The modification operator, the d-hat and max-hat maps, and their inverse.

hat_d folds the modification step over the d-ascents of the input.  They
are read from the input, letter by letter, never from the folded state:
modify at position j changes only entries left of j, so when the fold
reaches j the entry there is still the input letter a_j, while the entries
left of it generally have a different d-ascent set from the input's.

FAMILIES states each enumerated family once, as one generating tree and
at most one paper map, hat_d, phi_d or hat_max, folded along it.
"""

from .sequences import (check_count, d_asc_thresholds, is_d_ascent_seq,
                        is_inversion, tree_words)


def modify(w, j: int) -> tuple:
    """Increment every entry strictly left of position j, an int, that is >= a_j."""
    if type(j) is not int or not 1 <= j <= len(w):
        raise ValueError(f"position {j} out of range for word of length {len(w)}")
    aj = w[j - 1]
    return tuple(a + 1 if i < j and a >= aj else a for i, a in enumerate(w, 1))


def hat_d(w, d: int) -> tuple:
    """modify folded over the d-ascents of w, left to right.  Checks d, then
    reads w once, checking each letter, an int and no bool, as it is read:
    one O(n^2) pass on a list, which lifts the entries >= a_j left of each
    d-ascent j."""
    check_count(d, "d")
    out = list(w)
    dasc = 0
    prev = 0  # so that position 1 is a d-ascent for every d >= 0
    for j, a in enumerate(out):
        if type(a) is not int or not 1 <= a <= 1 + dasc:
            raise ValueError(f"not a {d}-ascent sequence: {w}")
        if a > prev - d:
            dasc += 1
            for i in range(j):
                if out[i] >= a:
                    out[i] += 1
        prev = a
    return tuple(out)


def hat_max(w) -> tuple:
    """hat_{n-1} of a length-n inversion sequence; a permutation of [n].

    Every position is an (n-1)-ascent, so modify runs at every j: it makes
    the first j entries a permutation of [j] with a_j at j, and the later
    steps keep their relative order.  So p_j is the a_j-th smallest of the
    values not used right of j.  One right-to-left pass pops it from the
    sorted unused values, checking that a_j is an int, and no bool, with
    1 <= a_j <= j before each pop: n list pops, O(n^2) at worst."""
    avail = list(range(1, len(w) + 1))
    out = [0] * len(w)
    for j in range(len(w), 0, -1):
        a = w[j - 1]
        if type(a) is not int or not 1 <= a <= j:
            raise ValueError(f"not an inversion sequence: {w}")
        out[j - 1] = avail.pop(a - 1)
    return tuple(out)


def hat_inv(g) -> tuple:
    """The unique inversion sequence whose hat orbit contains g, if any.

    Defined exactly on what modify, folded over any set of positions, makes
    of an inversion sequence, hats and more: folding hat_inv(g) over the nub
    of g gives g back.  Peels g_k, k = n, ..., 1, in place on one list: when
    g_k has no copy further left, the entries left of it above it are
    shifted down first.  Checks that g_k is an int, and no bool, with
    1 <= g_k <= k as it peels, so raises iff g peels to no inversion
    sequence.  O(n^2)."""
    cur = list(g)
    for k in range(len(cur), 0, -1):
        gk = cur[k - 1]
        if type(gk) is not int or not 1 <= gk <= k:
            raise ValueError(f"{tuple(g)} is not a fold of an inversion sequence")
        if cur.index(gk) == k - 1:
            for i in range(k - 1):
                if cur[i] > gk:
                    cur[i] -= 1
    return tuple(cur)


def h_orbit(w):
    """All distinct hats of an inversion sequence, as pairs (least d, image)
    by increasing d.

    The image is a function of the d-ascent set, which changes only at a
    threshold, and its nub is that set: so hat_d at each threshold from
    min_d(w) on gives each image once, at its least d.  The orbit
    stabilizes from d = len(w) - 1 on; at most len(w) hats, each O(n^2).
    """
    if not is_inversion(w):
        raise ValueError(f"not an inversion sequence: {w}")
    orbit = []
    for d in d_asc_thresholds(w):
        if orbit or is_d_ascent_seq(w, d):
            orbit.append((d, hat_d(w, d)))
    return tuple(orbit)


def weak_descent_children(state):
    """The weak descent sequence tree on states (weak descents, last
    letter), root (0, 0): a letter b after a is a weak descent iff b <= a."""
    wdes, a = state
    return [(b, (wdes + (b <= a), b)) for b in range(1, wdes + 2)]


def enumerate_d_asc(n: int, d: int) -> list:
    """All d-ascent sequences of length n, as a list in lexicographic order."""
    check_count(d, "d")
    return _members("dasc", n, d)


def enumerate_mod_d_asc(n: int, d: int) -> list:
    """All modified d-ascent sequences of length n, as a sorted list: the
    hat_d images of the d-ascent sequences, folded along their tree, at
    O(n) per node; neither hat_d nor a d-ascent sequence is ever built."""
    check_count(n, "n")
    check_count(d, "d")
    return _members("modasc", n, d)


def enumerate_weak_descent(n: int) -> list:
    """All weak descent sequences of length n, as a list in lexicographic order."""
    return _members("wdesc", n)


def enumerate_modinv(n: int) -> list:
    """All modified inversion sequences of length n, as a sorted list: the
    union of the hat orbits of the inversion sequences, hat_d folded along
    the hat tree for d in [0, n - 1], as hat_d is constant from d = n - 1
    on.  Each image is one leaf: two leaves of one word have different
    d-ascent sets, the nubs of their images.  O(n) per node."""
    check_count(n, "n")
    return _members("modinv", n)


def hat_tree_children(state):
    """The hat tree on states (lo, hi, dasc, last letter b), root
    (lo, hi, 0, 0), whose last letter 0 makes position 1 a d-ascent for
    every d >= 0: a node's word has one d-ascent set, of size dasc, for
    every d in [lo, hi], and a child a <= dasc + 1, a d-ascent iff
    d >= b - a + 1, splits the range there.  At lo = hi = d it is the
    d-ascent sequence tree."""
    lo, hi, dasc, b = state
    out = []
    for a in range(1, dasc + 2):
        t = b - a + 1
        if lo < t:
            out.append((a, (lo, min(hi, t - 1), dasc, a)))
        if t <= hi:
            out.append((a, (max(lo, t), hi, dasc + 1, a)))
    return out


def _fold_tree(n: int, root, children, start, step, leaf) -> list:
    """The leaves at depth n >= 1 of the tree of children from root, as a
    sorted list of objects folded from start: a node's is step(obj, letter,
    ascended) of its parent's obj, and a leaf's is leaf(...) of the same,
    which can skip what only children read.  ascended: the count that ends
    each state before its last letter grew, d-ascents or weak descents.
    Each state's children are listed once, as (letter, child, ascended)
    triples, freed with the call."""
    kids = {}
    out = []
    append = out.append

    def grow(obj, state, left):
        triples = kids.get(state)
        if triples is None:
            triples = kids[state] = [(a, child, child[-2] > state[-2])
                                     for a, child in children(state)]
        if left == 1:
            for a, _, up in triples:
                append(leaf(obj, a, up))
        else:
            left -= 1
            for a, child, up in triples:
                grow(step(obj, a, up), child, left)

    grow(start, root, n)
    del grow, kids  # break the cycle grow -> its closure -> grow; free the lists
    out.sort()
    return out


def _byte_fold(n: int, root, children, every: bool = False) -> list:
    """The words of length n of a tree of inversion sequences with modify
    folded over their positions that ascended, or over all if every, which
    is hat_max, as sorted byte strings bytes(w).  modify at j changes only
    entries left of j, so a node's fold state is the image of its prefix: a
    child lifts the entries >= its letter a, if it lifts at a, by one
    bytes.translate, then appends a.  O(n) per node.  Unchecked, but for
    the byte range: n <= 255, past any n whose members fit in memory."""
    if n == 0:
        return [b""]
    if n > 255:
        raise ValueError(f"n must be at most 255, got {n}")
    # lift[a] maps v to v + 1 for a <= v < n, the entries a lift meets
    lift = [bytes(range(a)) + bytes(range(a + 1, n + 1)) + bytes(256 - n)
            for a in range(n + 1)]
    letter = [bytes((a,)) for a in range(n + 1)]

    if every:
        def step(h, a, up):
            return h.translate(lift[a]) + letter[a]
    else:
        def step(h, a, up):
            return (h.translate(lift[a]) if up else h) + letter[a]

    return _fold_tree(n, root, children, b"", step, step)


def _phi_fold(n: int, root, children) -> list:
    """phi_d folded along a d-ascent sequence tree, as sorted byte strings.
    A node's object is phi_d's state as bytes, the permutation and its
    active values in position order: a child with letter a inserts the next
    maximum m after the (a-1)-th active value, and makes m active if it
    ascended, which a leaf skips.  O(n) per node; checked as _byte_fold."""
    if n == 0:
        return [b""]
    if n > 255:
        raise ValueError(f"n must be at most 255, got {n}")
    letter = [bytes((a,)) for a in range(n + 1)]
    top = letter[n]  # a leaf's new maximum

    def leaf(node, a, up):
        p, act = node
        g = p.index(act[a - 2]) + 1 if a > 1 else 0
        return p[:g] + top + p[g:]

    def step(node, a, up):
        p, act = node
        m = letter[len(p) + 1]
        g = p.index(act[a - 2]) + 1 if a > 1 else 0
        return p[:g] + m + p[g:], act[: a - 1] + m + act[a - 1 :] if up else act

    return _fold_tree(n, root, children, (b"", b""), step, leaf)


def _hat_max_fold(n: int, root, children) -> list:
    return _byte_fold(n, root, children, True)


def _d_asc_tree(n: int, d: int):
    return (d, d, 0, 0), hat_tree_children  # the hat tree at lo = hi = d


def _weak_descent_tree(n: int, d: int):
    return (0, 0), weak_descent_children


# The families of `fishlab enumerate` and the public enumerators.  name:
# (requires --d; tree(n, d), the (root, rule) whose leaves `enumerate`
# caps the cost of; fold(n, root, rule), sorted: its words as tuples, or
# hat_d, phi_d or hat_max folded along it as byte leaves)
FAMILIES = {
    "dasc": (True, _d_asc_tree, tree_words),
    "modasc": (True, _d_asc_tree, _byte_fold),
    "modinv": (False, lambda n, d: ((0, max(n - 1, 0), 0, 0), hat_tree_children), _byte_fold),
    "wdesc": (False, _weak_descent_tree, tree_words),
    "fishburn": (True, _d_asc_tree, _phi_fold),
    "irsub": (False, lambda n, d: _d_asc_tree(n, 0), _hat_max_fold),
    "drsub": (False, _weak_descent_tree, _hat_max_fold),
}


def _members(family: str, n: int, d: int = 0) -> list:
    """The members of a family at (n, d), in the order of its fold: byte
    leaves made tuples, in place, and tuple leaves as they are."""
    _, tree, fold = FAMILIES[family]
    leaves = fold(n, *tree(n, d))
    if fold is not tree_words:
        for i, h in enumerate(leaves):
            leaves[i] = tuple(h)  # frees each byte string as its tuple is made
    return leaves
