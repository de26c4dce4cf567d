"""The modification operator, the d-hat and max-hat maps, and their inverse.

hat_d folds the modification step over the d-ascents of the input.  They
are read from the input, letter by letter, never from the folded state:
modify at position j changes only entries left of j, so when the fold
reaches j the entry there is still the input letter a_j, while the entries
left of it generally have a different d-ascent set from the input's.
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
    return tree_words(n, (d, d, 0, 0), hat_tree_children)


def enumerate_mod_d_asc(n: int, d: int) -> list:
    """All modified d-ascent sequences of length n, as a sorted list: the
    hat_d images of the d-ascent sequences, the leaves of _byte_fold along
    the d-ascent sequence tree made tuples.

    O(n) per node of the d-ascent sequence tree; neither hat_d nor a
    d-ascent sequence is ever built."""
    check_count(n, "n")
    check_count(d, "d")
    return _as_tuples(_byte_fold(n, (d, d, 0, 0), hat_tree_children))


def enumerate_weak_descent(n: int) -> list:
    """All weak descent sequences of length n, as a list in lexicographic order."""
    return tree_words(n, (0, 0), weak_descent_children)


def enumerate_modinv(n: int) -> list:
    """All modified inversion sequences of length n, as a sorted list: the
    union of the hat orbits of the inversion sequences, the leaves of
    _byte_fold along the hat tree for d in [0, n - 1] made tuples.

    Every inversion sequence is an (n-1)-ascent sequence and hat_d is
    constant from d = n - 1 on, so the orbits over d <= n - 1 hold every
    image.  Each image is one leaf: two leaves of one word have different
    d-ascent sets, the nubs of their images.  O(n) per node, with 1.14
    nodes per member at n = 8."""
    check_count(n, "n")
    return _as_tuples(_byte_fold(n, (0, max(n - 1, 0), 0, 0), hat_tree_children))


def _as_tuples(leaves: list) -> list:
    """The byte strings of leaves made tuples, in place."""
    for i, h in enumerate(leaves):
        leaves[i] = tuple(h)  # frees each byte string as its tuple is made
    return leaves


def hat_tree_children(state):
    """The hat tree on states (lo, hi, dasc, last letter b), root
    (lo, hi, 0, 0), whose last letter 0 makes position 1 a d-ascent for
    every d >= 0: a node's word has one d-ascent set, of size dasc, for
    every d in [lo, hi], and a child a <= dasc + 1, a d-ascent iff
    d >= b - a + 1, splits the range there.  At lo = hi = d it is the
    d-ascent sequence tree.  _fold_tree folds hat_d, phi_d and hat_max
    along it, for the modified sequences, d-Fishburn permutations and irsub."""
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
    is hat_max, as a sorted list of byte strings bytes(w).  modify at j
    changes only entries left of j, so a node's object, its fold state, is
    the image of its prefix: a child lifts the entries >= its letter a, if
    it lifts at a, then appends a.  One byte per entry, as none passes n: a
    lift is one bytes.translate, the leaves sort as bytes, and `enumerate`
    writes them as they are.  O(n) per node.  Unchecked, but for the byte
    range: n <= 255, far past any n whose members fit in memory."""
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

