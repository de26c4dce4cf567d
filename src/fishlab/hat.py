"""The modification operator, the d-hat and max-hat maps, and their inverse.

hat_d folds the modification step over the d-ascent list of the input,
computed once up front; intermediate words generally have different
d-ascent sets, so the list must not be recomputed mid-fold.
"""

from .sequences import (
    check_d,
    check_n,
    d_asc_set,
    d_asc_thresholds,
    enumerate_inversion,
    is_d_ascent_seq,
    is_inversion,
)


def modify(w, j: int) -> tuple:
    """Increment every entry strictly left of position j that is >= a_j."""
    if not 1 <= j <= len(w):
        raise ValueError(f"position {j} out of range for word of length {len(w)}")
    aj = w[j - 1]
    return tuple(a + 1 if i < j and a >= aj else a for i, a in enumerate(w, 1))


def hat_d(w, d: int) -> tuple:
    """modify folded over the d-ascent list of w, left to right.  Checks d
    and w once, then runs one unchecked O(n^2) fold on a list."""
    check_d(d)
    if not is_d_ascent_seq(w, d):
        raise ValueError(f"not a {d}-ascent sequence: {w}")
    return _fold(w, d_asc_set(w, d))


def hat_max(w) -> tuple:
    """hat_{n-1} of a length-n inversion sequence; a permutation of [n].
    Checks w once, then folds over every position, all (n-1)-ascents: O(n^2)."""
    if not is_inversion(w):
        raise ValueError(f"not an inversion sequence: {w}")
    return _fold(w, range(1, len(w) + 1))


def hat_inv(g) -> tuple:
    """The unique inversion sequence whose hat orbit contains g.

    Peels g_k, k = n, ..., 1, in place on one list: when g_k has no copy
    further left, the entries left of it above it are shifted down first.
    Checks 1 <= g_k <= k as it peels, so raises iff g peels to no
    inversion sequence.  O(n^2)."""
    cur = list(g)
    for k in range(len(cur), 0, -1):
        gk = cur[k - 1]
        if not 1 <= gk <= k:
            raise ValueError(f"{tuple(g)} is not a modified inversion sequence")
        if cur.index(gk) == k - 1:
            for i in range(k - 1):
                if cur[i] > gk:
                    cur[i] -= 1
    return tuple(cur)


def _fold(w, positions) -> tuple:
    """modify folded over the positions, left to right, on one list, unchecked."""
    out = list(w)
    for j in positions:
        aj = out[j - 1]
        for i in range(j - 1):
            if out[i] >= aj:
                out[i] += 1
    return tuple(out)


def _orbit(w) -> list:
    """h_orbit of an inversion sequence w, unchecked."""
    # the image is a function of the d-ascent set, which changes only at a
    # threshold, and its nub is that set: one fold per threshold from
    # min_d(w) on gives each image once, at its least d
    orbit = []
    for d in d_asc_thresholds(w):
        if orbit or is_d_ascent_seq(w, d):
            orbit.append((d, _fold(w, d_asc_set(w, d))))
    return orbit


def h_orbit(w):
    """All distinct hats of an inversion sequence, as pairs (least d, image)
    by increasing d.

    The orbit runs over d from min_d(w) on and stabilizes from
    d = len(w) - 1 on.  One fold per distinct d-ascent set, each O(n^2),
    and at most len(w) of them.
    """
    if not is_inversion(w):
        raise ValueError(f"not an inversion sequence: {w}")
    return tuple(_orbit(w))


def enumerate_d_asc(n: int, d: int):
    """All d-ascent sequences of length n, in lexicographic order."""
    check_n(n)
    check_d(d)

    def grow(prefix, dasc):
        if len(prefix) == n:
            yield prefix
            return
        for a in range(1, dasc + 2):
            is_dasc = not prefix or a > prefix[-1] - d
            yield from grow(prefix + (a,), dasc + (1 if is_dasc else 0))

    # returned, not yielded from, so that a bad n or d raises at the call
    return grow((), 0)


def enumerate_mod_d_asc(n: int, d: int):
    """All modified d-ascent sequences of length n, in lexicographic order.

    Grown by the recursive description: append a <= b - d directly, or
    append b - d < a <= 1 + max after lifting the entries >= a.  The
    d-ascent sequences themselves are never consulted.
    """
    check_n(n)
    check_d(d)
    if n == 0:
        return [()]
    level = [(1,)]
    for _ in range(n - 1):
        nxt = []
        for h in level:
            b, m = h[-1], max(h)
            for a in range(1, b - d + 1):
                nxt.append(h + (a,))
            for a in range(max(b - d + 1, 1), m + 2):
                nxt.append(tuple(c + 1 if c >= a else c for c in h) + (a,))
        level = nxt
    return sorted(level)


def enumerate_weak_descent(n: int):
    """All weak descent sequences of length n, in lexicographic order."""
    check_n(n)
    def grow(prefix, wdes):
        if len(prefix) == n:
            yield prefix
            return
        for a in range(1, wdes + 2):
            is_wdes = bool(prefix) and a <= prefix[-1]
            yield from grow(prefix + (a,), wdes + (1 if is_wdes else 0))

    # returned, not yielded from, so that a bad n raises at the call
    return grow((), 0)


def enumerate_modinv(n: int) -> list:
    """All modified inversion sequences of length n, as a sorted list: the
    union of the hat orbits of the n! inversion sequences.

    The orbits are disjoint and each lists an image once, so every image is
    computed once, by one O(n^2) fold; at most n per inversion sequence.
    """
    out = [image for w in enumerate_inversion(n) for _, image in _orbit(w)]
    out.sort()
    return out
