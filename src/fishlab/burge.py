"""Two-row Burge tableaux, the Burge transpose, and the burget map."""

from .sequences import is_cayley, wdes_set


def check_tableau(top, bottom) -> None:
    if len(top) != len(bottom):
        raise ValueError("rows differ in length")
    if any(top[i] > top[i + 1] for i in range(len(top) - 1)):
        raise ValueError("top row is not weakly increasing")
    if not is_cayley(top) or not is_cayley(bottom):
        raise ValueError("rows must be Cayley permutations")
    if not set(wdes_set(top)) <= set(wdes_set(bottom)):
        raise ValueError("weak descents of top must be weak descents of bottom")


def burge_transpose(top, bottom):
    """Flip every column, then sort columns by top entry, ties by bottom
    entry weakly decreasing.  An involution on valid tableaux."""
    check_tableau(top, bottom)
    cols = sorted(zip(bottom, top), key=lambda c: (c[0], -c[1]))
    new_top = tuple(c[0] for c in cols)
    new_bottom = tuple(c[1] for c in cols)
    return new_top, new_bottom


def burget(c) -> tuple:
    """Bottom row of the transpose of (identity; c); a permutation of [n],
    the group inverse when c is one.  Defined exactly on the Cayley
    permutations, of letters that are ints and no bools: any other word
    raises ValueError.  Checks that once, which is all of check_tableau
    that (identity; c) can fail.  The transpose sorts the columns by
    (c_i, -i), so its bottom row is n, ..., 1 stably sorted by c_i: O(n log n)."""
    if c and ({*map(type, c)} != {int}
              or min(values := set(c)) != 1 or max(values) != len(values)):
        raise ValueError(f"not a Cayley permutation: {c}")
    return tuple(sorted(range(len(c), 0, -1), key=(0, *c).__getitem__))
