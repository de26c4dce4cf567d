"""Helpers shared by the unit test modules."""

from itertools import product


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def accepts(f, *args):
    """Whether f(*args) returns instead of raising ValueError."""
    try:
        f(*args)
    except ValueError:
        return False
    return True


def bad_words(max_n=5):
    """Every word of length <= max_n over [-1, n + 1]: mostly non-members
    of any family, the bad-input side of a differential test."""
    for n in range(max_n + 1):
        yield from product(range(-1, n + 2), repeat=n)
