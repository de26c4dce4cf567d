"""Helpers shared by the unit test modules."""


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
