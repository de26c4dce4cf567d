"""The input contract, stated once: every public name of sequences, hat,
burge, fishburn, dyck and series checks its inputs at the call, and a bad
input raises ValueError there, whose message names what is wrong.  The
names exempt from this are listed, with the reason, in ANY_WORD and
STATE_RULES.

The table is built as products of the three kinds of input, counts,
permutations and words, with the names that take them, and the one-off
rows that are left."""

import re

import pytest

import fishlab
from fishlab import burge, dyck, fishburn, hat, sequences, series

MODULES = (sequences, hat, burge, fishburn, dyck, series)
PUBLIC = {name: value for module in MODULES for name, value in vars(module).items()
          if callable(value) and not name.startswith("_")
          and getattr(value, "__module__", None) == module.__name__}

X = object()  # where a call takes the bad input

# (name, arguments with X at the count, the count's name)
COUNT_CALLS = [
    ("check_count", (X, "n"), "n"),
    ("tree_words", (X, (0, 0), hat.weak_descent_children), "n"),
    ("enumerate_inversion", (X,), "n"),
    ("enumerate_cayley", (X,), "n"),
    ("enumerate_d_asc", (X, 0), "n"),
    ("enumerate_mod_d_asc", (X, 0), "n"),
    ("enumerate_weak_descent", (X,), "n"),
    ("enumerate_modinv", (X,), "n"),
    ("enumerate_perms", (X,), "n"),
    ("enumerate_d_fishburn", (X, 0), "n"),
    ("enumerate_subdiagonal", (X, "increasing-runs"), "n"),
    ("enumerate_dyck_paths", (X,), "n"),
    ("enumerate_avoiders_213", (X,), "n"),
    ("d_asc_set", ((1, 2), X), "d"),
    ("is_d_ascent_seq", ((1,), X), "d"),
    ("hat_d", ((1,), X), "d"),
    ("enumerate_d_asc", (3, X), "d"),
    ("enumerate_mod_d_asc", (3, X), "d"),
    ("phi_d", ((1,), X), "d"),
    ("d_active_elements", ((2, 1), X), "d"),
    ("is_d_fishburn", ((2, 1), X), "d"),
    ("contains_fishburn_pattern", ((2, 1), X), "d"),
    ("active_site_gaps", ((2, 1), X), "d"),
    ("phi_d_parent", ((2, 1), X), "d"),
    ("contains_sigma", ((2, 3, 1), X), "d"),
    ("enumerate_d_fishburn", (3, X), "d"),
    # at d = -1 this counted the DD factor and returned 1
    ("count_ddu_factor", ("UDUDDUU", X), "d"),
    ("solve_P", (X, 0, 5), "d"),
    ("series_Q", (X, -1, 3), "d"),
    ("TruncSeries", ([1], X), "order"),
    ("solve_P", (1, -1, X), "order"),
    ("series_Q", (1, -1, X), "order"),
    ("gen_tree_counts", ("Omega", X), "depth"),
]
# True and False are ints to arithmetic, but no count
BAD_COUNTS = [-1, -3, 1.5, 2.0, 2.5, "1", True, False]

PERM_CALLS = [
    ("check_perm", (X,)),
    ("d_active_elements", (X, 0)),
    ("is_d_fishburn", (X, 0)),
    ("contains_fishburn_pattern", (X, 0)),
    ("active_site_gaps", (X, 0)),
    ("phi_d_parent", (X, 0)),
    ("contains_sigma", (X, 0)),
    ("contains_mesh_a", (X,)),
    ("subdiagonal", (X, "increasing-runs")),
    ("phi_213", (X,)),
]
# an entry such as 1.0 sorts equal to 1, but sums to no int; True sorts
# and sums as 1
BAD_PERMS = [
    (0,), (5,), (1, 1), (2, 3), (0, 1), (1, 3), (5, 5), (1, 3, 3), (2, 2, 3),
    (3, 3, 1), (1.0, 2.0), (1, "a"), (True, 2), (2, True),
]

# (name, arguments with X at the word, a fragment of the message)
WORD_CALLS = [
    *((name, (X, d), f"not a {d}-ascent sequence") for name in ("hat_d", "phi_d")
      for d in range(4)),
    ("hat_max", (X,), "not an inversion sequence"),
    ("hat_inv", (X,), "is not a fold of an inversion sequence"),
    ("h_orbit", (X,), "not an inversion sequence"),
    ("min_d", (X,), "not an inversion sequence"),
]
# an entry below 1, or above its bound: a_i <= i in an inversion sequence,
# a_i <= 1 + (d-ascents left of i) in a d-ascent sequence, and g_k <= k as
# hat_inv peels g; or a letter that is no int, or a bool, though it compares
# as one: (1, 1.5) would give h_orbit a threshold d = 0.5
NOT_INT_WORDS = [(1, 1.5), (1.0,), (True,)]
BAD_WORDS = [(0,), (-1,), (0, 0), (1, 0), (1, -2), (1, 1, 0), (1, 2, -5), (2,), (1, 3),
             *NOT_INT_WORDS]

ONE_OFF = [
    ("hat_d", ((1, 1, 3), 0), "not a 0-ascent sequence"),
    ("phi_d", ((1, 1, 3), 0), "not a 0-ascent sequence"),
    ("min_d", ((2, 1),), "not an inversion sequence"),
    ("modify", ((1, 2), 3), "out of range"),
    # a position is an int, and no bool
    ("modify", ((1, 2), True), "position True out of range"),
    ("modify", ((1, 2), 1.5), "position 1.5 out of range"),
    ("contains_word_pattern", ((1, 2), ()), "empty pattern"),
    ("avoids_all", ((1, 2), [(2, 1), ()]), "empty pattern"),
    # the fold state holds one entry per byte; no such n could finish anyway
    ("enumerate_modinv", (256,), "n must be at most 255"),
    ("enumerate_mod_d_asc", (256, 0), "n must be at most 255"),
    ("enumerate_d_fishburn", (256, 0), "n must be at most 255"),
    ("d_active_elements", ((3, 1.0, 2), 1), "not a permutation of [3]"),
    ("phi_d_parent", ((), 0), "has no parent"),
    ("phi_d_parent", ((2, 3, 1), 0), "not a 0-Fishburn permutation"),
    ("subdiagonal", ((1,), "zigzag"), "unknown mode"),
    ("enumerate_subdiagonal", (3, "zigzag"), "unknown mode"),
    ("phi_213", ((2, 1, 3),), "contains 213"),
    ("count_ddu_factor", ("DDUXYZ", 0), "not a path over U and D"),
    ("count_ddu_factor", (["D", "D", "U"], 0), "not a path over U and D"),
    ("gen_tree_counts", ("Omega", 0), "depth must be at least 1"),
    ("gen_tree_counts", ("Xi", 3), "unknown rule"),
    # a rule is named by a str: a list is no key of the rule table
    ("gen_tree_counts", (["Omega"], 3), "unknown rule"),
    ("tree_iso_map", ((2, 3), "omega-to-theta"), "invalid Omega label"),
    ("tree_iso_map", ((0, 2), "theta-to-omega"), "invalid Theta label"),
    ("tree_iso_map", ((1, 1), "sideways"), "unknown direction"),
    # a label is a pair of ints, and no bools
    *(("tree_iso_map", (label, direction), f"invalid {kind} label")
      for direction, kind in (("omega-to-theta", "Omega"), ("theta-to-omega", "Theta"))
      for label in ((1.5, 1), (True, True), 5)),
    ("check_tableau", ((1,), ()), "rows differ in length"),
    ("check_tableau", ((2, 1), (1, 1)), "not weakly increasing"),
    ("check_tableau", ((1, 3), (1, 2)), "rows must be Cayley permutations"),
    ("check_tableau", ((1, 1), (1, 2)), "weak descents of top must be weak descents of bottom"),
    ("burge_transpose", ((2, 1), (1, 1)), "not weakly increasing"),
    ("burge_transpose", ((1.0, 2.0), (1, 2)), "rows must be Cayley permutations"),
    ("burget", ((1, 3),), "not a Cayley permutation"),
    ("burget", ((1.0, 2.0),), "not a Cayley permutation"),
    # a letter is an int, and no bool, though is_cayley reads 1.0 and True as 1
    *(("burget", (c,), "not a Cayley permutation")
      for c in ((True, 2), (1.0, 2), (2, 1, True), (1, 1.0))),
    # q is exact, an int and no bool, or a Fraction: 0.1 would be read at
    # its binary value, and True or "1/2" only because Fraction parses them
    *((name, (1, q, 3), f"q must be an integer or a Fraction, got {q!r}")
      for name in ("solve_P", "series_Q") for q in (0.1, 0.5, True, "1/2", None)),
]


def _put(args, x):
    return tuple(x if a is X else a for a in args)


# (public name, bad arguments, a fragment of the ValueError's message)
BAD_INPUTS = [
    *((name, _put(args, x), f"{count} must be a nonnegative integer, got {x!r}")
      for name, args, count in COUNT_CALLS for x in BAD_COUNTS),
    *((name, _put(args, p), f"not a permutation of [{len(p)}]")
      for name, args in PERM_CALLS for p in BAD_PERMS),
    *((name, _put(args, w), message) for name, args, message in WORD_CALLS for w in BAD_WORDS),
    *ONE_OFF,
]

# the word statistics and predicates: defined on every word of integers
ANY_WORD = {
    "asc_set", "d_asc_thresholds", "flat_steps", "is_cayley", "is_inversion",
    "is_weak_descent_seq", "nub", "rl_min_pairs", "wdes_set", "word_pattern",
}
# the tree rules, and level_sizes, which runs one: they take only the states
# that their own trees make, unchecked, as every node calls them
STATE_RULES = {
    "avoider_213_children", "cayley_children", "dyck_children", "hat_tree_children",
    "level_sizes", "omega_children", "weak_descent_children",
}


def test_every_public_name_has_bad_inputs_or_is_exempt():
    exported = {name for name, value in vars(fishlab).items()
                if callable(value) and not name.startswith("_")}
    assert exported <= set(PUBLIC)
    assert set(PUBLIC) == {name for name, _, _ in BAD_INPUTS} | ANY_WORD | STATE_RULES


@pytest.mark.parametrize(
    "name, args, message", BAD_INPUTS,
    # a rule shows as its name, not its address
    ids=[re.sub(r"<function (\w+) at \w+>", r"\1", f"{name}{args!r}")
         for name, args, _ in BAD_INPUTS],
)
def test_a_bad_input_raises_value_error_at_the_call(name, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PUBLIC[name](*args)


def test_is_d_ascent_seq_is_false_on_a_letter_that_is_no_int():
    for w in NOT_INT_WORDS:
        for d in range(4):
            assert not fishlab.is_d_ascent_seq(w, d), (w, d)


def test_is_weak_descent_seq_is_false_on_a_letter_that_is_no_int():
    # (1, 1.0) passes the range test at each letter
    for w in NOT_INT_WORDS + [(1, 1.0)]:
        assert not fishlab.is_weak_descent_seq(w), w


def test_is_cayley_is_false_on_a_letter_that_max_or_range_refuses():
    # as the other word predicates are; 1.0 keeps its value, as 1
    for w in [(1.5,), (1, "a"), ("a",), (1, 1.5), (2.5, 1)]:
        assert not fishlab.is_cayley(w), w
    assert fishlab.is_cayley((1.0, 2))
