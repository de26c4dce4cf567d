"""Every name that fishlab exports checks its inputs at the call: a bad
input raises ValueError there, whose message names what is wrong."""

import re

import pytest

import fishlab

# (exported name, bad arguments, a fragment of the ValueError's message)
BAD_INPUTS = [
    ("burge_transpose", ((2, 1), (1, 1)), "not weakly increasing"),
    ("burge_transpose", ((1.0, 2.0), (1, 2)), "rows must be Cayley permutations"),
    ("burget", ((1, 3),), "not a Cayley permutation"),
    ("burget", ((1.0, 2.0),), "not a Cayley permutation"),
    ("count_ddu_factor", ("DDUXYZ", 0), "not a path over U and D"),
    ("count_ddu_factor", (["D", "D", "U"], 0), "not a path over U and D"),
    ("count_ddu_factor", ("UDUDDUU", -1), "d must be a nonnegative integer"),
    ("enumerate_avoiders_213", (True,), "n must be a nonnegative integer"),
    ("enumerate_dyck_paths", (2.5,), "n must be a nonnegative integer"),
    ("gen_tree_counts", ("Omega", True), "depth must be a nonnegative integer"),
    ("gen_tree_counts", ("Omega", 1.5), "depth must be a nonnegative integer"),
    ("gen_tree_counts", ("Omega", 0), "depth must be at least 1"),
    ("gen_tree_counts", ("Xi", 3), "unknown rule"),
    ("phi_213", ((1, 1),), "not a permutation"),
    ("phi_213", ((2, 1, 3),), "contains 213"),
    ("phi_213", ((1.0, 2.0),), "not a permutation of [2]"),
    ("phi_213", ((1, "a"),), "not a permutation of [2]"),
    ("tree_iso_map", ((2, 3), "omega-to-theta"), "invalid Omega label"),
    ("tree_iso_map", ((1, 1), "sideways"), "unknown direction"),
    ("contains_fishburn_pattern", ((1, 1), 0), "not a permutation"),
    # an entry such as 1.0 sorts equal to 1, but sums to no int
    ("contains_fishburn_pattern", ((1.0, 2.0), 0), "not a permutation of [2]"),
    ("contains_mesh_a", ((3, 3, 1),), "not a permutation"),
    ("contains_mesh_a", ((1.0, 2.0),), "not a permutation of [2]"),
    ("contains_mesh_a", ((1, "a"),), "not a permutation of [2]"),
    ("contains_sigma", ((1, 1), 0), "not a permutation"),
    ("contains_sigma", ((1.0, 2.0), 0), "not a permutation of [2]"),
    ("contains_sigma", ((1, "a"), 0), "not a permutation of [2]"),
    ("contains_sigma", ((2, 3, 1), True), "d must be a nonnegative integer"),
    ("d_active_elements", ((1, 1), 0), "not a permutation"),
    ("d_active_elements", ((1.0, 2.0), 0), "not a permutation of [2]"),
    ("d_active_elements", ((3, 1.0, 2), 1), "not a permutation of [3]"),
    ("d_active_elements", ((1, "a"), 0), "not a permutation of [2]"),
    ("d_active_elements", ((2, 1), 1.5), "d must be a nonnegative integer"),
    ("enumerate_d_fishburn", (True, 0), "n must be a nonnegative integer"),
    ("enumerate_d_fishburn", (3, -1), "d must be a nonnegative integer"),
    ("enumerate_subdiagonal", (True, "increasing-runs"), "n must be a nonnegative integer"),
    ("enumerate_subdiagonal", (3, "zigzag"), "unknown mode"),
    ("is_d_fishburn", ((1, 3), 0), "not a permutation"),
    ("is_d_fishburn", ((1.0, 2.0), 0), "not a permutation of [2]"),
    ("phi_d", ((2,), 0), "not a 0-ascent sequence"),
    ("phi_d", ((1,), "1"), "d must be a nonnegative integer"),
    ("phi_d_parent", ((), 0), "has no parent"),
    ("phi_d_parent", ((1.0, 2.0), 0), "not a permutation of [2]"),
    ("phi_d_parent", ((2, 3, 1), 0), "not a 0-Fishburn permutation"),
    ("subdiagonal", ((5, 5), "increasing-runs"), "not a permutation"),
    ("subdiagonal", ((1,), "zigzag"), "unknown mode"),
    ("subdiagonal", ((1.0, 2.0), "increasing-runs"), "not a permutation of [2]"),
    ("subdiagonal", ((1, "a"), "increasing-runs"), "not a permutation of [2]"),
    ("enumerate_d_asc", (True, 0), "n must be a nonnegative integer"),
    ("enumerate_d_asc", (3, True), "d must be a nonnegative integer"),
    ("enumerate_mod_d_asc", (2.0, 0), "n must be a nonnegative integer"),
    ("enumerate_mod_d_asc", (3, -1), "d must be a nonnegative integer"),
    ("enumerate_modinv", (True,), "n must be a nonnegative integer"),
    ("enumerate_modinv", (256,), "n must be at most 255"),
    ("enumerate_weak_descent", (-1,), "n must be a nonnegative integer"),
    ("h_orbit", ((2,),), "not an inversion sequence"),
    ("hat_d", ((2,), 0), "not a 0-ascent sequence"),
    ("hat_d", ((1,), -1), "d must be a nonnegative integer"),
    ("hat_inv", ((2,),), "is not a fold of an inversion sequence"),
    ("hat_max", ((1, 1.5),), "not an inversion sequence"),
    ("hat_max", ((1, 3),), "not an inversion sequence"),
    ("modify", ((1, 2), 3), "out of range"),
    ("contains_word_pattern", ((1, 2), ()), "empty pattern"),
    ("d_asc_set", ((1, 2), -1), "d must be a nonnegative integer"),
    ("is_d_ascent_seq", ((1,), 1.5), "d must be a nonnegative integer"),
    ("min_d", ((2,),), "not an inversion sequence"),
    ("TruncSeries", ([1], 2.0), "order must be a nonnegative integer"),
    ("TruncSeries", ([1], -1), "order must be a nonnegative integer"),
    ("series_Q", (1, -1, True), "order must be a nonnegative integer"),
    ("series_Q", (True, -1, 3), "d must be a nonnegative integer"),
    ("solve_P", (1, -1, 2.5), "order must be a nonnegative integer"),
    ("solve_P", (-1, 0, 5), "d must be a nonnegative integer"),
]

# the word statistics and predicates: defined on every word of integers
ANY_WORD = {
    "asc_set", "d_asc_thresholds", "flat_steps", "is_cayley", "is_inversion",
    "is_weak_descent_seq", "nub", "rl_min_pairs", "wdes_set",
}


def test_every_export_has_bad_inputs_or_takes_any_word():
    exported = {name for name, value in vars(fishlab).items()
                if callable(value) and not name.startswith("_")}
    assert exported == {name for name, _, _ in BAD_INPUTS} | ANY_WORD


@pytest.mark.parametrize(
    "name, args, message", BAD_INPUTS,
    ids=[f"{name}{args!r}" for name, args, _ in BAD_INPUTS],
)
def test_a_bad_input_raises_value_error_at_the_call(name, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(fishlab, name)(*args)
