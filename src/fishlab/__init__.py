"""Ascent sequences, hat maps, the Burge transpose, d-Fishburn
permutations, subdiagonal permutations and their generating functions."""

from .burge import burge_transpose, burget
from .dyck import (
    count_ddu_factor,
    enumerate_avoiders_213,
    enumerate_dyck_paths,
    gen_tree_counts,
    phi_213,
    tree_iso_map,
)
from .fishburn import (
    contains_fishburn_pattern,
    contains_mesh_a,
    contains_sigma,
    d_active_elements,
    enumerate_d_fishburn,
    enumerate_subdiagonal,
    is_d_fishburn,
    phi_d,
    phi_d_parent,
    subdiagonal,
)
from .hat import (
    enumerate_d_asc,
    enumerate_mod_d_asc,
    enumerate_modinv,
    enumerate_weak_descent,
    h_orbit,
    hat_d,
    hat_inv,
    hat_max,
    modify,
)
from .sequences import (
    asc_set,
    contains_word_pattern,
    d_asc_set,
    d_asc_thresholds,
    flat_steps,
    is_cayley,
    is_d_ascent_seq,
    is_inversion,
    is_weak_descent_seq,
    min_d,
    nub,
    rl_min_pairs,
    wdes_set,
)
from .series import TruncSeries, series_Q, solve_P

__version__ = "0.1.0"
