"""Vendored expected values used by the verification suites and tests.

All values here are external ground truth: worked hand computations and
published count tables.  The verify suites read expected values only
from this file.
"""

# hat_0 of 121242232
HAT0_EXAMPLE = ((1, 2, 1, 2, 4, 2, 2, 3, 2), (1, 4, 1, 2, 5, 2, 2, 3, 2))

# hat_2 of 12131532
HAT2_EXAMPLE = ((1, 2, 1, 3, 1, 5, 3, 2), (3, 5, 1, 4, 1, 6, 4, 2))

# hat_1 of 11
HAT1_EXAMPLE = ((1, 1), (2, 1))

# max-hat of 1224315 and of 122431
HATMAX_EXAMPLES = (
    ((1, 2, 2, 4, 3, 1, 5), (2, 6, 3, 7, 4, 1, 5)),
    ((1, 2, 2, 4, 3, 1), (2, 5, 3, 6, 4, 1)),
)

# burget of 141252232
BURGET_EXAMPLE = ((1, 4, 1, 2, 5, 2, 2, 3, 2), (3, 1, 9, 7, 6, 4, 8, 2, 5))

# 2-active elements of 641523
ACTIVE_EXAMPLE = ((6, 4, 1, 5, 2, 3), 2, frozenset({1, 2, 3, 5, 6}))

# ascent set of 121242232
ASC_EXAMPLE = ((1, 2, 1, 2, 4, 2, 2, 3, 2), (1, 2, 4, 5, 8))

# 2-ascent set of 12131532
DASC_EXAMPLE = ((1, 2, 1, 3, 1, 5, 3, 2), 2, (1, 2, 3, 4, 6, 8))

# the five ascent sequences of length 3
ASCSEQ_3 = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]

# modified d-ascent sequences of length 2 for d = 0 and d = 1
MODASC_2 = {0: {(1, 1), (1, 2)}, 1: {(2, 1), (1, 2)}}

# number of modified inversion sequences of length n = 0..8
MODINV_COUNTS = [1, 1, 3, 10, 43, 224, 1396, 10136, 84057]

# the Fishburn numbers, n = 0..8: ascent sequences and Fishburn
# permutations of length n (Bousquet-Mélou, Claesson, Dukes, Kitaev, JCTA 2010)
FISHBURN_NUMBERS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335]

# number of 213-avoiding d-Fishburn permutations of length n = 0..12,
# one row per d = 0..5
TABLE_213 = {
    0: [1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
    1: [1, 1, 2, 5, 13, 35, 97, 275, 794, 2327, 6905, 20705, 62642],
    2: [1, 1, 2, 5, 14, 41, 124, 384, 1212, 3885, 12614, 41400, 137132],
    3: [1, 1, 2, 5, 14, 42, 131, 420, 1375, 4576, 15434, 52639, 181230],
    4: [1, 1, 2, 5, 14, 42, 132, 428, 1420, 4796, 16432, 56966, 199448],
    5: [1, 1, 2, 5, 14, 42, 132, 429, 1429, 4851, 16718, 58331, 205632],
}

# Catalan numbers C_0..C_12
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]

# the basis transporting 213-avoidance to modified sequences
BASIS_213 = [(1, 1, 2), (2, 1, 3)]

# conjectured restrictions of max-hat: sequence pattern -> permutation patterns
CONJECTURED_RESTRICTIONS = {
    (1, 2, 3): [(1, 2, 3), (2, 1, 3)],
    (1, 1, 2): [(2, 1, 3), (3, 1, 2)],
    (1, 2, 1): [(2, 1, 3), (2, 3, 1)],
    (2, 1, 3): [(2, 1, 3), (4, 5, 1, 2, 3)],
}
