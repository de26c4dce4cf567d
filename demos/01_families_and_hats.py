"""Walk through the basic sequence families and the hat maps.

Run: python3 demos/01_families_and_hats.py
"""

from fishlab import hat, sequences as seqs

w = (1, 2, 1, 2, 4, 2, 2, 3, 2)
print("word          ", w)
print("ascent set    ", seqs.asc_set(w))
print("weak descents ", seqs.wdes_set(w))
print("nub           ", seqs.nub(w))
print("rl-min pairs  ", seqs.rl_min_pairs(w))
print("hat_0         ", hat.hat_d(w, 0))
print()

# the hat of a d-ascent sequence is a Cayley permutation whose nub is the
# d-ascent set of the original word
v = (1, 2, 1, 3, 1, 5, 3, 2)
print("word          ", v)
print("2-ascent set  ", seqs.d_asc_set(v, 2))
print("hat_2         ", hat.hat_d(v, 2))
print("nub of image  ", seqs.nub(hat.hat_d(v, 2)))
print()

# family sizes for small n
for n in range(7):
    print(
        f"n={n}:",
        "dasc(0) =", len(hat.enumerate_d_asc(n, 0)),
        " modasc(0) =", len(hat.enumerate_mod_d_asc(n, 0)),
        " modinv =", len(hat.enumerate_modinv(n)),
        " wdesc =", len(hat.enumerate_weak_descent(n)),
    )
