"""End-to-end acceptance checks.

Every claim registered in fishlab.verify runs here at its acceptance size;
the checks themselves live only in the registry.  The worked examples and
the transport corollary, which the registry does not hold, are plain tests.
All comparisons are exact integer or exact structure equality.
"""

import pytest

from fishlab import burge, dyck, fishburn, fixtures, hat, verify
from fishlab import sequences as seqs

# (n_max, d_max) at which each registered claim runs, never below the
# (6, 2) that `fishlab verify` runs by default; an entry of the registry
# runs at the largest n_max and d_max among its claims.  A grid that
# ignores n_max or d_max, or caps it lower, is noted
ACCEPTANCE_SIZE = {
    "dasc-cardinality": (6, 3),  # n <= d + 3
    "hat-image-equals-recursive": (8, 3),
    "hat-cayley-nub-max": (8, 3),
    "hat-last-two-letters": (8, 3),
    "hat-inv-roundtrip": (8, 3),
    "modasc0-characterization": (8, 2),  # n <= 8, d = 0
    "orbit-disjoint": (8, 2),  # no d
    "orbit-hatinv-recovers": (8, 2),  # no d
    "modinv-count": (8, 2),  # n <= 8, no d
    "orbit-preserves-stats": (7, 2),  # no d
    "transpose-involution": (6, 2),  # 200 random words of length <= 8
    "burget-inverts-perms": (6, 2),  # n <= 6, no d
    "burget-injective-on-modasc": (8, 3),
    "phi-equals-burget-hat": (7, 3),
    "fishburn-equals-phi-image": (7, 3),
    "fishburn-equals-pattern-class": (7, 3),
    "fishburn-number": (8, 2),  # n <= 8, d = 0
    "hatmax-ascseq-is-irsub": (8, 2),  # no d
    "hatmax-wdesc-is-drsub": (8, 2),  # no d
    "flat-step-mesh-correspondence": (8, 2),  # no d
    "subdiag-insertion-law": (7, 2),  # n <= 7, no d
    "omega-counts-primitive": (8, 2),  # no d
    "theta-counts-wdesc": (8, 2),  # no d
    "tree-iso-child-multisets": (6, 2),  # labels (a, l), l <= a <= 8
    "phi213-bijective": (8, 3),
    "sigma-factor-transfer": (8, 3),
    "factor-distribution": (8, 3),
    "table-213-row": (6, 2),  # d <= 5 at N = 12
    "q0-closed-form": (6, 2),  # N = 12
    "q-algebraic-residual": (6, 2),  # d = 1, 2 at N = 12
    "catalan-convergence": (10, 2),  # n <= 10, d = max(n - 2, 0)
    "table-213-cross-check": (9, 3),  # n <= 9, d <= 3
}


def test_every_registered_claim_has_an_acceptance_size():
    names = [name for claim in verify.REGISTRY for name in claim.names]
    assert sorted(names) == sorted(ACCEPTANCE_SIZE)


@pytest.mark.parametrize("claim", verify.REGISTRY, ids=lambda claim: claim.names[0])
def test_registered_claim(claim):
    n_max = max(ACCEPTANCE_SIZE[name][0] for name in claim.names)
    d_max = max(ACCEPTANCE_SIZE[name][1] for name in claim.names)
    reports = list(verify.run_claim(claim, n_max, d_max))
    assert {r["check"] for r in reports} == set(claim.names)
    failed = [r for r in reports if not r["pass"]]
    assert not failed, failed[0]


def test_01_worked_examples():
    assert hat.hat_d(fixtures.HAT0_EXAMPLE[0], 0) == fixtures.HAT0_EXAMPLE[1]
    assert hat.hat_d(fixtures.HAT2_EXAMPLE[0], 2) == fixtures.HAT2_EXAMPLE[1]
    for word, image in fixtures.HATMAX_EXAMPLES:
        assert hat.hat_max(word) == image
    assert burge.burget(fixtures.BURGET_EXAMPLE[0]) == fixtures.BURGET_EXAMPLE[1]
    perm, d, active = fixtures.ACTIVE_EXAMPLE
    assert fishburn.d_active_elements(perm, d) == active


def test_12_transport_corollary():
    for d in range(3):
        for n in range(9):
            count = sum(
                1
                for w in hat.enumerate_mod_d_asc(n, d)
                if not seqs.contains_word_pattern(w, (1, 1, 2))
                and not seqs.contains_word_pattern(w, (2, 1, 3))
            )
            direct = sum(
                1
                for p in dyck.enumerate_avoiders_213(n)
                if fishburn.is_d_fishburn(p, d)
            )
            assert count == direct == fixtures.TABLE_213[d][n]
