"""End-to-end acceptance checks.

Every claim registered in fishlab.verify runs here at the caps of its grid;
the checks themselves live only in the registry.  The worked examples and
the transport corollary, which the registry does not hold, are plain tests.
All comparisons are exact integer or exact structure equality.
"""

import math

import pytest

from fishlab import burge, dyck, fishburn, fixtures, hat, verify
from fishlab import sequences as seqs


@pytest.mark.parametrize("claim", verify.REGISTRY, ids=lambda claim: claim.names[0])
def test_registered_claim(claim):
    # every grid caps its sizes, so infinite n_max and d_max run it at its caps
    reports = list(verify.run_claim(claim, math.inf, math.inf))
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
