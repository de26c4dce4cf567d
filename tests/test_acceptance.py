"""End-to-end acceptance checks.

Every claim of the paper is stated once, in the fishlab.verify registry,
and runs here at the caps of its grid.  The unit test modules hold the
worked examples, the reference oracles and the properties that go past
the grids, not the claims again.  The transport corollary on the
modified words, which the registry does not hold, is a plain test.
All comparisons are exact integer or exact structure equality.
"""

import math

import pytest

from fishlab import fixtures, hat, verify
from fishlab import sequences as seqs


@pytest.mark.parametrize("claim", verify.REGISTRY, ids=lambda claim: claim.names[0])
def test_registered_claim(claim):
    # every grid caps its sizes, so infinite n_max and d_max run it at its caps
    reports = list(verify.run_claim(claim, math.inf, math.inf))
    assert {r["check"] for r in reports} == set(claim.names)
    failed = [r for r in reports if not r["pass"]]
    assert not failed, failed[0]


def test_12_transport_corollary():
    # the modified d-ascent words avoiding 112 and 213 are as many as the
    # 213-avoiding d-Fishburn permutations, which table-213-cross-check
    # counts; 213, the basis's last pattern, is searched first, as most of
    # the words contain it
    basis = fixtures.BASIS_213[::-1]
    for d in range(3):
        for n in range(9):
            count = sum(1 for w in hat.enumerate_mod_d_asc(n, d) if seqs.avoids_all(w, basis))
            assert count == fixtures.TABLE_213[d][n]
