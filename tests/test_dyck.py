from collections import Counter
from itertools import permutations, product
from math import comb

import pytest

from fishlab import dyck, verify
from fishlab import sequences as seqs

from helpers import outcome


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# reference oracle: whether a string over U and D is a Dyck path
def _is_dyck(path):
    h = 0
    for s in path:
        if s == "U":
            h += 1
        elif s == "D":
            h -= 1
        else:
            return False
        if h < 0:
            return False
    return h == 0


def test_is_dyck():
    assert _is_dyck("")
    assert _is_dyck("UUDD")
    assert not _is_dyck("UDD")
    assert not _is_dyck("DU")
    assert not _is_dyck("UX")
    assert not _is_dyck("UUD")


def test_enumerate_dyck_paths_counts():
    for n in range(9):
        paths = list(dyck.enumerate_dyck_paths(n))
        assert len(paths) == catalan(n)
        assert len(set(paths)) == len(paths)
        assert all(_is_dyck(p) for p in paths)


# reference oracles: the Dyck path and 213-avoider generators as they were
# before they became rules on sequences.tree_words, each a recursive search
def _dyck_paths_by_recursion(n):
    out = []

    def grow(path, height, ups):
        if len(path) == 2 * n:
            out.append(path)
            return
        if ups < n:
            grow(path + "U", height + 1, ups + 1)
        if height > 0:
            grow(path + "D", height - 1, ups)

    grow("", 0, 0)
    return out


def _avoiders_213_by_recursion(n):
    # first entry, then the larger values, then the smaller ones
    def rec(values):
        if not values:
            return [()]
        out = []
        for i, v in enumerate(values):
            rights = rec(values[:i])
            for left in rec(values[i + 1 :]):
                out += [(v,) + left + right for right in rights]
        return out

    return rec(tuple(range(1, n + 1)))


def test_generators_match_their_recursive_oracles():
    for n in range(11):
        assert dyck.enumerate_dyck_paths(n) == _dyck_paths_by_recursion(n)
        assert dyck.enumerate_avoiders_213(n) == _avoiders_213_by_recursion(n)


def test_enumerate_avoiders_213_counts():
    for n in range(9):
        avoiders = set(dyck.enumerate_avoiders_213(n))
        assert len(avoiders) == catalan(n)
        direct = {
            p
            for p in permutations(range(1, n + 1))
            if not any(
                p[i] > p[j] and p[i] < p[k] and p[j] < p[i]
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            )
        } if n <= 7 else avoiders
        assert avoiders == direct


def test_phi_213_small_cases():
    assert dyck.phi_213(()) == ""
    assert dyck.phi_213((1,)) == "UD"
    assert dyck.phi_213((1, 2)) == "UUDD"
    assert dyck.phi_213((2, 1)) == "UDUD"
    with pytest.raises(ValueError):
        dyck.phi_213((2, 1, 3))


def test_count_ddu_factor():
    assert dyck.count_ddu_factor("UUDDUD", 0) == 1
    assert dyck.count_ddu_factor("UUDDUD", 1) == 0
    assert dyck.count_ddu_factor("UUDDUUDDUUDD", 0) == 2
    assert dyck.count_ddu_factor("", 3) == 0
    assert dyck.count_ddu_factor("UUUDDUUDDD", 0) == 1


# reference oracle: count_ddu_factor as it was before it used str.count,
# the factor compared with every window
def _count_ddu_by_windows(path, d):
    target = "DD" + "U" * (d + 1)
    k = len(target)
    return sum(path[i : i + k] == target for i in range(len(path) - k + 1))


def test_count_ddu_factor_matches_window_count():
    for length in range(11):
        for path in map("".join, product("UD", repeat=length)):
            for d in range(4):
                assert dyck.count_ddu_factor(path, d) == _count_ddu_by_windows(path, d)


def test_gen_tree_counts():
    # Omega counts the primitive (no flat step) ascent sequences, the
    # same numbers as Theta's weak descent sequences
    assert dyck.gen_tree_counts("Omega", 8) == [1, 1, 2, 5, 16, 61, 271, 1372]
    with pytest.raises(ValueError):
        dyck.gen_tree_counts("Xi", 3)
    with pytest.raises(ValueError):
        dyck.gen_tree_counts("Omega", 0)


def test_tree_iso_roundtrip():
    # the round trip on valid labels is the tree-iso-child-multisets claim
    with pytest.raises(ValueError):
        dyck.tree_iso_map((2, 3), "omega-to-theta")
    with pytest.raises(ValueError):
        dyck.tree_iso_map((1, 1), "sideways")


# reference oracle: phi_213 as it was when it checked its input by word
# pattern containment before decomposing it
def _phi_213_by_pattern(p):
    if seqs.contains_word_pattern(p, (2, 1, 3)):
        raise ValueError(f"permutation contains 213: {p}")

    def rec(q):
        if not q:
            return ""
        v = q[0]
        left = tuple(x for x in q[1:] if x > v)
        right = tuple(x for x in q[1:] if x < v)
        return "U" + rec(left) + "D" + rec(right)

    return rec(tuple(p))


def test_phi_213_matches_pattern_check():
    for n in range(8):
        for p in permutations(range(1, n + 1)):
            assert outcome(dyck.phi_213, p) == outcome(_phi_213_by_pattern, p)


def test_phi_213_on_long_monotone_permutations():
    # far past the depth of a recursive decomposition
    n = 3000
    assert dyck.phi_213(tuple(range(1, n + 1))) == "U" * n + "D" * n
    assert dyck.phi_213(tuple(range(n, 0, -1))) == "UD" * n
    p = (2, 1) + tuple(range(3, n + 1))
    with pytest.raises(ValueError, match="contains 213"):
        dyck.phi_213(p)


def test_phi_213_rejects_non_permutations():
    for p in ((1, 1), (2, 2, 3), (0,), (1, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            dyck.phi_213(p)


def test_factor_distribution_claim_separates_at_n9(monkeypatch):
    # at n = 9 the DDU count reaches 4, so the four points q = -1, 0, 1, 2
    # the claim once checked cannot tell the true distribution from one
    # off by q(q - 1)(q + 1)(q - 2) = 2q - q^2 - 2q^3 + q^4
    n, d = 9, 0
    real = dyck.count_ddu_factor
    paths = list(dyck.enumerate_dyck_paths(n))
    counts = Counter(real(r, d) for r in paths)
    assert counts == {0: 256, 1: 1792, 2: 2240, 3: 560, 4: 14}
    # one path with 2 factors read as 4 and two with 3 read as 1: each path
    # keeps a factor, so only the distribution is wrong
    misread = {[r for r in paths if real(r, d) == 2][0]: 4}
    misread.update(dict.fromkeys([r for r in paths if real(r, d) == 3][:2], 1))
    wrong = Counter(misread.get(r, real(r, d)) for r in paths)
    assert wrong == {c: counts[c] + e for c, e in enumerate((0, 2, -1, -2, 1))}
    for q in (-1, 0, 1, 2):
        assert sum(m * q**c for c, m in wrong.items()) == sum(
            m * q**c for c, m in counts.items()
        )

    def passes():
        return {check: actual for check, _, _, _, actual in verify._dyck(n, d)}

    assert passes()["factor-distribution"]
    monkeypatch.setattr(dyck, "count_ddu_factor", lambda r, d: misread.get(r, real(r, d)))
    rows = passes()
    assert rows["sigma-factor-transfer"] and not rows["factor-distribution"]
