from itertools import combinations, islice, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fishlab import dyck, fixtures, hat, verify
from fishlab import sequences as seqs


def words(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(*(st.integers(1, n) for _ in range(n)))
    )


def all_words(n):
    return product(range(1, n + 1), repeat=n)


def test_asc_set_examples():
    w, ascents = fixtures.ASC_EXAMPLE
    assert seqs.asc_set(w) == ascents
    assert seqs.asc_set((1,)) == (1,)
    assert seqs.asc_set((3, 2, 1)) == (1,)
    assert seqs.asc_set(()) == ()


def test_d_asc_set_examples():
    w, d, ascents = fixtures.DASC_EXAMPLE
    assert seqs.d_asc_set(w, d) == ascents
    assert seqs.d_asc_set((1, 1), 1) == (1, 2)


def test_d_asc_set_agrees_with_asc_at_d0():
    for n in range(7):
        for w in all_words(n):
            assert seqs.d_asc_set(w, 0) == seqs.asc_set(w)


@given(words(), st.integers(0, 4))
def test_d_asc_monotone_in_d(w, d):
    assert set(seqs.d_asc_set(w, d)) <= set(seqs.d_asc_set(w, d + 1))


def test_wdes_examples():
    assert seqs.wdes_set((1, 2, 1, 2, 4, 2, 2, 3, 2)) == (3, 6, 7, 9)
    assert seqs.wdes_set((1, 1)) == (2,)
    assert seqs.wdes_set((1, 2)) == ()


@given(words())
def test_asc_wdes_partition(w):
    n = len(w)
    a, d = set(seqs.asc_set(w)), set(seqs.wdes_set(w))
    assert a | d == set(range(1, n + 1))
    assert not a & d


def test_nub_examples():
    assert seqs.nub((1, 4, 1, 2, 5, 2, 2, 3, 2)) == (1, 2, 4, 5, 8)
    assert seqs.nub((1, 1, 1)) == (1,)
    assert seqs.nub((1, 2, 3)) == (1, 2, 3)


def test_rl_min_pairs_examples():
    assert seqs.rl_min_pairs((1, 2, 1, 2, 4, 2, 2, 3, 2)) == ((3, 1), (9, 2))
    assert seqs.rl_min_pairs((1, 2, 3)) == ((1, 1), (2, 2), (3, 3))
    assert seqs.rl_min_pairs(()) == ()


def _rl_min_pairs_oracle(w):
    return tuple(
        (i, w[i - 1])
        for i in range(1, len(w) + 1)
        if all(w[i - 1] < w[j] for j in range(i, len(w)))
    )


@given(words())
def test_rl_min_pairs_against_oracle(w):
    assert seqs.rl_min_pairs(w) == _rl_min_pairs_oracle(w)


@given(words())
def test_rl_min_pairs_peeling(w):
    # peeling off the last letter keeps the pairs strictly below it
    if not w:
        return
    prefix_pairs = [
        p for p in seqs.rl_min_pairs(w[:-1]) if p[1] < w[-1]
    ]
    assert seqs.rl_min_pairs(w) == tuple(prefix_pairs) + ((len(w), w[-1]),)


def test_is_cayley_examples():
    assert not seqs.is_cayley((1, 2, 1, 2, 4))
    assert seqs.is_cayley((1, 3, 1, 2))
    assert sum(seqs.is_cayley(w) for w in all_words(3)) == 13


def test_is_inversion_examples():
    assert sum(seqs.is_inversion(w) for w in all_words(3)) == 6
    assert not seqs.is_inversion((1, 3, 1, 2))
    assert seqs.is_inversion((1, 2, 3))


def test_is_inversion_requires_positive_entries():
    assert not seqs.is_inversion((0, 0))
    assert not seqs.is_inversion((-3,))
    assert not seqs.is_inversion((1, 0, 2))
    assert not seqs.is_inversion((1, 1.5))


def test_is_d_ascent_seq_examples():
    found = {w for w in all_words(3) if seqs.is_d_ascent_seq(w, 0)}
    assert found == set(fixtures.ASCSEQ_3)
    assert not seqs.is_d_ascent_seq((1, 1, 3), 0)
    assert seqs.is_d_ascent_seq((1, 1, 3), 1)


def test_small_inversion_sequences_are_d_ascent():
    for d in range(4):
        for n in range(d + 3):
            assert all(
                seqs.is_d_ascent_seq(w, d) for w in seqs.enumerate_inversion(n)
            )


def test_inversion_is_union_of_d_ascent_families():
    for n in range(8):
        inv = set(seqs.enumerate_inversion(n))
        union = {
            w for w in all_words(n)
            if any(seqs.is_d_ascent_seq(w, d) for d in range(n + 1))
        }
        assert inv == union


def test_is_weak_descent_seq_examples():
    assert seqs.is_weak_descent_seq((1, 1))
    assert not seqs.is_weak_descent_seq((1, 2))
    assert seqs.is_weak_descent_seq((1,))


@pytest.mark.parametrize("w", [(0,), (0, 0), (1, -2), (1, 0), (-1,), (1, 1, 0), (1, 2, -5)])
def test_word_predicates_reject_entries_below_one(w):
    assert not seqs.is_weak_descent_seq(w)
    for d in range(4):
        assert not seqs.is_d_ascent_seq(w, d)


def test_min_d_examples():
    assert seqs.min_d((1, 1, 3)) == 1
    assert seqs.min_d((1, 2, 1, 2, 4, 2, 2, 3, 2)) == 0
    assert seqs.min_d((1,)) == 0


def test_min_d_bounded_by_length():
    for n in range(7):
        assert all(seqs.min_d(w) <= n for w in seqs.enumerate_inversion(n))


def _contains_oracle(w, p):
    # independent re-derivation: match value comparisons pairwise
    for sub in combinations(range(len(w)), len(p)):
        if all(
            (w[sub[i]] < w[sub[j]]) == (p[i] < p[j])
            and (w[sub[i]] == w[sub[j]]) == (p[i] == p[j])
            for i in range(len(p))
            for j in range(i + 1, len(p))
        ):
            return True
    return False


def test_contains_word_pattern_examples():
    assert not seqs.contains_word_pattern((1, 2, 3), (1, 1, 2))
    assert seqs.contains_word_pattern((1, 3, 1, 2), (1, 1, 2))
    assert not seqs.contains_word_pattern((1, 3, 2, 2), (1, 1, 2))
    assert seqs.contains_word_pattern((6, 4, 1, 5, 2, 3), (2, 1, 3))
    assert seqs.contains_word_pattern((5, 1), (1,))


@given(words(5), words(3).filter(bool))
def test_contains_word_pattern_against_oracle(w, p):
    assert seqs.contains_word_pattern(w, p) == _contains_oracle(w, p)


def test_flat_steps_examples():
    assert seqs.flat_steps((1, 2, 2, 4, 3, 1, 5)) == (2,)
    assert seqs.flat_steps((1, 1, 1)) == (1, 2)
    assert seqs.flat_steps((1, 2, 3)) == ()


def _cayley_by_set_partitions(n):
    # reference oracle: ordered set partitions of the positions, block j
    # carrying value j, then sorted
    def blocks(rest):
        if not rest:
            yield ()
            return
        for size in range(1, len(rest) + 1):
            for blk in combinations(rest, size):
                tail = tuple(i for i in rest if i not in blk)
                for more in blocks(tail):
                    yield (blk,) + more

    out = []
    for osp in blocks(tuple(range(1, n + 1))):
        w = [0] * n
        for j, blk in enumerate(osp, 1):
            for i in blk:
                w[i - 1] = j
        out.append(tuple(w))
    return sorted(out)


def test_enumerate_cayley_matches_set_partitions():
    for n in range(9):
        assert seqs.enumerate_cayley(n) == _cayley_by_set_partitions(n)


# reference oracle: tree_words as a plain DFS, one call per inner node
def _tree_words_dfs(n, root, children):
    out = []

    def grow(word, state, left):
        if left == 0:
            out.append(word)
            return
        for letter, child in children(state):
            grow(word + (letter,), child, left - 1)

    grow((), root, n)
    return out


def _rules(n):
    """(root, children) of every rule tree_words runs on, for length n."""
    rules = [((d, d, 0, 0), hat.hat_tree_children) for d in range(4)]
    return rules + [
        ((0, 0), hat.weak_descent_children),
        ((n, 0, ()), seqs.cayley_children),
        ((n, 0, (), 0), verify._asc_is_nub_children),
        (tuple(range(1, n + 1)), dyck.avoider_213_children),
        ((0, n), dyck.dyck_children),
        ((0, max(n - 1, 0), 0, 0), hat.hat_tree_children),
        ((1, 1), dyck.omega_children),
    ]


def _depth(n, children):
    """The depth of the leaves of a rule's tree for length n."""
    return 2 * n if children is dyck.dyck_children else n


def test_tree_words_matches_plain_dfs():
    for n in range(9):
        for root, children in _rules(n):
            m = _depth(n, children)
            assert seqs.tree_words(m, root, children) == _tree_words_dfs(
                m, root, children), (n, children.__name__, root)


def test_no_rule_dead_ends_above_its_leaves():
    # every node above the leaves has a child, so each prefix is the
    # prefix of a member, and level_sizes only grows with the depth
    for n in range(10):
        for root, children in _rules(n):
            level = {root}
            for _ in range(_depth(n, children)):
                assert all(children(state) for state in level), (n, children.__name__)
                level = {child for state in level for _, child in children(state)}


def _fubini(n_max):
    # ordered set partitions: a(n) = sum_k C(n, k) a(n - k), a(0) = 1
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a


def _level(depth, root, children):
    return next(islice(seqs.level_sizes(root, children), depth, None))


def test_cayley_rule_counts_and_never_dead_ends():
    for n, count in enumerate(_fubini(12)):
        level = {(n, 0, ())}
        for _ in range(n):
            # every node above depth n has a child
            assert all(seqs.cayley_children(state) for state in level)
            level = {child for state in level for _, child in seqs.cayley_children(state)}
        assert _level(n, (n, 0, ()), seqs.cayley_children) == count


def test_rule_levels_are_catalan():
    # the 213-avoiders of [n] and the Dyck paths of semilength n are
    # counted by Catalan(n); the Fishburn numbers count the hat tree's
    # levels at d = 0, in test_level_sizes_match_zagier_identity
    for n in range(11):
        catalan = comb(2 * n, n) // (n + 1)
        unused = tuple(range(1, n + 1))
        assert _level(n, unused, dyck.avoider_213_children) == catalan
        assert _level(2 * n, (0, n), dyck.dyck_children) == catalan


def _zagier_fishburn(N):
    """[x^0..x^N] of Zagier's sum_n prod_{i <= n} (1 - (1 - x)^i), in
    integer polynomials (Topology 40, 2001).  Each factor has no constant
    term, so the terms past n = N vanish below x^(N + 1)."""
    total = [1] + [0] * N  # the empty product, n = 0
    prod = [1] + [0] * N
    for i in range(1, N + 1):
        # 1 - (1 - x)^i, up to x^N
        factor = [0] + [(-1) ** (k + 1) * comb(i, k) for k in range(1, N + 1)]
        prod = [sum(prod[j] * factor[k - j] for j in range(k + 1)) for k in range(N + 1)]
        total = [t + c for t, c in zip(total, prod)]
    return total


def test_level_sizes_match_zagier_identity():
    # the ascent sequences of length n, the 0-ascent tree's level n, are
    # counted by the Fishburn numbers (Bousquet-Melou, Claesson, Dukes and
    # Kitaev, JCTA 117, 2010), whose series Zagier gave
    zagier = _zagier_fishburn(40)
    assert zagier[: len(fixtures.FISHBURN_NUMBERS)] == fixtures.FISHBURN_NUMBERS
    sizes = seqs.level_sizes((0, 0, 0, 0), hat.hat_tree_children)
    assert list(islice(sizes, 41)) == zagier
