import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fishlab import burge, dyck, fishburn, fixtures, hat
from fishlab import sequences as seqs

from helpers import accepts, outcome


def test_d_active_elements_example():
    perm, d, expected = fixtures.ACTIVE_EXAMPLE
    assert fishburn.d_active_elements(perm, d) == frozenset(expected)


def test_d_active_elements_edge_cases():
    assert fishburn.d_active_elements((), 0) == frozenset()
    assert fishburn.d_active_elements((1,), 0) == frozenset({1})
    # in an increasing permutation everything is active
    assert fishburn.d_active_elements((1, 2, 3, 4), 0) == frozenset({1, 2, 3, 4})
    # in a decreasing permutation only 1 ever precedes nothing smaller
    assert fishburn.d_active_elements((3, 2, 1), 0) == frozenset({1})
    assert fishburn.d_active_elements((3, 2, 1), 5) == frozenset({1, 2, 3})


def test_activity_monotone_in_d():
    for p in permutations(range(1, 7)):
        prev = fishburn.d_active_elements(p, 0)
        for d in range(1, 7):
            cur = fishburn.d_active_elements(p, d)
            assert prev <= cur
            prev = cur


def _contains_sigma_oracle(p, d):
    # brute force over all d+3 element selections
    n = len(p)
    for sub in combinations(range(n), d + 3):
        v = p[sub[0]]
        if sub[1] != sub[0] + 1 or p[sub[1]] < v:
            continue
        if p[sub[-1]] != v - 1:
            continue
        mids = [p[j] for j in sub[2:-1]]
        if all(x < v - 1 for x in mids) and mids == sorted(mids) and len(set(mids)) == len(mids):
            return True
    return False


def test_contains_sigma_against_oracle():
    for d in range(3):
        for n in range(min(7, d + 5) + 1):
            for p in permutations(range(1, n + 1)):
                assert fishburn.contains_sigma(p, d) == _contains_sigma_oracle(p, d)


def test_contains_mesh_a_examples():
    # adjacent descent with no earlier value strictly between the pair
    assert fishburn.contains_mesh_a((2, 1))
    assert not fishburn.contains_mesh_a((1, 2))
    assert fishburn.contains_mesh_a((1, 3, 2))
    assert fishburn.contains_mesh_a((3, 1, 2))
    # the earlier 2 shields the descent 3 1
    assert not fishburn.contains_mesh_a((2, 3, 1))


def test_active_site_gaps_example():
    perm, d, expected = fixtures.ACTIVE_EXAMPLE
    gaps = fishburn.active_site_gaps(perm, d)
    assert gaps[0] == 0
    assert len(gaps) == len(expected) + 1


def test_phi_d_parent_recovers_insertion():
    for d in range(3):
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                if not fishburn.is_d_fishburn(p, d):
                    continue
                parent, label = fishburn.phi_d_parent(p, d)
                gaps = fishburn.active_site_gaps(parent, d)
                assert 1 <= label <= len(gaps)
                rebuilt = tuple(
                    x for x in p if x != n
                )
                assert parent == rebuilt


def test_phi_d_parent_rejects_non_member():
    with pytest.raises(ValueError):
        fishburn.phi_d_parent((2, 3, 1), 0)


def test_subdiagonal_classes():
    # 231 avoidance in run-block form: every entry of block i is at most n+1-i
    assert fishburn.subdiagonal((1,), "increasing-runs")
    assert fishburn.subdiagonal((3, 1, 2), "increasing-runs")
    assert not fishburn.subdiagonal((2, 1, 3), "increasing-runs")
    assert not fishburn.subdiagonal((2, 1, 6, 5, 4, 3, 7), "decreasing-runs")


# reference oracles: all n! permutations filtered through the public
# predicates, and phi_d with the active sites recomputed at every step
def _fishburn_filter(n, d):
    return [p for p in permutations(range(1, n + 1)) if fishburn.is_d_fishburn(p, d)]


def _subdiagonal_filter(n, mode):
    return [p for p in permutations(range(1, n + 1)) if fishburn.subdiagonal(p, mode)]


def _phi_d_from_scratch(w, d):
    # recomputes the active sites of the whole permutation at every step
    p = []
    for m, a in enumerate(w, 1):
        p.insert(fishburn.active_site_gaps(tuple(p), d)[a - 1], m)
    return tuple(p)


@pytest.mark.parametrize("d", range(4))
def test_enumerate_d_fishburn_matches_filter(d):
    for n in range(9):
        assert fishburn.enumerate_d_fishburn(n, d) == _fishburn_filter(n, d)


@pytest.mark.parametrize("mode", fishburn.SUBDIAGONAL_MODES)
def test_enumerate_subdiagonal_matches_filter(mode):
    for n in range(9):
        assert list(fishburn.enumerate_subdiagonal(n, mode)) == _subdiagonal_filter(n, mode)


# reference oracle: enumerate_subdiagonal as it was before it became a rule
# on sequences.tree_words, a recursive search with the same two cuts
def _subdiagonal_by_recursion(n, mode):
    if n == 0:
        return [()]
    increasing = mode == "increasing-runs"
    used = [False] * (n + 1)
    out = []

    def grow(prefix, block, top):
        # top is the largest unused value
        if len(prefix) == n - 1:
            out.append(prefix + (top,))
            return
        # a sentinel that no first value continues the run of
        last = prefix[-1] if prefix else (n + 1 if increasing else 0)
        below = 0  # the largest unused value below v
        for v in range(1, top + 1):
            if used[v]:
                continue
            b = block if (last < v if increasing else last > v) else block + 1
            room = n + 1 - b if increasing else n - b
            if v <= n + 1 - b and (v == top or top <= room):
                used[v] = True
                grow(prefix + (v,), b, below if v == top else top)
                used[v] = False
            below = v

    grow((), 0, n)
    return out


@pytest.mark.parametrize("mode", fishburn.SUBDIAGONAL_MODES)
def test_enumerate_subdiagonal_matches_recursive_search(mode):
    for n in range(10):
        assert fishburn.enumerate_subdiagonal(n, mode) == _subdiagonal_by_recursion(n, mode)


# reference oracle: subdiagonal as it was before its one pass, with the run
# blocks built as lists first and every entry checked against its block's cap
def _subdiagonal_by_blocks(p, mode):
    increasing = mode == "increasing-runs"
    blocks = []
    for v in p:
        if blocks and (blocks[-1][-1] < v if increasing else blocks[-1][-1] > v):
            blocks[-1].append(v)
        else:
            blocks.append([v])
    n = len(p)
    return all(c <= n + 1 - i for i, blk in enumerate(blocks, 1) for c in blk)


@pytest.mark.parametrize("mode", fishburn.SUBDIAGONAL_MODES)
def test_subdiagonal_matches_blocks(mode):
    # the words over [1..n] include every tie between neighbours, which the
    # unchecked form decides and the public form refuses
    for n in range(7):
        for w in product(range(1, n + 1), repeat=n):
            assert fishburn._subdiagonal(w, mode) == _subdiagonal_by_blocks(w, mode)
            is_perm = sorted(w) == list(range(1, n + 1))
            assert accepts(fishburn.subdiagonal, w, mode) == is_perm
    for p in permutations(range(1, 9)):
        assert fishburn.subdiagonal(p, mode) == _subdiagonal_by_blocks(p, mode)


def test_phi_d_matches_from_scratch_insertion():
    for d in range(4):
        for n in range(8):
            for w in hat.enumerate_d_asc(n, d):
                assert fishburn.phi_d(w, d) == _phi_d_from_scratch(w, d)


# reference oracles: phi_d and enumerate_d_fishburn as they were before
# they read the activity of each new maximum off the d-ascents: activity
# flags on the entries, with the last step of the activity sweep redone
# at every insertion
def _max_is_active(flags, gap, below, d):
    # below is the index of m - 1 (-1 when there is none)
    return gap > below or sum(flags[gap:below]) < d


def _phi_d_by_flags(w, d):
    seqs.check_count(d, "d")
    if not seqs.is_d_ascent_seq(w, d):
        raise ValueError(f"not a {d}-ascent sequence: {w}")
    p, flags = [], []
    below = -1
    for m, a in enumerate(w, 1):
        gap = 0
        for _ in range(a - 1):
            gap = flags.index(True, gap) + 1
        active = _max_is_active(flags, gap, below, d)
        p.insert(gap, m)
        flags.insert(gap, active)
        below = gap
    return tuple(p)


def _d_fishburn_flag_tree(n, d):
    if n == 0:
        return [()]
    out = []

    def grow(p, flags, below):
        gaps = [0] + [i + 1 for i, active in enumerate(flags) if active]
        m = len(p) + 1
        if m == n:
            out.extend(p[:g] + (m,) + p[g:] for g in gaps)
            return
        for g in gaps:
            active = _max_is_active(flags, g, below, d)
            grow(p[:g] + (m,) + p[g:], flags[:g] + (active,) + flags[g:], g)

    grow((), (), -1)
    out.sort()
    return out


def test_phi_d_matches_flags():
    for d in range(4):
        for n in range(8):
            for w in hat.enumerate_d_asc(n, d):
                assert fishburn.phi_d(w, d) == _phi_d_by_flags(w, d)
        # every word of length <= 5 over [-1, n + 1]: mostly non-members
        for n in range(6):
            for w in product(range(-1, n + 2), repeat=n):
                assert outcome(fishburn.phi_d, w, d) == outcome(_phi_d_by_flags, w, d)


def test_enumerate_d_fishburn_matches_flag_tree():
    for d in range(4):
        for n in range(9):
            assert fishburn.enumerate_d_fishburn(n, d) == _d_fishburn_flag_tree(n, d)


@pytest.mark.parametrize("d", [-1, -3, 1.5, True, False])
@pytest.mark.parametrize("call", [
    lambda d: hat.hat_d((1, 1, 2), d),
    lambda d: hat.enumerate_d_asc(3, d),
    lambda d: hat.enumerate_mod_d_asc(3, d),
    lambda d: fishburn.phi_d((1, 1), d),
    lambda d: fishburn.d_active_elements((2, 1), d),
    lambda d: fishburn.is_d_fishburn((2, 1), d),
    lambda d: fishburn.enumerate_d_fishburn(3, d),
    lambda d: seqs.d_asc_set((1, 2, 1), d),
    lambda d: seqs.is_d_ascent_seq((1, 2, 1), d),
    # at d = -1 this counted the DD factor and returned 1
    lambda d: dyck.count_ddu_factor("UDUDDUU", d),
    lambda d: fishburn.contains_sigma((2, 3, 1), d),
], ids=[
    "hat_d", "enumerate_d_asc", "enumerate_mod_d_asc", "phi_d",
    "d_active_elements", "is_d_fishburn", "enumerate_d_fishburn",
    "d_asc_set", "is_d_ascent_seq", "count_ddu_factor", "contains_sigma",
])
def test_d_must_be_a_nonnegative_integer(call, d):
    with pytest.raises(ValueError):
        call(d)


# reference oracle: d_active_elements as it was first written, with the
# positions in a dict and the active values in a set
def _d_active_by_sets(p, d):
    pos = {v: i for i, v in enumerate(p)}
    active = set()
    for k in range(1, len(p) + 1):
        if k == 1 or pos[k] > pos[k - 1]:
            active.add(k)
        else:
            between = sum(1 for v in p[pos[k] + 1 : pos[k - 1]] if v in active)
            if between < d:
                active.add(k)
    return frozenset(active)


def test_d_active_elements_matches_sets():
    for d in range(4):
        for n in range(8):
            for p in permutations(range(1, n + 1)):
                assert fishburn.d_active_elements(p, d) == _d_active_by_sets(p, d)


# reference oracles: the readers of activity as they were before it became
# a mask, on the frozenset of d_active_elements
def _ascent_bottoms_by_sets(p):
    return frozenset(p[i] for i in range(len(p) - 1) if p[i] < p[i + 1])


def _is_d_fishburn_by_sets(p, d):
    return _ascent_bottoms_by_sets(p) <= fishburn.d_active_elements(p, d)


def _contains_fishburn_pattern_by_sets(p, d):
    active = fishburn.d_active_elements(p, d)
    pos = {v: i for i, v in enumerate(p)}
    for i in range(len(p) - 1):
        v = p[i]
        if v < p[i + 1] and v - 1 in pos and pos[v - 1] >= i + 2 and v not in active:
            return True
    return False


def _active_site_gaps_by_sets(p, d):
    active = fishburn.d_active_elements(p, d)
    return (0,) + tuple(i + 1 for i, v in enumerate(p) if v in active)


def _phi_d_parent_by_sets(p, d):
    if not p:
        raise ValueError("the empty permutation has no parent")
    active = fishburn.d_active_elements(p, d)
    if not _ascent_bottoms_by_sets(p) <= active:
        raise ValueError(f"not a {d}-Fishburn permutation: {p}")
    n = len(p)
    gap = p.index(n)
    return tuple(v for v in p if v != n), 1 + len(active.intersection(p[:gap]))


@pytest.mark.parametrize("by_mask, by_sets", [
    (fishburn.is_d_fishburn, _is_d_fishburn_by_sets),
    # the unchecked forms that verify's sweep of S_n calls
    (lambda p, d: fishburn._is_d_fishburn(p, fishburn._active_mask(p, d)),
     _is_d_fishburn_by_sets),
    (fishburn.contains_fishburn_pattern, _contains_fishburn_pattern_by_sets),
    (lambda p, d: fishburn._contains_fishburn_pattern(p, fishburn._active_mask(p, d)),
     _contains_fishburn_pattern_by_sets),
    (fishburn.active_site_gaps, _active_site_gaps_by_sets),
    (fishburn.phi_d_parent, _phi_d_parent_by_sets),
], ids=[
    "is_d_fishburn", "_is_d_fishburn", "contains_fishburn_pattern",
    "_contains_fishburn_pattern", "active_site_gaps", "phi_d_parent",
])
def test_mask_readers_match_sets(by_mask, by_sets):
    for d in range(4):
        for n in range(8):
            for p in permutations(range(1, n + 1)):
                assert outcome(by_mask, p, d) == outcome(by_sets, p, d)


def test_equal_small_active_sets_are_one_object():
    one = {}  # each active set -> the first object returned for it
    for d in range(4):
        for n in range(9):
            for p in permutations(range(1, n + 1)):
                active = fishburn.d_active_elements(p, d)
                assert one.setdefault(active, active) is active
    # sets with a value above 10 are built at each call, and not kept
    rng = random.Random(0)
    for n in (11, 12):
        for _ in range(100):
            p = tuple(rng.sample(range(1, n + 1), n))
            for d in range(4):
                assert fishburn.d_active_elements(p, d) == _d_active_by_sets(p, d)
    assert len(fishburn._SHARED_SETS) <= 2 ** 10
    assert all(max(active, default=0) <= 10 for active in fishburn._SHARED_SETS.values())


@pytest.mark.parametrize("call", [
    lambda p: fishburn.d_active_elements(p, 0),
    lambda p: fishburn.active_site_gaps(p, 0),
    lambda p: fishburn.contains_fishburn_pattern(p, 0),
    lambda p: fishburn.phi_d_parent(p, 0),
], ids=["d_active_elements", "active_site_gaps", "contains_fishburn_pattern", "phi_d_parent"])
def test_permutation_inputs_are_checked(call):
    for p in ((1, 1), (2, 3), (0, 1), (5,), (1, 3, 3), (1.0, 2.0), (1, "a")):
        with pytest.raises(ValueError, match="not a permutation"):
            call(p)


def test_check_perm_runs_once_per_permutation(monkeypatch):
    checked = []
    check_perm = fishburn.check_perm

    def counting_check_perm(p):
        checked.append(tuple(p))
        check_perm(p)

    monkeypatch.setattr(fishburn, "check_perm", counting_check_perm)
    p = (3, 1, 4, 2)
    fishburn.is_d_fishburn(p, 1)
    assert checked == [p]
    checked.clear()
    fishburn.phi_d_parent(p, 1)
    # the parent's activity is read off p's, so the parent is not checked
    assert checked == [p]


# reference oracle: phi_d_parent as it was before it read the parent's
# active sites off p's activity: a second sweep, over the parent
def _phi_d_parent_two_sweeps(p, d):
    if not p:
        raise ValueError("the empty permutation has no parent")
    if not fishburn.is_d_fishburn(p, d):
        raise ValueError(f"not a {d}-Fishburn permutation: {p}")
    n = len(p)
    gap = p.index(n)
    parent = tuple(v for v in p if v != n)
    gaps = fishburn.active_site_gaps(parent, d)
    if gap not in gaps:
        raise ValueError(f"maximum of {p} does not sit in an active site")
    return parent, gaps.index(gap) + 1


def test_phi_d_parent_matches_two_sweeps():
    for d in range(4):
        for n in range(8):
            for p in permutations(range(1, n + 1)):
                assert outcome(fishburn.phi_d_parent, p, d) == outcome(_phi_d_parent_two_sweeps, p, d)


def test_maps_accept_exactly_their_domains():
    for n in range(5):
        # every word of length n over [-1, n + 1]: members and non-members
        words = list(product(range(-1, n + 2), repeat=n))
        cayley = set(seqs.enumerate_cayley(n))
        inversion = set(seqs.enumerate_inversion(n))
        perms = set(permutations(range(1, n + 1)))
        for w in words:
            assert accepts(burge.burget, w) == (w in cayley)
            assert accepts(hat.hat_max, w) == (w in inversion)
            assert accepts(fishburn.d_active_elements, w, 0) == (w in perms)
        for d in range(4):
            dasc = set(hat.enumerate_d_asc(n, d))
            for w in words:
                assert accepts(hat.hat_d, w, d) == (w in dasc)
                assert accepts(fishburn.phi_d, w, d) == (w in dasc)


@st.composite
def words_near_d_ascent(draw, max_n=9, max_d=4):
    """(w, d): a d-ascent sequence of length n <= max_n, d <= max_d, with
    one letter replaced by any value in [-1, n + 1] half the time."""
    n = draw(st.integers(0, max_n))
    d = draw(st.integers(0, max_d))
    w, dasc, prev = [], 0, 0
    for _ in range(n):
        a = draw(st.integers(1, 1 + dasc))
        if a > prev - d:
            dasc += 1
        w.append(a)
        prev = a
    if n and draw(st.booleans()):
        w[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    return tuple(w), d


@settings(max_examples=300)
@given(words_near_d_ascent())
def test_maps_accept_exactly_their_domains_past_length_4(wd):
    w, d = wd
    member = seqs.is_d_ascent_seq(w, d)
    assert accepts(hat.hat_d, w, d) == member
    assert accepts(fishburn.phi_d, w, d) == member
    assert accepts(hat.hat_max, w) == seqs.is_inversion(w)
    if member:
        image = hat.hat_d(w, d)
        assert hat.hat_inv(image) == w
        assert burge.burget(image) == fishburn.phi_d(w, d)


@st.composite
def words_near_permutations(draw, max_n=9):
    """A permutation of [n], n <= max_n, with one letter replaced by any
    value in [-1, n + 1] half the time."""
    n = draw(st.integers(0, max_n))
    p = draw(st.permutations(range(1, n + 1)))
    if n and draw(st.booleans()):
        p[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    return tuple(p)


@settings(max_examples=300)
@given(words_near_permutations(), st.integers(0, 4))
def test_d_active_elements_accepts_exactly_permutations_past_length_4(p, d):
    member = len(set(p)) == len(p) and all(1 <= v <= len(p) for v in p)
    assert accepts(fishburn.d_active_elements, p, d) == member
    if member:
        assert fishburn.d_active_elements(p, d) == _d_active_by_sets(p, d)


@settings(max_examples=300)
@given(
    st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(0, 4),
)
def test_phi_d_parent_raises_exactly_off_the_class(p, d):
    p = tuple(p)
    assert accepts(fishburn.phi_d_parent, p, d) == fishburn.is_d_fishburn(p, d)


@settings(max_examples=300)
@given(words_near_d_ascent())
def test_phi_d_parent_undoes_the_last_insertion(wd):
    w, d = wd
    assume(w and seqs.is_d_ascent_seq(w, d))
    parent = (fishburn.phi_d(w[:-1], d), w[-1])
    assert fishburn.phi_d_parent(fishburn.phi_d(w, d), d) == parent
