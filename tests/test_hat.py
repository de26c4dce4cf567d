import sys
from itertools import chain, combinations, islice, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from fishlab import dyck, fishburn, fixtures, hat, verify
from fishlab import sequences as seqs

from helpers import accepts, bad_words, outcome


def inversion_seqs(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(*(st.integers(1, i + 1) for i in range(n)))
    )


def test_modify_example():
    assert hat.modify((1, 2, 1, 2, 4, 2, 2, 3, 2), 5) == (1, 2, 1, 2, 4, 2, 2, 3, 2)
    assert hat.modify((1, 2, 1, 2), 4) == (1, 3, 1, 2)
    assert hat.modify((1, 1), 2) == (2, 1)


def test_hat_worked_examples():
    word, image = fixtures.HAT0_EXAMPLE
    assert hat.hat_d(word, 0) == image
    word, image = fixtures.HAT2_EXAMPLE
    assert hat.hat_d(word, 2) == image
    word, image = fixtures.HAT1_EXAMPLE
    assert hat.hat_d(word, 1) == image


def test_hat_max_worked_examples():
    for word, image in fixtures.HATMAX_EXAMPLES:
        assert hat.hat_max(word) == image


def test_hat_max_is_permutation_valued():
    for n in range(7):
        images = {hat.hat_max(w) for w in seqs.enumerate_inversion(n)}
        assert images == set(permutations(range(1, n + 1)))


@given(inversion_seqs())
def test_hat_inv_roundtrip_through_hat_max(w):
    assert hat.hat_inv(hat.hat_max(w)) == w


def test_enumerate_d_asc_members_are_valid_and_sorted():
    # the hat tree's leaves at lo = hi = d are the filter of the inversion
    # sequences, which enumerate_inversion lists in lexicographic order
    for d in range(4):
        for n in range(8):
            found = hat.enumerate_d_asc(n, d)
            assert found == [
                w for w in seqs.enumerate_inversion(n) if seqs.is_d_ascent_seq(w, d)
            ]


# reference oracle: enumerate_mod_d_asc as it was before the hat tree, by
# the recursive description, one BFS level of tuples at a time, then sorted
def _mod_d_asc_bfs(n, d):
    if n == 0:
        return [()]
    level = [(1,)]
    for _ in range(n - 1):
        nxt = []
        for h in level:
            b, m = h[-1], max(h)
            for a in range(1, b - d + 1):
                nxt.append(h + (a,))
            for a in range(max(b - d + 1, 1), m + 2):
                nxt.append(tuple(c + 1 if c >= a else c for c in h) + (a,))
        level = nxt
    return sorted(level)


def test_enumerate_mod_d_asc_matches_bfs():
    for d in range(4):
        for n in range(9):
            assert hat.enumerate_mod_d_asc(n, d) == _mod_d_asc_bfs(n, d)


# reference oracle: the modasc0-characterization side as it was before it
# was generated, every Cayley permutation filtered by asc_set == nub
def _asc_is_nub_filter(n):
    return [c for c in seqs.enumerate_cayley(n) if seqs.asc_set(c) == seqs.nub(c)]


def test_asc_is_nub_words_match_filter():
    for n in range(8):
        assert verify._asc_is_nub_words(n) == _asc_is_nub_filter(n)


def test_modasc0_characterization_fails_on_a_missing_member(monkeypatch):
    generate = verify._asc_is_nub_words
    monkeypatch.setattr(verify, "_asc_is_nub_words", lambda n: generate(n)[:-1])
    (row,) = verify._modasc0_characterization(4, 0)
    check, _, _, expected, actual = row
    assert check == "modasc0-characterization"
    assert expected != actual
    assert actual - expected == {generate(4)[-1]}


def test_enumerate_mod_d_asc_small_example():
    assert set(hat.enumerate_mod_d_asc(2, 0)) == fixtures.MODASC_2[0]
    assert set(hat.enumerate_mod_d_asc(2, 1)) == fixtures.MODASC_2[1]


def test_h_orbit_structure():
    # pairs (least d giving the image, image); images distinct, d increasing
    for w in ((1, 1, 3), (1, 2, 1, 2), (1, 1, 2, 4)):
        orbit = hat.h_orbit(w)
        ds = [d for d, _ in orbit]
        images = [img for _, img in orbit]
        assert ds[0] == seqs.min_d(w)
        assert ds == sorted(ds)
        assert len(set(images)) == len(images)
        assert all(hat.hat_d(w, d) == img for d, img in orbit)
        assert images[-1] == hat.hat_max(w)


def test_orbit_stabilizes_at_length():
    # hat_d is constant in d once d reaches the length of the word
    for w in seqs.enumerate_inversion(5):
        tail = hat.hat_d(w, len(w))
        assert hat.hat_d(w, len(w) + 1) == tail
        assert hat.hat_d(w, len(w) + 3) == tail


def test_enumerate_weak_descent_counts():
    for n, count in enumerate(fixtures.WEAK_DESCENT_COUNTS):
        found = list(hat.enumerate_weak_descent(n))
        assert len(found) == count
        assert all(seqs.is_weak_descent_seq(w) for w in found)


# reference oracles: hat_d at every d from min_d to the length, with min_d
# found by trying d = 0, 1, 2, ...
def _min_d_loop(w):
    d = 0
    while not seqs.is_d_ascent_seq(w, d):
        d += 1
    return d


def _h_orbit_loop(w):
    seen = {}
    for d in range(_min_d_loop(w), len(w) + 1):
        seen.setdefault(hat.hat_d(w, d), d)
    return tuple((d, image) for image, d in seen.items())


def test_h_orbit_matches_orbit_loop():
    for n in range(8):
        for w in seqs.enumerate_inversion(n):
            assert hat.h_orbit(w) == _h_orbit_loop(w)
            assert seqs.min_d(w) == _min_d_loop(w)


def test_enumerate_modinv_matches_orbit_union():
    for n in range(8):
        union = {img for w in seqs.enumerate_inversion(n) for _, img in _h_orbit_loop(w)}
        assert hat.enumerate_modinv(n) == sorted(union)


# reference oracles: the bodies hat_max and hat_inv had before they ran on
# one list, kept with their input checks
def _hat_max_modify_fold(w):
    if not seqs.is_inversion(w):
        raise ValueError(f"not an inversion sequence: {w}")
    out = tuple(w)
    for j in range(1, len(w) + 1):
        out = hat.modify(out, j)
    return out


def _hat_inv_nub_peel(g):
    out = []
    cur = tuple(g)
    while cur:
        gn = cur[-1]
        delta = cur[:-1]
        if len(cur) in seqs.nub(cur):
            delta = tuple(c - 1 if c > gn else c for c in delta)
        out.append(gn)
        cur = delta
    result = tuple(reversed(out))
    if not seqs.is_inversion(result):
        raise ValueError(f"{tuple(g)} is not a fold of an inversion sequence")
    return result


# reference oracle: hat_d is _fold over the d-ascent set, and hat_inv
# undoes _fold over any set of positions
def _fold(w, positions) -> tuple:
    """modify folded over the positions, left to right, on one list, unchecked."""
    out = list(w)
    for j in positions:
        aj = out[j - 1]
        for i in range(j - 1):
            if out[i] >= aj:
                out[i] += 1
    return tuple(out)


# reference oracle: hat_d as it was before it checked w while folding: the
# whole word checked first, then folded over its d-ascent set
def _hat_d_fold_over_d_asc_set(w, d):
    seqs.check_count(d, "d")
    if not seqs.is_d_ascent_seq(w, d):
        raise ValueError(f"not a {d}-ascent sequence: {w}")
    return _fold(w, seqs.d_asc_set(w, d))


def test_hat_d_matches_fold_over_d_asc_set():
    for d in range(4):
        for n in range(8):
            for w in hat.enumerate_d_asc(n, d):
                assert hat.hat_d(w, d) == _hat_d_fold_over_d_asc_set(w, d)
        for w in bad_words():
            assert outcome(hat.hat_d, w, d) == outcome(_hat_d_fold_over_d_asc_set, w, d)


def test_hat_max_matches_modify_fold():
    for n in range(8):
        for w in seqs.enumerate_inversion(n):
            assert hat.hat_max(w) == _hat_max_modify_fold(w)
    for w in bad_words():
        assert outcome(hat.hat_max, w) == outcome(_hat_max_modify_fold, w)


def test_hat_inv_matches_nub_peel():
    for n in range(8):
        for g in chain(seqs.enumerate_inversion(n), seqs.enumerate_cayley(n)):
            assert outcome(hat.hat_inv, g) == outcome(_hat_inv_nub_peel, g)
    for g in bad_words():
        assert outcome(hat.hat_inv, g) == outcome(_hat_inv_nub_peel, g)


def _enumerator_calls(n):
    """(enumerator, args) for every public enumerator and tree_words at
    length n, at each d <= 2 and each subdiagonal mode where it takes one."""
    calls = [
        (seqs.enumerate_inversion, (n,)),
        (seqs.enumerate_cayley, (n,)),
        (seqs.tree_words, (n, (0, 0), hat.weak_descent_children)),
        (hat.enumerate_weak_descent, (n,)),
        (hat.enumerate_modinv, (n,)),
        (fishburn.enumerate_perms, (n,)),
        (dyck.enumerate_dyck_paths, (n,)),
        (dyck.enumerate_avoiders_213, (n,)),
    ]
    for d in range(3):
        calls += [
            (hat.enumerate_d_asc, (n, d)),
            (hat.enumerate_mod_d_asc, (n, d)),
            (fishburn.enumerate_d_fishburn, (n, d)),
        ]
    for mode in fishburn.SUBDIAGONAL_MODES:
        calls.append((fishburn.enumerate_subdiagonal, (n, mode)))
    return calls


def test_every_enumerator_returns_a_sorted_list():
    # words and permutations in lexicographic order, Dyck paths U before D
    for n in range(6):
        for f, args in _enumerator_calls(n):
            result = f(*args)
            assert type(result) is list, (f.__name__, args)
            reverse = f is dyck.enumerate_dyck_paths
            assert result == sorted(set(result), reverse=reverse), (f.__name__, args)


def test_enumerators_keep_no_reference_to_their_list():
    # a recursive closure that held the list would keep it alive, after the
    # caller drops it, until a full collection
    for f, args in _enumerator_calls(3):
        result = f(*args)
        assert sys.getrefcount(result) == 2, (f.__name__, args)


def test_level_sizes_match_the_tree_leaves():
    # the label DP against the word DFS and the hat-tree fold, on the
    # rule each tree has in hat; at lo = hi = d the hat tree's rule is the
    # d-ascent sequence tree, so its level sizes count both
    wdesc = list(islice(seqs.level_sizes((0, 0), hat.weak_descent_children), 9))
    for d in range(4):
        dasc = list(islice(seqs.level_sizes((d, d, 0, 0), hat.hat_tree_children), 9))
        for n in range(9):
            assert dasc[n] == len(hat.enumerate_d_asc(n, d))
            assert dasc[n] == len(hat._byte_fold(n, (d, d, 0, 0), hat.hat_tree_children))
    for n in range(9):
        assert wdesc[n] == sum(1 for _ in hat.enumerate_weak_descent(n))
        hi = max(n - 1, 0)
        modinv = seqs.level_sizes((0, hi, 0, 0), hat.hat_tree_children)
        assert next(islice(modinv, n, None)) == len(
            hat._byte_fold(n, (0, hi, 0, 0), hat.hat_tree_children))


def test_fold_tree_matches_tree_words():
    # _fold_tree with a word-building step against the word DFS on
    # both rules it folds along: its child order, and its cache of each
    # state's children, apart from the folds that use it
    def word(obj, letter, ascended):
        return obj + (letter,)

    for n in range(1, 7):
        rules = [((d, d, 0, 0), hat.hat_tree_children) for d in range(4)]
        rules += [((0, n - 1, 0, 0), hat.hat_tree_children),
                  ((0, 0), hat.weak_descent_children)]
        for root, children in rules:
            expected = sorted(seqs.tree_words(n, root, children))
            assert hat._fold_tree(n, root, children, (), word, word) == expected, (n, root)


# reference oracle for the domain of hat_inv: whether g is modify folded
# over some set S of positions of some inversion sequence w, by undoing the
# fold right to left in every way.  The fold never moves position k once
# it has passed it, so g_k = w_k must lie in [1, k]; and k can be in S iff
# no entry left of k equals g_k, which its unfold then lowers back
def _is_fold_of_inversion(g):
    def unfold(cur, k):
        if k == 0:
            return True
        gk = cur[k - 1]
        if not 1 <= gk <= k:
            return False
        if unfold(cur, k - 1):
            return True
        return gk not in cur[: k - 1] and unfold(
            [c - 1 if c > gk else c for c in cur[: k - 1]], k - 1
        )

    return unfold(list(g), len(g))


def test_hat_inv_accepts_exactly_the_folds_of_inversion_sequences():
    for n in range(6):
        folds = {
            _fold(w, s)
            for w in seqs.enumerate_inversion(n)
            for r in range(n + 1)
            for s in combinations(range(1, n + 1), r)
        }
        # every word of length n over [-1, n + 1]: members and non-members
        for g in product(range(-1, n + 2), repeat=n):
            assert _is_fold_of_inversion(g) == (g in folds)
            assert accepts(hat.hat_inv, g) == (g in folds)
        for g in folds:
            assert _fold(hat.hat_inv(g), seqs.nub(g)) == g


@st.composite
def words_near_folds(draw, max_n=9):
    """An inversion sequence of length n <= max_n folded over a random set
    of positions, with one letter replaced by any value in [-1, n + 1] half
    the time."""
    n = draw(st.integers(0, max_n))
    w = [draw(st.integers(1, i)) for i in range(1, n + 1)]
    positions = [j for j in range(1, n + 1) if draw(st.booleans())]
    g = list(_fold(w, positions))
    if n and draw(st.booleans()):
        g[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    return tuple(g)


@settings(max_examples=300)
@given(words_near_folds())
def test_hat_inv_domain_past_length_4(g):
    member = _is_fold_of_inversion(g)
    assert accepts(hat.hat_inv, g) == member
    if member:
        w = hat.hat_inv(g)
        assert seqs.is_inversion(w)
        assert _fold(w, seqs.nub(g)) == g
