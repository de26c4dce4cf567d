from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fishlab import dyck, fixtures
from fishlab.series import TruncSeries, series_Q, solve_P


def poly(coeffs, order=8):
    return TruncSeries(coeffs, order)


def reference_step(p, d, q, x):
    if d == 0:
        return 1 + x * p * p + q * (x ** 2) * p * p
    return 1 + x * p * p + q * (x ** (d + 1)) * p ** d


def reference_step_slope(p, d, q, x):
    """The derivative of reference_step in p."""
    if d == 0:
        return 2 * x * p + 2 * q * (x ** 2) * p
    return 2 * x * p + d * q * (x ** (d + 1)) * p ** (d - 1)


def reference_solve_P(d, q_value, order):
    """Newton's iteration for P = step(P) from the constant series 1, on
    TruncSeries: each pass doubles the number of correct coefficients.
    Coefficient n of step(P) reads only p_0..p_(n-1), so the truncated
    equation has one solution, and the fixed point check confirms it."""
    q = Fraction(q_value)
    x = TruncSeries.x(order)
    p = TruncSeries.constant(1, order)
    correct = 1
    while correct <= order:
        p = p + (reference_step(p, d, q, x) - p) * (
            1 - reference_step_slope(p, d, q, x)).reciprocal()
        correct *= 2
    assert p == reference_step(p, d, q, x)
    return p


def reference_series_Q(p, d):
    """Q from the reference P."""
    x = TruncSeries.x(p.order)
    if d == 0:
        return (1 - x * p).reciprocal()
    return (1 - x * (1 - x * p).reciprocal()).reciprocal()


def fraction_solve(d, q_value, order):
    """Coefficients of P = 1 + xP^2 + q x^e P^k read off one at a time in
    Fraction, each power of P kept up to date as each coefficient lands:
    the engine before it moved to integers for every q."""
    q = Fraction(q_value)
    e, k = (2, 2) if d == 0 else (d + 1, d)
    powers = [[] for _ in range(max(2, k))]  # powers[j - 1] holds P^j
    p = powers[0]
    for n in range(order + 1):
        p_n = Fraction(1) if n == 0 else powers[1][n - 1]
        if n >= e:
            p_n += q * powers[k - 1][n - e]
        p.append(p_n)
        for j in range(1, len(powers)):
            powers[j].append(sum(p[i] * powers[j - 1][n - i] for i in range(n + 1)))
    return p


def fraction_inv_one_minus_x(s, order):
    r = [Fraction(1)]
    for m in range(1, order + 1):
        r.append(sum(s[i] * r[m - 1 - i] for i in range(m)))
    return r


def fraction_series_Q(d, q_value, order):
    r = fraction_inv_one_minus_x(fraction_solve(d, q_value, order), order)
    if d > 0:
        r = fraction_inv_one_minus_x(r, order)
    return r


def int_product(a, b, order):
    a = a + [0] * (order + 1 - len(a))
    b = b + [0] * (order + 1 - len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(order + 1)]


series_strategy = st.lists(
    st.fractions(max_denominator=20), min_size=0, max_size=9
).map(lambda cs: poly(cs))


def test_constructor_pads_and_truncates():
    s = TruncSeries([1, 2, 3, 4], 2)
    assert s.coeffs == (1, 2, 3)
    assert poly([1]).coeffs == (1,) + (0,) * 8


def test_arithmetic_basics():
    x = TruncSeries.x(4)
    one = TruncSeries.constant(1, 4)
    assert (one + x).coeffs == (1, 1, 0, 0, 0)
    assert (x * x).coeffs == (0, 0, 1, 0, 0)
    assert (x ** 3).coeffs == (0, 0, 0, 1, 0)
    assert (2 * x - x).coeffs == x.coeffs
    assert (1 - x).coeffs == (1, -1, 0, 0, 0)


@pytest.mark.parametrize("k", [-1, 1.5, True])
def test_power_takes_a_nonnegative_integer(k):
    with pytest.raises(ValueError, match="k must be a nonnegative integer"):
        TruncSeries.x(4) ** k


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries.x(3) + TruncSeries.x(4)


def test_reciprocal_geometric():
    inv = (1 - TruncSeries.x(6)).reciprocal()
    assert inv.coeffs == (1,) * 7
    with pytest.raises(ZeroDivisionError):
        TruncSeries.x(3).reciprocal()


@given(series_strategy)
def test_reciprocal_is_two_sided(s):
    if s.coeffs[0] == 0:
        return
    one = TruncSeries.constant(1, s.order)
    assert s * s.reciprocal() == one
    assert s.reciprocal() * s == one


@given(series_strategy, series_strategy, series_strategy)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_solve_P_satisfies_equation():
    for d in range(5):
        for q in (Fraction(-1), Fraction(0), Fraction(2)):
            p = solve_P(d, q, 10)
            x = TruncSeries.x(10)
            if d == 0:
                rhs = 1 + x * p * p + q * x ** 2 * p * p
            else:
                rhs = 1 + x * p * p + q * x ** (d + 1) * p ** d
            assert p == rhs


def test_q_zero_gives_catalan():
    # with the marker weight at zero the series counts all Dyck paths
    q = series_Q(0, 0, 12)
    assert list(q.coeffs) == fixtures.CATALAN
    q5 = series_Q(5, 0, 12)
    assert list(q5.coeffs) == fixtures.CATALAN


def test_series_against_brute_force_distribution():
    # coefficient of x^n at marker weight q-1 equals sum of q^(factors)
    for d in range(3):
        for qv in (0, 2, 3):
            series = series_Q(d, qv - 1, 8)
            for n in range(9):
                direct = sum(
                    qv ** dyck.count_ddu_factor(p, d)
                    for p in dyck.enumerate_dyck_paths(n)
                )
                assert series.coeffs[n] == direct


def test_solve_P_rejects_negative_d():
    with pytest.raises(ValueError):
        solve_P(-1, 0, 5)


@pytest.mark.parametrize("d", range(6))
def test_engine_matches_fixed_point_reference(d):
    for q in (-1, 0, 2, Fraction(1, 2), Fraction(-3, 7)):
        for order in (0, 1, 2, 3, 7, 20):
            p = reference_solve_P(d, q, order)
            assert solve_P(d, q, order) == p
            assert series_Q(d, q, order) == reference_series_Q(p, d)


@pytest.mark.parametrize("d", range(6))
def test_integer_engine_matches_fraction_engine(d):
    # for q = r/s the engine works on the integers s^n p_n and divides once
    for q in (Fraction(-3, 7), Fraction(1, 2), Fraction(5, 3), -1, 0, 2):
        for order in range(21):
            assert list(solve_P(d, q, order).coeffs) == fraction_solve(d, q, order)
            assert list(series_Q(d, q, order).coeffs) == fraction_series_Q(d, q, order)


@pytest.mark.parametrize("f", [solve_P, series_Q])
@pytest.mark.parametrize("d, order, message", [
    (1.5, 3, "d must be a nonnegative integer, got 1.5"),
    ("1", 3, "d must be a nonnegative integer, got '1'"),
    (-2, 3, "d must be a nonnegative integer, got -2"),
    (1, 2.0, "order must be a nonnegative integer, got 2.0"),
    (1, -1, "order must be a nonnegative integer, got -1"),
    (1, True, "order must be a nonnegative integer, got True"),
])
def test_series_check_their_arguments_at_the_call(f, d, order, message):
    with pytest.raises(ValueError) as exc:
        f(d, -1, order)
    assert str(exc.value) == message


@pytest.mark.parametrize("d, g, h", [(d, *gh) for d, gh in fixtures.ALGEBRAIC_213.items()])
def test_algebraic_residual_at_large_order(d, g, h):
    # (2(1-x) - gQ)^2 = hQ^2, on integer lists, far past the fixture table
    order = 300
    q = [int(c) for c in series_Q(d, -1, order).coeffs]
    two_one_minus_x = [2, -2] + [0] * (order - 1)
    base = [a - b for a, b in zip(two_one_minus_x, int_product(g, q, order))]
    assert int_product(base, base, order) == int_product(
        h, int_product(q, q, order), order)

