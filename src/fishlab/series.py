"""The series of Dyck paths with marked DDU^(d+1) factors, in exact
rationals.  No floating point anywhere.

TruncSeries is the record that solve_P and series_Q return: the order N
and the coefficients of x^0..x^N, as a tuple of fractions.Fraction.  It
compares by both and has a repr, and does no arithmetic; the engine
multiplies plain coefficient lists, with _product and _inv_one_minus_x.

solve_P and series_Q read the coefficients of the marked-path equation off
one at a time on plain lists, about max(2, d) N^2 coefficient products for
N = order, in int for every q: for q = r/s the series is taken at s x,
whose coefficients are integers, and coefficient n is divided by s^n once,
when the result is wrapped in a TruncSeries at the end.
"""

from fractions import Fraction
from operator import mul

from .sequences import check_count


class TruncSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        check_count(order, "order")
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)}, order={self.order})"


def _product(a, b, order: int) -> list:
    """Coefficients 0..order of a*b; both lists hold at least order+1 terms."""
    return [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(order + 1)]


def _inv_one_minus_x(s, order: int) -> list:
    """Coefficients of 1/(1 - x*s): r_0 = 1 and r_m = sum_i s_i r_(m-1-i)."""
    r = [1]
    for m in range(1, order + 1):
        r.append(sum(map(mul, s[:m], r[::-1])))
    return r


def _solve(d: int, q_value, order: int) -> tuple:
    """Coefficients of P = 1 + xP^2 + q x^e P^k, read off one at a time in
    integers, as the pair (s^n p_n for n = 0..order, s) for q = r/s.

    x -> s x turns the equation into P~ = 1 + s x P~^2 + r s^(e-1) x^e P~^k
    for P~(x) = P(s x), whose coefficients s^n p_n are integers.  Its
    coefficient n = [x^(n-1)] s P~^2 + [x^(n-e)] r s^(e-1) P~^k only uses
    those before it, so one pass gives every coefficient; the powers
    P~^1 .. P~^max(2, k) are kept up to date as each lands.  The result is
    checked by substitution.
    """
    check_count(d, "d")
    check_count(order, "order")
    if type(q_value) is not int and not isinstance(q_value, Fraction):
        raise ValueError(f"q must be an integer or a Fraction, got {q_value!r}")
    q = Fraction(q_value)
    s = q.denominator
    # for d >= 1 the marked step contributes U' P (D P)^(d-1), whose image
    # is q x^(d+1) P^d; checked against brute-force factor counts
    e, k = (2, 2) if d == 0 else (d + 1, d)
    c = q.numerator * s ** (e - 1)
    # P~^2 is read up to x^(order-1) and the powers above it up to
    # x^(order-e); powers that no index reaches are not built
    top = max(2, k) if order >= e else 2
    limits = [order, order - 1] + [order - e] * (top - 2)
    powers = [[] for _ in range(top)]  # powers[j - 1] holds P~^j
    p = powers[0]
    for n in range(order + 1):
        p_n = 1 if n == 0 else s * powers[1][n - 1]
        if n >= e:
            p_n += c * powers[k - 1][n - e]
        p.append(p_n)
        for j in range(1, top):
            if n > limits[j]:
                break
            powers[j].append(sum(map(mul, p, powers[j - 1][::-1])))

    # substitution check, with the powers rebuilt by plain multiplication
    square = _product(p, p, order)
    power_k = p if k == 1 else square
    for _ in range(k - 2):
        power_k = _product(power_k, p, order)
    rhs = [1] + [s * a for a in square[:order]]
    for n in range(e, order + 1):
        rhs[n] += c * power_k[n - e]
    if rhs != p:
        raise ArithmeticError("coefficients do not satisfy the functional equation")
    return p, s


def _unscale(coeffs, s, order: int) -> TruncSeries:
    """The series whose coefficient n is coeffs[n] / s^n."""
    if s == 1:
        return TruncSeries(coeffs, order)
    return TruncSeries([Fraction(a, s ** n) for n, a in enumerate(coeffs)], order)


def solve_P(d: int, q_value, order: int) -> TruncSeries:
    """Unique solution with constant term 1 of the marked-path equation
    P = 1 + xP^2 + q x^(d+1) P^d (q x^2 P^2 in place of the last term when
    d = 0), checked by substitution."""
    p, s = _solve(d, q_value, order)
    return _unscale(p, s, order)


def series_Q(d: int, q_value, order: int) -> TruncSeries:
    """Generating series for Dyck paths with marked DDU^(d+1) factors.

    The coefficient of x^n in series_Q(d, q-1, N) is the sum of
    q^(number of factors) over Dyck paths of semilength n.  In the scaled
    series of _solve, each 1/(1 - x S) is 1/(1 - x s S~).
    """
    p, s = _solve(d, q_value, order)
    r = _inv_one_minus_x([s * a for a in p], order)
    if d > 0:
        r = _inv_one_minus_x([s * a for a in r], order)
    return _unscale(r, s, order)
