from fractions import Fraction

import math

import pytest
from hypothesis import given, strategies as st

from superscheme.corpus import Rng
from superscheme.superlinear import _lower_q, vector
from superscheme.fields import (
    PRIMALITY_BOUND, ExtensionField, FieldError, PrimeField, QQ, _is_prime, field_sqrt,
    poly_divmod, poly_factor_supported, poly_is_irreducible,
    poly_mul, poly_roots,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = ExtensionField(F3, (1, 0, 1), "j")
QI = ExtensionField(QQ, (Fraction(1), Fraction(0), Fraction(1)), "i")

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
f5_elems = st.integers(min_value=0, max_value=4)


def test_primality_matches_trial_division():
    """Miller-Rabin on the first 13 prime bases against trial division, for
    every n below 10^5."""
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10 ** 5) if _is_prime(n) != by_trial_division(n)] == []


def test_prime_field_refuses_what_miller_rabin_cannot_certify():
    """The bound is itself a strong pseudoprime to all 13 bases, so the test
    alone would call it prime; PrimeField refuses it and every larger p."""
    assert PRIMALITY_BOUND == 1287836182261 * 2575672364521 and _is_prime(PRIMALITY_BOUND)
    for p in (PRIMALITY_BOUND, 2 ** 127 - 1):
        with pytest.raises(FieldError, match=str(PRIMALITY_BOUND)):
            PrimeField(p)
    assert PrimeField(2 ** 61 - 1).order == 2 ** 61 - 1


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    F = QQ
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != 0:
        assert F.mul(a, F.inv(a)) == F.one


@given(f5_elems, f5_elems, f5_elems)
def test_prime_field_axioms(a, b, c):
    F = F5
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a % 5 != 0:
        assert F.mul(a, F.inv(a)) == F.one


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(9)


def test_extension_field_arithmetic():
    j = F9.generator
    assert F9.mul(j, j) == F9.embed(2)  # j^2 = -1 = 2
    assert F9.mul(j, F9.inv(j)) == F9.one
    assert len(list(F9.elements())) == 9
    for x in F9.elements():
        if x != F9.zero:
            assert F9.mul(x, F9.inv(x)) == F9.one


def test_extension_rejects_reducible():
    with pytest.raises(FieldError):
        ExtensionField(F3, (2, 0, 1), "a")  # x^2 + 2 = (x-1)(x+1) over F3
    with pytest.raises(FieldError):
        ExtensionField(QQ, (Fraction(-1), Fraction(0), Fraction(1)), "a")


def test_extension_degree_bound_over_q():
    # rootless quartics over Q are not certifiable, hence rejected
    with pytest.raises(FieldError):
        ExtensionField(QQ, tuple(Fraction(c) for c in (1, 0, 0, 0, 1)), "a")


def test_parse_format_round_trip():
    for F, samples in [(QQ, ["3/4", "-2", "0"]), (F5, ["3", "0"]),
                       (F9, ["1,2", "0,1"]), (QI, ["1/2,-3", "0,0"])]:
        for s in samples:
            v = F.parse(s)
            assert F.parse(F.format(v)) == v


def test_poly_division_and_gcd():
    F = QQ
    f = tuple(Fraction(c) for c in (-1, 0, 1))      # x^2 - 1
    g = tuple(Fraction(c) for c in (-1, 1))          # x - 1
    q, r = poly_divmod(F, f, g)
    assert r == ()
    assert poly_mul(F, q, g) == f


def test_poly_roots_rational():
    F = QQ
    # 2x^3 - 3x^2 - 3x + 2 has roots -1, 1/2, 2
    poly = tuple(Fraction(c) for c in (2, -3, -3, 2))
    assert poly_roots(F, poly) == [Fraction(-1), Fraction(1, 2), Fraction(2)]


def test_poly_roots_rational_scan_bound():
    F = QQ
    with pytest.raises(FieldError, match="10\\^12"):
        poly_roots(F, (Fraction(-10 ** 700), Fraction(0), Fraction(1)))
    with pytest.raises(FieldError):
        poly_roots(F, (Fraction(1), Fraction(0), Fraction(10 ** 12 + 1)))
    # at the bound itself the divisor scan still runs
    roots = poly_roots(F, (Fraction(-10 ** 12), Fraction(0), Fraction(1)))
    assert roots == [Fraction(-10 ** 6), Fraction(10 ** 6)]


def test_rational_sort_key_is_exact_beyond_float_range():
    big = Fraction(10 ** 400)
    values = [big + 1, -big, Fraction(1, 3), big, big + Fraction(1, 10 ** 400)]
    assert sorted(values, key=QQ.sort_key) == [
        -big, Fraction(1, 3), big, big + Fraction(1, 10 ** 400), big + 1]


def test_poly_roots_finite():
    poly = (2, 0, 1)  # x^2 + 2 = x^2 - 1 over F3
    assert poly_roots(F3, poly) == [1, 2]


def test_factor_supported_finite_quartic():
    # (x^2+1)(x^2+x+2) over F3: rootless quartic needs trial division
    f = poly_mul(F3, (1, 0, 1), (2, 1, 1))
    factors, complete = poly_factor_supported(F3, f)
    assert complete and len(factors) == 2
    assert sorted(factors) == sorted([(1, 0, 1), (2, 1, 1)])


def test_factor_supported_q_quartic_incomplete():
    F = QQ
    f = tuple(Fraction(c) for c in (1, 0, 0, 0, 1))
    factors, complete = poly_factor_supported(F, f)
    assert not complete


def test_irreducibility():
    assert poly_is_irreducible(F3, (1, 0, 1))
    assert not poly_is_irreducible(F3, (2, 0, 1))
    assert poly_is_irreducible(QQ, tuple(Fraction(c) for c in (1, 0, 1)))
    assert poly_is_irreducible(QQ, tuple(Fraction(c) for c in (2, 0, 0, 1)))


def test_field_sqrt():
    assert field_sqrt(QQ, Fraction(9, 4)) == Fraction(3, 2)
    assert field_sqrt(QQ, Fraction(2)) is None
    assert field_sqrt(F5, 4) in (2, 3)
    assert field_sqrt(QI, QI.embed(Fraction(-4))) in (
        (Fraction(0), Fraction(2)), (Fraction(0), Fraction(-2)))
    r = field_sqrt(F9, F9.embed(2))
    assert r is not None and F9.mul(r, r) == F9.embed(2)


def _canonical_q(x):
    """x is an element of Q in its canonical form: an int when it is
    integral, a Fraction otherwise, and never a float or a bool."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


# ints, Fractions and integral Fractions such as Fraction(3, 1), which the
# operations take but never return
mixed_rationals = st.one_of(st.integers(-50, 50), rationals, st.integers(-50, 50).map(Fraction))


@given(mixed_rationals, mixed_rationals)
def test_rational_field_returns_its_canonical_form(a, b):
    F = QQ
    assert _canonical_q(F.zero) and _canonical_q(F.one)
    for value in (F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b), F.from_int(a.numerator),
                  F.pow(a, 3), F.parse(str(a)), F.parse(f"{a.numerator * 2}/2")):
        assert _canonical_q(value), repr(value)
    assert F.from_int(a.numerator) == a.numerator
    assert F.parse(f"{a.numerator}/{a.denominator}") == a
    if a:
        assert _canonical_q(F.inv(a)) and F.mul(a, F.inv(a)) == 1
        assert _canonical_q(F.pow(a, -2))


def test_rational_parse_and_inverse_are_exact():
    assert [QQ.parse(s) for s in ("3", "6/2", "-4/2", "3.0", "0", "-0")] == [3, 3, -2, 3, 0, 0]
    assert all(type(QQ.parse(s)) is int for s in ("3", "6/2", "-4/2", "3.0", "0", "-0"))
    assert QQ.parse("2.5") == Fraction(5, 2) and QQ.parse("-1/3") == Fraction(-1, 3)
    assert [QQ.inv(a) for a in (1, -1, 2, -3, Fraction(1, 4), Fraction(-2, 3))] == [
        1, -1, Fraction(1, 2), Fraction(-1, 3), 4, Fraction(-3, 2)]
    assert all(_canonical_q(QQ.inv(a)) for a in (1, -1, 2, Fraction(1, 4), Fraction(3, 1)))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def _parse_by_fraction(s):
    """The reference parse of a Q scalar: Fraction(s) in canonical form, or
    None where Fraction rejects s."""
    try:
        r = Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None
    return r.numerator if r.denominator == 1 else r


# the characters that make or break a rational literal: ASCII and Unicode
# digits, ASCII and Unicode white space, signs, separators and exponents
_scalar_chars = st.sampled_from("0123456789" "١٢३²" " \t\n\x1c\u2003" "+-_/.eE" "x")


@pytest.mark.parametrize("s", [" 3 ", "+3", "1_000", "١٢", "6/4", "3/1", "1e3", "0.5", "",
                               "1/0", "_1", "1__0", "\x1c3", "-0", "00"])
def test_rational_parse_accepts_what_fraction_accepts(s):
    want = _parse_by_fraction(s)
    if want is None:
        with pytest.raises(FieldError):
            QQ.parse(s)
    else:
        got = QQ.parse(s)
        assert got == want and type(got) is type(want)


@given(st.one_of(st.text(_scalar_chars, max_size=8), st.text(max_size=6)))
def test_rational_parse_matches_fraction_on_any_string(s):
    test_rational_parse_accepts_what_fraction_accepts(s)


def test_lower_q_writes_integral_sums_as_ints():
    """_lower_q, the end of every sum of products over Q: n / D is the int
    n // D when D divides n and one Fraction(n, D) otherwise."""
    cases = [([(2, 6), (0, -3), (1, 0), (5, 4)], 3,
              ((0, -1), (2, 2), (5, Fraction(4, 3)))),
             ([(1, 7), (0, -2), (3, 0)], 1, ((0, -2), (1, 7))),
             ([(4, 1)], 2, ((4, Fraction(1, 2)),)),
             ([(4, 0)], 5, ()),
             ([], 7, ())]
    for items, D, want in cases:
        got = _lower_q(items, D)
        assert got == want
        assert [type(a) for _, a in got] == [type(a) for _, a in want]


def test_square_roots_and_roots_over_q_are_exact():
    """field_sqrt and poly_roots over Q and over Q(i) divide only through
    the field, so their values are exact and in canonical form."""
    def canonical(x):
        return all(map(_canonical_q, x)) if isinstance(x, tuple) else _canonical_q(x)

    # per case the square roots field_sqrt may return, None when there is none
    sqrt_cases = [(QQ, 9, (3,)), (QQ, Fraction(9, 4), (Fraction(3, 2),)), (QQ, 2, (None,)),
                  (QI, QI.embed(-4), ((0, 2), (0, -2))),
                  (QI, (0, 2), ((1, 1), (-1, -1))),
                  (QI, (0, Fraction(1, 2)), ((Fraction(1, 2), Fraction(1, 2)),
                                             (Fraction(-1, 2), Fraction(-1, 2)))),
                  (QI, (Fraction(9, 4), 0), ((Fraction(3, 2), 0), (Fraction(-3, 2), 0)))]
    for F, a, want in sqrt_cases:
        r = field_sqrt(F, a)
        assert r in want
        assert r is None or canonical(r) and F.mul(r, r) == a
    roots_cases = [(QQ, (2, -3, -3, 2), [-1, Fraction(1, 2), 2]),
                   (QQ, (0, 0, Fraction(3, 2)), [0]),
                   (QQ, (Fraction(-1, 4), 0, 1), [Fraction(-1, 2), Fraction(1, 2)]),
                   (QI, ((1, 0), (0, 0), (1, 0)), [(0, -1), (0, 1)]),
                   (QI, ((Fraction(1, 4), 0), (0, 0), (1, 0)),
                    [(0, Fraction(-1, 2)), (0, Fraction(1, 2))])]
    for F, p, want in roots_cases:
        got = poly_roots(F, p)
        assert got == want and all(map(canonical, got))


def test_prime_field_is_zero_on_canonical_residues():
    for p in (3, 5, 7):
        F = PrimeField(p)
        assert [F.is_zero(a) for a in F.elements()] == [a == 0 for a in range(p)]
        assert F.is_zero(F.add(1, p - 1)) and F.is_zero(F.sub(2, 2))
        assert F.is_zero(F.mul(F.from_int(p), 3)) and not F.is_zero(F.neg(1))


def test_vector_keeps_exactly_the_entries_is_zero_rejects():
    """A vector keeps the pairs whose entry the field's is_zero rejects, in
    index order, whatever order they come in."""
    for F in (F3, F5, PrimeField(7), QQ):
        vec = [F.from_int(n) for n in (0, 1, -1, 0, 2, 0, F.char, 3)]
        assert vector(F, reversed(list(enumerate(vec)))) == tuple(
            (j, a) for j, a in enumerate(vec) if not F.is_zero(a))
    vec = [F9.zero, F9.one, F9.generator, F9.zero]
    assert vector(F9, enumerate(vec)) == ((1, F9.one), (2, F9.generator))


def _mul_by_divmod(E, a, b):
    """The product as poly_mul followed by reduction with poly_divmod."""
    _, rem = poly_divmod(E.base, poly_mul(E.base, a, b), E.minpoly)
    return E._wrap(rem)


def test_extension_mul_matches_divmod_product():
    F5_3 = ExtensionField(F5, (1, 1, 0, 1), "b")          # x^3 + x + 1
    Q_3 = ExtensionField(QQ, tuple(Fraction(c) for c in (-2, 0, 0, 1)), "r")
    elems = list(F9.elements())
    for a in elems:
        for b in elems:
            assert F9.mul(a, b) == _mul_by_divmod(F9, a, b)
    rng = Rng(31)
    for E in (F5_3, Q_3, QI):
        for _ in range(200):
            a, b = (tuple(rng.scalar(E.base) for _ in range(E.degree)) for _ in range(2))
            got = E.mul(a, b)
            assert got == _mul_by_divmod(E, a, b)
            assert all(type(c) is type(E.base.zero) for c in got)


def test_small_field_tables_match_the_schoolbook_product_and_gcd_inverse():
    """A finite extension of order at most TABLE_ORDER multiplies and
    inverts by exp and log tables; every product and inverse equals the
    schoolbook product and the extended-gcd inverse it replaces.  F9 is
    checked before the field over it is built."""
    minpolys = [(F3, (1, 0, 1)),                    # F9: x^2 + 1
                (F5, (3, 0, 1)),                    # F25: x^2 - 2
                (F3, (1, 2, 0, 1)),                 # F27: x^3 + 2x + 1
                (PrimeField(7), (1, 0, 1)),         # F49: x^2 + 1
                (F3, (2, 2, 2, 1, 1)),              # F81: x^4 + x^3 + 2x^2 + 2x + 2
                (F9, ((2, 2), (0, 0), (1, 0)))]     # F81 over F9: y^2 - (1 + j)
    orders = []
    for base, minpoly in minpolys:
        E = ExtensionField(base, minpoly)
        orders.append(E.order)
        assert E._log is not None
        elems = list(E.elements())
        for a in elems:
            for b in elems:
                assert E.mul(a, b) == E._schoolbook(a, b)
            if a != E.zero:
                assert E.inv(a) == E._gcd_inverse(a)
                assert E.mul(a, E.inv(a)) == E.one
        with pytest.raises(ZeroDivisionError):
            E.inv(E.zero)
    assert orders == [9, 25, 27, 49, 81, 81]
    F243 = ExtensionField(F3, (1, 2, 0, 0, 0, 1), "x")          # x^5 + 2x + 1
    assert F243._log is None
    a = (1, 2, 0, 1, 1)
    assert F243.mul(a, F243.inv(a)) == F243.one


def test_a_small_field_without_a_primitive_element_is_refused(monkeypatch):
    """x^2 + 2 = (x - 1)(x + 1) over F3: with the irreducibility test out of
    the way, F3[x]/(x^2 + 2) has zero divisors and no element of order 8."""
    from superscheme import fields
    monkeypatch.setattr(fields, "poly_is_irreducible", lambda F, p: True)
    with pytest.raises(FieldError, match="no primitive element"):
        ExtensionField(F3, (2, 0, 1), "a")
