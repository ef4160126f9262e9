"""Ring arithmetic, substitution, exact division and the text round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from alphapoly import polynomials
from alphapoly.polynomials import (
    ALPHA,
    ALPHA_ONE,
    AlphaPoly,
    BiPoly,
    DivisibilityError,
    FactoredSpectrum,
    LAM,
    PolyParseError,
    eval_alpha,
    exact_divide,
    format_bipoly,
    parse_bipoly,
    _packed_quotient,
    substitute_lambda,
)
import oracles

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
alpha_polys = st.lists(rationals, max_size=3).map(AlphaPoly)
bipolys = st.lists(alpha_polys, max_size=4).map(BiPoly)


def test_basic_products():
    assert (LAM - ALPHA) * (LAM + ALPHA) == LAM ** 2 - BiPoly((ALPHA * ALPHA,))
    p = LAM ** 2 - 2 * ALPHA * LAM + AlphaPoly((-1, 2))
    assert p + BiPoly.zero() == p
    assert (LAM - 1) * (LAM - AlphaPoly((-1, 2))) == p


def test_degree_and_canonical_form():
    assert BiPoly((ALPHA_ONE, AlphaPoly())).degree == 0
    assert AlphaPoly((0, 0)).degree == -1
    assert AlphaPoly((Fraction(2, 4),)).coeffs == (Fraction(1, 2),)


@given(bipolys, bipolys, bipolys)
@settings(max_examples=60)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(bipolys)
def test_substitute_identity(p):
    assert substitute_lambda(p, LAM, 1, max(p.degree, 0)) == p


def test_substitute_examples():
    assert substitute_lambda(LAM ** 2, LAM - 1, AlphaPoly((1, -1)), 2) == (LAM - 1) ** 2
    assert substitute_lambda(LAM, LAM ** 2, 1, 1) == LAM ** 2


def test_substitute_excess_denominator_divides():
    den = AlphaPoly((1, -1))
    p = LAM + 2
    out = substitute_lambda(p, LAM - ALPHA, den, 3)
    # den^(clear - deg p) = (1-a)^2 must divide exactly
    exact_divide(out, BiPoly((den * den,)))


def test_exact_divide_examples():
    assert exact_divide(LAM ** 2 - BiPoly((ALPHA * ALPHA,)), LAM - ALPHA) == LAM + ALPHA
    p = LAM ** 3 - 7 * LAM + 2
    assert exact_divide(p, BiPoly.one()) == p


@given(bipolys, bipolys)
@settings(max_examples=60)
def test_exact_divide_roundtrip(p, q):
    if not q:
        return
    assert exact_divide(p * q, q) == p


@given(bipolys)
def test_one_minus_alpha_power_cancellation(q):
    one_minus = AlphaPoly((1, -1))
    scaled = BiPoly((one_minus ** 3,)) * q
    assert exact_divide(scaled, BiPoly((one_minus,))) == BiPoly((one_minus ** 2,)) * q


def test_exact_divide_raises_with_witness():
    with pytest.raises(DivisibilityError) as info:
        exact_divide(LAM ** 2 + 1, LAM - 1)
    assert info.value.remainder


def test_eval_alpha_examples():
    p = LAM ** 2 - 2 * ALPHA * LAM + AlphaPoly((-1, 2))
    assert eval_alpha(p, 0) == LAM ** 2 - 1
    assert eval_alpha(p, 1) == (LAM - 1) ** 2


@given(bipolys, bipolys, rationals)
@settings(max_examples=60)
def test_eval_alpha_is_ring_homomorphism(p, q, a):
    assert eval_alpha(p + q, a) == eval_alpha(p, a) + eval_alpha(q, a)
    assert eval_alpha(p * q, a) == eval_alpha(p, a) * eval_alpha(q, a)


def test_factored_spectrum_expand():
    fs = FactoredSpectrum([(LAM - 2, 1), (LAM - AlphaPoly((-1, 3)), 2)])
    assert fs.order == 3
    expected = (LAM - 2) * (LAM - AlphaPoly((-1, 3))) ** 2
    assert fs.expand() == expected
    assert FactoredSpectrum([]).expand() == BiPoly.one()


def test_factored_spectrum_validation():
    with pytest.raises(ValueError):
        FactoredSpectrum([(LAM ** 3, 1)])
    with pytest.raises(ValueError):
        FactoredSpectrum([(LAM, 0)])


def test_format_examples():
    p = LAM ** 2 - 2 * ALPHA * LAM + AlphaPoly((-1, 2))
    assert format_bipoly(p) == "l^2 + (-2a)*l + (-1 + 2a)"
    assert format_bipoly(BiPoly.zero()) == "0"
    assert format_bipoly(LAM) == "l"
    assert format_bipoly(3 * LAM ** 2 + Fraction(1, 2)) == "3*l^2 + 1/2"


def test_parse_examples():
    assert parse_bipoly("l^2 + (-2a)*l + (-1 + 2a)") == (
        LAM ** 2 - 2 * ALPHA * LAM + AlphaPoly((-1, 2)))
    assert parse_bipoly("0") == BiPoly.zero()
    assert parse_bipoly("(3 + 6a + 9a^2)*l") == BiPoly((AlphaPoly(), AlphaPoly((3, 6, 9))))
    with pytest.raises(PolyParseError):
        parse_bipoly("l^2 + bogus")


@given(bipolys)
@settings(max_examples=80)
def test_format_parse_round_trip(p):
    assert parse_bipoly(format_bipoly(p)) == p


# ---------------------------------------------------------------------------
# packed integer kernel against the schoolbook oracles
# ---------------------------------------------------------------------------

integers = st.one_of(st.integers(min_value=-3, max_value=3),
                     st.integers(min_value=-(1 << 80), max_value=1 << 80))
int_alpha_polys = st.lists(integers, max_size=4).map(AlphaPoly)
int_bipolys = st.lists(int_alpha_polys, max_size=5).map(BiPoly)
any_bipolys = st.one_of(bipolys, int_bipolys)


@given(any_bipolys, any_bipolys)
@settings(max_examples=150)
def test_product_matches_schoolbook_oracle(p, q):
    assert p * q == oracles.product(p, q)
    for a in p.coeffs[:2]:
        for b in q.coeffs[:2]:
            assert a * b == AlphaPoly(oracles.a_mul([Fraction(c) for c in a.coeffs],
                                                    [Fraction(c) for c in b.coeffs]))


@given(any_bipolys, st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_power_matches_schoolbook_oracle(p, k):
    assert p ** k == oracles.power(p, k)
    for a in p.coeffs[:1]:
        assert BiPoly((a ** k,)) == oracles.power(BiPoly((a,)), k)


@pytest.mark.parametrize("e", [1, 2, 3, 5, 8, 13, 32])
def test_power_stops_after_the_top_bit(monkeypatch, e):
    # one product per set bit of e and one squaring per bit below the top
    # one, so no product outgrows the result's l-degree e
    degrees = []
    product = polynomials._product

    def counting(ps, qs):
        degrees.append(len(ps) + len(qs) - 2)
        return product(ps, qs)

    monkeypatch.setattr(polynomials, "_product", counting)
    p = LAM + AlphaPoly((2, -34))
    assert (p ** e).degree == max(degrees) == e
    assert len(degrees) == e.bit_length() - 1 + bin(e).count("1")
    degrees.clear()
    AlphaPoly((2, -34)) ** e
    assert len(degrees) == e.bit_length() - 1 + bin(e).count("1")


@given(any_bipolys, any_bipolys)
@settings(max_examples=100)
def test_exact_divide_recovers_oracle_quotient(r, q):
    if not q:
        return
    assert exact_divide(oracles.product(r, q), q) == r


@given(any_bipolys, any_bipolys)
@settings(max_examples=150)
def test_exact_divide_matches_long_division_oracle(p, q):
    if not q:
        return
    try:
        want = oracles.long_divide(p, q)
    except DivisibilityError as exc:
        with pytest.raises(DivisibilityError) as got:
            exact_divide(p, q)
        assert str(got.value) == str(exc)
        assert got.value.remainder == exc.remainder
    else:
        assert exact_divide(p, q) == want


def test_exact_divide_witnesses_match_oracle_examples():
    # one of each message: a remainder in l, a failed Q[a] step inside the
    # l-division, a divisor of higher l-degree, and a constant divisor
    for p, q in ((LAM ** 2 + 1, LAM - 1),
                 (LAM ** 2 + ALPHA, BiPoly((ALPHA_ONE, ALPHA)) * LAM + 1),
                 (LAM + 1, LAM ** 2),
                 (LAM + ALPHA, BiPoly((ALPHA + 1,)))):
        with pytest.raises(DivisibilityError) as want:
            oracles.long_divide(p, q)
        with pytest.raises(DivisibilityError) as got:
            exact_divide(p, q)
        assert str(got.value) == str(want.value)
        assert got.value.remainder == want.value.remainder


@pytest.mark.parametrize("bits", [18, 54])
@pytest.mark.parametrize("sign", [1, -1])
def test_product_at_the_width_bound(bits, sign):
    # all coefficients +-P and Q: the a^(s-1) l^(u-1) coefficient of the
    # product is exactly B = P*Q*min(s, t)*min(u, v) = 2^bits - 1, the most
    # the width bits(B) + 2 = bits + 2 allows (|B| < 2^(w-2))
    s = u = 3
    p_abs, q_abs = 3, ((1 << bits) - 1) // 27
    assert p_abs * q_abs * s * u == (1 << bits) - 1
    p = BiPoly([AlphaPoly([sign * p_abs] * s)] * u)
    q = BiPoly([AlphaPoly([q_abs] * s)] * u)
    got = p * q
    assert got == oracles.product(p, q)
    assert got.coefficient(u - 1).coeffs[s - 1] == sign * ((1 << bits) - 1)
    assert max(abs(c) for ap in got.coeffs for c in ap.coeffs) == (1 << bits) - 1


def test_exact_divide_falls_back_when_quotient_outgrows_the_guess():
    # (l^3 + 1)^6 / (l + 1)^6 = (l^2 - l + 1)^6: the dividend's largest
    # coefficient is 20, the quotient's 141, beyond the guessed slot
    r = (LAM ** 2 - LAM + 1) ** 6
    q = (LAM + 1) ** 6
    p = (LAM ** 3 + 1) ** 6
    assert max(abs(c) for ap in p.coeffs for c in ap.coeffs) == 20
    assert max(abs(c) for ap in r.coeffs for c in ap.coeffs) == 141
    assert _packed_quotient(p.coeffs, q.coeffs) is None
    assert exact_divide(p, q) == r


def test_integral_coefficients_are_ints():
    p = AlphaPoly((Fraction(4, 2), Fraction(1, 2)))
    assert type(p.coeffs[0]) is int
    assert p.coeffs[1] == Fraction(1, 2)
    value = AlphaPoly.const(Fraction(4, 2)).constant_value()
    assert type(value) is Fraction and value == 2
    assert all(type(c) is Fraction for c in (LAM + 3).constant_coeffs())
