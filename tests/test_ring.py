"""Exact coefficient rings: Laurent polynomials and cyclotomic fields."""

import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy import ZZ
from sympy.polys.densearith import dup_rem
from hypothesis import given, settings, strategies as st

from dilutetl.ring import (CycloElem, GENERIC, LaurentPoly, QMode, beta,
                           beta_power, cyclotomic_poly, ell_of,
                           laurent_product, qnum, real_beta_power,
                           real_cyclotomic_poly, root_of_unity)
from dilutetl.diagram_core import all_generators
from dilutetl.link_modules import LinComb, enumerate_links

settings.register_profile("fixed", derandomize=True, max_examples=60)
settings.load_profile("fixed")

laurent = st.dictionaries(
    st.integers(-5, 5),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    max_size=5).map(LaurentPoly)
int_laurent = st.dictionaries(
    st.integers(-5, 5), st.integers(-9, 9), max_size=5).map(LaurentPoly)
cyclo_rep = st.dictionaries(
    st.integers(-6, 12),
    st.one_of(st.integers(-9, 9),
              st.fractions(min_value=-9, max_value=9, max_denominator=4)),
    max_size=6)


def _normalised(v):
    """An exact coefficient: an int when integral, else a Fraction."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@given(laurent, laurent, laurent)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + GENERIC.zero() == a
    assert a * GENERIC.one() == a


@given(laurent, laurent)
def test_laurent_specialization_oracle(a, b):
    v = Fraction(3, 2)
    assert (a * b).subs_fraction(v) == a.subs_fraction(v) * b.subs_fraction(v)
    assert (a + b).subs_fraction(v) == a.subs_fraction(v) + b.subs_fraction(v)


@given(laurent, laurent)
def test_laurent_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_laurent_nonexact_div_raises():
    with pytest.raises(ValueError):
        (GENERIC.q_power(1) + 1).exact_div(GENERIC.q_power(1) - 1)


@given(int_laurent, int_laurent, st.integers(0, 3))
def test_laurent_integer_coefficients_stay_int(a, b, j):
    results = [a + b, a - b, a * b, a ** j, a + 3, 2 - a, a * -2]
    if not b.is_zero():
        results.append((a * b).exact_div(b))
    for p in results:
        assert all(type(v) is int for v in p.coeffs.values()), p


@given(st.sampled_from([3, 4, 5, 6, 8, 10, 12]), cyclo_rep, cyclo_rep)
def test_cyclo_coefficients_normalised(m, a, b):
    x, y = CycloElem(m, a), CycloElem(m, b)
    results = [x, x + y, x - y, x * y, x ** 2]
    if y:
        results += [y.inv(), x / y, x.exact_div(y)]
        assert x.exact_div(y) * y == x
    else:
        with pytest.raises(ZeroDivisionError):
            x.exact_div(y)
    for r in results:
        assert all(_normalised(v) for v in r.coeffs.values()), r


@given(laurent)
def test_laurent_parse_roundtrip(a):
    assert LaurentPoly.parse(str(a)) == a


@settings(max_examples=300)
@given(st.text(alphabet="0123456789-/*q^ +", max_size=12))
def test_laurent_parse_accepts_or_raises_value_error(text):
    try:
        a = LaurentPoly.parse(text)
    except ValueError:
        return
    assert LaurentPoly.parse(str(a)) == a


@pytest.mark.parametrize("text", ["", "  ", "1/0*q^0", "1*q^0 + 1/0*q^2", "q^2", "1*q^",
                                  "x*q^1", "1*q^1.5", "1*q^1*q^2", "1*q^1 +", "1*q^1 + + 2*q^3"])
def test_laurent_parse_rejects_malformed_terms(text):
    with pytest.raises(ValueError, match="malformed term"):
        LaurentPoly.parse(text)


@pytest.mark.parametrize("m", [None, 3, 6, 8])
def test_constants_hash_as_the_numbers_they_equal(m):
    mode = GENERIC if m is None else root_of_unity(m)
    for v in (0, 1, -3, Fraction(1, 2)):
        c = mode.const(v)
        assert c == v and hash(c) == hash(v) and len({c, v}) == 1
    if m is not None:
        assert hash(mode.q_power(m)) == hash(1)


@pytest.mark.parametrize("m", list(range(1, 31)))
def test_cyclotomic_poly_vs_sympy(m):
    x = sympy.symbols("x")
    want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
    assert cyclotomic_poly(m) == tuple(Fraction(v) for v in want)


@pytest.mark.parametrize("m", list(range(3, 31)))
def test_real_cyclotomic_poly(m):
    """psi_m is monic over Z of degree phi(m)/2 and vanishes at beta."""
    psi = real_cyclotomic_poly(m)
    units = sum(1 for a in range(1, m) if gcd(a, m) == 1)
    assert all(type(c) is int for c in psi)
    assert len(psi) - 1 == units // 2 and psi[-1] == 1
    mode = root_of_unity(m)
    b = beta(mode)
    powers = [mode.one()]
    for _ in range(len(psi) + 4):
        powers.append(powers[-1] * b)
    assert sum((c * bj for c, bj in zip(psi, powers)), mode.zero()).is_zero()
    # beta^j reduced mod psi_m, read back in the cyclotomic field
    for j, bj in enumerate(powers):
        coords = real_beta_power(m, j)
        assert sum((c * powers[i] for i, c in enumerate(coords)),
                   mode.zero()) == bj, j


def test_real_beta_power_on_a_cold_memo():
    """
    beta^j is built by a loop, not one recursion per power, so a cold memo
    reaches j = 3000; every power is the remainder of x^j modulo psi_m.
    """
    def want(m, j):
        psi = real_cyclotomic_poly(m)
        rem = dup_rem([ZZ(1)] + [ZZ(0)] * j, [ZZ(c) for c in psi[::-1]], ZZ)[::-1]
        return tuple(map(int, rem)) + (0,) * (len(psi) - 1 - len(rem))

    real_beta_power.cache_clear()
    assert real_beta_power(5, 3000) == want(5, 3000)
    real_beta_power.cache_clear()
    for m in range(5, 41):
        for j in range(41):
            assert real_beta_power(m, j) == want(m, j), (m, j)


def _complex_eval(elem):
    """Numerical value of a cyclotomic element at exp(2*pi*i/m)."""
    w = cmath.exp(2j * cmath.pi / elem.m)
    return sum(float(v) * w ** e for e, v in elem.coeffs.items())


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 10, 12])
def test_qnum_complex_oracle(m):
    mode = root_of_unity(m)
    w = cmath.exp(2j * cmath.pi / m)
    for j in range(0, 9):
        want = sum(w ** e for e in range(j - 1, -j, -2))
        assert abs(_complex_eval(qnum(j, mode)) - want) < 1e-9


def _laurent_eval(p, w):
    """Numerical value of a Laurent polynomial at the complex number w."""
    return sum(float(v) * w ** e for e, v in p.coeffs.items())


@given(st.sampled_from([3, 4, 5, 6, 7, 8, 9, 10, 12]), st.data())
def test_convert_is_a_ring_map(m, data):
    """
    Specialisation at a primitive m-th root is a ring map, and the reduced
    product takes the value a(w) b(w) at w = exp(2 pi i / m), computed
    from the unreduced Laurent polynomials.
    """
    poly = st.dictionaries(
        st.integers(-3 * m, 3 * m),
        st.one_of(st.integers(-9, 9),
                  st.fractions(min_value=-9, max_value=9, max_denominator=4)),
        max_size=5).map(LaurentPoly)
    a, b, j = data.draw(poly), data.draw(poly), data.draw(st.integers(0, 4))
    convert = root_of_unity(m).convert
    assert convert(a * b) == convert(a) * convert(b)
    assert convert(a + b) == convert(a) + convert(b)
    assert convert(a ** j) == convert(a) ** j
    w = cmath.exp(2j * cmath.pi / m)
    want = _laurent_eval(a, w) * _laurent_eval(b, w)
    scale = sum(map(abs, a.coeffs.values())) * sum(map(abs, b.coeffs.values()))
    assert abs(_complex_eval(convert(a * b)) - want) <= 1e-9 * (1 + scale)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 12])
def test_cyclo_field(m):
    mode = root_of_unity(m)
    q = mode.q_power(1)
    assert q ** m == mode.one()
    for d in range(1, m):
        assert q ** d != mode.one(), "root must be primitive"
    a = q + mode.const(Fraction(2, 3))
    assert a * a.inv() == mode.one()
    assert (a / a) == mode.one()


@pytest.mark.parametrize("m,ell", [(3, 3), (4, 2), (5, 5), (6, 3), (8, 4),
                                   (10, 5), (12, 6)])
def test_ell_of(m, ell):
    assert ell_of(m) == ell
    mode = root_of_unity(m)
    # the ell-th q-number vanishes exactly at these roots
    assert qnum(ell, mode).is_zero()
    for j in range(1, ell):
        assert not qnum(j, mode).is_zero()


def test_beta_generic():
    assert beta() == LaurentPoly({1: 1, -1: 1})
    assert beta(root_of_unity(4)).is_zero()  # q = i gives loop weight zero


def test_one_mode_object_per_ring():
    """Every construction of a mode returns the one object for its ring."""
    m6 = root_of_unity(6)
    assert root_of_unity(6) is m6
    assert QMode("root", 6) is m6 and QMode("root", m=6) is m6
    assert QMode("generic") is GENERIC
    assert root_of_unity(12) is not m6 and root_of_unity(12) != m6
    assert m6 != GENERIC and len({GENERIC, m6, root_of_unity(6)}) == 2
    for mode in (GENERIC, m6, root_of_unity(8)):
        assert mode.zero() is mode.zero() and mode.one() is mode.one()


@pytest.mark.parametrize("m", [None, 3, 6, 8])
def test_beta_is_the_first_beta_power(m):
    mode = GENERIC if m is None else root_of_unity(m)
    assert beta(mode) is beta_power(mode, 1)
    assert beta(mode) == mode.q_power(1) + mode.q_power(-1)


@pytest.mark.parametrize("build", [
    lambda: LaurentPoly({2.9: 1}),
    lambda: LaurentPoly({"2": 1}),
    lambda: LaurentPoly({1.5: 0}),
    lambda: GENERIC.q_power(1.5),
    lambda: CycloElem(6, {1.5: 1}),
    lambda: root_of_unity(6).q_power(2.0),
    lambda: GENERIC.const(0.1),
    lambda: LaurentPoly({0: "1"}),
    lambda: CycloElem(6, {0: 0.0}),
    lambda: CycloElem(6, {7: 2.0}),
    lambda: root_of_unity(6).const(0.5),
])
def test_constructors_reject_inexact_exponents_and_coefficients(build):
    """Exponents are integers, coefficients ints or Fractions: no floats."""
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("m", [None, 5, 6])
def test_shared_zero_and_one_survive_sums(m):
    """
    Each mode hands out one zero and one one; sums of algebra elements and
    link-state combinations that start from them, or cancel to them, leave
    them as they were.
    """
    mode = GENERIC if m is None else root_of_unity(m)
    zero, one = mode.zero(), mode.one()
    fresh = GENERIC if m is None else root_of_unity(m)
    assert fresh.zero() is zero and fresh.one() is one
    gens = [g for _lab, g in all_generators(3, mode)]
    total = gens[0]
    for g in gens[1:] + [g.scale(mode.const(-1)) for g in gens] + gens:
        total = total + g
    assert total.terms == sum(gens[1:], gens[0]).terms
    assert (total - total).is_zero()
    states = enumerate_links(3, 1)
    comb = LinComb(3, mode, {v: one for v in states})
    assert (comb + comb.scale(mode.const(-1))).is_zero()
    assert (comb + comb).terms == {v: mode.const(2) for v in states}
    assert zero.is_zero() and zero == mode.const(0)
    assert one == mode.const(1) and one * one == one
    assert zero is mode.zero() and one is mode.one()


def test_small_m_rejected():
    with pytest.raises(ValueError):
        ell_of(2)
    with pytest.raises(ValueError):
        CycloElem(2, {0: 1})
    with pytest.raises(ValueError):
        root_of_unity(2)


def _product_fold(factors):
    """The dict-based product of p ** e: the oracle of laurent_product."""
    out = GENERIC.one()
    for p, e in factors:
        out = out * p ** e
    return out


def _random_int_laurent(rng, terms, size):
    return LaurentPoly({rng.randint(-6, 6): rng.randint(-size, size)
                        for _ in range(terms)})


def test_laurent_product_matches_fold():
    rng = random.Random(2009)
    for _ in range(150):
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.2:  # a high power of a short factor
                p, e = _random_int_laurent(rng, rng.randint(1, 2), 3), rng.randint(30, 70)
            else:
                p, e = _random_int_laurent(rng, rng.randint(1, 5), 300), rng.randint(0, 6)
            factors.append((p, e))
        assert laurent_product(factors) == _product_fold(factors), factors


def test_laurent_product_edge_cases():
    q, zero = GENERIC.q_power, GENERIC.zero()
    assert laurent_product([]) == GENERIC.one()
    assert laurent_product([(zero, 0), (q(3), 0)]) == GENERIC.one()
    assert laurent_product([(q(-2) + 5, 2), (zero, 1)]).is_zero()
    # monomials and same-sign digits meet the coefficient bound exactly,
    # at either side of a byte boundary
    for c in (127, 128, -128, 129, 255, 256, 2 ** 15, -2 ** 15 - 1):
        for p, e in ((LaurentPoly({-3: c}), 1), (LaurentPoly({4: c}), 3)):
            assert laurent_product([(p, e)]) == p ** e, (c, e)
    for p in (q(-1) + q(1), 1 - q(2), q(-5) * 2 - q(-2) + q(1) * 7):
        for e in (1, 2, 7, 70):
            assert laurent_product([(p, e)]) == p ** e
    assert laurent_product([(q(-3) * -2, 7), (q(-1) - q(1), 3)]) == (
        q(-21) * -128 * (q(-1) - q(1)) ** 3)
    with pytest.raises(ValueError):
        laurent_product([(LaurentPoly({0: Fraction(1, 2)}), 1)])
    with pytest.raises(ValueError):
        laurent_product([(q(1), -1)])
