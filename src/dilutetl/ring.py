"""
Exact coefficient arithmetic.

Two coefficient rings are provided: Laurent polynomials in q with rational
coefficients (the generic ring, `LaurentPoly`), and the cyclotomic field
Q[q]/(Phi_m(q)) for q a primitive m-th root of unity (`CycloElem`).  All
arithmetic is exact; no floating point is used anywhere.

Both rings share one representation, a sparse dict `coeffs` from exponent
to nonzero coefficient, and one set of operations: a `CycloElem` is a
`LaurentPoly` that holds its remainder modulo Phi_m (exponents
0..phi(m)-1).  Each operation builds its result through `_new`, which in
the cyclotomic ring reduces with q^m = 1 and then one memoised remainder of
q^e for each e from phi(m) to m-1, and reads its other operand through
`_lift`: an int, a Fraction or an element of the same ring, else
TypeError; the constructors take only integer exponents and int or
Fraction coefficients.  The field adds only `inv`, division and negative
powers.  A `QMode` is the one object of its ring (`GENERIC`, or one per
m), so modes compare and hash by identity; it holds its zero and one and
is the only source of constants and powers of q (`const`, `q_power`).
Its root-of-unity values (those, powers of beta, q-numbers) are images
of the generic ones under the specialisation map `QMode.convert`.
`subs_fraction` and `parse` are generic-only and raise TypeError on a
`CycloElem`.

Coefficients are normalised when an element is built: an integral value is
stored as a plain int and only a non-integral one as a Fraction.  Every
structure constant lies in Z[q, q^-1], so the generic ring and the
fraction-free determinants stay in int arithmetic; Fractions appear only
in non-integral inputs and where a coefficient division does not come out
even (field inverses).  An int and an integral Fraction compare, hash and
print alike, so the choice never shows in a result.

Products of powers of int Laurent polynomials, as in the Gram
determinants, go through one kernel, `laurent_product`: Kronecker
substitution (Harvey, J. Symbolic Comput. 44, 2009).  Each factor is
evaluated at q = 2^(8 nb) (in q^g when every exponent gap is a multiple
of g; the Gram determinants have g = 2, which halves the packed span), the
values are raised and multiplied as Python ints (C-level multiplication),
and the product is read back once in balanced base 2^(8 nb).  The digit width comes from the bound
||prod p^e||_inf <= prod ||p||_1^e, which is close to tight for the Gram
determinants (663 of 668 bits at n = 8, k = 0).  It is not the general
multiply: for the few-term products of diagram and module arithmetic the
packing and read-back cost more than the dict-based `LaurentPoly.__mul__`
saves, so that stays as it is.

Ring elements are immutable: no operation writes to its operands, and no
element's `coeffs` is changed after construction.  Memoised values
(`beta_power`, each mode's zero and one, the dense Gram blocks, and the
cyclotomic polynomials as tuples) and matrix cells share objects freely.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index


def _norm(v):
    """An int or Fraction coefficient, as a plain int when integral; else TypeError."""
    if type(v) is not int:
        if not isinstance(v, (int, Fraction)):
            raise TypeError("coefficient %r is not an int or a Fraction" % (v,))
        v = Fraction(v)
        if v.denominator == 1:
            v = v.numerator
    return v


class CrossCheckError(ArithmeticError):
    """Two independent computations of one value disagree: a bug, not bad input."""


class LaurentPoly:
    """
    A Laurent polynomial in q over the rationals, stored as a sparse map
    from integer exponents to nonzero coefficients (ints where integral,
    otherwise Fractions).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                e, v = index(e), _norm(v)  # an int exponent, else TypeError
                if v:
                    c[e] = v
        self.coeffs = c

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _new(self, coeffs):
        """An element of this ring from a dict of nonzero coefficients."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = coeffs
        return out

    def _lift(self, other):
        """other as an element of this ring: an int, a Fraction or the ring's own."""
        if type(other) is LaurentPoly:
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other})
        raise TypeError("cannot combine a Laurent polynomial with %s %r"
                        % (type(other).__name__, other))

    def __add__(self, other):
        c = dict(self.coeffs)
        for e, v in self._lift(other).coeffs.items():
            w = c.get(e, 0) + v
            if w == 0:
                c.pop(e, None)
            else:
                c[e] = w
        return self._new(c)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other).coeffs.items()
        c = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other:
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w == 0:
                    c.pop(e, None)
                else:
                    c[e] = w
        return self._new(c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial: %d" % n)
        out = self._lift(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant hashes as the number it equals
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def exact_div(self, other):
        """
        Divide by another Laurent polynomial; the quotient must be exact
        (zero remainder) or a ValueError is raised.
        """
        other = self._lift(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly()
        # shift both to ordinary polynomials, divide, shift back
        sa, sb = self.min_exp(), other.min_exp()
        a = _to_dense(self)
        b = _to_dense(other)
        q, r = _poly_divmod(a, b)
        if any(r):
            raise ValueError("non-exact Laurent polynomial division")
        out = LaurentPoly({i + sa - sb: v for i, v in enumerate(q)})
        return out

    def subs_fraction(self, value):
        """Evaluate at a nonzero rational q = value; returns a Fraction."""
        if type(self) is not LaurentPoly:  # a remainder's value is no ring map
            raise TypeError("subs_fraction of a %s" % type(self).__name__)
        value = Fraction(value)
        if not value:
            raise ZeroDivisionError("a Laurent polynomial evaluated at q = 0")
        total = Fraction(0)
        for e, v in self.coeffs.items():
            total += v * value ** e
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            parts.append("%s*q^%d" % (self.coeffs[e], e))
        return " + ".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text):
        """
        Parse the sparse "c*q^e" sum format produced by str().  Raises
        ValueError, naming the term, on any malformed input.
        """
        if cls is not LaurentPoly:  # the text is a generic element
            raise TypeError("%s.parse" % cls.__name__)
        text = text.strip()
        if text == "0":
            return LaurentPoly()
        coeffs = {}
        for part in text.split(" + "):
            try:
                cstr, estr = part.split("*q^")
                e = int(estr)
                c = Fraction(cstr)
            except (ValueError, ZeroDivisionError):
                raise ValueError("malformed term %r in %r" % (part, text)) from None
            coeffs[e] = coeffs.get(e, 0) + c
        return LaurentPoly(coeffs)


def laurent_product(factors):
    """
    The product of p ** e over (p, e) pairs of Laurent polynomials with
    int coefficients and e >= 0, by Kronecker substitution.  Each factor
    is shifted to an ordinary polynomial and, when the exponent gaps of
    every factor share a divisor step, taken in q^step; it is evaluated at
    X = 2^(8 nb), the values are raised and multiplied as Python ints, and
    the product is read back once in balanced base X.  Every coefficient
    of the product is at most prod ||p||_1 ** e in size, and nb bytes are
    chosen with that bound below 2^(8 nb - 1), so a digit d, stored as
    d + 2^(8 nb - 1), fits its nb bytes whatever its sign.
    """
    factors = [(p, e) for p, e in factors if e]
    if any(e < 0 for _p, e in factors):
        raise ValueError("negative power of a Laurent polynomial")
    bound, lo, span, step = 1, 0, 0, 0
    for p, e in factors:
        if any(type(v) is not int for v in p.coeffs.values()):
            raise ValueError("Kronecker product of a non-integral polynomial: %s" % p)
        bound *= sum(map(abs, p.coeffs.values())) ** e
        low = p.min_exp()
        lo += e * low
        span += e * (p.max_exp() - low)
        step = gcd(step, *(x - low for x in p.coeffs))
    if not bound:
        return LaurentPoly()  # a zero factor
    step = step or 1  # every factor a monomial
    span //= step
    nb = (bound.bit_length() + 8) // 8
    off = 1 << (8 * nb - 1)
    pad = off.to_bytes(nb, "little")
    total = 1
    for p, e in factors:
        digits = _to_dense(p)[::step]
        value = int.from_bytes(b"".join((d + off).to_bytes(nb, "little")
                                        for d in digits), "little")
        total *= (value - int.from_bytes(pad * len(digits), "little")) ** e
    raw = (total + int.from_bytes(pad * (span + 1), "little")).to_bytes(
        nb * (span + 1), "little")
    out = LaurentPoly()
    out.coeffs = {lo + step * j: d for j in range(span + 1)
                  if (d := int.from_bytes(raw[j * nb:(j + 1) * nb], "little") - off)}
    return out


def _to_dense(p):
    """Dense coefficient list of p * q^(-min_exp), constant term first."""
    s = p.min_exp()
    out = [0] * (p.max_exp() - s + 1)
    for e, v in p.coeffs.items():
        out[e - s] = v
    return out


def _poly_divmod(a, b):
    """
    Long division of dense rational polynomial a by b (constant first);
    each quotient coefficient is an exact quotient, an int where integral.
    """
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        f = _norm(Fraction(a[-1], b[-1]))
        d = len(a) - len(b)
        q[d] = f
        for i, bc in enumerate(b):
            a[i + d] -= f * bc
        while a and a[-1] == 0:
            a.pop()
    return q, a


def cyclotomic_poly(m):
    """
    The m-th cyclotomic polynomial as a tuple of integer coefficients,
    constant term first.  Built from Phi_1 = x - 1 by Phi_(rp)(x) =
    Phi_r(x^p) / Phi_r(x), one prime p of m at a time, then Phi_m(x) =
    Phi_rad(x^(m/rad)).
    """
    if m < 1:
        raise ValueError("cyclotomic polynomial of order %r" % (m,))
    phi, rad = [-1, 1], 1
    for p in range(2, m + 1):
        if m % p == 0 and all(p % r for r in range(2, p)):
            q, r = _poly_divmod(_spread(phi, p), phi)
            if any(r):
                raise CrossCheckError("Phi_%d(x) does not divide Phi_%d(x^%d)" % (rad, rad, p))
            phi, rad = q, rad * p
    return tuple(_spread(phi, m // rad))


def _spread(a, s):
    """The dense polynomial a(x^s)."""
    out = [0] * (s * (len(a) - 1) + 1)
    out[::s] = a
    return out


@lru_cache(maxsize=None)
def real_cyclotomic_poly(m):
    """
    psi_m, the minimal polynomial of beta = q + q^-1 for q a primitive m-th
    root of unity (m >= 3), as a tuple of integer coefficients, constant
    term first.  Phi_m is palindromic of degree 2d, so
    q^-d Phi_m(q) = a_d + sum_j a_(d+j) (q^j + q^-j); each q^j + q^-j is
    V_j(beta), with V_0 = 2, V_1 = x and V_(j+1) = x V_j - V_(j-1).  psi_m is
    monic of degree d = phi(m)/2 and irreducible because Phi_m is.
    """
    if m < 3:
        raise ValueError("root-of-unity mode requires m >= 3")
    phi = cyclotomic_poly(m)
    d = (len(phi) - 1) // 2
    psi = [phi[d]] + [0] * d
    prev, cur = [2], [0, 1]
    for j in range(1, d + 1):
        for i, c in enumerate(cur):
            psi[i] += phi[d + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(psi)


def times_beta(a, psi):
    """x * a modulo a monic psi, on coefficient tuples of length deg(psi)."""
    top = a[-1]
    return tuple(s - top * c for s, c in zip((0,) + a[:-1], psi))


@lru_cache(maxsize=None)
def real_beta_power(m, j):
    """beta^j in Z[beta] = Z[x]/(psi_m), as d integer coordinates."""
    psi = real_cyclotomic_poly(m)
    out = (1,) + (0,) * (len(psi) - 2)
    for _ in range(j):
        out = times_beta(out, psi)
    return out


@lru_cache(maxsize=None)
def _reduction(m):
    """
    (d, rows) for Phi_m of degree d: rows[e - d], for d <= e < m, is the
    remainder of q^e modulo Phi_m as (exponent, coefficient) pairs, each
    row q times the one before.
    """
    phi = cyclotomic_poly(m)
    d = len(phi) - 1
    row, rows = (0,) * (d - 1) + (1,), []
    for _e in range(d, m):
        row = times_beta(row, phi)
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
    return d, rows


def _reduce(m, coeffs):
    """The remainder of a Laurent polynomial modulo Phi_m, read with q^m = 1."""
    d, rows = _reduction(m)
    out = {}
    for e, v in coeffs.items():
        if not 0 <= e < d:
            e %= m
            if e >= d:
                for i, c in rows[e - d]:
                    out[i] = out.get(i, 0) + c * v
                continue
        out[e] = out.get(e, 0) + v
    return {e: v if type(v) is int else _norm(v) for e, v in out.items() if v}


class CycloElem(LaurentPoly):
    """
    An element of Q[q]/(Phi_m(q)), the field generated by a primitive m-th
    root of unity: a `LaurentPoly` whose `coeffs` hold its remainder modulo
    Phi_m (exponents 0..phi(m)-1), the same for every Laurent polynomial
    that maps to it.
    """

    __slots__ = ("m",)

    def __init__(self, m, coeffs=None):
        if m < 3:
            raise ValueError("m in {1,2} is rejected; q = +-1 is not a supported root mode")
        self.m = m
        self.coeffs = _reduce(m, LaurentPoly(coeffs).coeffs)

    def _new(self, coeffs):
        out = CycloElem.__new__(CycloElem)
        out.m = self.m
        out.coeffs = _reduce(self.m, coeffs)
        return out

    def _lift(self, other):
        if type(other) is CycloElem and other.m == self.m:
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.m, {0: other})
        raise TypeError("cannot combine an element of Q(zeta_%d) with %s %r"
                        % (self.m, type(other).__name__, other))

    # bound here too: perfbench/tracer.py wraps them from this class's own __dict__
    __add__ = __radd__ = LaurentPoly.__add__
    __sub__ = LaurentPoly.__sub__
    __rsub__ = LaurentPoly.__rsub__
    __neg__ = LaurentPoly.__neg__
    __mul__ = __rmul__ = LaurentPoly.__mul__

    def __pow__(self, n):
        return self.inv() ** -n if n < 0 else LaurentPoly.__pow__(self, n)

    def inv(self):
        """
        Multiplicative inverse: the product of the other Galois conjugates
        (q -> q^k for the units k mod m other than 1) over the norm, the
        product of all of them, which must be a nonzero rational.
        """
        if not self.coeffs:
            raise ZeroDivisionError("zero is not invertible")
        rest = self._lift(1)
        for k in range(2, self.m):
            if gcd(k, self.m) == 1:
                rest = rest * CycloElem(self.m, {k * e: v for e, v in self.coeffs.items()})
        norm = (self * rest).coeffs
        if list(norm) != [0]:
            raise CrossCheckError("norm %r of %s is not a nonzero rational" % (norm, self))
        return rest * Fraction(1, norm[0])

    def __truediv__(self, other):
        return self * self._lift(other).inv()

    def exact_div(self, other):
        """
        Divide by another element of the field, the counterpart of
        `LaurentPoly.exact_div` for fraction-free elimination; a zero
        divisor raises ZeroDivisionError.
        """
        return self / other


def ell_of(m):
    """
    The smallest positive integer ell with q^(2*ell) = 1 for q a primitive
    m-th root of unity: ell = m / gcd(m, 2).
    """
    if m < 3:
        raise ValueError("root-of-unity mode requires m >= 3")
    return m // gcd(m, 2)


class QMode:
    """
    Coefficient-ring selector: either the generic Laurent ring or the
    cyclotomic field of a primitive m-th root of unity (with derived ell).
    Every construction returns the one immutable mode of its ring, which
    builds its zero and one when it is made; equality is identity.
    """

    __slots__ = ("kind", "m", "ell", "_zero", "_one")
    _rings = {}  # (kind, m) -> the one mode of that ring

    def __new__(cls, kind, m=None):
        if kind not in ("generic", "root"):
            raise ValueError("unknown coefficient mode %r" % (kind,))
        key = (kind, m if kind == "root" else None)
        mode = cls._rings.get(key)
        if mode is None:
            mode = object.__new__(cls)
            mode.kind, mode.m = key
            mode.ell = None if kind == "generic" else ell_of(m)
            mode._zero, mode._one = mode.const(0), mode.const(1)
            cls._rings[key] = mode
        return mode

    def zero(self):
        """The zero of this mode's ring: one shared element per mode."""
        return self._zero

    def one(self):
        """The one of this mode's ring: one shared element per mode."""
        return self._one

    def const(self, v):
        return self.convert(LaurentPoly({0: v}))

    def q_power(self, e):
        return self.convert(LaurentPoly({e: 1}))

    def convert(self, p):
        """
        The specialisation map: a generic Laurent polynomial read in this
        mode's ring.  It is a ring map, so every root-of-unity value is the
        image of the generic one.
        """
        return p if self.m is None else CycloElem(self.m, p.coeffs)

    def __repr__(self):
        return "QMode(generic)" if self.m is None else "QMode(root m=%d, ell=%d)" % (self.m, self.ell)


GENERIC = QMode("generic")


def root_of_unity(m):
    return QMode("root", m)


def qnum(j, mode=GENERIC):
    """
    The q-number [j]_q = q^(j-1) + q^(j-3) + ... + q^(1-j), computed by the
    summed form and specialized afterwards in root-of-unity mode.
    """
    if j < 0:
        raise ValueError("q-number of a negative index: %d" % j)
    p = LaurentPoly({e: 1 for e in range(j - 1, -j, -2)})
    return mode.convert(p)


def beta(mode=GENERIC):
    """The loop weight q + q^(-1) of mode's ring: `beta_power(mode, 1)`."""
    return beta_power(mode, 1)


@lru_cache(maxsize=None)
def beta_power(mode, j):
    """
    beta(mode) ** j, the weight of j closed loops, memoised per mode: at a
    root of unity the image of the generic power, whose few terms reduce
    faster than a product of reduced (at large m, dense) elements.
    """
    return (mode.convert(beta_power(GENERIC, j)) if mode.m
            else LaurentPoly({1: 1, -1: 1}) ** j)
