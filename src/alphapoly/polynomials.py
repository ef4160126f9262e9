"""Exact arithmetic in Q[a] and Q[a][l], computed over the integers.

The two variables are the mixing weight `a` of the matrix a*D(G) + (1-a)*A(G)
and the eigenvalue variable `l`.  AlphaPoly is a dense univariate polynomial
in `a` over Q; BiPoly is a dense polynomial in `l` whose coefficients are
AlphaPoly values.  Values are immutable and kept canonical (no trailing
zero coefficients, every integral coefficient a plain int, every other one
a reduced Fraction), so `==` is exact structural equality and the central
test primitive of the whole package.  An int and the equal Fraction
compare, hash and print alike, so the storage never shows.

Every closed form and charpoly of the package lies in Z[a][l], so the ring
works on integers and meets a Fraction only where a value is not integral:

* a product (`_product`, behind both `*` operators, `**` and
  `substitute_lambda`) packs each operand into one big integer by Kronecker
  substitution, a = 2^w and l = 2^(w*S) for a fixed stride of S a-slots per
  l-coefficient, multiplies once and unpacks balanced digits; rational
  operands have their denominators cleared on entry;
* `exact_divide` divides the packed integers and checks the quotient by one
  packed multiply-back; only when the operands are not integral or that
  check fails does it run l-wise long division over Q[a], the one path that
  raises DivisibilityError with its remainder witness.

Canonical text form (see `format_bipoly` / `parse_bipoly`)::

    l^3 + (-6a)*l^2 + (-3 + 6a + 9a^2)*l + (-2 + 12a - 18a^2)

l-terms in descending degree joined by " + "; each coefficient is an
a-polynomial in ascending degree; rationals print as p/q (p when q = 1).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class DivisibilityError(ArithmeticError):
    """A division that had to be exact left a nonzero remainder.

    Inside formula evaluation this is a falsification signal, not a bug:
    the closed forms guarantee exact cancellation exactly when their
    hypotheses hold.
    """

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


def _scalar(x) -> Scalar:
    """x as a canonical coefficient: an int when integral, else a reduced
    Fraction."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# packed integer kernel
# ---------------------------------------------------------------------------

def _pack(coeffs: Sequence[int], width: int) -> int:
    """The integer coefficients (ascending) evaluated at 2^width."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def _unpack(x: int, width: int, count: int) -> list[int]:
    """The `count` balanced base-2^width digits of x, ascending, each in
    [-2^(width-1), 2^(width-1)); OverflowError if x needs more digits."""
    base = 1 << width
    half = base >> 1
    mask = base - 1
    out = []
    for _ in range(count):
        digit = x & mask
        if digit >= half:
            digit -= base
        out.append(digit)
        x = (x - digit) >> width
    if x != 0:
        raise OverflowError("packed coefficient overflow; width bound violated")
    return out


def _int_rows(rows: Sequence["AlphaPoly"]):
    """(integer coefficient rows, d): the rows times their least common
    denominator d."""
    den = 1
    for r in rows:
        for c in r.coeffs:
            if type(c) is not int:
                den = lcm(den, c.denominator)
    if den == 1:
        return [r.coeffs for r in rows], 1
    return [[int(c * den) for c in r.coeffs] for r in rows], den


def _pack_rows(rows, width: int, stride: int) -> int:
    """Rows of a-coefficients (ascending in l) evaluated at a = 2^width,
    l = 2^(width*stride)."""
    return _pack([_pack(r, width) for r in rows], width * stride)


def _product(ps: Sequence["AlphaPoly"], qs: Sequence["AlphaPoly"]) -> list["AlphaPoly"]:
    """The l-coefficients of the product of two polynomials in l, each given
    by its l-coefficients (ascending, the last one nonzero).

    Kronecker substitution: with s, t the operands' a-lengths, pack both at
    a = 2^w with stride S = s + t - 1, i.e. at l = 2^(w*S), multiply the two
    integers and unpack S balanced digits per l-coefficient.

    Width: let P, Q bound the absolute values of the operands' (integer)
    coefficients and u, v be their l-lengths.  The coefficient of a^i l^j
    of the product is a sum of p_(i1,j1)*q_(i2,j2) over i1 + i2 = i and
    j1 + j2 = j, at most min(s, t) choices of i1 times min(u, v) of j1, so
    its absolute value is at most B = P*Q*min(s, t)*min(u, v) < 2^(w-2) for
    w = bits(B) + 2.  Its a-degree is below S, so the coefficients own
    disjoint slots and are the balanced base-2^w digits of the product.
    `_unpack` reads them in two levels: first the l-coefficients at width
    w*S, each sum_(i<S) c_i 2^(w*i) of absolute value
    < 2^(w-2) * 2^(w*(S-1)) * 2^w/(2^w - 1) <= 2^(w*S-1), hence a balanced
    digit too; then the S a-slots of each.  Packing is a ring homomorphism,
    so the integer product is exactly the packed polynomial product.
    Rational operands are scaled to integers by their common denominators
    first, which the result is divided by.
    """
    (pr, pden), (qr, qden) = _int_rows(ps), _int_rows(qs)
    s, t = max(map(len, pr)), max(map(len, qr))
    stride = s + t - 1
    bound = (max(map(abs, chain.from_iterable(pr)))
             * max(map(abs, chain.from_iterable(qr)))
             * min(s, t) * min(len(pr), len(qr)))
    width = bound.bit_length() + 2
    x = _pack_rows(pr, width, stride) * _pack_rows(qr, width, stride)
    rows = [_unpack(r, width, stride)
            for r in _unpack(x, width * stride, len(pr) + len(qr) - 1)]
    den = pden * qden
    if den == 1:
        return [AlphaPoly(r) for r in rows]
    return [AlphaPoly(Fraction(c, den) for c in r) for r in rows]


def _packed_quotient(ps: Sequence["AlphaPoly"], qs: Sequence["AlphaPoly"]):
    """The l-coefficients of the exact quotient of two integer polynomials
    in l (given as in `_product`), or None when it is not found this way.

    Both operands are packed at a = 2^w, l = 2^(w*s), s the dividend's
    a-length.  An exact quotient packs to the integer quotient (packing is a
    ring homomorphism), so a remainder means there is none.  Its digits are
    the quotient's coefficients only if these fit the width, and w, the
    bits of the dividend's largest coefficient plus 2, is a guess; so the
    candidate is multiplied back with `_product` and compared with the
    dividend, which makes the result exact whatever the guess.
    """
    (pr, pden), (qr, qden) = _int_rows(ps), _int_rows(qs)
    s, t = max(map(len, pr)), max(map(len, qr))
    if pden != 1 or qden != 1 or len(qr) > len(pr) or t > s:
        return None
    width = max(map(abs, chain.from_iterable(pr))).bit_length() + 2
    x, r = divmod(_pack_rows(pr, width, s), _pack_rows(qr, width, s))
    if r:
        return None
    try:
        quot = [AlphaPoly(_unpack(row, width, s - t + 1))
                for row in _unpack(x, width * s, len(pr) - len(qr) + 1)]
    except OverflowError:
        return None
    if not quot[-1] or _product(quot, qs) != list(ps):
        return None
    return quot


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------

def _power(base, k: int, one):
    """base**k by binary powering, right to left: one product per set bit
    of k and one squaring per bit below the top one, so no square of the
    top bit's power is ever formed."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


class AlphaPoly:
    """Dense polynomial in the weight variable `a` over Q; integral
    coefficients are ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else _scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: Scalar) -> "AlphaPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree in `a`; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial has positive degree in a")
        return Fraction(self.coeffs[0]) if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_alpha(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("AlphaPoly", self.coeffs))

    def __neg__(self) -> "AlphaPoly":
        return AlphaPoly(-c for c in self.coeffs)

    def __add__(self, other) -> "AlphaPoly":
        other = _as_alpha(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return AlphaPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_alpha(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_alpha(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "AlphaPoly":
        other = _as_alpha(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return AlphaPoly()
        return _product((self,), (other,))[0]

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "AlphaPoly":
        return _power(self, k, ALPHA_ONE)

    def evaluate(self, a):
        """Horner evaluation; exact for int and Fraction input."""
        out = a * 0
        for c in reversed(self.coeffs):
            out = out * a + c
        return out

    def exact_div(self, other: "AlphaPoly") -> "AlphaPoly":
        """Exact division in Q[a]; raises DivisibilityError on remainder."""
        other = _as_alpha(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return AlphaPoly()
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < d:
            raise DivisibilityError("degree of divisor exceeds dividend")
        q = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = Fraction(rem[i], lead)
            q[i - d] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= c * b
        if any(rem[:d]):
            raise DivisibilityError("non-exact division in Q[a]")
        return AlphaPoly(q)

    def __repr__(self):
        return f"AlphaPoly({format_alpha(self)!r})"


def _as_alpha(x):
    if isinstance(x, AlphaPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return AlphaPoly((x,))
    return NotImplemented


ALPHA_ZERO = AlphaPoly()
ALPHA_ONE = AlphaPoly((1,))
ALPHA = AlphaPoly((0, 1))


class BiPoly:
    """Dense polynomial in `l` with AlphaPoly coefficients (ascending)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, AlphaPoly) else AlphaPoly((c,)) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls((ALPHA_ONE,))

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree in `l`; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> AlphaPoly:
        if not self.coeffs:
            return ALPHA_ZERO
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == ALPHA_ONE

    def coefficient(self, k: int) -> AlphaPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ALPHA_ZERO

    def alpha_degree(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    def constant_coeffs(self) -> tuple:
        """Coefficient list as Fractions; requires a-degree 0 throughout."""
        return tuple(c.constant_value() for c in self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("BiPoly", self.coeffs))

    def __neg__(self):
        return BiPoly(-c for c in self.coeffs)

    def __add__(self, other):
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_bipoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return BiPoly()
        return BiPoly(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "BiPoly":
        return _power(self, k, BiPoly.one())

    def evaluate(self, a, lam):
        """Evaluate at numeric (a, l); exact for Fractions, float for floats."""
        out = lam * 0
        for c in reversed(self.coeffs):
            out = out * lam + c.evaluate(a)
        return out

    def __repr__(self):
        return f"BiPoly({format_bipoly(self)!r})"


def _as_bipoly(x):
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, AlphaPoly):
        return BiPoly((x,))
    if isinstance(x, (int, Fraction)):
        return BiPoly((AlphaPoly((x,)),))
    return NotImplemented


#: the eigenvalue variable l as a BiPoly
LAM = BiPoly((ALPHA_ZERO, ALPHA_ONE))
#: the weight variable a as a BiPoly of l-degree 0
ALPHA_L = BiPoly((ALPHA,))


def eval_alpha(p: BiPoly, a: Scalar) -> BiPoly:
    """Specialise the weight variable, leaving a polynomial in `l` alone.

    The result is a BiPoly whose coefficients are constants, so it can feed
    straight back into the ring operations.
    """
    a = _scalar(a)
    return BiPoly(AlphaPoly((c.evaluate(a),)) for c in p.coeffs)


def substitute_lambda(p: BiPoly, num, den=1, clear_power: int | None = None) -> BiPoly:
    """den^clear_power * p(num/den), computed without rational functions.

    `num` may be any BiPoly, `den` a BiPoly, AlphaPoly or scalar.  Requires
    clear_power >= deg p; the excess denominator powers stay multiplied in,
    which is exactly what the closed forms with cleared denominators need.
    """
    num = _as_bipoly(num)
    den = _as_bipoly(den)
    d = p.degree
    if clear_power is None:
        clear_power = max(d, 0)
    if clear_power < d:
        raise ValueError("clear_power must be at least deg(p)")
    if d < 0:
        return BiPoly.zero()
    # Horner in num with one more den multiplied in at each step, then
    # den^(clear-d).
    out = BiPoly((p.coeffs[d],))
    den_power = BiPoly.one()
    for k in range(d - 1, -1, -1):
        den_power = den_power * den
        out = out * num + BiPoly((p.coeffs[k],)) * den_power
    return out * den ** (clear_power - d)


def exact_divide(p: BiPoly, q) -> BiPoly:
    """Quotient p/q in Q[a][l] when the remainder is exactly zero.

    Integer operands are divided packed (`_packed_quotient`).  Otherwise,
    or when that finds no quotient, l-wise long division runs, each
    coefficient step an exact division in Q[a]; a nonzero remainder raises
    DivisibilityError carrying the remainder as a witness.
    """
    q = _as_bipoly(q)
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return BiPoly.zero()
    quot = _packed_quotient(p.coeffs, q.coeffs)
    if quot is not None:
        return BiPoly(quot)
    if q.degree == 0:
        d0 = q.coeffs[0]
        return BiPoly(c.exact_div(d0) for c in p.coeffs)
    rem = list(p.coeffs)
    dq = q.degree
    lead = q.coeffs[-1]
    if len(rem) - 1 < dq:
        raise DivisibilityError("divisor degree exceeds dividend", remainder=p)
    quot = [ALPHA_ZERO] * (len(rem) - dq)
    try:
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i].exact_div(lead)
            quot[i - dq] = c
            if c:
                for j, b in enumerate(q.coeffs):
                    rem[i - dq + j] = rem[i - dq + j] - c * b
    except DivisibilityError as exc:
        raise DivisibilityError(str(exc), remainder=BiPoly(rem)) from None
    tail = BiPoly(rem[:dq])
    if tail:
        raise DivisibilityError("non-exact division in Q[a][l]", remainder=tail)
    return BiPoly(quot)


class FactoredSpectrum:
    """Spectrum as (factor, multiplicity) pairs with an optional prefactor.

    Factors are BiPoly of l-degree 1 or 2; conjugate eigenvalue pairs that
    are not polynomial in `a` individually are carried as one quadratic.
    """

    __slots__ = ("factors", "prefactor")

    def __init__(self, factors, prefactor: AlphaPoly = ALPHA_ONE):
        fs = []
        for f, mult in factors:
            f = _as_bipoly(f)
            if f.degree not in (1, 2):
                raise ValueError("factors must have l-degree 1 or 2")
            if mult < 1 or mult != int(mult):
                raise ValueError("multiplicities must be positive integers")
            fs.append((f, int(mult)))
        self.factors = tuple(fs)
        self.prefactor = _as_alpha(prefactor)

    @property
    def order(self) -> int:
        return sum(f.degree * m for f, m in self.factors)

    def expand(self) -> BiPoly:
        out = BiPoly((self.prefactor,))
        for f, mult in self.factors:
            out = out * f ** mult
        return out

    def __eq__(self, other):
        if not isinstance(other, FactoredSpectrum):
            return NotImplemented
        return self.factors == other.factors and self.prefactor == other.prefactor

    def __repr__(self):
        inner = ", ".join(f"({format_bipoly(f)})^{m}" for f, m in self.factors)
        return f"FactoredSpectrum({inner})"


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def format_alpha(p: AlphaPoly) -> str:
    if not p:
        return "0"
    pieces = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            sym = "a" if k == 1 else f"a^{k}"
            body = sym if mag == 1 else f"{mag}{sym}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_bipoly(p: BiPoly) -> str:
    if not p:
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        lsym = "" if k == 0 else ("l" if k == 1 else f"l^{k}")
        if k > 0 and c == ALPHA_ONE:
            terms.append(lsym)
            continue
        if c.is_constant() and c.coeffs[0] > 0:
            coef = str(c.coeffs[0])
        else:
            coef = f"({format_alpha(c)})"
        terms.append(f"{coef}*{lsym}" if k > 0 else coef)
    return " + ".join(terms)


_RAT = r"\d+(?:/\d+)?"
_ALPHA_TERM = re.compile(rf"^(-?)({_RAT})?(a(?:\^(\d+))?)?$")
_LPOW = re.compile(r"^l(?:\^(\d+))?$")


class PolyParseError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PolyParseError(f"bad rational: {text!r}") from None


def parse_alpha(text: str) -> AlphaPoly:
    """Parse the coefficient sub-language, e.g. "-1 - 6a + 3/2a^2"."""
    text = text.strip()
    if text == "0":
        return ALPHA_ZERO
    normalized = text.replace(" - ", " + -")
    coeffs: dict[int, Fraction] = {}
    for part in normalized.split(" + "):
        part = part.strip()
        m = _ALPHA_TERM.match(part)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise PolyParseError(f"bad a-term: {part!r}")
        sign = -1 if m.group(1) else 1
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(3):
            power = int(m.group(4)) if m.group(4) else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * mag
    size = max(coeffs) + 1 if coeffs else 0
    out = [Fraction(0)] * size
    for k, c in coeffs.items():
        out[k] = c
    return AlphaPoly(out)


def _split_top(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced parentheses")
        elif ch == "+" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    if depth != 0:
        raise PolyParseError("unbalanced parentheses")
    parts.append(text[start:])
    return [p.strip() for p in parts]


def parse_bipoly(text: str) -> BiPoly:
    """Parse the canonical text form back into a BiPoly (exact round trip)."""
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial text")
    if text == "0":
        return BiPoly.zero()
    acc: dict[int, AlphaPoly] = {}
    for term in _split_top(text):
        if not term:
            raise PolyParseError("empty term")
        coef, lpart = ALPHA_ONE, term
        if term.startswith("("):
            close = term.rindex(")")
            coef = parse_alpha(term[1:close])
            rest = term[close + 1:].strip()
            if rest.startswith("*"):
                lpart = rest[1:].strip()
            elif rest == "":
                lpart = ""
            else:
                raise PolyParseError(f"bad term: {term!r}")
        elif "*" in term:
            coefstr, lpart = term.split("*", 1)
            coef = AlphaPoly((_parse_rational(coefstr.strip()),))
            lpart = lpart.strip()
        elif _LPOW.match(term):
            lpart = term
        else:
            coef = AlphaPoly((_parse_rational(term),))
            lpart = ""
        if lpart:
            m = _LPOW.match(lpart)
            if not m:
                raise PolyParseError(f"bad l-power: {lpart!r}")
            k = int(m.group(1)) if m.group(1) else 1
        else:
            k = 0
        acc[k] = acc.get(k, ALPHA_ZERO) + coef
    size = max(acc) + 1
    out = [ALPHA_ZERO] * size
    for k, c in acc.items():
        out[k] = c
    return BiPoly(out)
