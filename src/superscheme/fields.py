"""Exact field arithmetic: rationals, odd prime fields, and simple extensions.

Field elements are plain hashable values (for Q an int when the value is
an integer and a normalized Fraction otherwise, int residues for F_p,
coefficient tuples for extensions); a Field object supplies the
operations, and no element is ever divided with /.  Characteristic 2 is
rejected everywhere.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import isqrt


class FieldError(ValueError):
    pass


PRIMALITY_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin on the first 13 prime bases, a proof for n below
    PRIMALITY_BOUND (Sorenson and Webster, Math. Comp. 86, 2017): with n - 1
    = 2^s d, d odd, n passes base a if a^d = 1 or a^(2^r d) = -1 for an r < s."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _PRIME_BASES)


class Field:
    """Common interface; subclasses fix the element representation."""

    char = 0
    order = None  # None for infinite fields

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def is_finite(self):
        return self.order is not None

    def elements(self):
        raise FieldError(f"field {self.describe()} is not finite")

    def __ne__(self, other):
        return not self.__eq__(other)


class RationalField(Field):
    """The rational numbers.  An element is an int when its value is an
    integer and a normalized Fraction otherwise: parse, from_int, zero, one
    and every operation return that form, from operands in either form, so
    no Fraction is built for an integer.  An int carries .numerator and
    .denominator too, so code that reads them takes either."""

    char = 0
    order = None
    zero = 0
    one = 1

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        r = a + b
        return r.numerator if r.denominator == 1 else r

    def neg(self, a):
        return -a.numerator if a.denominator == 1 else -a

    def mul(self, a, b):
        r = a * b
        return r.numerator if r.denominator == 1 else r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        r = Fraction(a.denominator, a.numerator)
        return r.numerator if r.denominator == 1 else r

    def from_int(self, n):
        return n

    def parse(self, s):
        """int(s) when it reads s, else Fraction(s).  int accepts some of
        the strings Fraction accepts, with the same value, and no other, so
        the accepted strings are Fraction's and an integral token builds no
        Fraction.  A token read with exponent 0, which Fraction accepts just
        when it accepts the token, and found 0 is 0: no 10^e is built."""
        try:
            return int(s)
        except ValueError:
            pass
        try:
            exponent = _EXPONENT.search(s)
            if exponent and not Fraction(s[:exponent.start()] + "e0"):
                return 0
            r = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational scalar {s!r}") from exc
        return r.numerator if r.denominator == 1 else r

    def format(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def sort_key(self, a):
        return a

    def describe(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


QQ = RationalField()

# The exponent of a token, as Fraction's own pattern reads it
_EXPONENT = re.compile(r"[eE][-+]?\d+(?:_\d+)*\s*\Z")


class PrimeField(Field):
    """F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if p >= PRIMALITY_BOUND:
            raise FieldError(f"cannot certify that {p} is prime: Miller-Rabin on the first "
                             f"13 prime bases is a proof only below {PRIMALITY_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1

    def is_zero(self, a):
        return not a        # residues are canonical in [0, p)

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, s):
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise FieldError(f"bad residue scalar {s!r}") from exc

    def format(self, a):
        return str(a % self.p)

    def sort_key(self, a):
        return a % self.p

    def elements(self):
        return range(self.p)

    def describe(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


# An extension field of at most this order multiplies and inverts by the
# exp and log tables of a primitive element.
TABLE_ORDER = 81


class ExtensionField(Field):
    """Simple extension base[x]/(minpoly); elements are coefficient tuples.

    minpoly is monic, coefficients low to high over the base field, and is
    validated irreducible at construction (exhaustive search over finite
    bases; rational roots plus degree <= 3 over Q).
    """

    def __init__(self, base, minpoly, gen_name="a"):
        minpoly = tuple(minpoly)
        if len(minpoly) < 3:
            raise FieldError("extension degree must be at least 2")
        if not base.is_one(minpoly[-1]):
            raise FieldError("minimal polynomial must be monic")
        if not poly_is_irreducible(base, minpoly):
            raise FieldError(f"minimal polynomial {minpoly} is reducible over {base.describe()}")
        self.base = base
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self.gen_name = gen_name
        self.char = base.char
        self.order = None if base.order is None else base.order ** self.degree
        self.zero = tuple([base.zero] * self.degree)
        self.one = tuple([base.one] + [base.zero] * (self.degree - 1))
        self.generator = tuple(
            [base.zero, base.one] + [base.zero] * (self.degree - 2))
        # x^k mod minpoly for degree <= k <= 2*degree - 2, the powers a
        # product of two reduced elements can reach; x * (sum c_i x^i) is the
        # shift minus its top coefficient times the monic minpoly
        self._powers = {}
        power = tuple([base.zero] * (self.degree - 1) + [base.one])    # x^(degree-1)
        for k in range(self.degree, 2 * self.degree - 1):
            top = power[-1]
            power = tuple(base.sub(c, base.mul(top, m))
                          for c, m in zip((base.zero,) + power[:-1], minpoly))
            self._powers[k] = power
        self._exp = self._log = None
        if self.order is not None and self.order <= TABLE_ORDER:
            self._exp, self._log = self._tables()

    def _tables(self):
        """exp and log tables of a primitive element g, found by the
        schoolbook product: exp[i] = g^i for 0 <= i < 2(q - 1), so that
        exp[log a + log b] is a product, followed by zeros from index
        2(q - 1) = log 0 on, so that a product with 0 reads 0 too."""
        n = self.order - 1
        for g in self.elements():
            powers, x = [self.one], g
            while x != self.one and len(powers) < n:
                powers.append(x)
                x = self._schoolbook(x, g)
            if x == self.one and len(powers) == n:
                log = {x: i for i, x in enumerate(powers)}
                log[self.zero] = 2 * n
                return powers * 2 + [self.zero] * (2 * n + 1), log
        raise FieldError(f"no primitive element in {self.describe()}")

    def _wrap(self, coeffs):
        coeffs = list(coeffs)[: self.degree]
        coeffs += [self.base.zero] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        """A table lookup in a field of order at most TABLE_ORDER, else the
        schoolbook product.  The tables are keyed by canonical coefficient
        tuples, the only elements the field's operations, parse and
        elements make."""
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._schoolbook(a, b)

    def _schoolbook(self, a, b):
        """The schoolbook product, its high coefficients folded back through
        the precomputed powers x^k mod minpoly."""
        B = self.base
        d = self.degree
        out = [B.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if B.is_zero(x):
                continue
            for j, y in enumerate(b):
                if not B.is_zero(y):
                    out[i + j] = B.add(out[i + j], B.mul(x, y))
        for k in range(d, 2 * d - 1):
            c = out[k]
            if not B.is_zero(c):
                for i, t in enumerate(self._powers[k]):
                    out[i] = B.add(out[i], B.mul(c, t))
        return tuple(out[:d])

    def inv(self, a):
        """A table lookup in a field of order at most TABLE_ORDER, else the
        extended Euclidean algorithm against minpoly."""
        if all(self.base.is_zero(c) for c in a):
            raise ZeroDivisionError("inverse of 0")
        if self._log is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self._gcd_inverse(a)

    def _gcd_inverse(self, a):
        g, u, _ = poly_ext_gcd(self.base, poly_trim(self.base, a), self.minpoly)
        if len(g) != 1:
            raise FieldError("element not invertible; minimal polynomial reducible?")
        scale = self.base.inv(g[0])
        return self._wrap([self.base.mul(scale, c) for c in u])

    def from_int(self, n):
        return self._wrap([self.base.from_int(n)])

    def embed(self, a):
        """Image of a base-field element."""
        return self._wrap([a])

    def parse(self, s):
        parts = s.split(",")
        if len(parts) > self.degree:
            raise FieldError(f"too many coordinates in {s!r}")
        return self._wrap([self.base.parse(p) for p in parts])

    def format(self, a):
        return ",".join(self.base.format(c) for c in a)

    def sort_key(self, a):
        return tuple(self.base.sort_key(c) for c in a)

    def elements(self):
        if self.order is None:
            raise FieldError(f"field {self.describe()} is not finite")
        # low coordinate varies slowest for a stable enumeration order
        return itertools.product(self.base.elements(), repeat=self.degree)

    def describe(self):
        poly = " ".join(self.base.format(c) for c in self.minpoly)
        return f"{self.base.describe()}[{self.gen_name}]/({poly})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.base == self.base
                and other.minpoly == self.minpoly)

    def __hash__(self):
        return hash(("ext", self.base, self.minpoly))


# ---------------------------------------------------------------------------
# polynomial helpers; coefficient lists are low to high over an explicit field


def poly_trim(F, p):
    p = list(p)
    while p and F.is_zero(p[-1]):
        p.pop()
    return tuple(p)


def poly_add(F, p, q):
    n = max(len(p), len(q))
    p = list(p) + [F.zero] * (n - len(p))
    q = list(q) + [F.zero] * (n - len(q))
    return poly_trim(F, [F.add(a, b) for a, b in zip(p, q)])


def poly_scale(F, p, c):
    return poly_trim(F, [F.mul(c, a) for a in p])


def poly_mul(F, p, q):
    p, q = poly_trim(F, p), poly_trim(F, q)
    if not p or not q:
        return ()
    out = [F.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(F, out)


def poly_divmod(F, p, q):
    p, q = list(poly_trim(F, p)), poly_trim(F, q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [F.zero] * max(0, len(p) - len(q) + 1)
    lead_inv = F.inv(q[-1])
    while len(p) >= len(q) and poly_trim(F, p):
        shift = len(p) - len(q)
        c = F.mul(p[-1], lead_inv)
        quot[shift] = c
        for i, b in enumerate(q):
            p[shift + i] = F.sub(p[shift + i], F.mul(c, b))
        p = list(poly_trim(F, p))
    return poly_trim(F, quot), poly_trim(F, p)


def poly_ext_gcd(F, p, q):
    """Return (g, u, v) with u*p + v*q = g, g monic."""
    r0, r1 = poly_trim(F, p), poly_trim(F, q)
    u0, u1 = (F.one,), ()
    v0, v1 = (), (F.one,)
    while r1:
        quot, rem = poly_divmod(F, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_add(F, u0, poly_scale(F, poly_mul(F, quot, u1), F.neg(F.one)))
        v0, v1 = v1, poly_add(F, v0, poly_scale(F, poly_mul(F, quot, v1), F.neg(F.one)))
    if r0:
        scale = F.inv(r0[-1])
        r0 = poly_scale(F, r0, scale)
        u0 = poly_scale(F, u0, scale)
        v0 = poly_scale(F, v0, scale)
    return r0, u0, v0


def poly_eval(F, p, x):
    out = F.zero
    for c in reversed(p):
        out = F.add(F.mul(out, x), c)
    return out


def _fraction_sqrt(a):
    """The nonnegative square root in Q of a rational a, or None."""
    if a < 0:
        return None
    rn, rd = isqrt(a.numerator), isqrt(a.denominator)
    if rn * rn == a.numerator and rd * rd == a.denominator:
        return rn if rd == 1 else Fraction(rn, rd)
    return None


def field_sqrt(F, a):
    """A square root of a in F, or None if there is none (or undecidable)."""
    if F.is_zero(a):
        return F.zero
    if isinstance(F, RationalField):
        return _fraction_sqrt(a)
    if F.is_finite():
        for x in F.elements():
            if F.mul(x, x) == a:
                return x
        return None
    if isinstance(F, ExtensionField) and F.degree == 2 and isinstance(F.base, RationalField):
        # x = u + v*g with g^2 = s + t*g; solve (u^2 + s v^2) + (2uv + t v^2) g = a
        s = F.base.neg(F.minpoly[0])
        t = F.base.neg(F.minpoly[1])
        a0, a1 = a
        r = _fraction_sqrt(a0)
        if a1 == 0 and r is not None:
            return F.embed(r)
        # v != 0: let w = v^2, then (a1 - w t)^2 + 4 s w^2 = 4 a0 w
        # i.e. (t^2 + 4 s) w^2 - (2 a1 t + 4 a0) w + a1^2 = 0
        Q = F.base
        A = t * t + 4 * s
        B = -(2 * a1 * t + 4 * a0)
        C = a1 * a1
        cands = []
        if A == 0:
            if B != 0:
                cands.append(Q.mul(-C, Q.inv(B)))
        else:
            disc = B * B - 4 * A * C
            rd = _fraction_sqrt(disc)
            if rd is not None:
                half = Q.inv(2 * A)
                cands.extend([Q.mul(-B + rd, half), Q.mul(-B - rd, half)])
        for w in cands:
            v = _fraction_sqrt(w)
            if v is None or v == 0:
                continue
            u = Q.mul(a1 - w * t, Q.inv(2 * v))
            x = (u, v)
            if F.mul(x, x) == a:
                return x
        return None
    return None


_ROOT_SCAN_BOUND = 10 ** 12


def poly_roots(F, p):
    """All roots in F (with multiplicity stripped), in sorted order.

    Complete for finite fields and for Q.  Over Q the divisor scan raises
    FieldError when the cleared constant or leading coefficient exceeds
    10^12.  Over extension fields of Q only degree <= 2 is decided; higher
    degrees return the empty list.
    """
    p = poly_trim(F, p)
    if len(p) <= 1:
        return []
    roots = []
    if F.is_finite():
        roots = [x for x in F.elements() if F.is_zero(poly_eval(F, p, x))]
    elif isinstance(F, RationalField):
        # rational root theorem after clearing denominators
        from math import gcd
        denom = 1
        for c in p:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = [int(c * denom) for c in p]
        while ints and ints[0] == 0:
            if 0 not in roots:
                roots.append(0)
            ints = ints[1:]
        if len(ints) > 1:
            a0, an = abs(ints[0]), abs(ints[-1])
            if max(a0, an) > _ROOT_SCAN_BOUND:
                raise FieldError(
                    "rational root search: a constant or leading coefficient "
                    "exceeds the divisor scan bound 10^12")
            for num in _divisors(a0):
                for den in _divisors(an):
                    q = F.mul(num, F.inv(den))
                    for cand in (q, F.neg(q)):
                        if F.is_zero(poly_eval(F, p, cand)) and cand not in roots:
                            roots.append(cand)
    elif len(p) == 3:
        # quadratic formula, char != 2
        c, b, a = p
        disc = F.sub(F.mul(b, b), F.mul(F.from_int(4), F.mul(a, c)))
        r = field_sqrt(F, disc)
        if r is not None:
            half = F.inv(F.add(a, a))
            roots = [F.mul(F.add(F.neg(b), r), half), F.mul(F.sub(F.neg(b), r), half)]
            roots = sorted(set(roots), key=F.sort_key)
    return sorted(set(roots), key=F.sort_key)


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


_FACTOR_SEARCH_BOUND = 10 ** 6


def poly_factor_supported(F, p):
    """Split p into monic factors using the supported searches.

    Returns (factors, complete).  Factors multiply to p up to the leading
    coefficient; complete is True when the factors are certified irreducible.
    Over finite fields the search is exhaustive; over Q rational roots are
    stripped and the cofactor is certified only up to degree 3; over
    extensions of Q only degree <= 2 is decided.
    """
    p = poly_trim(F, p)
    if len(p) <= 1:
        return [], True
    p = poly_scale(F, p, F.inv(p[-1]))
    factors = []
    for r in poly_roots(F, p):
        lin = (F.neg(r), F.one)
        while True:
            quot, rem = poly_divmod(F, p, lin)
            if rem:
                break
            factors.append(lin)
            p = quot
    if len(p) == 1:
        return factors, True
    if len(p) == 2:
        factors.append(p)
        return factors, True
    if F.is_finite():
        done, complete = _finite_factor(F, p)
        return factors + done, complete
    if isinstance(F, RationalField):
        if len(p) <= 4:  # rootless degree 2 or 3 is irreducible
            factors.append(p)
            return factors, True
        factors.append(p)
        return factors, False
    # extension of Q: rootless quadratic is irreducible, beyond that undecided
    if len(p) == 3:
        factors.append(p)
        return factors, True
    factors.append(p)
    return factors, False


def _finite_factor(F, p):
    """Exhaustive trial division over a finite field."""
    deg = len(p) - 1
    half = deg // 2
    if F.order ** half > _FACTOR_SEARCH_BOUND:
        return [p], False
    elems = list(F.elements())
    factors = []
    d = 1
    while d <= (len(p) - 1) // 2:
        found = False
        for tail in itertools.product(elems, repeat=d):
            cand = tail + (F.one,)
            quot, rem = poly_divmod(F, p, cand)
            if not rem:
                factors.append(cand)
                p = quot
                found = True
                break
        if not found:
            d += 1
    if len(p) > 1:
        factors.append(p)
    return factors, True


def poly_is_irreducible(F, p):
    p = poly_trim(F, p)
    if len(p) <= 1:
        return False
    if len(p) == 2:
        return True
    factors, complete = poly_factor_supported(F, p)
    if not complete:
        raise FieldError(
            f"cannot certify irreducibility of degree {len(p) - 1} over {F.describe()}")
    return len(factors) == 1
