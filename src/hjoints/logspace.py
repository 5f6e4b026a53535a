"""Exact log-space reals of the form sum q_j * log2(m_j).

All the inequality bounds this library verifies compare products of
integer powers with rational exponents (factorials, set counts, rational
weights). Their base-2 logs live in the Q-vector space spanned by
{log2 p : p prime}, where log2 2 = 1 carries the rational part. By unique
factorization, such a value is zero iff its canonical prime form is zero,
and its sign is decidable by comparing two big integers:

    sum_p q_p log2 p > 0   <=>   prod_{q_p>0} p^(D q_p) > prod_{q_p<0} p^(-D q_p)

with D clearing denominators. So every comparison here is exact; a float
(float(v) for the log, pow2_float() for 2^v) is only ever reported.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import is_prime


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division below 2^20; a cofactor left
    above that must be prime and below 2^78, where is_prime is
    deterministic, or the input is not desk-scale and raises ValueError."""
    if m < 1:
        raise ValueError("can only factor positive integers")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= m:
        if f > 1 << 20:
            if m < 1 << 78 and is_prime(m):
                break
            raise ValueError(f"cannot factor {m}: no prime factor below 2^20")
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += inc[i]
        i = (i + 1) % 8
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


EXACT_SIGN_BITS = 1 << 24  # largest big-integer side log2_sum_sign builds


def _rational(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def log2_sum_sign(terms) -> int:
    """Exact sign of sum q * log2(x) over (x, q) pairs, each x a positive
    rational and q rational. No x is factored.

    A float evaluation settles the sign when its magnitude exceeds a
    generous bound on its rounding error. Otherwise, with D clearing the
    denominators of the q, prod_{q>0} x^(D q) is compared with
    prod_{q<0} x^(-D q) in integers; ValueError when those would exceed
    EXACT_SIGN_BITS bits."""
    terms = [(_rational(x), _rational(q)) for x, q in terms if q]
    approx, err = [], 0.0
    for x, q in terms:
        if x.numerator <= 0:
            raise ValueError("log of a non-positive rational")
        top, bottom = math.log2(x.numerator), math.log2(x.denominator)
        qf = float(q)
        approx.append(qf * (top - bottom))
        err += abs(qf) * (top + bottom + 1.0)
    total = math.fsum(approx)
    if abs(total) > err * 2.0 ** -40:
        return 1 if total > 0 else -1
    denom = 1
    for _, q in terms:
        denom = denom * q.denominator // math.gcd(denom, q.denominator)
    size = sum(abs(q) * denom * (x.numerator.bit_length()
                                 + x.denominator.bit_length())
               for x, q in terms)
    if size > EXACT_SIGN_BITS:
        raise ValueError("log-space sign too close to zero to decide "
                         f"within {EXACT_SIGN_BITS} bits")
    lhs = rhs = 1
    for x, q in terms:
        e = q.numerator * (denom // q.denominator)
        if e > 0:
            lhs *= x.numerator ** e
            rhs *= x.denominator ** e
        else:
            lhs *= x.denominator ** -e
            rhs *= x.numerator ** -e
    return (lhs > rhs) - (lhs < rhs)


class Log2Value:
    """Immutable exact value sum_p q_p * log2(p) over primes p."""

    __slots__ = ("_coeff",)

    def __init__(self, coeff: dict[int, Fraction] | None = None):
        clean = {}
        if coeff:
            for p, q in coeff.items():
                if q != 0:
                    clean[p] = Fraction(q)
        self._coeff = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def of_int_log(cls, m: int, coeff=Fraction(1)) -> "Log2Value":
        """coeff * log2(m) for an integer m >= 1."""
        coeff = Fraction(coeff)
        if coeff == 0 or m == 1:
            return cls()
        acc: dict[int, Fraction] = {}
        for p, e in factorize(m).items():
            acc[p] = acc.get(p, Fraction(0)) + coeff * e
        return cls(acc)

    @classmethod
    def of_fraction_log(cls, value: Fraction, coeff=Fraction(1)) -> "Log2Value":
        """coeff * log2(value) for a positive rational value."""
        value = Fraction(value)
        if value <= 0:
            raise ValueError("log of a non-positive rational")
        return cls.of_int_log(value.numerator, coeff) - cls.of_int_log(value.denominator, coeff)

    @classmethod
    def of_factorial_log(cls, k: int, coeff=Fraction(1)) -> "Log2Value":
        """coeff * log2(k!)."""
        out = cls()
        for i in range(2, k + 1):
            out = out + cls.of_int_log(i, coeff)
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Log2Value") -> "Log2Value":
        acc = dict(self._coeff)
        for p, q in other._coeff.items():
            acc[p] = acc.get(p, Fraction(0)) + q
        return Log2Value(acc)

    def __sub__(self, other: "Log2Value") -> "Log2Value":
        return self + (-other)

    def __neg__(self) -> "Log2Value":
        return Log2Value({p: -q for p, q in self._coeff.items()})

    # -- exact queries -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign: reduce to one big-integer comparison."""
        return log2_sum_sign(self._coeff.items())

    def terms(self):
        """Sorted (q, p) pairs; the value is sum q * log2(p)."""
        return sorted(((q, p) for p, q in self._coeff.items()), key=lambda t: t[1])

    # -- numeric evaluation ------------------------------------------------

    def __float__(self) -> float:
        return math.fsum(float(q) * math.log2(p) for p, q in self._coeff.items())

    def pow2_float(self) -> float:
        return 2.0 ** float(self)

    def __repr__(self):
        if not self._coeff:
            return "Log2Value(0)"
        parts = " + ".join(f"({q})*log2({p})" for q, p in self.terms())
        return f"Log2Value({parts})"

    def __eq__(self, other):
        return isinstance(other, Log2Value) and self._coeff == other._coeff

    def __hash__(self):
        return hash(tuple(sorted(self._coeff.items())))

