"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Scalars stay unboxed (Fraction for Q, int in [0, p) for GF(p)); a Field
instance supplies the arithmetic. This keeps Gaussian elimination over
either field cheap and lets the same linear-algebra code serve both.

Row arithmetic lives in one place per field, the row kernels `scale_row(c,
row)`, `sub_scaled_row(u, c, v)` (u - c*v) and `dot(u, v)`: every
elimination and every combination of rows calls them, and GF(p) reduces
`% p` once per entry there (once per sum in `dot`).

The default prime is 2^61 - 1. Randomized genericity tests (Schwartz-Zippel
style) should only be run over primes of at least ~2^31 so the quoted
failure bounds are meaningful; small primes remain available for exhaustive
checks.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

DEFAULT_PRIME = (1 << 61) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def as_int(x) -> int:
    """int(x), or ValueError where int() would truncate (2.5, Fraction(5, 2))."""
    k = int(x)
    if not isinstance(x, str) and k != x:
        raise ValueError(f"not an integer: {x!r}")
    return k


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: deterministic for
    n < 3.18e23 (Sorenson-Webster)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q with Fraction scalars."""

    name = "rational"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def key(self):
        return ("rational",)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def scale_row(self, c, row):
        return [c * a for a in row]

    def sub_scaled_row(self, u, c, v):
        return [a - c * b for a, b in zip(u, v)]

    def dot(self, u, v):
        return sum(map(operator.mul, u, v), self.zero)

    def is_zero(self, a):
        return a == 0

    def from_int(self, k: int):
        return Fraction(k)

    def rand(self, rng: random.Random):
        # wide integer range keeps Schwartz-Zippel failure odds tiny
        return Fraction(rng.randrange(-(1 << 31), 1 << 31))

    def parse(self, text):
        if isinstance(text, int):
            return Fraction(text)
        try:
            return Fraction(str(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None

    def fmt(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with int scalars reduced to [0, p)."""

    name = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def key(self):
        return ("prime", self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, -1, self.p)

    def scale_row(self, c, row):
        p = self.p
        return [c * a % p for a in row]

    def sub_scaled_row(self, u, c, v):
        p = self.p
        return [(a - c * b) % p for a, b in zip(u, v)]

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, k: int):
        return k % self.p

    def rand(self, rng: random.Random):
        return rng.randrange(self.p)

    def parse(self, text):
        return as_int(text) % self.p

    def fmt(self, a):
        return a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_prime_cache: dict[int, PrimeField] = {}


def GF(p: int = DEFAULT_PRIME) -> PrimeField:
    if p not in _prime_cache:
        _prime_cache[p] = PrimeField(p)
    return _prime_cache[p]


def field_from_key(key) -> RationalField | PrimeField:
    key = tuple(key)
    if key[:1] == ("rational",):
        return QQ
    if key[:1] == ("prime",) and len(key) == 2:
        return GF(as_int(key[1]))
    raise ValueError(f"unknown field key {key!r}")
