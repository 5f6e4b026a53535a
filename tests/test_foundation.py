import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hjoints import DEFAULT_PRIME, GF, QQ, Log2Value
from hjoints import linalg
from hjoints.fields import field_from_key, is_prime
from hjoints.logspace import EXACT_SIGN_BITS, factorize, log2_sum_sign


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime((1 << 61) - 1)
    assert not is_prime(1) and not is_prime((1 << 61) - 2)


def test_prime_field_ops():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.sub(2, 5) == 4
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("key", [[], ["prime"], ["prime", 7, 1], ["real"]])
def test_malformed_field_keys_are_value_errors(key):
    with pytest.raises(ValueError, match="unknown field key"):
        field_from_key(key)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="'1/0'"):
        QQ.parse("1/0")


def test_rref_and_nullspace_rational():
    rows = [(Fraction(1), Fraction(2), Fraction(3)),
            (Fraction(2), Fraction(4), Fraction(6)),
            (Fraction(0), Fraction(1), Fraction(1))]
    red, pivots = linalg.rref(rows, QQ)
    assert pivots == [0, 1]
    assert len(red) == 2
    ns = linalg.nullspace(rows, QQ, 3)
    assert len(ns) == 1
    for row in rows:
        assert sum(a * b for a, b in zip(row, ns[0])) == 0


def test_solve_consistency_gf():
    f = GF(101)
    rows = [(1, 2, 3), (4, 5, 6)]
    rhs = (1, 2)
    x, basis = linalg.affine_solve(rows, rhs, f, 3)
    assert linalg.mat_vec(rows, x, f) == tuple(v % 101 for v in rhs)
    assert len(basis) == 1 and linalg.mat_vec(rows, basis[0], f) == (0, 0)
    # inconsistent system
    rows2 = [(1, 1, 0), (2, 2, 0)]
    assert linalg.affine_solve(rows2, (1, 3), f, 3) is None


def test_rank_matches_permutation_expansion():
    rng = random.Random(3)
    f = GF(97)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(97) for _ in range(n)] for _ in range(n)]
        # oracle: Leibniz expansion
        import itertools
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m[i][perm[i]]
            expected += term
        assert (linalg.rank(m, f) == n) == (expected % 97 != 0)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    # a prime cofactor above the 2^20 trial bound is found by is_prime;
    # a composite one with no factor below 2^20 is refused, not ground out
    assert factorize(3 * DEFAULT_PRIME) == {3: 1, DEFAULT_PRIME: 1}
    with pytest.raises(ValueError, match="cannot factor"):
        factorize(DEFAULT_PRIME ** 2)


def test_log2value_exact_identities():
    # log2(4) = 2 * log2(2)
    assert Log2Value.of_int_log(4) == Log2Value.of_int_log(2, 2)
    # log2(6) = log2(2) + log2(3)
    six = Log2Value.of_int_log(6)
    assert six == Log2Value.of_int_log(2) + Log2Value.of_int_log(3)
    assert six - six == Log2Value()
    assert six.sign() == 1
    assert (-six).sign() == -1


def test_log2value_sign_is_big_integer_comparison():
    # (3/2) log2 3 vs log2 5: compare 3^3 vs 5^2
    lhs = Log2Value.of_int_log(3, Fraction(3, 2))
    rhs = Log2Value.of_int_log(5)
    assert (lhs - rhs).sign() == 1
    # log2(1024) vs 10 exactly
    assert (Log2Value.of_int_log(1024) - Log2Value.of_int_log(2, 10)).sign() == 0


def test_log2value_float_and_fraction_eval():
    v = Log2Value.of_fraction_log(Fraction(7, 5), Fraction(2, 3))
    expected = (2 / 3) * math.log2(7 / 5)
    assert abs(float(v) - expected) < 1e-14
    assert abs(v.pow2_float() - (7 / 5) ** (2 / 3)) < 1e-15
    # 2^(5/2) = sqrt(32)
    assert Log2Value.of_int_log(2, Fraction(5, 2)).pow2_float() == math.sqrt(32)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 400), st.integers(2, 400),
       st.fractions(min_value=-3, max_value=3, max_denominator=16),
       st.fractions(min_value=-3, max_value=3, max_denominator=16))
def test_log2value_sign_matches_float(m1, m2, q1, q2):
    v = Log2Value.of_int_log(m1, q1) + Log2Value.of_int_log(m2, q2)
    f = float(v)
    if abs(f) > 1e-6:
        assert v.sign() == (1 if f > 0 else -1)
    else:
        # tiny values: exact sign must at least be consistent with zero-ness
        if v == Log2Value():
            assert v.sign() == 0


def _integer_sign(terms):
    """sign of sum q log2 x by exact rational powers: prod x^(D q) vs 1."""
    denom = math.lcm(*(Fraction(q).denominator for _, q in terms))
    value = math.prod(Fraction(x) ** int(Fraction(q) * denom) for x, q in terms)
    return (value > 1) - (value < 1)


@seed(4411)
@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.tuples(
           st.fractions(min_value=Fraction(1, 20), max_value=50,
                        max_denominator=20),
           st.fractions(min_value=-3, max_value=3, max_denominator=6)),
           min_size=1, max_size=3),
       shift=st.sampled_from([None, 0, 1, -1]))
@example(terms=[(Fraction(3), Fraction(1, 2))], shift=1)
def test_log2_sum_sign_matches_integer_comparison(terms, shift):
    # shift appends (x^2 (1 + shift 10^-15), -q/2) for the first term: an
    # exact cancellation at 0 and a near one at +-1, which the float
    # evaluation cannot settle, so the integer comparison must
    if shift is not None:
        x, q = terms[0]
        terms = terms + [(x * x * (1 + Fraction(shift, 10 ** 15)), -q / 2)]
    assert log2_sum_sign(terms) == _integer_sign(terms)


def test_log2_sum_sign_takes_bases_it_cannot_factor():
    big = 2 ** 89 - 1  # a prime above the reach of factorize
    with pytest.raises(ValueError):
        Log2Value.of_int_log(big)
    assert log2_sum_sign([(big, 1), (big + 1, -1)]) == -1
    assert log2_sum_sign([(Fraction(big, big + 1), 2), (Fraction(big, big + 1) ** 2, -1)]) == 0
    # an exact decision past EXACT_SIGN_BITS is refused, not attempted
    q = Fraction(EXACT_SIGN_BITS)
    with pytest.raises(ValueError):
        log2_sum_sign([(big, q), (big + 1, -q), (big + 1, q), (big, -q)])
