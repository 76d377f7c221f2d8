"""Exact scalar arithmetic, ordering and the text form.

The ordering oracle is mpmath at 128-bit precision: for random rational
pairs the exact sign must match the sign of the high-precision float
evaluation (the interval is wide enough that 128 bits never straddles
zero for the magnitudes generated here unless the value is exactly 0,
which the exact path detects symbolically).
"""

from contextlib import suppress
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wall_limit
from quantperm import DomainError, ExactScalar, parse_scalar
from quantperm.exactnum import MAX_RADICAND, _is_square_free

R2 = lambda a, b: ExactScalar(a, b, 2)


def test_construction_folds_trivial_radicands():
    assert ExactScalar(3, 5, 1) == ExactScalar(8)
    assert ExactScalar(3, 5, 0) == ExactScalar(3)
    x = ExactScalar(Fraction(1, 2), Fraction(-2, 4), 2)
    assert (x.a, x.b, x.d) == (Fraction(1, 2), Fraction(-1, 2), 2)


def test_rejects_non_square_free_radicand():
    with pytest.raises(DomainError):
        ExactScalar(1, 1, 4)
    with pytest.raises(DomainError):
        ExactScalar(1, 1, 12)
    with pytest.raises(DomainError):
        ExactScalar(1, 1, -2)


def test_large_radicand_is_refused_quickly(time_limit):
    with time_limit(1.0):
        with pytest.raises(DomainError, match="4294967296"):
            parse_scalar("sqrt(1000000000000000003)")
        with pytest.raises(DomainError):
            ExactScalar(0, 1, MAX_RADICAND + 1)
        # the largest prime below the cap is square-free and still accepted
        assert ExactScalar(0, 1, 4294967291).d == 4294967291
        assert not _is_square_free(MAX_RADICAND)


def test_addition_cancels_radical():
    x = R2(1, 1) + R2(1, -1)
    assert x == ExactScalar(2)
    assert x.b == 0


def test_multiplication_example():
    # (1 + sqrt(2)) * (3 - sqrt(2)) = 1 + 2*sqrt(2)
    assert R2(1, 1) * R2(3, -1) == R2(1, 2)


def test_sign_cases():
    assert R2(1, -1).sign() == -1  # 1 - sqrt(2) < 0
    assert R2(3, -2).sign() == 1  # 3 - 2*sqrt(2) = 0.17... > 0
    assert R2(-3, 2).sign() == -1
    assert R2(0, 0).sign() == 0
    assert R2(0, 1).sign() == 1
    assert R2(0, -1).sign() == -1
    assert (R2(2, -1) * R2(2, -1) - R2(6, -4)).sign() == 0


def test_cmp_examples():
    assert R2(0, 1).cmp(R2(Fraction(3, 2), 0)) < 0  # sqrt(2) < 3/2
    assert R2(Fraction(7, 5), 0).cmp(R2(0, 1)) < 0  # 7/5 < sqrt(2)
    assert R2(1, 1).cmp(R2(1, 1)) == 0
    assert R2(0, 1) < 2 and R2(0, 1) > 1


def test_cmp_matches_sign_of_difference():
    """cmp reads the order off the parts; it must agree with the sign of
    the difference scalar on every pair, including exact ties, mixed
    signs and rational scalars against irrational ones."""
    parts = [-2, Fraction(-3, 2), -1, 0, Fraction(1, 3), 1, Fraction(7, 5), 2]
    grid = [ExactScalar(a) for a in parts]
    for d in (2, 3):
        grid += [ExactScalar(a, b, d) for a in parts for b in parts if b != 0]
    grid += [ExactScalar(3, -2, 2), ExactScalar(2, -1, 3), ExactScalar(-4, 2, 3)]
    compared = 0
    for x in grid:
        for y in grid:
            if x.b != 0 and y.b != 0 and x.d != y.d:
                with pytest.raises(DomainError):
                    x.cmp(y)
                continue
            assert x.cmp(y) == (x - y).sign(), (x, y)
            compared += 1
        for q in (0, -1, Fraction(5, 4)):
            assert x.cmp(q) == (x - q).sign()
    assert compared > 5_000


def test_mismatched_radicands_raise():
    x = ExactScalar(1, 1, 2)
    y = ExactScalar(1, 1, 3)
    with pytest.raises(DomainError):
        x + y
    with pytest.raises(DomainError):
        x.cmp(y)
    # rational payloads mix freely regardless of declared radicand
    assert ExactScalar(2, 0, 3) + x == ExactScalar(3, 1, 2)


def test_equality_and_hash_across_radicands():
    assert ExactScalar(3, 0, 2) == ExactScalar(3, 0, 1) == 3
    assert hash(ExactScalar(3, 0, 2)) == hash(ExactScalar(3, 0, 1)) == hash(Fraction(3))
    assert ExactScalar(1, 1, 2) != ExactScalar(1, 1, 3)


def test_int_and_fraction_coercion():
    assert R2(1, 1) * 2 == R2(2, 2)
    assert 2 * R2(1, 1) == R2(2, 2)
    assert R2(1, 1) + Fraction(1, 2) == R2(Fraction(3, 2), 1)
    assert 1 - R2(0, 1) == R2(1, -1)


def test_immutable():
    x = R2(1, 1)
    with pytest.raises(AttributeError):
        x.a = Fraction(2)


def test_text_form():
    assert R2(Fraction(-1, 2), Fraction(3, 4)).text() == "-1/2 + 3/4 * sqrt(2)"
    assert R2(1, -1).text() == "1 - sqrt(2)"
    assert R2(0, Fraction(1, 2)).text() == "1/2 * sqrt(2)"
    assert R2(0, -1).text() == "-sqrt(2)"
    assert ExactScalar(-3).text() == "-3"
    assert ExactScalar(Fraction(2, 6)).text() == "1/3"


def test_parse_round_trip():
    cases = [
        R2(Fraction(-1, 2), Fraction(3, 4)),
        R2(1, -1),
        R2(0, 5),
        ExactScalar(0),
        ExactScalar(Fraction(-7, 3)),
        ExactScalar(0, Fraction(2, 7), 5),
    ]
    for x in cases:
        assert parse_scalar(x.text()) == x


def test_parse_variants():
    assert parse_scalar("3/1 + 1/2 * sqrt(2)") == R2(3, Fraction(1, 2))
    assert parse_scalar("-sqrt(2) + 1") == R2(1, -1)
    assert parse_scalar("  2  ") == ExactScalar(2)
    assert parse_scalar("5", d=2) == ExactScalar(5, 0, 2)


# text near the grammar (digits, signs, '/', '*', sqrt) and arbitrary text
scalar_texts = st.one_of(
    st.text(),
    st.text(alphabet="0123456789+-*/() sqrt", max_size=40),
    st.lists(
        st.sampled_from(["1", "-", "+", "/", "0", "*", " ", "sqrt(", ")", "2", "9" * 5000]),
        max_size=8,
    ).map("".join),
)


@given(text=scalar_texts, d=st.one_of(st.none(), st.integers(min_value=-3, max_value=12)))
@settings(max_examples=500, deadline=None)
def test_parse_scalar_returns_or_raises_domain_error(text, d):
    with wall_limit(1), suppress(DomainError):
        assert isinstance(parse_scalar(text, d), ExactScalar)


def test_parse_rejects_garbage():
    for bad in (
        "", "foo", "1 +", "1 2", "sqrt(2) sqrt(2)", "1/0", "1" * 5000, "3/0 * sqrt(2)"
    ):
        with pytest.raises(DomainError):
            parse_scalar(bad)
    with pytest.raises(DomainError):
        parse_scalar("sqrt(2) + sqrt(3)")
    with pytest.raises(DomainError):
        parse_scalar("sqrt(3)", d=2)
    with pytest.raises(DomainError) as caught:
        parse_scalar("  ")
    assert str(caught.value) == "empty scalar text '  '"


@pytest.mark.parametrize("bad", [5, 2.5, None, ["1"], b"1"])
def test_parse_scalar_names_a_non_string(bad):
    with pytest.raises(DomainError) as caught:
        parse_scalar(bad)
    assert str(caught.value) == f"scalar text must be a string, got {bad!r}"


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, a3=rationals, b3=rationals)
@settings(max_examples=200)
def test_ring_laws(a1, b1, a2, b2, a3, b3):
    x, y, z = R2(a1, b1), R2(a2, b2), R2(a3, b3)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ExactScalar(0)


@given(a1=rationals, b1=rationals, a2=rationals, b2=rationals)
@settings(max_examples=300)
def test_order_matches_128bit_evaluation(a1, b1, a2, b2):
    x, y = R2(a1, b1), R2(a2, b2)
    got = x.cmp(y)
    with mpmath.workprec(128):
        diff = (
            mpmath.mpf(a1.numerator) / a1.denominator
            - mpmath.mpf(a2.numerator) / a2.denominator
            + (
                mpmath.mpf(b1.numerator) / b1.denominator
                - mpmath.mpf(b2.numerator) / b2.denominator
            )
            * mpmath.sqrt(2)
        )
        if diff == 0:
            want = 0
        else:
            want = 1 if diff > 0 else -1
    if want == 0:
        # 128 bits cannot certify exact zero for irrational parts; fall back
        # to the symbolic fact a + b*sqrt(2) = 0 iff a = b = 0
        assert a1 == a2 and b1 == b2
        assert got == 0
    else:
        assert got == want


@given(a=rationals, b=rationals)
@settings(max_examples=200)
def test_sign_consistent_with_float(a, b):
    x = R2(a, b)
    s = x.sign()
    with mpmath.workprec(128):
        v = mpmath.mpf(a.numerator) / a.denominator + (
            mpmath.mpf(b.numerator) / b.denominator
        ) * mpmath.sqrt(2)
        if v != 0:
            assert s == (1 if v > 0 else -1)
        else:
            assert a == 0 and b == 0 and s == 0
