import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dorroh.errors import InputError
from dorroh.fields import GF, QQ, FieldSpec


def test_field_construction():
    assert QQ.kind == "Q" and QQ.p is None
    assert GF(5).p == 5
    with pytest.raises(InputError):
        FieldSpec.prime(6)
    with pytest.raises(InputError):
        FieldSpec.prime(1)
    with pytest.raises(InputError):
        FieldSpec("R")


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division_below_ten_thousand():
    from dorroh.fields import _is_prime

    assert [n for n in range(10_000) if _is_prime(n)] == [n for n in range(10_000) if _trial_division(n)]


def test_large_moduli_are_decided_fast():
    start = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1  # Mersenne prime
    assert GF(18446744073709551557).p == 18446744073709551557  # largest prime below 2**64
    for composite in (
        4294967291 * 4294967279,  # two primes just below 2**32
        3825123056546413051,  # strong pseudoprime to the bases 2 through 23
        561,  # Carmichael number
        2047,  # strong pseudoprime to base 2
    ):
        with pytest.raises(InputError, match="prime"):
            FieldSpec.prime(composite)
    assert time.perf_counter() - start < 1.0


def test_moduli_from_two_to_the_64_are_rejected():
    for p in (2**64 + 13, 2**64, 2**89 - 1):
        with pytest.raises(InputError, match="below 2"):
            FieldSpec.prime(p)
    with pytest.raises(InputError):
        FieldSpec.from_json({"kind": "Fp", "p": 2**64 + 13})


def test_canon_rationals():
    assert QQ.canon(Fraction(4, 2)) == 2
    assert isinstance(QQ.canon(Fraction(4, 2)), int)
    assert QQ.canon(Fraction(-3, 6)) == Fraction(-1, 2)
    assert QQ.canon(7) == 7


def test_canon_prime_field():
    f5 = GF(5)
    assert f5.canon(7) == 2
    assert f5.canon(-1) == 4
    assert f5.canon(0) == 0


def test_inverse():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(4) == Fraction(1, 4)
    assert GF(5).inv(2) == 3
    assert GF(7).inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_parse_and_fmt_canonical():
    assert QQ.parse("3") == 3
    assert QQ.parse("-2/5") == Fraction(-2, 5)
    assert QQ.fmt(Fraction(-2, 5)) == "-2/5"
    assert QQ.fmt(Fraction(6, 3)) == "2"
    assert GF(5).parse("4") == 4


@pytest.mark.parametrize("bad", ["2/4", "4/2", "-0", "03", "1/-2", "1.5", "", "a"])
def test_parse_rejects_noncanonical_rationals(bad):
    with pytest.raises(InputError):
        QQ.parse(bad)


@pytest.mark.parametrize("bad", ["5", "7", "-1", "01", "1/2"])
def test_parse_rejects_noncanonical_mod5(bad):
    with pytest.raises(InputError):
        GF(5).parse(bad)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_rational_fmt_parse_round_trip(num, den):
    v = QQ.canon(Fraction(num, den))
    assert QQ.parse(QQ.fmt(v)) == v


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20), st.integers(1, 20))
def test_rational_arithmetic_stays_canonical(a, b, c, d):
    # products and sums of canonical values canonicalize to gcd-reduced form
    x = QQ.canon(Fraction(a, c))
    y = QQ.canon(Fraction(b, d))
    z = QQ.canon(x * y + x - y)
    if isinstance(z, Fraction):
        from math import gcd

        assert gcd(z.numerator, z.denominator) == 1
        assert z.denominator > 1
    assert QQ.canon(z) == z


@given(st.integers(0, 6), st.integers(0, 6))
def test_f7_canon_is_ring_hom(a, b):
    f7 = GF(7)
    assert f7.canon(a * b + a) == (a * b + a) % 7


def _old_canon(field, x):
    """canon as it was before its int fast path."""
    if field.p is not None:
        return int(x) % field.p
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


@given(
    st.one_of(
        st.integers(-(10**30), 10**30),
        st.booleans(),
        st.fractions(max_denominator=10**6),
        st.builds(Fraction, st.integers(-(10**9), 10**9)),
    ),
    st.sampled_from([QQ, GF(2), GF(5), GF(10007)]),
)
def test_canon_matches_the_formula_before_its_int_fast_path(x, field):
    got, want = field.canon(x), _old_canon(field, x)
    assert got == want and type(got) is type(want)


def test_primality_is_decided_once_per_modulus(monkeypatch):
    """Two parses of one F_p field run Miller-Rabin, counted by its calls
    to pow, once."""
    from dorroh import fields

    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    fields._is_prime.cache_clear()
    monkeypatch.setattr(fields, "pow", counting_pow, raising=False)
    doc = {"kind": "Fp", "p": 10007}
    assert FieldSpec.from_json(doc).p == 10007
    first = len(calls)
    assert first > 0
    assert FieldSpec.from_json(doc).p == 10007
    assert len(calls) == first
