"""Exact scalars over the rationals or a prime field.

Scalars are plain Python values: ``int``/``Fraction`` over Q, canonical
ints in [0, p) over F_p.  Inner loops may accumulate with native ``+`` and
``*``; ``FieldSpec.canon`` brings a raw accumulation back to canonical
form, so exact equality is always a comparison of canonical values.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

_Q_PATTERN = re.compile(r"-?(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?\Z")
_FP_PATTERN = re.compile(r"(0|[1-9][0-9]*)\Z")


# Moduli are capped below 2**64, where Miller-Rabin with the first twelve
# primes as bases decides primality exactly.
MODULUS_BOUND = 2**64
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < MODULUS_BOUND."""
    if p < 2:
        return False
    for q in _WITNESS_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _convert(number, s: str):
    """number(s), with Python's limit on digits per int-from-string as an InputError."""
    try:
        return number(s)
    except ValueError:
        raise InputError(f"scalar of {len(s)} characters is past the integer conversion limit") from None


class FieldSpec:
    """The base field k: exact rationals or F_p for a prime p."""

    __slots__ = ("kind", "p")

    RATIONALS = "Q"
    PRIME = "Fp"

    def __init__(self, kind: str, p: int | None = None):
        if kind == self.RATIONALS:
            if p is not None:
                raise InputError("rationals take no modulus")
        elif kind == self.PRIME:
            if p is not None and p >= MODULUS_BOUND:
                raise InputError(f"modulus must be below 2**64, got {p!r}")
            if p is None or not _is_prime(p):
                raise InputError(f"modulus must be prime, got {p!r}")
        else:
            raise InputError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(cls.RATIONALS)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(cls.PRIME, p)

    def canon(self, x):
        """Canonical form: reduced Fraction collapsed to int over Q, x mod p over F_p."""
        if self.p is not None:
            return int(x) % self.p
        if type(x) is int:  # skips isinstance's ABC check on the commonest input
            return x
        if isinstance(x, Fraction):
            return int(x) if x.denominator == 1 else x
        return x

    def of(self, n: int):
        """Embed a Python integer."""
        return n % self.p if self.p is not None else int(n)

    def inv(self, x):
        x = self.canon(x)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(x, self.p - 2, self.p)
        return self.canon(Fraction(1, 1) / x)

    def parse(self, s: str):
        """Parse a canonical scalar string; rejects non-canonical spellings."""
        if not isinstance(s, str):
            raise InputError(f"scalar must be a string, got {type(s).__name__}")
        if self.p is not None:
            if not _FP_PATTERN.match(s):
                raise InputError(f"bad F_{self.p} scalar {s!r}")
            v = _convert(int, s)
            if v >= self.p:
                raise InputError(f"scalar {s!r} out of range [0, {self.p})")
            return v
        if not _Q_PATTERN.match(s):
            raise InputError(f"bad rational scalar {s!r}")
        v = self.canon(_convert(Fraction, s))
        if self.fmt(v) != s:
            raise InputError(f"non-canonical rational {s!r}")
        return v

    def fmt(self, x) -> str:
        return str(self.canon(x))

    def to_json(self) -> dict:
        if self.p is not None:
            return {"kind": "Fp", "p": self.p}
        return {"kind": "Q"}

    @classmethod
    def from_json(cls, obj) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError("field must be an object with a 'kind'")
        if obj["kind"] == "Q":
            if set(obj) != {"kind"}:
                raise InputError("rational field takes no extra keys")
            return cls.rationals()
        if obj["kind"] == "Fp":
            if not isinstance(obj.get("p"), int):
                raise InputError("prime field needs an integer 'p'")
            if set(obj) != {"kind", "p"}:
                raise InputError("prime field takes no extra keys")
            return cls.prime(obj["p"])
        raise InputError(f"unknown field kind {obj['kind']!r}")

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime(p)
