"""Exact coefficient fields: the rationals and prime fields.

Rational coefficients are stdlib Fractions (always reduced, positive
denominator); prime-field coefficients are plain integer residues in [0, p).
All arithmetic goes through the field object so polynomial code stays
field-agnostic.
"""

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to every base in _MR_BASES (it is divisible by
# 1287836182261); below it the test is exact, so PrimeField accepts only
# smaller moduli.
MODULUS_BOUND = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin on the bases 2..37: exact for n < MODULUS_BOUND, the
    moduli that PrimeField accepts; above that bound it can accept a
    composite."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers; coefficients are Fractions."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        return Fraction(value)

    def frac(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator in rational coefficient")
        return Fraction(num, den)

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

    def div(self, a, b):
        return a / b

    def coeff_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) for prime p; coefficients are integer residues in [0, p)."""

    def __init__(self, p):
        if p >= MODULUS_BOUND:
            raise ValueError(f"modulus {p} too large: must be below {MODULUS_BOUND}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, value):
        if isinstance(value, Fraction):
            return self.frac(value.numerator, value.denominator)
        return value % self.p

    def frac(self, num, den):
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} divisible by modulus {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def coeff_str(self, a):
        return str(a)

    def __repr__(self):
        return f"FP({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("FP", self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)
