"""Exact coefficient fields: the rationals and prime fields.

A rational coefficient is an int when it is integral and otherwise a reduced
stdlib Fraction (positive denominator), so every value has one form and the
common integral case never pays for a Fraction; `fractions` is imported when
the first non-integral value is built.  Prime-field coefficients are plain
integer residues in [0, p).  All arithmetic goes through the field object so
polynomial code stays field-agnostic.
"""

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


def _ratio(num, den):
    """The rational num/den of two ints in canonical form: an int when den
    divides num, else a reduced Fraction.  ZeroDivisionError when den is 0."""
    if num % den:
        from fractions import Fraction

        return Fraction(num, den)
    return num // den


class RationalField:
    """The field of rational numbers.  A coefficient is an int when it is
    integral and a reduced Fraction otherwise; every operation returns this
    form.  Fractions and ints that are equal also hash alike."""

    characteristic = 0
    zero = 0
    one = 1

    def of(self, value):
        """An int or rational number (anything with numerator and
        denominator) as a coefficient."""
        return _ratio(value.numerator, value.denominator)

    def frac(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator in rational coefficient")
        return _ratio(num, den)

    # The sum, difference or product of ints is an int; one that involves a
    # Fraction is integral when its denominator is 1.  Each operation does
    # its own arithmetic, so a count of calls to these six methods counts
    # field operations.

    def add(self, a, b):
        c = a + b
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def sub(self, a, b):
        c = a - b
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def mul(self, a, b):
        c = a * b
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        return _ratio(a.denominator, a.numerator)

    def div(self, a, b):
        return _ratio(a.numerator * b.denominator, a.denominator * b.numerator)

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
        """An int or rational number (anything with numerator and
        denominator) as a residue."""
        return self.frac(value.numerator, value.denominator)

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
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero")
        return a * pow(b, -1, self.p) % self.p

    def __repr__(self):
        return f"FP({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("FP", self.p))


QQ = RationalField()
GF = PrimeField
