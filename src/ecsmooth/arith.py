"""Integer kernel: modular inversion with divisor surfacing, Kronecker symbol,
primality, prime sieves, and Cornacchia's solution of t^2 + |D| b^2 = 4p in
the nine class-number-1 imaginary quadratic fields.

Python ints are the arbitrary-precision substrate throughout; residues are
plain ints paired with an explicit modulus argument.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, DomainError, RamifiedPrimeError, UsageError

# Squarefree d with Q(sqrt(-d)) of class number 1.
CLASS_NUMBER_ONE_DS = (1, 2, 3, 7, 11, 19, 43, 67, 163)

SIEVE_LIMIT = 1 << 31  # capacity guard for prime_sieve
PRIME_LIST_LIMIT = 10**8  # integers in one prime_sieve window: its list costs ~2.5 MB per 10^6
_SEGMENT = 1 << 20


def inverse_or_divisor(a: int, n: int) -> tuple[int | None, int | None]:
    """Invert a mod n, or surface a nontrivial divisor of n.

    Returns (inv, None) with a*inv = 1 mod n when gcd(a, n) = 1, and
    (None, g) with g = gcd(a % n, n), 1 < g <= n, otherwise.  Total: never
    raises for n >= 2.  The divisor branch is the mechanism by which the
    curve layer turns a failed inversion into a factor.
    """
    if n < 2:
        raise UsageError(f"modulus must be >= 2, got {n}")
    a %= n
    g = math.gcd(a, n)
    if g == 1:
        return pow(a, -1, n), None
    return None, g


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for n >= 0."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    if D % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    while n % 2 == 0:
        n //= 2
        if D % 8 in (3, 5):
            k = -k
    # now n odd; reduce to a Jacobi symbol (D mod n / n)
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (covers the whole 64-bit range).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_ABOVE = 40


def _mr_round(n: int, a: int, d: int, s: int) -> bool:
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, 40 Miller-Rabin rounds above
    (witnesses drawn from an n-seeded generator so the answer is stable)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 3317044064679887385961981:
        return _miller_rabin(n, _MR_WITNESSES)  # n > 37 here, so every witness is < n - 1
    return _probable_prime(n)


@lru_cache(maxsize=64)
def _probable_prime(n: int) -> bool:
    # memoized: 40 rounds cost milliseconds at 127 bits, and one q is asked
    # about again and again (cli.cmd_split, then split_step on every call)
    rng = random.Random(n)
    return _miller_rabin(n, [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS_ABOVE)])


def _miller_rabin(n: int, witnesses) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return all(_mr_round(n, a, d, s) for a in witnesses)


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise DomainError(f"prime_factors needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_sieve(limit: int, start: int = 2) -> list[int]:
    """All primes p with start <= p <= limit, ascending (segmented
    Eratosthenes over [start, limit] only).  The window [max(start, 2),
    limit] may hold at most PRIME_LIST_LIMIT integers."""
    if limit < 2:
        raise DomainError(f"prime_sieve needs limit >= 2, got {limit}")
    if limit > SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} exceeds budget {SIEVE_LIMIT}")
    width = limit - max(start, 2) + 1
    if width > PRIME_LIST_LIMIT:
        raise CapacityError(f"prime list over [{max(start, 2)}, {limit}] spans {width} integers, "
                            f"more than {PRIME_LIST_LIMIT}")
    return _sieve(limit, start)


def _sieve(limit: int, start: int) -> list[int]:
    """Each segment of [start, limit] is crossed off from p^2 on by every
    prime p <= sqrt(limit).  Those base primes come from the same sieve on
    sqrt(limit); each survives in its own segment, since p < p^2."""
    root = math.isqrt(limit)
    base = _sieve(root, 2) if root >= 2 else []
    primes = []
    lo = max(start, 2)
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        seg = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            first = max(p * p, -(-lo // p) * p)
            seg[first - lo :: p] = False
        primes.extend((np.nonzero(seg)[0] + lo).tolist())
        lo = hi + 1
    return primes


def primes_below(y: int) -> list[int]:
    """Primes strictly below y (the strict-friability convention)."""
    return prime_sieve(y - 1) if y > 2 else []


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo a prime p, or None when a is not a square.
    Either root may be returned: cornacchia's (t, b) does not depend on it,
    curve.sw_random_point flips the sign at random, and BSGS returns the
    true order whatever its points.  One modular power at p = 3 mod 4
    (a^((p+1)/4)) and at p = 5 mod 8 (Atkin's root), each candidate checked
    by squaring; Tonelli-Shanks at p = 1 mod 8, where a non-residue shows
    itself when the inner loop reaches i = m."""
    a %= p
    if a == 0 or p == 2:
        return a
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        # i = 2av^2 is a square root of -1 when a is a square
        v = pow(2 * a, (p - 5) // 8, p)
        i = 2 * a * v * v % p
        r = a * v * (i - 1) % p
    else:
        return _tonelli_shanks(a, p)
    return r if r * r % p == a else None


def _tonelli_shanks(a: int, p: int) -> int | None:
    # p - 1 = q * 2^s with q odd; w = a^((q-1)/2) gives r = a^((q+1)/2), t = a^q
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    w = pow(a, (q - 1) // 2, p)
    r = a * w % p
    t = r * w % p
    # The least non-residue z is an odd prime (2 is a square at p = 1 mod 8).
    # For an odd prime z reciprocity gives (z/p) = (p/z), a power mod z: a
    # cheap filter before Euler's criterion mod p.  An odd composite z it
    # rejects is never the least non-residue.
    z = 3
    while pow(p % z, (z - 1) // 2, z) != z - 1 or pow(z, (p - 1) // 2, p) != p - 1:
        z += 2
    m, c = s, pow(z, q, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
            if i == m:
                return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@dataclass(frozen=True)
class ImagQuadField:
    """One of the nine imaginary quadratic fields Q(sqrt(-d)) of class
    number 1."""

    d: int

    def __post_init__(self):
        if self.d not in CLASS_NUMBER_ONE_DS:
            raise UsageError(f"d={self.d} is not in the class-number-1 whitelist")

    @cached_property
    def disc(self) -> int:
        return -4 * self.d if self.d % 4 in (1, 2) else -self.d

    @property
    def unit_count(self) -> int:
        return 4 if self.d == 1 else 6 if self.d == 3 else 2

    @cached_property
    def _chi_table(self) -> tuple[int, ...]:
        return tuple(kronecker(self.disc, r) for r in range(-self.disc))

    def chi(self, n: int) -> int:
        """Kronecker character of the field evaluated at n, read from one
        table over a period: chi is periodic mod |disc| for these
        fundamental discriminants."""
        table = self._chi_table
        return table[n % len(table)]


@lru_cache(maxsize=None)
def field_for(d: int) -> ImagQuadField:
    return ImagQuadField(d)


def cornacchia(p: int, K: ImagQuadField) -> tuple[int, int] | None:
    """(t, b) with t, b >= 0 and t^2 + |disc K| b^2 = 4p for a split prime p:
    t is the trace of an element of norm p.  None for an inert prime; raises
    RamifiedPrimeError when p divides disc(K)."""
    absD = -K.disc
    if absD % p == 0:
        raise RamifiedPrimeError(f"p={p} ramifies in Q(sqrt(-{K.d}))")
    if K.chi(p) == -1:
        return None
    return _cornacchia_split(p, K)


def _cornacchia_split(p: int, K: ImagQuadField) -> tuple[int, int]:
    """cornacchia's (t, b) for a prime p already known to split in K, without
    the ramification and chi(p) checks, which cmcount.cm_order makes once per
    prime before it asks for the orbit.  Cornacchia on 4p: a root t of
    t^2 = disc (mod 4p), then a partial Euclid on (2p, t) down to
    t^2 <= 4p."""
    absD = -K.disc
    t = sqrt_mod(-absD, p)
    if (t + absD) % 2:
        t = p - t
    a, bound = 2 * p, math.isqrt(4 * p)
    while t > bound:
        a, t = t, a % t
    b2, r = divmod(4 * p - t * t, absD)
    b = math.isqrt(b2)
    if r or b * b != b2:
        raise ArithmeticError(f"cornacchia failed for split p={p}, d={K.d}")
    return t, b
