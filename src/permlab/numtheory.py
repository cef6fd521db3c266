"""Exact integer number theory: primality, sieves, factorization, totients,
primitive roots, quadratic residues, and the parameterized edge predicates
used by the search campaigns.

Everything in this module is deterministic.  Primality uses a fixed
strong-pseudoprime witness set that is exact for all inputs below 2**64,
so exhaustive claims made elsewhere in the package never rest on a
probabilistic test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log

__all__ = [
    "PrimeSieve",
    "Factorization",
    "PredicateSpec",
    "PredicateTable",
    "is_prime",
    "primes_upto",
    "first_n_primes",
    "factorize",
    "euler_phi",
    "has_primitive_root",
    "is_primitive_root",
    "find_primitive_root",
    "is_quadratic_residue",
    "eval_predicate",
    "predicate_allows",
]

# Strong-pseudoprime witnesses proven to decide primality for every
# n < 2**64 (the 7-witness set from miller-rabin.appspot.com).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_U64 = 1 << 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if not 0 <= n < _U64:
        raise ValueError(f"is_prime is only guaranteed below 2**64, got {n}")
    if n < 41:
        return n in _SMALL_PRIMES
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeSieve:
    """Primality table for 0..limit; table[k] is 1 exactly when k is prime."""

    limit: int
    table: bytes

    def is_prime(self, k: int) -> bool:
        return 0 <= k <= self.limit and self.table[k] == 1

    def __contains__(self, k: int) -> bool:
        return self.is_prime(k)

    def primes(self) -> list[int]:
        return [k for k in range(2, self.limit + 1) if self.table[k]]

    def count(self) -> int:
        return sum(self.table)


def primes_upto(limit: int) -> PrimeSieve:
    """Sieve of Eratosthenes over 0..limit (limit >= 2)."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    table = bytearray([1]) * (limit + 1)
    table[0] = table[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if table[i]:
            table[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return PrimeSieve(limit, bytes(table))


def first_n_primes(n: int) -> list[int]:
    """The first n primes, via a sieve sized from the usual p_n upper bound."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n < 6:
        return [2, 3, 5, 7, 11][:n]
    bound = int(n * (log(n) + log(log(n)))) + 10
    while True:
        ps = primes_upto(bound).primes()
        if len(ps) >= n:
            return ps[:n]
        bound *= 2


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod(p**e), primes strictly increasing."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _brent_rho(n: int) -> int:
    """Deterministic Brent cycle-finding; returns a nontrivial factor of
    composite n.  The polynomial offset c is swept in a fixed order, so the
    result is reproducible."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = gcd(q, n)
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"factor search failed for {n}")


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1 (trial division then Brent rho).
    Results are cached; callers hammer small moduli."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    original = n
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    pairs = tuple(sorted(counts.items()))
    check = 1
    for p, e in pairs:
        check *= p**e
    assert check == original, (original, pairs)
    return Factorization(original, pairs)


@lru_cache(maxsize=1 << 16)
def euler_phi(n: int) -> int:
    """Euler's totient via factorization; n >= 1."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


@lru_cache(maxsize=1 << 16)
def has_primitive_root(n: int) -> bool:
    """True when the multiplicative group mod n is cyclic, i.e. n is one of
    2, 4, p**k or 2*p**k with p an odd prime."""
    if n in (2, 4):
        return True
    if n < 2:
        return False
    m = n
    if m % 2 == 0:
        m //= 2
    if m % 2 == 0 or m == 1:
        return False
    return len(factorize(m).pairs) == 1


@lru_cache(maxsize=1 << 16)
def _primitive_root_exponents(n: int) -> tuple[int, ...]:
    """phi(n)/q for every prime q dividing phi(n), for n with primitive roots."""
    if not has_primitive_root(n):
        raise ValueError(f"{n} has no primitive roots")
    phi = euler_phi(n)
    return tuple(phi // q for q in factorize(phi).primes())


def is_primitive_root(g: int, n: int) -> bool:
    """True when g generates the multiplicative group mod n.  Tested by
    checking g**(phi(n)/q) != 1 for every prime q dividing phi(n)."""
    exponents = _primitive_root_exponents(n)
    if gcd(g, n) != 1:
        raise ValueError(f"gcd({g}, {n}) != 1")
    return all(pow(g, e, n) != 1 for e in exponents)


def find_primitive_root(n: int) -> int:
    """Smallest g >= 2 that is a primitive root mod n."""
    if not has_primitive_root(n):
        raise ValueError(f"{n} has no primitive roots")
    g = 2
    while True:
        if gcd(g, n) == 1 and is_primitive_root(g, n):
            return g
        g += 1


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion: a**((p-1)/2) == 1 mod p.  Requires p an odd prime
    and p not dividing a (zero is in neither class)."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a % p == 0:
        raise ValueError(f"{a} is divisible by {p}; neither residue class")
    return pow(a, (p - 1) // 2, p) == 1


# --- edge predicates -------------------------------------------------------
#
# A PredicateSpec names one of the integer predicate families used as edge
# conditions in the conjecture campaigns.  Kinds and parameters:
#
#   prime_shift (a, b)        a*k + b is prime (a >= 1)
#   twin_index ()             6k-1 and 6k+1 are both prime
#   sophie_germain_index ()   6k-1 and 12k-1 are both prime
#   primitive_root_mod (q)    k is a primitive root mod the odd prime q
#   quadratic_residue_mod (q)     k is a nonzero square mod the odd prime q
#   quadratic_nonresidue_mod (q)  k is a nonsquare mod the odd prime q
#   coprime_to (m)            gcd(k, m) == 1
#   prime ()                  k is prime
#
# The three modular kinds reduce k mod q first.  Over prime-power fields the
# search layer evaluates them against field tables instead; here q must be a
# prime.

PRIME_SHIFT = "prime_shift"
TWIN_INDEX = "twin_index"
SOPHIE_GERMAIN_INDEX = "sophie_germain_index"
PRIMITIVE_ROOT_MOD = "primitive_root_mod"
QUADRATIC_RESIDUE_MOD = "quadratic_residue_mod"
QUADRATIC_NONRESIDUE_MOD = "quadratic_nonresidue_mod"
COPRIME_TO = "coprime_to"
PRIME = "prime"

MODULAR_KINDS = (PRIMITIVE_ROOT_MOD, QUADRATIC_RESIDUE_MOD, QUADRATIC_NONRESIDUE_MOD)

_ARITY = {
    PRIME_SHIFT: 2,
    TWIN_INDEX: 0,
    SOPHIE_GERMAIN_INDEX: 0,
    PRIMITIVE_ROOT_MOD: 1,
    QUADRATIC_RESIDUE_MOD: 1,
    QUADRATIC_NONRESIDUE_MOD: 1,
    COPRIME_TO: 1,
    PRIME: 0,
}


@dataclass(frozen=True)
class PredicateSpec:
    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(int(x) for x in self.params))
        if len(self.params) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} parameters")
        if self.kind == PRIME_SHIFT and self.params[0] < 1:
            raise ValueError("prime_shift slope must be >= 1")
        if self.kind in MODULAR_KINDS and self.params[0] < 3:
            raise ValueError(f"{self.kind} modulus must be >= 3")
        if self.kind == COPRIME_TO and self.params[0] < 0:
            raise ValueError("coprime_to modulus must be >= 0")

    @property
    def modulus(self) -> int:
        if self.kind not in MODULAR_KINDS:
            raise AttributeError(f"{self.kind} has no modulus")
        return self.params[0]

    def describe(self) -> str:
        if self.kind == PRIME_SHIFT:
            a, b = self.params
            return f"{a}k{b:+d} is prime"
        if self.kind == TWIN_INDEX:
            return "6k-1 and 6k+1 are twin primes"
        if self.kind == SOPHIE_GERMAIN_INDEX:
            return "6k-1 and 12k-1 are both prime"
        if self.kind == PRIMITIVE_ROOT_MOD:
            return f"primitive root mod {self.params[0]}"
        if self.kind == QUADRATIC_RESIDUE_MOD:
            return f"quadratic residue mod {self.params[0]}"
        if self.kind == QUADRATIC_NONRESIDUE_MOD:
            return f"quadratic nonresidue mod {self.params[0]}"
        if self.kind == COPRIME_TO:
            return f"coprime to {self.params[0]}"
        return "prime"


def eval_predicate(spec: PredicateSpec, k: int) -> bool:
    """Evaluate a predicate at k with strict domain checking: arguments the
    predicate is undefined for (negative shifted values, k == 0 mod q for the
    modular kinds) raise ValueError.  Inside its domain it agrees with
    predicate_allows."""
    kind = spec.kind
    if kind == PRIME_SHIFT:
        a, b = spec.params
        if a * k + b < 0:
            raise ValueError(f"{a}*{k}{b:+d} is negative")
    elif kind in (TWIN_INDEX, SOPHIE_GERMAIN_INDEX):
        if k < 1:
            raise ValueError(f"{kind} needs k >= 1, got {k}")
    elif kind == PRIME:
        if k < 0:
            raise ValueError(f"prime predicate needs k >= 0, got {k}")
    elif kind in MODULAR_KINDS:
        q = spec.params[0]
        if k % q == 0:
            raise ValueError(f"{k} is 0 mod {q}; neither class applies")
    return predicate_allows(spec, k)


def predicate_allows(spec: PredicateSpec, k: int) -> bool:
    """Edge semantics used inside search and checking: out-of-domain values
    are simply disallowed (False) rather than errors.  In particular values
    congruent to 0 mod q fail the modular kinds, since 0 is neither a
    primitive root nor in a residue class."""
    kind = spec.kind
    if kind == PRIME_SHIFT:
        a, b = spec.params
        v = a * k + b
        return v >= 2 and is_prime(v)
    if kind == TWIN_INDEX:
        return k >= 1 and is_prime(6 * k - 1) and is_prime(6 * k + 1)
    if kind == SOPHIE_GERMAIN_INDEX:
        return k >= 1 and is_prime(6 * k - 1) and is_prime(12 * k - 1)
    if kind == PRIME:
        return k >= 2 and is_prime(k)
    if kind == COPRIME_TO:
        return gcd(k, spec.params[0]) == 1
    q = spec.params[0]
    r = k % q
    if r == 0:
        return False
    if kind == PRIMITIVE_ROOT_MOD:
        return is_primitive_root(r, q)
    if kind == QUADRATIC_RESIDUE_MOD:
        return is_quadratic_residue(r, q)
    return not is_quadratic_residue(r, q)


# Dense tables cap: beyond this label span fall back to a lazy dict cache.
_DENSE_SPAN = 1 << 22
# The forms (c, d) whose values c*k + d must all be prime, per range kind;
# prime_shift (a, b) is its own single form.
_PRIME_FORMS = {
    PRIME: ((1, 0),),
    TWIN_INDEX: ((6, -1), (6, 1)),
    SOPHIE_GERMAIN_INDEX: ((6, -1), (12, -1)),
}


class PredicateTable:
    """Memoized predicate truth over the label range one search will see.

    Modular kinds build a dense table over 0..q-1 once; the prime-valued
    kinds sieve the range lo..hi in one pass.  Labels outside the dense
    table are evaluated by predicate_allows and cached.  Lookup follows the
    same lenient edge semantics as predicate_allows.
    """

    __slots__ = ("spec", "lo", "hi", "_dense", "_cache", "_mod")

    def __init__(self, spec: PredicateSpec, lo: int = 0, hi: int = 0):
        self.spec = spec
        self.lo = lo
        self.hi = hi
        self._cache: dict[int, bool] = {}
        self._dense: bytes | None = None
        self._mod = 0
        kind = spec.kind
        if kind in MODULAR_KINDS:
            q = spec.params[0]
            self._mod = q
            self._dense = self._build_modular(kind, q)
        elif kind == COPRIME_TO:
            m = spec.params[0]
            if m > 1:
                self._mod = m
                self._dense = bytes(1 if gcd(r, m) == 1 else 0 for r in range(m))
        elif hi >= lo and hi - lo <= _DENSE_SPAN:
            self._dense = self._build_range(kind, lo, hi)

    @staticmethod
    def _build_modular(kind: str, q: int) -> bytes:
        if not is_prime(q) or q == 2:
            raise ValueError(f"modular predicate modulus {q} is not an odd prime")
        table = bytearray(q)
        if kind == QUADRATIC_RESIDUE_MOD or kind == QUADRATIC_NONRESIDUE_MOD:
            for r in range(1, q):
                table[r * r % q] = 1
            if kind == QUADRATIC_NONRESIDUE_MOD:
                for r in range(1, q):
                    table[r] ^= 1
        else:
            g = find_primitive_root(q)
            x = 1
            for i in range(1, q):
                x = x * g % q
                if gcd(i, q - 1) == 1:
                    table[x] = 1
        return bytes(table)

    def _build_range(self, kind: str, lo: int, hi: int) -> bytes:
        """Truth over lo..hi.  The kind holds at k when c*k + d is prime for
        each of its forms (c, d); each form reads one strided slice of a
        single sieve, and negative values are never prime."""
        forms = _PRIME_FORMS.get(kind) or (self.spec.params,)
        sieve = primes_upto(max(2, max(c * hi + d for c, d in forms))).table
        out = None
        for c, d in forms:
            k0 = max(lo, -(d // c))  # the first k with c*k + d >= 0
            part = bytes(min(k0, hi + 1) - lo)
            if k0 <= hi:
                part += sieve[c * k0 + d : c * hi + d + 1 : c]
            out = part if out is None else bytes(map(min, out, part))
        return out

    def truths(self, labels) -> bytes:
        """The truth of every label in a sequence at once, as bytes holding 1
        where the label passes and 0 where it fails."""
        dense = self._dense
        if self._mod:
            return bytes(map(dense.__getitem__, map(self._mod.__rmod__, labels)))
        lo, hi = self.lo, self.hi
        if dense is not None and labels and lo <= min(labels) and max(labels) <= hi:
            return bytes(map(dense.__getitem__, map(lo.__rsub__, labels)))
        out = bytearray(len(labels))
        for i, k in enumerate(labels):
            if dense is not None and lo <= k <= hi:
                out[i] = dense[k - lo]
                continue
            hit = self._cache.get(k)
            if hit is None:
                hit = self._cache[k] = predicate_allows(self.spec, k)
            out[i] = hit
        return bytes(out)

    def lookup(self, k: int) -> bool:
        return self.truths((k,))[0] == 1
