"""Ambient structures that arrangements live in: the integers, lexically
ordered integer vectors (the working model of an ordered torsion-free
group), finite abelian groups given as products of cyclic groups, and
table-based finite fields F_q for q = p**k up to 2**20.

Element convention: rank-1 structures (Integers, PrimeField, rank-1
CyclicProduct, and encoded field elements of PrimePowerField) use bare
ints; everything else uses tuples of ints.  An F_{p**k} element is the int
whose base-p digits are its coefficients, split and joined by one codec
(_digits, _from_digits).  The modulus is the first irreducible found by
trial division up to degree k//2, which the 2**20 cap keeps cheap.

Whole-sequence ops: group_add_all, group_neg_all, group_mul_all and
validate_elements do over a sequence what their one-element namesakes do
over one element, choosing the arithmetic once per sequence and then
running map passes.  They make no object per element beyond the results:
tuples are read a coordinate column at a time through itemgetter passes,
not transposed with zip(*xs), which makes one iterator per element for
the cyclic garbage collector to track.  Over F_{p**k} they run a pass per
base-p digit for sums, which add digits without carry, and one pass
through the field's exp/log tables for products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product, repeat
from math import gcd, isqrt
from operator import add, floordiv, itemgetter, mod, mul, neg, xor

from .numtheory import factorize, is_prime

__all__ = [
    "Integers",
    "IntegerVectors",
    "CyclicProduct",
    "PrimeField",
    "PrimePowerField",
    "GroupSpec",
    "Element",
    "FieldView",
    "GroundSet",
    "Arrangement",
    "LINEAR",
    "CIRCULAR",
    "field_make",
    "field_view",
    "group_add",
    "group_sub",
    "group_neg",
    "group_double",
    "group_mul",
    "group_add_all",
    "group_neg_all",
    "group_mul_all",
    "group_cmp",
    "group_order",
    "group_elements",
    "sylow2_cyclic",
    "validate_element",
    "validate_elements",
    "element_coords",
    "element_from_coords",
    "spec_to_dict",
    "spec_from_dict",
]

MAX_FIELD_SIZE = 1 << 20


@dataclass(frozen=True)
class Integers:
    pass


@dataclass(frozen=True)
class IntegerVectors:
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class CyclicProduct:
    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if not self.moduli or any(m < 2 for m in self.moduli):
            raise ValueError("each modulus must be >= 2")


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@dataclass(frozen=True)
class PrimePowerField:
    """F_{p**k} with k >= 2, as polynomials over F_p modulo `poly`.

    poly holds ascending coefficients of the monic degree-k modulus.
    Elements are encoded as ints in base p: sum(c_i * p**i).
    """

    p: int
    k: int
    poly: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k < 2:
            raise ValueError("use PrimeField for k = 1")
        if self.p**self.k > MAX_FIELD_SIZE:
            raise ValueError(f"field size {self.p}**{self.k} exceeds {MAX_FIELD_SIZE}")
        object.__setattr__(self, "poly", tuple(int(c) % self.p for c in self.poly[:-1]) + (1,))
        if len(self.poly) != self.k + 1:
            raise ValueError("modulus polynomial must have degree k")

    @property
    def q(self) -> int:
        return self.p**self.k


def _digits(x: int, p: int, k: int) -> list[int]:
    """The k base-p digits of x, lowest first: its coefficients in F_{p**k}."""
    out = []
    for _ in range(k):
        x, c = divmod(x, p)
        out.append(c)
    return out


def _from_digits(digits, p: int) -> int:
    """The int whose base-p digits, lowest first, are digits."""
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


GroupSpec = Integers | IntegerVectors | CyclicProduct | PrimeField | PrimePowerField
Element = int | tuple


def _uses_tuples(spec: GroupSpec) -> bool:
    return (isinstance(spec, IntegerVectors) and spec.rank >= 1) or (
        isinstance(spec, CyclicProduct) and len(spec.moduli) > 1
    )


def _columns(xs, width: int) -> list:
    """The coordinate columns of a sequence of width-tuples, each a lazy
    itemgetter pass over xs, so reading them makes no object per element."""
    return [map(itemgetter(i), xs) for i in range(width)]


def is_ordered(spec: GroupSpec) -> bool:
    """Whether the spec carries an addition-compatible total order."""
    return isinstance(spec, (Integers, IntegerVectors))


def group_order(spec: GroupSpec) -> int:
    if isinstance(spec, CyclicProduct):
        n = 1
        for m in spec.moduli:
            n *= m
        return n
    if isinstance(spec, PrimeField):
        return spec.p
    if isinstance(spec, PrimePowerField):
        return spec.q
    raise ValueError("infinite group")


def group_elements(spec: CyclicProduct | PrimeField | PrimePowerField) -> list:
    """Every element of a finite group in lexicographic order, zero first."""
    if isinstance(spec, CyclicProduct) and len(spec.moduli) > 1:
        return list(product(*map(range, spec.moduli)))
    return list(range(group_order(spec)))


def validate_element(spec: GroupSpec, x: Element) -> None:
    if isinstance(spec, Integers):
        if not isinstance(x, int):
            raise ValueError(f"expected int, got {x!r}")
    elif isinstance(spec, IntegerVectors):
        if not (isinstance(x, tuple) and len(x) == spec.rank and all(isinstance(c, int) for c in x)):
            raise ValueError(f"expected {spec.rank}-tuple of ints, got {x!r}")
    elif isinstance(spec, CyclicProduct):
        if len(spec.moduli) == 1:
            if not (isinstance(x, int) and 0 <= x < spec.moduli[0]):
                raise ValueError(f"expected reduced residue mod {spec.moduli[0]}, got {x!r}")
        elif not (
            isinstance(x, tuple)
            and len(x) == len(spec.moduli)
            and all(isinstance(c, int) and 0 <= c < m for c, m in zip(x, spec.moduli))
        ):
            raise ValueError(f"expected reduced tuple for moduli {spec.moduli}, got {x!r}")
    elif isinstance(spec, PrimeField):
        if not (isinstance(x, int) and 0 <= x < spec.p):
            raise ValueError(f"expected residue in [0, {spec.p}), got {x!r}")
    else:
        if not (isinstance(x, int) and 0 <= x < spec.q):
            raise ValueError(f"expected encoded field element in [0, {spec.q}), got {x!r}")


def _elements_valid(spec: GroupSpec, xs) -> bool:
    """Whether validate_element accepts every element of the sequence xs:
    types by isinstance passes, residues by min and max."""
    if isinstance(spec, Integers):
        return all(map(isinstance, xs, repeat(int)))
    if isinstance(spec, IntegerVectors):
        bounds = (None,) * spec.rank
    elif isinstance(spec, CyclicProduct) and len(spec.moduli) > 1:
        bounds = spec.moduli
    else:
        m = spec.moduli[0] if isinstance(spec, CyclicProduct) else group_order(spec)
        return all(map(isinstance, xs, repeat(int))) and (not xs or 0 <= min(xs) <= max(xs) < m)
    if not all(map(isinstance, xs, repeat(tuple))) or any(map(len(bounds).__ne__, map(len, xs))):
        return False
    for coords, m in zip(map(list, _columns(xs, len(bounds))), bounds):
        if not all(map(isinstance, coords, repeat(int))):
            return False
        if m is not None and coords and not 0 <= min(coords) <= max(coords) < m:
            return False
    return True


def validate_elements(spec: GroupSpec, xs) -> None:
    """validate_element over the sequence xs.  The per-element loop runs
    only when a whole-sequence check fails, to name the first bad element."""
    if not _elements_valid(spec, xs):
        for x in xs:
            validate_element(spec, x)


def _validate_members(spec: GroupSpec, elements: tuple) -> None:
    """Raise for the first element that is invalid or repeats an earlier
    one; the per-element loop runs only when one of them does."""
    if _elements_valid(spec, elements) and len(set(elements)) == len(elements):
        return
    seen = set()
    for x in elements:
        validate_element(spec, x)
        if x in seen:
            raise ValueError(f"duplicate element {x!r}")
        seen.add(x)


def group_add(spec: GroupSpec, x: Element, y: Element) -> Element:
    if isinstance(spec, Integers):
        return x + y
    if isinstance(spec, IntegerVectors):
        return tuple(a + b for a, b in zip(x, y))
    if isinstance(spec, CyclicProduct):
        if len(spec.moduli) == 1:
            return (x + y) % spec.moduli[0]
        return tuple((a + b) % m for a, b, m in zip(x, y, spec.moduli))
    if isinstance(spec, PrimeField):
        return (x + y) % spec.p
    p, k = spec.p, spec.k
    return _from_digits([(a + b) % p for a, b in zip(_digits(x, p, k), _digits(y, p, k))], p)


def group_neg(spec: GroupSpec, x: Element) -> Element:
    if isinstance(spec, Integers):
        return -x
    if isinstance(spec, IntegerVectors):
        return tuple(-a for a in x)
    if isinstance(spec, CyclicProduct):
        if len(spec.moduli) == 1:
            return -x % spec.moduli[0]
        return tuple(-a % m for a, m in zip(x, spec.moduli))
    if isinstance(spec, PrimeField):
        return -x % spec.p
    return _from_digits([-a % spec.p for a in _digits(x, spec.p, spec.k)], spec.p)


def group_sub(spec: GroupSpec, x: Element, y: Element) -> Element:
    return group_add(spec, x, group_neg(spec, y))


def group_double(spec: GroupSpec, x: Element) -> Element:
    return group_add(spec, x, x)


def group_mul(spec: GroupSpec, x: Element, y: Element) -> Element:
    """Ring/field product; defined for integers and the two field variants."""
    if isinstance(spec, Integers):
        return x * y
    if isinstance(spec, PrimeField):
        return x * y % spec.p
    if isinstance(spec, PrimePowerField):
        return field_view(spec).mul(x, y)
    raise ValueError(f"multiplication is not defined on {spec!r}")


def group_add_all(spec: GroupSpec, xs, ys) -> list:
    """[group_add(spec, x, y) for x, y in zip(xs, ys)] for sequences xs and
    ys of equal length, choosing the arithmetic once.  Tuples are added a
    coordinate column at a time."""
    if isinstance(spec, Integers):
        return list(map(add, xs, ys))
    if isinstance(spec, IntegerVectors):
        r = spec.rank
        return list(zip(*map(map, repeat(add), _columns(xs, r), _columns(ys, r))))
    if isinstance(spec, CyclicProduct):
        moduli = spec.moduli
        if len(moduli) == 1:
            return list(map(mod, map(add, xs, ys), repeat(moduli[0])))
        r = len(moduli)
        sums = map(map, repeat(add), _columns(xs, r), _columns(ys, r))
        return list(zip(*map(map, [m.__rmod__ for m in moduli], sums)))
    if isinstance(spec, PrimeField):
        return list(map(mod, map(add, xs, ys), repeat(spec.p)))
    if spec.p == 2:
        return list(map(xor, xs, ys))
    # digit w of a sum is the digits of x and y at w added mod p, that is
    # x // w + y // w mod p, since their higher digits are multiples of p
    p = spec.p
    sums = [0] * len(xs)
    for w in map(p.__pow__, range(spec.k)):
        sums = [s + (x // w + y // w) % p * w for s, x, y in zip(sums, xs, ys)]
    return sums


def group_neg_all(spec: GroupSpec, xs) -> list:
    """[group_neg(spec, x) for x in xs], choosing the arithmetic once."""
    if isinstance(spec, Integers):
        return list(map(neg, xs))
    if isinstance(spec, IntegerVectors):
        return list(zip(*map(map, repeat(neg), _columns(xs, spec.rank))))
    if isinstance(spec, CyclicProduct):
        moduli = spec.moduli
        if len(moduli) == 1:
            return list(map(mod, map(neg, xs), repeat(moduli[0])))
        negs = map(map, repeat(neg), _columns(xs, len(moduli)))
        return list(zip(*map(map, [m.__rmod__ for m in moduli], negs)))
    if isinstance(spec, PrimeField):
        return list(map(mod, map(neg, xs), repeat(spec.p)))
    if spec.p == 2:
        return list(xs)
    return list(map(partial(group_neg, spec), xs))


def group_mul_all(spec: GroupSpec, xs, ys) -> list:
    """[group_mul(spec, x, y) for x, y in zip(xs, ys)] for sequences xs and
    ys of equal length, choosing the arithmetic once."""
    if isinstance(spec, Integers):
        return list(map(mul, xs, ys))
    if isinstance(spec, PrimeField):
        return list(map(mod, map(mul, xs, ys), repeat(spec.p)))
    if isinstance(spec, PrimePowerField):
        exp, log = _product_tables(spec)
        return [exp[log[x] + log[y]] for x, y in zip(xs, ys)]
    raise ValueError(f"multiplication is not defined on {spec!r}")


@lru_cache(maxsize=8)
def _product_tables(spec: PrimePowerField) -> tuple:
    """exp and log over F_q laid out so that exp[log[x] + log[y]] is x*y
    for every x and y: two periods of exp, then zeros wherever log(0),
    which is 2(q - 1), takes a sum."""
    fv = field_view(spec)
    q = fv.q
    return list(fv.exp_table * 2) + [0] * (2 * q - 1), [2 * (q - 1), *fv.log_table[1:]]


def group_cmp(spec: GroupSpec, x: Element, y: Element) -> int:
    """-1/0/1 under the compatible total order (lexicographic for vectors).
    Finite groups admit no such order."""
    if not is_ordered(spec):
        raise ValueError(f"{spec!r} has no addition-compatible total order")
    if x == y:
        return 0
    return -1 if x < y else 1


# --- finite field tables ----------------------------------------------------


@dataclass(frozen=True)
class FieldView:
    """exp/log tables over a fixed generator, plus the square / nonsquare
    split of the multiplicative group."""

    spec: PrimeField | PrimePowerField
    q: int
    generator: int
    exp_table: tuple[int, ...]
    log_table: tuple[int, ...]
    squares: frozenset
    nonsquares: frozenset

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp_table[(self.log_table[x] + self.log_table[y]) % (self.q - 1)]

    def is_primitive(self, x: int) -> bool:
        return x != 0 and gcd(self.log_table[x], self.q - 1) == 1


def _poly_mul_mod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    """a * b mod the monic polynomial mod over F_p, ascending coefficients;
    with b = [1], the remainder of a mod mod."""
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - c * mod[i]) % p
    return (prod + [0] * k)[:k]


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Whether no monic polynomial of degree 1..k//2 divides poly (degree k)."""
    k = len(poly) - 1
    return all(any(_poly_mul_mod(list(poly), [1], _digits(c, p, d) + [1], p))
               for d in range(1, k // 2 + 1) for c in range(p**d))


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p by the code
    c_0 + c_1 p + ... + c_{k-1} p^(k-1), that is lexicographically smallest
    comparing the high-coefficient-first tuple (c_{k-1}, ..., c_0).  Every
    field table and recorded witness rests on this presentation."""
    for code in range(p**k):
        poly = (*_digits(code, p, k), 1)
        if poly[0] != 0 and _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial found for p={p}, k={k}")


def _ppf_mul_raw(spec: PrimePowerField, x: int, y: int) -> int:
    p, k = spec.p, spec.k
    return _from_digits(_poly_mul_mod(_digits(x, p, k), _digits(y, p, k), spec.poly, p), p)


@lru_cache(maxsize=None)
def field_view(spec: PrimeField | PrimePowerField) -> FieldView:
    """Build (and cache) the exp/log tables and square split for spec."""
    if isinstance(spec, PrimeField):
        q = spec.p
        mul = lambda x, y: x * y % q
    else:
        q = spec.q
        mul = lambda x, y: _ppf_mul_raw(spec, x, y)

    def order_is_full(g: int) -> bool:
        for r in factorize(q - 1).primes():
            e = (q - 1) // r
            acc, base = 1, g
            while e:
                if e & 1:
                    acc = mul(acc, base)
                base = mul(base, base)
                e >>= 1
            if acc == 1:
                return False
        return True

    if q == 2:
        generator = 1
    else:
        generator = next(g for g in range(2, q) if order_is_full(g))
    if isinstance(spec, PrimeField):
        exp = _power_table(generator, q)
    else:
        exp = _ppf_power_table(spec, generator)
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    if q % 2 == 1:
        # the even powers of a generator are the squares, the odd ones the rest
        squares, nonsquares = frozenset(exp[::2]), frozenset(exp[1::2])
    else:
        squares, nonsquares = frozenset(exp), frozenset()
    return FieldView(spec, q, generator, tuple(exp), tuple(log), squares, nonsquares)


def _power_table(g: int, p: int) -> list[int]:
    """[g**i % p for i in range(p - 1)], built a block of about sqrt(p)
    powers at a time: each block is the one before times g**b mod p, in two
    map passes."""
    b = isqrt(p - 1) + 1
    block = [1] * b
    for i in range(1, b):
        block[i] = block[i - 1] * g % p
    step = block[-1] * g % p  # g**b
    exp = list(block)
    while len(exp) < p - 1:
        block = list(map(mod, map(mul, block, repeat(step)), repeat(p)))
        exp += block
    del exp[p - 1:]
    return exp


def _ppf_power_table(spec: PrimePowerField, g: int) -> list[int]:
    """[g**i for i in range(q - 1)] over F_p[x] / (poly), built a block of
    about sqrt(q) powers at a time as _power_table builds them over F_p:
    each block is the one before times h = g**b.  Multiplying by h is
    F_p-linear, so for v = lo + hi * p**s it is h * lo + (h * x**s) * hi,
    two reads of tables of about sqrt(q) products and one group_add_all."""
    q = spec.q
    mul = partial(_ppf_mul_raw, spec)
    b = isqrt(q - 1) + 1
    block = [1] * b
    for i in range(1, b):
        block[i] = mul(block[i - 1], g)
    h = mul(block[-1], g)  # g**b
    split = spec.p ** (spec.k // 2)  # x**s
    h_lo = [mul(h, v) for v in range(split)]
    h_split = mul(h, split)
    h_hi = [mul(h_split, v) for v in range(-(-q // split))]
    exp = list(block)
    while len(exp) < q - 1:
        los = map(mod, block, repeat(split))
        his = map(floordiv, block, repeat(split))
        block = group_add_all(spec, list(map(h_lo.__getitem__, los)), list(map(h_hi.__getitem__, his)))
        exp += block
    del exp[q - 1:]
    return exp


def field_make(p: int, k: int = 1) -> FieldView:
    """The tables of the field of size p**k (capacity-limited to 2**20),
    over field_spec_for(p**k), so elements and tables are reproducible bit
    for bit."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    return field_view(field_spec_for(p**k))


def field_spec_for(q: int) -> PrimeField | PrimePowerField:
    """The canonical GroupSpec for the field of size q <= 2**20, checked first:
    for q = p**k with k >= 2, the modulus is the first monic irreducible in
    _smallest_irreducible's code order."""
    f = factorize(q)
    if len(f.pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = f.pairs[0]
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}**{k} exceeds {MAX_FIELD_SIZE}")
    if k == 1:
        return PrimeField(p)
    return PrimePowerField(p, k, _smallest_irreducible(p, k))


# --- Sylow 2-subgroup -------------------------------------------------------


def sylow2_cyclic(spec: CyclicProduct) -> bool:
    """Whether the group's Sylow 2-subgroup is cyclic.  The 2-part of
    Z/m_1 x ... x Z/m_t is Z/2^a_1 x ... x Z/2^a_t, where 2^a_i is the
    2-part of m_i, and that product is cyclic iff at most one a_i > 0, that
    is, at most one m_i is even."""
    return sum(m % 2 == 0 for m in spec.moduli) <= 1


# --- arrangements -----------------------------------------------------------

LINEAR = "linear"
CIRCULAR = "circular"


@dataclass(frozen=True)
class GroundSet:
    """The set an arrangement permutes, together with its ambient spec."""

    spec: GroupSpec
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("ground set is empty")
        _validate_members(self.spec, self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class Arrangement:
    """A linear or circular sequence of distinct elements.  For circular
    shape, adjacency wraps from the last element back to the first."""

    spec: GroupSpec
    shape: str
    elements: tuple

    def __post_init__(self):
        if self.shape not in (LINEAR, CIRCULAR):
            raise ValueError(f"shape must be linear or circular, got {self.shape!r}")
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("arrangement is empty")
        _validate_members(self.spec, self.elements)

    def __len__(self):
        return len(self.elements)

    def edge_index_pairs(self) -> list[tuple[int, int]]:
        """Directed adjacency (i, j) position pairs in traversal order.
        A circular pair wraps; a 2-cycle has both directed wrap edges and a
        singleton has none."""
        n = len(self.elements)
        if self.shape == LINEAR:
            return [(i, i + 1) for i in range(n - 1)]
        if n == 1:
            return []
        if n == 2:
            return [(0, 1), (1, 0)]
        return [(i, (i + 1) % n) for i in range(n)]

    def triple_index_runs(self) -> list[tuple[int, int, int]]:
        n = len(self.elements)
        if self.shape == LINEAR:
            return [(i, i + 1, i + 2) for i in range(n - 2)]
        if n < 3:
            return []
        return [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]


# --- element / spec serialization -------------------------------------------


def element_coords(spec: GroupSpec, x: Element) -> list[int]:
    """Encode an element as its coordinate array (always a list of ints)."""
    if isinstance(spec, PrimePowerField):
        return _digits(x, spec.p, spec.k)
    if isinstance(x, tuple):
        return list(x)
    return [x]


def _json_int(value) -> int:
    """value, if it is a JSON integer: no float, string or bool."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def element_from_coords(spec: GroupSpec, coords: list[int]) -> Element:
    coords = list(map(_json_int, coords))
    if isinstance(spec, PrimePowerField):
        if len(coords) != spec.k:
            raise ValueError(f"expected {spec.k} coordinates")
        return _from_digits([c % spec.p for c in coords], spec.p)
    if isinstance(spec, IntegerVectors):
        expected = spec.rank
    else:
        expected = len(spec.moduli) if isinstance(spec, CyclicProduct) else 1
    if len(coords) != expected:
        raise ValueError(f"expected {expected} coordinates, got {coords}")
    if _uses_tuples(spec):
        if isinstance(spec, CyclicProduct):
            return tuple(c % m for c, m in zip(coords, spec.moduli))
        return tuple(coords)
    x = coords[0]
    if isinstance(spec, CyclicProduct):
        return x % spec.moduli[0]
    if isinstance(spec, PrimeField):
        return x % spec.p
    return x


def spec_to_dict(spec: GroupSpec) -> dict:
    if isinstance(spec, Integers):
        return {"kind": "integers"}
    if isinstance(spec, IntegerVectors):
        return {"kind": "integer_vectors", "rank": spec.rank}
    if isinstance(spec, CyclicProduct):
        return {"kind": "cyclic_product", "moduli": list(spec.moduli)}
    if isinstance(spec, PrimeField):
        return {"kind": "prime_field", "p": spec.p}
    return {"kind": "prime_power_field", "p": spec.p, "k": spec.k, "poly": list(spec.poly)}


def spec_from_dict(d: dict) -> GroupSpec:
    kind = d.get("kind")
    if kind == "integers":
        return Integers()
    if kind == "integer_vectors":
        return IntegerVectors(_json_int(d["rank"]))
    if kind == "cyclic_product":
        return CyclicProduct(tuple(map(_json_int, d["moduli"])))
    if kind == "prime_field":
        return PrimeField(_json_int(d["p"]))
    if kind == "prime_power_field":
        return PrimePowerField(_json_int(d["p"]), _json_int(d["k"]), tuple(map(_json_int, d["poly"])))
    raise ValueError(f"unknown group kind {kind!r}")
