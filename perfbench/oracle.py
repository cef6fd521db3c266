"""Answer checks computed apart from permlab.

Nothing here imports permlab.  Every label is recomputed from the catalog's
definition of the family (the module docstring of permlab.conjectures and
PAPER.md), with this file's own integer, group and field arithmetic.  The
only values taken from the program are inputs: the sampled subset of a
group or integer family, and the modulus polynomial that presents a
prime-power field (it fixes how field elements are encoded as integers; it
is itself tested for irreducibility here).

Verdict oracles:
  - predicate-only instances with at most DP_MAX elements: a bitmask dynamic
    programme over Hamiltonian paths, which also yields the lexicographically
    smallest valid arrangement;
  - instances with a rainbow clause and at most PERM_MAX elements: a
    lexicographic enumeration of permutations that drops a prefix as soon
    as one of its labels repeats.

The determinism contract (permlab README) says candidates are tried in
ascending element order from a fixed start: the pinned first element, the
smallest element of a circular arrangement, or each element in turn for an
unpinned linear one.  The kernel's extra orientation filter (second element
smaller than the last) never removes the lexicographically smallest valid
arrangement, because reversing it would give a smaller one.  So the first
witness must equal the smallest valid arrangement with that start.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

DP_MAX = 16
PERM_MAX = 9


# --- integers -------------------------------------------------------------------

_PRIME_MEMO: dict[int, bool] = {}


def is_prime(n: int) -> bool:
    hit = _PRIME_MEMO.get(n)
    if hit is None:
        hit = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        _PRIME_MEMO[n] = hit
    return hit


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = ps[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def first_primes(count: int) -> list[int]:
    limit = 16
    while True:
        table = bytearray([1]) * (limit + 1)
        table[0] = table[1] = 0
        for i in range(2, isqrt(limit) + 1):
            if table[i]:
                table[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
        ps = [i for i in range(limit + 1) if table[i]]
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def residue_primitive(r: int, p: int) -> bool:
    """r generates the multiplicative group mod the prime p."""
    r %= p
    return r != 0 and all(pow(r, (p - 1) // f, p) != 1 for f in prime_factors(p - 1))


def residue_square(r: int, p: int) -> bool:
    r %= p
    return r != 0 and pow(r, (p - 1) // 2, p) == 1


def residue_nonsquare(r: int, p: int) -> bool:
    r %= p
    return r != 0 and pow(r, (p - 1) // 2, p) == p - 1


# --- finite fields ------------------------------------------------------------------


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a by the monic m over F_p (ascending coefficients)."""
    a = list(a)
    k = len(m) - 1
    for d in range(len(a) - 1, k - 1, -1):
        c = a[d]
        if c:
            for i in range(k + 1):
                a[d - k + i] = (a[d - k + i] - c * m[i]) % p
    return a[:k]


def _monic_polys(p: int, degree: int):
    for code in range(p**degree):
        coeffs = []
        for _ in range(degree):
            coeffs.append(code % p)
            code //= p
        yield coeffs + [1]


def irreducible(poly: list[int], p: int) -> bool:
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for f in _monic_polys(p, d):
            if not any(_poly_rem(poly, f, p)):
                return False
    return True


class Field:
    """F_q with q = p**k.  For k >= 2 an element is the integer sum c_i p**i
    of its coefficients modulo the given monic polynomial."""

    def __init__(self, q: int, poly: tuple | None = None):
        self.q = q
        self.p, self.k = prime_power(q)
        if self.k > 1 and (poly is None or len(poly) != self.k + 1 or not irreducible(list(poly), self.p)):
            raise ValueError(f"bad modulus polynomial {poly!r} for F_{q}")
        self.poly = list(poly) if self.k > 1 else None
        self._digits = [self._to_digits(x) for x in range(q)] if self.k > 1 else None
        gen = next(g for g in range(1, q) if self._order(g) == q - 1) if q > 2 else 1
        self.log = [0] * q
        x = 1
        for i in range(q - 1):
            self.log[x] = i
            x = self.mul(x, gen)

    def _to_digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def _from_digits(self, ds) -> int:
        out, mul = 0, 1
        for c in ds:
            out += c * mul
            mul *= self.p
        return out

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        return self._from_digits((a + b) % self.p for a, b in zip(self._digits[x], self._digits[y]))

    def neg(self, x: int) -> int:
        if self.k == 1:
            return -x % self.p
        return self._from_digits(-a % self.p for a in self._digits[x])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return x * y % self.p
        a, b = self._digits[x], self._digits[y]
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % self.p
        return self._from_digits(_poly_rem(prod, self.poly, self.p))

    def _order(self, g: int) -> int:
        x, order = g, 1
        while x != 1:
            x = self.mul(x, g)
            order += 1
            if order > self.q:
                return 0
        return order

    def primitive(self, x: int) -> bool:
        return x != 0 and gcd(self.log[x], self.q - 1) == 1

    def square(self, x: int) -> bool:
        return x != 0 and (self.q % 2 == 0 or self.log[x] % 2 == 0)

    def nonsquare(self, x: int) -> bool:
        return x != 0 and self.q % 2 == 1 and self.log[x] % 2 == 1


# --- finite abelian groups -----------------------------------------------------------


class Group:
    """Z/m_1 x ... x Z/m_t; rank-1 elements are ints, others tuples."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.order = 1
        for m in self.moduli:
            self.order *= m

    def add(self, x, y):
        if len(self.moduli) == 1:
            return (x + y) % self.moduli[0]
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def sub(self, x, y):
        if len(self.moduli) == 1:
            return (x - y) % self.moduli[0]
        return tuple((a - b) % m for a, b, m in zip(x, y, self.moduli))

    def sylow2_cyclic(self) -> bool:
        return sum(1 for m in self.moduli if m % 2 == 0) <= 1


# --- one instance as the checks see it ------------------------------------------------


@dataclass
class Spec:
    """ground: sorted elements; edge(x, y): the conjunction of the predicate
    clauses on the directed edge x -> y (None when there are none);
    rainbow: (arity, label) pairs, each a clause whose labels must be
    pairwise distinct."""

    ground: tuple
    circular: bool
    edge: object = None
    rainbow: tuple = ()
    first: object = None
    last: object = None


def _edges(seq, circular):
    n = len(seq)
    if not circular:
        return [(seq[i], seq[i + 1]) for i in range(n - 1)]
    if n == 1:
        return []
    if n == 2:
        return [(seq[0], seq[1]), (seq[1], seq[0])]
    return [(seq[i], seq[(i + 1) % n]) for i in range(n)]


def _triples(seq, circular):
    n = len(seq)
    if not circular:
        return [tuple(seq[i : i + 3]) for i in range(n - 2)]
    if n < 3:
        return []
    return [(seq[i], seq[(i + 1) % n], seq[(i + 2) % n]) for i in range(n)]


def valid(spec: Spec, seq) -> str | None:
    """None when seq is a valid arrangement of spec, else the reason."""
    seq = tuple(seq)
    if sorted(seq) != list(spec.ground):
        return "not a permutation of the ground set"
    if spec.first is not None and seq[0] != spec.first:
        return f"first element {seq[0]!r} is not the pin {spec.first!r}"
    if spec.last is not None and seq[-1] != spec.last:
        return f"last element {seq[-1]!r} is not the pin {spec.last!r}"
    edges = _edges(seq, spec.circular)
    if spec.edge is not None:
        for x, y in edges:
            if not spec.edge(x, y):
                return f"edge {x!r} -> {y!r} fails the predicate"
    for ci, (arity, label) in enumerate(spec.rainbow):
        runs = edges if arity == 2 else _triples(seq, spec.circular)
        labels = [label(*r) for r in runs]
        if len(set(labels)) != len(labels):
            return f"rainbow clause {ci} repeats a label"
    return None


def _starts(spec: Spec) -> list:
    if spec.first is not None:
        return [spec.first]
    if spec.circular:
        return [spec.ground[0]]
    return [x for x in spec.ground if x != spec.last]


def affordable(spec: Spec) -> bool:
    n = len(spec.ground)
    return n <= PERM_MAX if spec.rainbow else n <= DP_MAX and (spec.circular or len(_starts(spec)) == 1)


def lex_first(spec: Spec):
    """The lexicographically smallest valid arrangement from the contract's
    start, or None when there is none.  Only call when affordable(spec)."""
    if spec.rainbow:
        return _perm_lex_first(spec)
    return _dp_lex_first(spec)


def _dp_lex_first(spec: Spec):
    elems = spec.ground
    n = len(elems)
    start = _starts(spec)[0]
    if n == 1:
        return (start,)
    rest = [x for x in elems if x != start]
    m = len(rest)
    ok = spec.edge or (lambda x, y: True)
    out = [sum(1 << j for j, w in enumerate(rest) if j != i and ok(v, w)) for i, v in enumerate(rest)]
    end_ok = 0
    for i, v in enumerate(rest):
        closes = ok(v, start) if spec.circular else True
        if closes and (spec.last is None or v == spec.last):
            end_ok |= 1 << i
    # h[R]: vertices v of R that begin a path through exactly R ending at an
    # allowed last vertex
    h = [0] * (1 << m)
    for r in range(1, 1 << m):
        if r & (r - 1) == 0:
            h[r] = r & end_ok
            continue
        acc, bits = 0, r
        while bits:
            b = bits & -bits
            bits ^= b
            if out[b.bit_length() - 1] & h[r ^ b]:
                acc |= b
        h[r] = acc
    seq = [start]
    remaining = (1 << m) - 1
    cand = sum(1 << j for j, w in enumerate(rest) if ok(start, w))
    while remaining:
        choice = cand & h[remaining]
        if not choice:
            return None
        b = choice & -choice
        i = b.bit_length() - 1
        seq.append(rest[i])
        remaining ^= b
        cand = out[i]
    return tuple(seq)


def _perm_lex_first(spec: Spec):
    elems = spec.ground
    n = len(elems)
    circ = spec.circular
    edge = spec.edge
    clauses = spec.rainbow

    def fits(seq, seen):
        """Add the labels that seq's newest element completes; False on a
        repeat (seen is then left for the caller to discard)."""
        k = len(seq)
        for (arity, label), s in zip(clauses, seen):
            if k >= arity:
                v = label(*seq[k - arity :])
                if v in s:
                    return False
                s.append(v)
        return True

    def closes(seq, seen):
        if not circ or n == 1:
            return True
        wrap = [(seq[-1], seq[0])]
        if edge is not None and not edge(*wrap[0]):
            return False
        for (arity, label), s in zip(clauses, seen):
            if arity == 2:
                extra = [label(*wrap[0])]
            elif n >= 3:
                extra = [label(seq[-2], seq[-1], seq[0]), label(seq[-1], seq[0], seq[1])]
            else:
                extra = []
            vals = list(s) + extra
            if len(set(vals)) != len(vals):
                return False
        return True

    def dfs(seq, used, seen):
        if len(seq) == n:
            if spec.last is not None and seq[-1] != spec.last:
                return None
            return tuple(seq) if closes(seq, seen) else None
        for x in elems:
            if x in used or (spec.last is not None and x == spec.last and len(seq) != n - 1):
                continue
            if edge is not None and not edge(seq[-1], x):
                continue
            seq.append(x)
            marks = [len(s) for s in seen]
            if fits(seq, seen):
                used.add(x)
                got = dfs(seq, used, seen)
                used.discard(x)
                if got is not None:
                    return got
            for s, mk in zip(seen, marks):
                del s[mk:]
            seq.pop()
        return None

    for s0 in _starts(spec):
        got = dfs([s0], {s0}, [[] for _ in clauses])
        if got is not None:
            return got
    return None


# --- catalog families ------------------------------------------------------------------------


def _sign_pattern(vals) -> str:
    s = set(vals)
    pairs = sum(1 for v in s if v > 0 and -v in s)
    unpaired = len(s) - 2 * pairs
    if len(s) == 4 and pairs == 2:
        return "a"
    if len(s) == 5 and pairs == 2 and unpaired == 1:
        return "b"
    if len(s) == 6 and pairs == 3:
        return "c"
    return ""


# integer circle families: (first value, predicate on the directed edge,
# pinned last element or None, precondition on n)
_INTEGER_CIRCLES = {
    "3.13": (0, lambda x, y: _twin(x + y), None, lambda n: n >= 1),
    "3.14": (0, lambda x, y: _sophie(x + y), None, lambda n: n >= 3),
    "3.15i": (0, lambda x, y: is_prime(2 * abs(x - y) + 1) and is_prime(2 * (x + y) + 1), None,
              lambda n: n >= 1),
    "3.15ii": (0, lambda x, y: is_prime(2 * abs(x * x - y * y) + 1), None, lambda n: n not in (2, 4)),
    "3.16": (0, lambda x, y: is_prime(2 * (x * x + y) + 1), 1, lambda n: n >= 1 and n != 4),
    "3.17i": (0, lambda x, y: is_prime(4 * (x * x + y) + 1), None, lambda n: n >= 1),
    "3.17ii": (0, lambda x, y: is_prime(4 * (x * x + y) - 1), 1, lambda n: True),
    "3.18a": (1, lambda x, y: is_prime(x * y - 1), None, lambda n: n > 5 and n != 13),
    "3.18b": (1, lambda x, y: is_prime(2 * x * y - 1), None, lambda n: n > 1),
    "3.18c": (1, lambda x, y: is_prime(2 * x * y + 1), None, lambda n: n != 4),
    "filz": (1, lambda x, y: is_prime(x + y), None, lambda n: n >= 2 and n % 2 == 0),
}


def _twin(k):
    return k >= 1 and is_prime(6 * k - 1) and is_prime(6 * k + 1)


def _sophie(k):
    return k >= 1 and is_prime(6 * k - 1) and is_prime(12 * k - 1)


class Catalog:
    """Builds the check's view of one catalog instance.  `inputs` supplies
    what the program samples or presents: inputs.sample(cid, params) gives
    (ground elements, group moduli) of a sampled family, and
    inputs.field_poly(q) the modulus polynomial of F_q."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._fields: dict = {}

    def field(self, q):
        poly = None if prime_power(q)[1] == 1 else self.inputs.field_poly(q)
        key = (q, tuple(poly) if poly else None)
        if key not in self._fields:
            self._fields[key] = Field(q, poly)
        return self._fields[key]

    def spec(self, cid: str, params: dict) -> tuple[Spec | None, object]:
        """(spec, decoder) for an instance whose precondition holds; spec is
        None when the family's precondition excludes the instance."""
        if cid in _INTEGER_CIRCLES:
            lo, edge, last, pre = _INTEGER_CIRCLES[cid]
            n = params["n"]
            if not pre(n):
                return None, None
            first = 0 if last is not None else None
            return Spec(tuple(range(lo, n + 1)), True, edge, first=first, last=last), _int
        if cid in ("3.7i", "3.10", "3.8-sums", "3.8-diffs", "thm1.6-range"):
            return self._field_spec(cid, params)
        if cid.startswith("3.9"):
            p = params["p"]
            primitive = cid.startswith("3.9ii")
            if p <= (13 if primitive else 11):
                return None, None
            test = residue_primitive if primitive else residue_square
            plus = cid.endswith("sums")
            edge = (lambda x, y: test(x * x + y, p)) if plus else (lambda x, y: test(x * x - y, p))
            return Spec(tuple(range(1, (p - 1) // 2 + 1)), True, edge), _int
        if cid.startswith("3.12"):
            vals, _ = self.inputs.sample(cid, params)
            n = len(vals)
            diff = cid == "3.12ii"
            pattern = _sign_pattern(vals)
            if n < (4 if diff else 3) or (pattern == "a" if diff else pattern != ""):
                return None, None
            first_rb = (2, lambda x, y: x - y) if diff else (2, lambda x, y: x + y)
            return Spec(tuple(sorted(vals)), True, rainbow=(first_rb, (2, lambda x, y: x * y))), _int
        return self._group_spec(cid, params)

    def _field_spec(self, cid, params):
        q = params.get("q", params.get("p"))
        f = self.field(q)
        dec = _field_decoder(f)
        if cid == "3.7i":
            if q <= 7:
                return None, None
            return Spec(tuple(range(q)), True, lambda x, y: f.primitive(f.add(x, y))), dec
        if cid == "3.10":
            if q <= 7:
                return None, None
            a0 = params["a0"]
            return Spec(tuple(range(1, q)), True, lambda x, y: f.primitive(f.add(a0, f.mul(x, y)))), dec
        squares = tuple(sorted({f.mul(x, x) for x in range(1, q)}))
        if cid.startswith("3.8"):
            if q <= (19 if cid == "3.8-sums" else 13):
                return None, None
            op = f.add if cid == "3.8-sums" else f.sub
            return Spec(squares, True, lambda x, y: f.primitive(op(x, y))), dec
        op = f.add if params["op"] == 0 else f.sub
        test = f.square if params["target"] == 0 else f.nonsquare
        return Spec(squares, True, lambda x, y: test(op(x, y))), dec

    def _group_spec(self, cid, params):
        vals, moduli = self.inputs.sample(cid, params)
        g = Group(moduli)
        n = len(vals)
        ground = tuple(sorted(vals))
        if cid == "3.3":
            ok = g.order % n != 0 or (n % 2 == 0 and g.sylow2_cyclic())
            if not ok:
                return None, None
            first = ground[params.get("first", 0)]
            return Spec(ground, False, rainbow=((2, g.sub),), first=first), _group_decoder
        if cid in ("3.4i", "3.4ii"):
            ok = n % 2 == 1 or g.order % n != 0
            if cid == "3.4i":
                ok = ok and n >= 3
                rb = (2, g.add)
            else:
                ok = ok and 3 < n < g.order
                rb = (2, g.sub)
            return (Spec(ground, True, rainbow=(rb,)), _group_decoder) if ok else (None, None)
        if cid == "3.5i":
            if g.order % 3 == 0 or n <= 3:
                return None, None
            return Spec(ground, True, rainbow=((2, lambda x, y: g.add(x, g.add(y, y))),)), _group_decoder
        if cid == "3.6":
            if n <= 3:
                return None, None
            return Spec(ground, True, rainbow=((3, lambda x, y, z: g.add(g.add(x, y), z)),)), _group_decoder
        raise ValueError(f"no check for family {cid}")


def _int(coords):
    (x,) = coords
    return x


def _group_decoder(coords):
    return coords[0] if len(coords) == 1 else tuple(coords)


def _field_decoder(f: Field):
    def dec(coords):
        if len(coords) != f.k:
            raise ValueError(f"expected {f.k} coordinates")
        return f._from_digits(coords)

    return dec


# --- answers ------------------------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    how: str  # which check covered the answer
    why: str = ""


def check_record(catalog: Catalog, rec: dict, budget: int, lex_applies: bool) -> Verdict:
    """Check one JSONL record against the family's definition.  lex_applies
    is False for answers that do not come from the search kernel (the qr
    construction), whose witness order is not the kernel's."""
    cid, params, status = rec["conjecture"], rec["params"], rec["status"]
    spec, dec = catalog.spec(cid, params)
    if spec is None:
        return Verdict(status == "skipped-precondition", "precondition",
                       "" if status == "skipped-precondition" else f"{status} for an excluded instance")
    if status == "skipped-precondition":
        return Verdict(False, "precondition", "skipped an instance whose precondition holds")
    if status == "budget":
        ok = rec["nodes"] >= budget and rec["witness"] is None
        return Verdict(ok, "budget", "" if ok else f"budget answer after {rec['nodes']} nodes")
    if status == "witness":
        seq = tuple(dec(c) for c in rec["witness"])
        why = valid(spec, seq)
        if why:
            return Verdict(False, "rederived", why)
        if lex_applies and affordable(spec):
            want = lex_first(spec)
            if want != seq:
                return Verdict(False, "lex-first", f"first witness {seq} is not the smallest {want}")
            return Verdict(True, "lex-first")
        return Verdict(True, "rederived")
    if status == "exhausted":
        if not affordable(spec):
            return Verdict(True, "exhausted-unverified")
        want = lex_first(spec)
        if want is not None:
            return Verdict(False, "oracle", f"exhausted, yet {want} is a valid arrangement")
        return Verdict(True, "oracle")
    return Verdict(False, "status", f"unknown status {status!r}")
