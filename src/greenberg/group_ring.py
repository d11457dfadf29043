"""Ideal arithmetic in Z/2^d[T]/(p(T)) via Howell normal form.

The coefficient ring Z/2^d has zero divisors, so plain row echelon form
cannot decide membership; the Howell form can, and is the unique canonical
basis of a submodule of (Z/2^d)^rank.  Ideals additionally carry T-closure:
inserting a generator inserts all of its T-shifts.

Two quotient presentations occur:

  * full:    p(T) = (T+1)^(2^n) - 1,        rank 2^n
  * divided: p(T) = ((T+1)^(2^n) - 1) / T,  rank 2^n - 1

Both relations are T^rank mod 2, so T is nilpotent in the ring and
Weierstrass preparation applies: an element whose lowest odd coefficient
sits at degree v generates the same ideal as a monic polynomial of degree v.
An ideal with an odd coefficient somewhere therefore contains a monic
element of small degree, and :class:`HowellIdeal` works modulo the lowest
one (rank 2-6 on the published rows instead of 2^n).  Any other ideal
has only even elements and is 2^v K for such a K over Z/2^(d-v), v its
least 2-valuation (compare Szekeres, "A canonical basis for the ideals of
a polynomial domain", 1952), so no Howell form runs at rank 2^n.

Ring elements are int64 numpy vectors of T-basis coefficients in [0, 2^d).
A product sums at most 2^n terms below 2^(2d), exact in int64 while
n + 2d <= 62: at d = n + 1 that is 3n + 2 <= 62, the levels n <= MAX_LEVEL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Vec = np.ndarray

MAX_LEVEL = 20


@lru_cache(maxsize=None)
def _binomial_power(s: int, mod: int) -> np.ndarray:
    """Coefficients of (T+1)^(2^s) mod ``mod``, by squaring (read-only)."""
    if s == 0:
        row = np.ones(2, dtype=np.int64)
    else:
        half = _binomial_power(s - 1, mod)
        row = np.convolve(half, half) % mod
    row.flags.writeable = False
    return row


class RingSpec:
    """Quotient ring Z/2^d[T]/(relation) for a monic relation of degree ``rank``.

    ``n`` and ``divided`` name the group-ring presentation, whose relation
    is the default.  The quotient of that ring by a lower monic element of
    an ideal (see :class:`HowellIdeal`) keeps both names and passes its own
    ``relation``.
    """

    __slots__ = ("d", "n", "divided", "rank", "modulus", "relation", "_tail")

    def __init__(self, d: int, n: int, divided: bool, relation=None):
        if divided and n < 1:
            raise ValueError("divided presentation needs level n >= 1")
        if n + 2 * d > 62:
            raise ValueError(f"level {n} over Z/2^{d} overflows int64 products")
        self.d = d
        self.n = n
        self.divided = divided
        self.modulus = 1 << d
        if relation is None:
            binom = _binomial_power(n, self.modulus)
            # divided: ((T+1)^(2^n) - 1) / T = sum_j C(2^n, j+1) T^j
            relation = binom[1:] if divided else np.concatenate(([0], binom[1:]))
        rel = np.asarray(relation, dtype=np.int64) % self.modulus
        if rel[-1] != 1:
            raise ValueError("the relation must be monic")
        self.relation = rel  # length rank+1
        self.rank = len(rel) - 1
        self._tail = np.zeros((0, self.rank), dtype=np.int64)

    def tail(self, k: int) -> np.ndarray:
        """Rows T^(rank+t) mod relation for t < k (cached, built as far as asked).

        Grown one T-shift at a time up to rank rows, then by doubling: once
        L rows are known, the next rank are the last rank times T^rank, and
        the rest the known ones times T^(rank+L), one product with those.
        """
        t, rank, mod = self._tail, self.rank, self.modulus
        if not rank:
            return np.zeros((k, 0), dtype=np.int64)
        if len(t) < min(k, rank):
            rows = list(t)
            x = rows[-1] if rows else np.eye(1, rank, rank - 1, dtype=np.int64)[0]
            while len(rows) < min(k, rank):
                x = t_shift(x, self)
                rows.append(x)
            t = np.array(rows)
        while len(t) < k:
            more = k - len(t)
            w = t[-rank:] @ t[:rank] % mod        # T^(rank+L+i), L = len(t)
            t = np.vstack([t, w[:more], t[:max(0, more - rank)] @ w % mod])
        self._tail = t
        return t[:k]

    def __repr__(self):
        kind = "divided" if self.divided else "full"
        return f"RingSpec(d={self.d}, n={self.n}, {kind}, rank={self.rank})"

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and (self.d, self.n, self.divided) == (other.d, other.n, other.divided)
                and np.array_equal(self.relation, other.relation))


@lru_cache(maxsize=64)
def full_spec(n: int) -> RingSpec:
    return RingSpec(n + 1, n, divided=False)


@lru_cache(maxsize=64)
def divided_spec(n: int) -> RingSpec:
    return RingSpec(n + 1, n, divided=True)


def zero(spec: RingSpec) -> Vec:
    return np.zeros(spec.rank, dtype=np.int64)


def scalar(c: int, spec: RingSpec) -> Vec:
    v = zero(spec)
    if spec.rank:
        v[0] = c % spec.modulus
    return v


def one(spec: RingSpec) -> Vec:
    return scalar(1, spec)


def reduce_poly(v, spec: RingSpec) -> np.ndarray:
    """Remainder modulo the monic relation of coefficient vectors of any
    length (along the last axis, so a matrix reduces row by row)."""
    v = np.asarray(v, dtype=np.int64) % spec.modulus
    rank, extra = spec.rank, v.shape[-1] - spec.rank
    if extra <= 0:
        out = np.zeros(v.shape[:-1] + (rank,), dtype=np.int64)
        out[..., :v.shape[-1]] = v
        return out
    return (v[..., :rank] + v[..., rank:] @ spec.tail(extra)) % spec.modulus


def from_coeffs(seq, spec: RingSpec) -> Vec:
    """Ring element from ascending T-coefficients of any degree."""
    return reduce_poly(list(seq), spec)


def poly_mul_mod(a: Vec, b: Vec, spec: RingSpec) -> Vec:
    """Product in the quotient ring: schoolbook convolution, then the
    cached tail reduction (relation is monic)."""
    if not spec.rank:
        return zero(spec)
    return reduce_poly(np.convolve(a, b), spec)


def power_table(x: Vec, count: int, spec: RingSpec) -> np.ndarray:
    """Rows x^i for i < count, by doubling: once the powers below L are
    known, those in [L, 2L) are the known ones times x^L, one product with
    the matrix whose rows are T^j x^L, j < rank."""
    if not spec.rank:
        return np.zeros((count, 0), dtype=np.int64)
    t = one(spec)[None, :]
    while len(t) < count:
        xl = poly_mul_mod(t[-1], x, spec)
        t = np.vstack([t, t @ mul_matrix(xl, spec) % spec.modulus])
    return t[:count]


def t_shift(a: Vec, spec: RingSpec) -> Vec:
    """Multiplication by T."""
    out = np.empty(spec.rank, dtype=np.int64)
    out[0] = 0
    out[1:] = a[:-1]
    top = a[spec.rank - 1]
    if top:
        out = (out - top * spec.relation[:spec.rank]) % spec.modulus
    return out


def mul_matrix(v: Vec, ring: RingSpec) -> np.ndarray:
    """Rows v, Tv, ..., T^(rank-1) v: the matrix of multiplication by v,
    whose rows span the ideal (v) of the ring."""
    out = np.zeros((ring.rank, ring.rank), dtype=np.int64)
    out[:1] = v
    for j in range(1, ring.rank):
        out[j] = t_shift(out[j - 1], ring)
    return out


def norm_element(m: int, spec: RingSpec) -> Vec:
    """sum_{i < 2^m} (T+1)^i, reduced; built as prod_{j<m} (1 + (T+1)^(2^j))."""
    if m < 0:
        raise ValueError("norm element level must be >= 0")
    acc = one(spec)
    sq = from_coeffs([1, 1], spec)  # T + 1
    for _ in range(m):
        acc = poly_mul_mod(acc, (sq + one(spec)) % spec.modulus, spec)
        sq = poly_mul_mod(sq, sq, spec)
    return acc


def to_T_basis(xcoeffs, mod: int) -> np.ndarray:
    """Substitute X = T + 1 along the last axis (a stack converts row by
    row); pure polynomial identity, no reduction.

    A blockwise Taylor shift: with the length padded to a power of two,
    stage s turns every block lo + X^b hi, b = 2^s, whose halves are
    already in the T-basis, into lo + (T+1)^b hi, one product of all the
    his with the matrix of rows T^j (T+1)^b, j < b.
    """
    a = np.asarray(xcoeffs, dtype=np.int64) % mod
    length = a.shape[-1]
    x = np.zeros(a.shape[:-1] + (1 << (length - 1).bit_length(),), dtype=np.int64)
    x[..., :length] = a
    for s in range((x.shape[-1] - 1).bit_length()):
        b = 1 << s
        blocks = x.reshape(-1, 2 * b)
        # rows T^j (T+1)^b: windows of (T+1)^b zero-padded by b on each side
        padded = np.zeros(3 * b, dtype=np.int64)
        padded[b:2 * b + 1] = _binomial_power(s, mod)
        shifted = blocks[:, b:] @ sliding_window_view(padded, 2 * b)[b:0:-1]
        shifted[:, :b] += blocks[:, :b]
        x = (shifted % mod).reshape(x.shape)
    return x[..., :length]


def from_X_coeffs(xcoeffs, spec: RingSpec) -> Vec:
    """Ring element from ascending X-coefficients (X = T + 1) of any degree
    (a stack: one element per row)."""
    return reduce_poly(to_T_basis(xcoeffs, spec.modulus), spec)


# ---------------------------------------------------------------------------
# Howell normal form

def howell_form(rows, d: int, rank: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Canonical Howell form of the span of ``rows`` in (Z/2^d)^rank.

    Columns are T-degrees processed from high to low, so a row's pivot is
    its highest-degree coefficient (the orientation in which T-shifting a
    pivot row raises its degree, making pivot valuations non-increasing in
    the degree for T-closed spans).  Pivots are normalized to exact powers
    of two; for every pivot 2^e the annihilator row 2^(d-e) * row is fed
    back in (this is what upgrades echelon form to Howell form over Z/2^d);
    entries of the other rows at each pivot degree are reduced mod the
    pivot.  The result is the unique canonical basis, independent of
    generator order; rows are returned sorted by ascending pivot degree.

    It runs on Python ints, as ideals are held at rank deg M (at most 15
    below f = 10000).  Once the degree ``col`` is done, every row still
    active vanishes at degrees >= col, so rows are cut to their lower
    ``col`` entries and the kept rows padded back to the rank at the end.
    """
    mod, mask = 1 << d, (1 << d) - 1
    A = [row for row in (np.asarray(rows, dtype=np.int64).reshape(-1, rank) % mod).tolist()
         if any(row)]
    active = list(range(len(A)))
    res: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    for col in range(rank - 1, -1, -1):
        if not active:
            break
        sel = [i for i in active if A[i][col]]
        if not sel:
            continue
        # the first row of least 2-valuation at this degree
        p = min(sel, key=lambda i: A[i][col] & -A[i][col])
        e = (A[p][col] & -A[p][col]).bit_length() - 1
        unit_inv = pow(A[p][col] >> e, -1, mod)
        prow = [x * unit_inv & mask for x in A[p][:col + 1]]
        others = [i for i in sel if i != p]
        for i in others:
            t = A[i][col] >> e
            A[i] = [(x - t * y) & mask for x, y in zip(A[i][:col], prow)]
        res.append(prow)
        pivots.append((col, e))
        touched = set(sel)
        active = [i for i in active if i not in touched]
        active.extend(i for i in others if any(A[i]))
        if e > 0:
            ann = [x << (d - e) & mask for x in prow[:col]]
            if any(ann):
                A.append(ann)
                active.append(len(A) - 1)
    # reduce every row's entries at the lower pivot degrees
    for j in range(1, len(pivots)):
        cj, ej = pivots[j]
        low = res[j]
        for i in range(j):
            if t := res[i][cj] >> ej:
                row = res[i]
                row[:cj + 1] = [(x - t * y) & mask for x, y in zip(row, low)]
    # pivots were found from the top degree down
    out = np.zeros((len(res), rank), dtype=np.int64)
    for k, row in enumerate(reversed(res)):
        out[k, :len(row)] = row
    return out, pivots[::-1]


def _series_inverse(u: Vec, k: int, mod: int) -> Vec:
    """w with u*w = 1 mod T^k, for u with an odd constant term (Newton:
    w <- w (2 - u w) doubles the precision)."""
    w = np.array([pow(int(u[0]), -1, mod)], dtype=np.int64)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        e = -np.convolve(u[:prec], w)[:prec] % mod
        e[0] += 2
        w = np.convolve(w, e)[:prec] % mod
    return w


def weierstrass_polynomial(r: Vec, d: int) -> Vec:
    """The monic P of degree v with (P) = (r) in Z/2^d[[T]], where v is the
    lowest degree at which r has an odd coefficient (Weierstrass
    preparation; Washington, Introduction to Cyclotomic Fields, Thm 7.3).

    Write r = alpha + T^v U, with alpha of degree < v and all even and U a
    unit.  P = T^v - h for h the remainder of T^v modulo r: starting from
    h = T^v, each step rewrites the part T^v S of h as S U^-1 (r - alpha),
    i.e. h <- low_v(h) - shift_v(h) U^-1 alpha.  alpha is even, so the part
    of degree >= v vanishes after at most d steps.  Series are cut at
    T^((d+2)v): a term beyond it needs more than d steps, hence more than d
    factors alpha, to reach a degree below v.  In the quotient rings T is
    nilpotent, so P is r times a unit there too.
    """
    mod = 1 << d
    r = np.asarray(r, dtype=np.int64) % mod
    v = int(np.flatnonzero(r & 1)[0])
    if v == 0:
        return np.ones(1, dtype=np.int64)
    if r[v] == 1 and not r[v + 1:].any():
        return r[:v + 1]      # already monic of degree v: P = r
    k = (d + 2) * v
    u = np.zeros(k, dtype=np.int64)
    top = r[v:v + k]
    u[:len(top)] = top
    c = np.convolve(_series_inverse(u, k, mod), r[:v])[:k] % mod   # U^-1 alpha
    h = np.zeros(k, dtype=np.int64)
    h[v] = 1
    for _ in range(d + 1):
        if not h[v:].any():
            break
        prod = np.convolve(h[v:], c)[:k]
        h[v:] = 0
        h[:len(prod)] = (h[:len(prod)] - prod) % mod
    if h[v:].any():
        raise AssertionError("Weierstrass division failed to converge")
    return np.append(-h[:v] % mod, 1)


def _row_reduce(v: np.ndarray, rows: np.ndarray, pivots: list[tuple[int, int]],
                mod: int) -> np.ndarray:
    """Canonical remainder of v against Howell rows (top degree down); a
    stack of vectors reduces row by row.  A single vector reads each
    multiplier as an int and skips the zero ones, the common case."""
    for (col, e), row in zip(reversed(pivots), reversed(rows)):
        if v.ndim > 1:
            v = (v - (v[:, col, None] >> e) * row) % mod
        elif t := int(v[col]) >> e:
            v = (v - t * row) % mod
    return v


def _relation_mod(spec: RingSpec, ring: RingSpec) -> Vec:
    """The relation of the group-ring presentation ``spec`` modulo the
    lower monic relation M of ``ring``, without reducing a polynomial of
    degree 2^n: (T+1)^(2^n) - 1 by n squarings modulo M, and in the divided
    presentation modulo T M, where the result is T times the divided
    relation modulo M."""
    aux = ring
    if spec.divided:
        aux = RingSpec(ring.d, ring.n, ring.divided, relation=np.append(0, ring.relation))
    x = from_coeffs((1, 1), aux)
    for _ in range(spec.n):
        x = poly_mul_mod(x, x, aux)
    x = (x - one(aux)) % aux.modulus
    return x[1:] if spec.divided else x


class HowellIdeal:
    """An ideal J of the quotient ring ``spec``, held modulo its lowest
    monic element.

    ``ring`` is Z/2^d[T]/(M), for M the lowest-degree monic polynomial in
    the lift of J to Z/2^d[T], and ``rows`` and ``pivots`` are the Howell
    form of J/(M) in rank deg M, with M's lower part reduced against them,
    so the pair is canonical.  No row has a unit pivot: it would be a lower
    monic element.  By the Howell property the rank-2^n Howell rows of J
    at degrees below deg M are exactly these rows, and those at degrees
    >= deg M are the unit-pivot multiples T^j M; so index, membership and
    generators read off the pair as off the full form.

    Until J has a monic element below the relation (M is the relation,
    reduced modulo J), it has no odd coefficient anywhere, and J = 2^v K:
    ``v`` >= 1 is the least 2-valuation in J (0 once M drops) and ``K``
    the ideal over Z/2^(d-v), held as above, of the x with 2^v x in J
    (None for the zero ideal, v = d); ``rows`` and ``pivots`` are None.

    Immutable by convention: ``insert`` returns a new ideal (or ``self``
    when the element was already a member, the cheap and common path).
    """

    __slots__ = ("spec", "ring", "rows", "pivots", "v", "K")

    def __init__(self, spec: RingSpec, ring: RingSpec, rows: np.ndarray | None = None,
                 pivots: list[tuple[int, int]] | None = None, v: int = 0,
                 K: "HowellIdeal | None" = None):
        self.spec, self.ring, self.rows, self.pivots, self.v, self.K = \
            spec, ring, rows, pivots, v, K

    @classmethod
    def empty(cls, spec: RingSpec) -> "HowellIdeal":
        return cls(spec, spec, v=spec.d)

    @classmethod
    def from_generators(cls, spec: RingSpec, gens) -> "HowellIdeal":
        """Ideal generated by coefficient sequences of any degree.  Those with
        an odd coefficient are inserted first, one by one: their Weierstrass
        polynomials drop the rank.  The even ones then leave M as it is and
        join the rows in one Howell form, or, before M drops, are inserted
        one by one."""
        vecs = [np.asarray(g, dtype=np.int64) % spec.modulus for g in gens]
        ideal, even = cls.empty(spec), []
        for g in sorted(vecs, key=lambda g: not (g & 1).any()):     # odd ones first
            if ideal.v or (g & 1).any():
                ideal = ideal.insert(g)
            elif (r := ideal.reduce_vec(g)).any():
                even.append(mul_matrix(r, ideal.ring))
        return ideal._rebuilt(ideal.ring, np.vstack([ideal.rows, *even])) if even else ideal

    def reduce_vec(self, v) -> np.ndarray:
        """Canonical remainder of v (any length): reduced modulo M, then
        against the Howell rows, or, before M drops, its bits from 2^v up
        modulo K.  A stack of vectors reduces row by row."""
        x = reduce_poly(v, self.ring)
        if not self.v:
            return _row_reduce(x, self.rows, self.pivots, self.ring.modulus)
        if self.K is not None:
            high = self.K.reduce_vec(x >> self.v)
            x &= (1 << self.v) - 1
            x[..., :high.shape[-1]] += high << self.v
        return x

    def contains(self, v: Vec) -> bool:
        return not self.reduce_vec(v).any()

    def insert(self, g: Vec) -> "HowellIdeal":
        """Ideal generated by self and g (all T-shifts of g are adjoined)."""
        r = self.reduce_vec(g)
        if not r.any():
            return self
        if self.v:
            return self._insert_undropped(r)
        ring = self.ring
        if (r & 1).any():
            # (r) = (P) for a monic P of degree below deg M: J/(P) is spanned
            # by the old rows and the ideal (M), both read modulo P
            ring = RingSpec(ring.d, ring.n, ring.divided,
                            relation=weierstrass_polynomial(r, ring.d))
            stack = self._read_in(ring)
        else:
            stack = [self.rows, mul_matrix(r, ring)]
        return self._rebuilt(ring, np.vstack(stack))

    def _insert_undropped(self, r: Vec) -> "HowellIdeal":
        """Insert a non-member remainder r into J = 2^v K.  When 2^v divides
        r, r/2^v joins K.  Else the least 2-valuation w of r is the new v,
        and the new K over Z/2^(d-w), J itself at w = 0, is held modulo the
        Weierstrass polynomial P of r/2^w: it is spanned by 2^(v-w) K and
        the relation, both read modulo P."""
        spec, v, K = self.spec, self.v, self.K
        low = int(np.bitwise_or.reduce(r))
        w = (low & -low).bit_length() - 1
        if w >= v:
            return HowellIdeal(spec, spec, v=v, K=K.insert(r >> v))._relation_reduced()
        kspec = spec if w == 0 else RingSpec(spec.d - w, spec.n, spec.divided)
        ring = RingSpec(kspec.d, kspec.n, kspec.divided,
                        relation=weierstrass_polynomial(r >> w, kspec.d))
        stack = [mul_matrix(_relation_mod(kspec, ring), ring)]
        stack += K._read_in(ring, v - w) if K is not None else []
        new = HowellIdeal.empty(kspec)._rebuilt(ring, np.vstack(stack))
        return new if w == 0 else HowellIdeal(spec, spec, v=w, K=new)._relation_reduced()

    def _read_in(self, ring: RingSpec, s: int = 0) -> list[np.ndarray]:
        """Rows spanning 2^s times this ideal read in ``ring``, of lower
        degree: the rows and the T-shifts of M, reduced modulo its relation."""
        rows = [reduce_poly(self.rows << s, ring)] if len(self.rows) else []
        return rows + [mul_matrix(reduce_poly(self.ring.relation << s, ring), ring)]

    def _relation_reduced(self) -> "HowellIdeal":
        """This ideal with the lower part of its ring's relation reduced
        modulo it, which makes the ring canonical."""
        ring = self.ring
        low = ring.relation[:ring.rank]
        reduced = self.reduce_vec(low)
        if np.array_equal(reduced, low):
            return self
        ring = RingSpec(ring.d, ring.n, ring.divided, relation=np.append(reduced, 1))
        return HowellIdeal(self.spec, ring, self.rows, self.pivots, self.v, self.K)

    def _rebuilt(self, ring: RingSpec, stack: np.ndarray) -> "HowellIdeal":
        """Howell form of ``stack`` in ``ring``, with M's lower part reduced
        against the rows.

        No pivot can be a unit, since every stacked vector is even: the rows
        are, and so are the shifts of an even r, 2^s times an ideal, and M or
        the relation taken modulo a P of lower degree (all are powers of T
        mod 2).
        """
        if not ring.rank:       # a unit was inserted: J is the whole ring
            return HowellIdeal(self.spec, ring, np.zeros((0, 0), dtype=np.int64), [])
        rows, pivots = howell_form(stack, ring.d, ring.rank)
        if not all(e for _, e in pivots):
            raise AssertionError("unit pivot below the lowest monic element")
        return HowellIdeal(self.spec, ring, rows, pivots)._relation_reduced()

    def howell_rows(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Howell rows and pivots of J/(M) in rank deg M.  Before M drops they
        are derived at the relation's rank: 2^v times K's rows, then for each
        degree c >= deg M_K the row 2^v (T^c + x), x the remainder of -T^c
        modulo K, with pivot (c, v)."""
        if not self.v:
            return self.rows, self.pivots
        rank, v, K = self.spec.rank, self.v, self.K
        if K is None:
            return np.zeros((0, rank), dtype=np.int64), []
        m = K.ring.rank
        rows = np.zeros((len(K.rows) + rank - m, rank), dtype=np.int64)
        rows[:len(K.rows), :m] = K.rows
        high = rows[len(K.rows):]
        high[:, m:] = np.eye(rank - m, dtype=np.int64)
        high[:, :m] = K.reduce_vec(-high)
        pivots = [(c, e + v) for c, e in K.pivots] + [(c, v) for c in range(m, rank)]
        return rows << v, pivots

    def log2_index(self) -> int:
        """log2 of the index of the ideal in the quotient ring."""
        if self.v:
            return self.v * self.spec.rank + (self.K.log2_index() if self.K else 0)
        pivot_cols = {col for col, _ in self.pivots}
        free = self.ring.rank - len(pivot_cols)
        return free * self.spec.d + sum(e for _, e in self.pivots)

    def __eq__(self, other):
        return (isinstance(other, HowellIdeal) and self.spec == other.spec
                and self.ring == other.ring and (self.v, self.K) == (other.v, other.K)
                and bool(self.v or np.array_equal(self.rows, other.rows)))

    def __repr__(self):
        return (f"HowellIdeal({self.spec}, monic degree {self.ring.rank}, "
                f"log2_index={self.log2_index()})")


@dataclass(frozen=True)
class ReportedIdeal:
    """The lifted ideal of Z_2[T] presented by a minimal generating set.

    ``generators`` are ascending T-coefficient tuples; together with 2^d and
    the relation polynomial they regenerate the Howell ideal they came from
    (checked by :func:`canonical_generators`).
    """

    generators: tuple[tuple[int, ...], ...]
    log2_index: int

    def __str__(self):
        return "(" + ", ".join(poly_str(g) for g in self.generators) + ")"


def canonical_generators(ideal: HowellIdeal) -> ReportedIdeal:
    """Minimal strong generating set of the lifted Z_2[T]-ideal.

    Walking T-degrees upward below deg M, keep exactly the rows where the
    pivot 2-valuation strictly drops; degree 0 contributes 2^d when no
    pivot sits there, and M (the reduced relation while J has no lower
    monic element) closes the list.  T-shifts and 2-power multiples of the
    kept rows regenerate all skipped strata, so the list generates;
    strictness makes it minimal.  Before M drops the list is 2^v times K's
    (2^d for the zero ideal), closed by the reduced relation.  The list is
    checked by regenerating the ideal from it, under ``python -O`` too.
    """
    reported = ReportedIdeal(generators=tuple(_generators(ideal)),
                             log2_index=ideal.log2_index())
    regen = HowellIdeal.from_generators(ideal.spec, reported.generators)
    if regen != ideal:
        raise AssertionError("canonical generators failed to regenerate the ideal")
    return reported


def _generators(ideal: HowellIdeal) -> list[tuple[int, ...]]:
    """The list :func:`canonical_generators` reports, unchecked."""
    spec, ring = ideal.spec, ideal.ring
    relation = tuple(int(x) for x in ring.relation)
    if ideal.v:     # 2^v times K's list; the zero ideal is 2^d (1)
        low = _generators(ideal.K) if ideal.K is not None else [(1,)]
        return [tuple(c << ideal.v for c in g) for g in low] + [relation]
    pivot_map = {col: (e, row) for (col, e), row in zip(ideal.pivots, ideal.rows)}
    gens: list[tuple[int, ...]] = []
    v_prev = spec.d + 1
    for col in range(ring.rank):
        if col in pivot_map:
            e, row = pivot_map[col]
            if e < v_prev:
                gens.append(_trim(row))
                v_prev = e
        elif col == 0:
            gens.append((spec.modulus,))
            v_prev = spec.d
    gens.append(relation)
    return gens


def _trim(row: np.ndarray) -> tuple[int, ...]:
    nz = np.nonzero(row)[0]
    top = int(nz[-1]) if len(nz) else 0
    return tuple(int(x) for x in row[:top + 1])


def poly_str(coeffs) -> str:
    """Human form, descending degree: e.g. (0, 2, 1) -> 'T^2 + 2T'."""
    terms = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = int(coeffs[j])
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
        else:
            var = "T" if j == 1 else f"T^{j}"
            terms.append(var if c == 1 else f"{c}{var}")
    return " + ".join(terms) if terms else "0"
