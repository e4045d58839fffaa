"""Small finite fields GF(p^k) with table-driven arithmetic.

Elements are integer codes 0..q-1 (base-p digit vectors against a fixed
irreducible modulus).  The multiplication, inverse and root tables come
from the powers of one generator: q - 1 polynomial products for it, fewer
for each smaller code that is no generator, then table lookups.  Row
reduction lives in ``exactmath._rref``, the package's one copy, shared
with Q(zeta_d); a ``GF`` is a field it runs over (zero, one, reciprocal,
negate, and the row operations scale and eliminate, each through the
tables).  Each row of the digit-wise addition table is assembled from a
row of the one-digit table and a row of the table with one digit fewer.
Everything else the subrepresentation search needs lives here:
span/membership, canonical subspace keys, kernels, the list of all
subspaces of F^n (``subspaces_of``) with the position of each in it
(``subspace_index``), and Gaussian binomial counts; ``superspaces`` lists
the subspaces above a bound, for the tests' exhaustive oracle.  Full
enumeration has no bound of its own: the search
(``quiverrep.subrep_classes``) refuses, before it starts, a vertex whose
space has more than ``quiverrep.MAX_SUBSPACES`` = 10^5 subspaces (F_5^5
with 42,176 passes, F_25^4 with 440,080 does not).  Cyclotomic data
reduces into GF(p^k) through the root of unity that is a power of the
generator.

A subspace is always its canonical RREF basis, as ``span`` returns it, so
a dict key.  Every function that takes a subspace relies on this: pivots
are read straight off the rows (``pivot_columns``), and membership,
quotient projection and ``extension_rank`` share one reduce loop against
those pivots.  The search counts the subspaces above a bound per
dimension: Gaussian binomials minus a few exceptions, each placed in
``subspaces_of``'s order by ``subspace_index``.  It walks a dimension
only where no count applies, building images there along RREF prefixes
(the first rows of such a basis are again one), and builds an RREF only
for bounds, kernels and witnesses.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd, isqrt, prod

from .exactmath import CycloNum, _rref
from .exactmath import kernel as _kernel


class BadReductionError(ArithmeticError):
    """Raised when cyclotomic data does not reduce well at this prime."""


def _poly_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    k = len(modulus) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k + 1):
                out[i - k + j] = (out[i - k + j] - c * modulus[j]) % p
    return [c % p for c in out[:k]] + [0] * max(0, k - len(out))


def _find_irreducible(p: int, k: int) -> list[int]:
    """Monic irreducible of degree k <= 3 over F_p, low-to-high coefficients.

    A polynomial of degree 2 or 3 is irreducible iff it has no root; that
    test proves nothing for k > 3, so those degrees are refused.
    """
    if not 1 <= k <= 3:
        raise ValueError(f"GF(p^k) is implemented for k <= 3, not k = {k}")
    if k == 1:
        return [0, 1]
    for tail in range(p**k):
        coeffs = []
        t = tail
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        poly = coeffs + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p for x in range(p)):
            return poly
    raise ArithmeticError(f"no irreducible of degree {k} found over F_{p}")


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def check_prime(p: int) -> None:
    """Reject a characteristic that is not a prime >= 2 (Z/p is then no field)."""
    if not is_prime(p):
        raise ValueError(f"the characteristic must be a prime >= 2, got {p}")


class GF:
    """The field with p^k elements; element codes are ints in range(q).

    Addition and negation act digit-wise on the codes.  Every product comes
    from the powers of one generator g, the least code of order q - 1:
    ``exp[i]`` is g^i, so mul, inv and each root of unity are index
    arithmetic modulo q - 1 on the logarithms.

    Also a field for ``exactmath``'s row reduction: zero and one are the
    codes 0 and 1, reciprocal and negate read the inv and neg tables, and
    each row operation looks up its table row once.
    """

    zero = 0
    one = 1

    def __init__(self, p: int, k: int = 1):
        check_prime(p)
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = _find_irreducible(p, k)
        q = self.q

        digits = [[a // p**i % p for i in range(k)] for a in range(q)]  # low first

        def encode(ds):
            n = 0
            for d in reversed(ds):
                n = n * p + (d % p)
            return n

        # digit-wise sums, one digit more per pass: a = a0 + p a' and b = b0 + p b'
        # give a + b = (a0 + b0 mod p) + p (a' + b'), b0 varying fastest
        one_digit = add = [[(a + b) % p for b in range(p)] for a in range(p)]
        for _ in range(k - 1):
            add = [[lo + p * hi for hi in add[a // p] for lo in one_digit[a % p]] for a in range(p * len(add))]
        self.add = add
        self.neg = [encode([-x for x in da]) for da in digits]
        # exp[i] = g^i for the least code g of order q - 1: each candidate's
        # powers are walked until they return to 1
        for g in range(1, q):
            exp, x = [1], digits[g]
            while x != digits[1]:
                exp.append(encode(x))
                x = _poly_mul_mod(x, digits[g], self.modulus, p)
            if len(exp) == q - 1:
                break
        self.exp = exp
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        twice = exp + exp
        self.mul = [[0] * q] + [[0] + [twice[la + lb] for lb in log[1:]] for la in log[1:]]
        self.inv = [0] + [exp[-la] for la in log[1:]]
        self.reciprocal, self.negate = self.inv.__getitem__, self.neg.__getitem__

    def scale(self, row, c: int) -> list[int]:
        times = self.mul[c]
        return [times[x] for x in row]

    def eliminate(self, row, f: int, pivot_row) -> list[int]:
        """row - f * pivot_row."""
        add, times = self.add, self.mul[self.neg[f]]
        return [add[x][times[y]] for x, y in zip(row, pivot_row)]

    def label(self) -> str:
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.q} (= F_{self.p}^{self.k})"

    # -- roots of unity and reduction ------------------------------------------

    def root_of_unity(self, n: int) -> int:
        """g^((q-1)/n), an element of multiplicative order n (requires n | q - 1)."""
        if (self.q - 1) % n:
            raise BadReductionError(f"no order-{n} root in GF({self.q})")
        return self.exp[(self.q - 1) // n % (self.q - 1)]

    def reduce_cyclo(self, x: CycloNum, conductor: int) -> int:
        """Reduce a cyclotomic number via zeta_conductor -> fixed root."""
        if conductor % x.d:
            raise BadReductionError(f"conductor {conductor} not divisible by {x.d}")
        y = x.promote(conductor)
        if y.den % self.p == 0:
            raise BadReductionError(f"denominator divisible by {self.p}")
        root = self.root_of_unity(conductor)
        acc, power = 0, 1
        for a in y.num:
            if a:
                acc = self.add[acc][self.mul[a % self.p][power]]
            power = self.mul[power][root]
        return self.mul[acc][self.inv[y.den % self.p]]


def field_degree(p: int, conductor: int) -> int:
    """The least k such that GF(p^k) contains the conductor-th roots of unity."""
    check_prime(p)
    if conductor == 1:
        return 1
    if gcd(p, conductor) != 1:
        raise BadReductionError(f"prime {p} divides the conductor {conductor}")
    k = 1
    while pow(p, k, conductor) != 1:
        k += 1
    return k


def field_for(p: int, conductor: int) -> GF:
    """The smallest GF(p^k) containing the conductor-th roots of unity.

    One instance per field: conductors with the same field degree share
    its tables and its subspace cache.
    """
    return _field(p, field_degree(p, conductor))


@lru_cache(maxsize=None)
def _field(p: int, k: int) -> GF:
    return GF(p, k)


# ---------------------------------------------------------------------------
# linear algebra over GF (vectors are tuples of codes)
# ---------------------------------------------------------------------------


def span(field: GF, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical (RREF) basis of the span; usable as a dict key."""
    return tuple(map(tuple, _rref(field, [v for v in vectors if any(v)])[0]))


def pivot_columns(basis) -> list[int]:
    """The pivot column of each row of an RREF basis: its first nonzero entry, a 1."""
    return [row.index(1) for row in basis]


def _reduce(field: GF, basis, vec) -> list[int]:
    """vec minus its component along the RREF basis; zero at the basis pivots."""
    add, mul = field.add, field.mul
    v = list(vec)
    for row, c in zip(basis, pivot_columns(basis)):
        if v[c]:
            times = mul[field.neg[v[c]]]
            v = [add[x][times[y]] for x, y in zip(v, row)]
    return v


def in_span(field: GF, basis, vec) -> bool:
    """Membership of vec in the span of an RREF basis."""
    return not any(_reduce(field, basis, vec))


def mat_apply(field: GF, mat, vec):
    """mat rows x cols applied to a coordinate vector (length cols)."""
    add, mul = field.add, field.mul
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc = add[acc][mul[a][b]]
        out.append(acc)
    return tuple(out)


def extension_rank(field: GF, basis, vecs) -> int:
    """Dimension of the span of an RREF basis and vecs, without its RREF.

    The vectors reduced against the basis vanish at its pivots, so they
    add their own rank: one vector adds 1 unless it reduces to zero, and
    only two or more are row-reduced among themselves.
    """
    new = []
    for v in vecs:
        w = _reduce(field, basis, v)
        if any(w):
            new.append(w)
    return len(basis) + (len(new) if len(new) < 2 else len(span(field, new)))


def kernel(field: GF, rows, n: int) -> tuple[tuple[int, ...], ...]:
    """RREF basis of the null space {x in F^n : row . x = 0 for every row}."""
    return span(field, _kernel(field, rows, n))


@lru_cache(maxsize=None)
def subspaces_of(field: GF, n: int):
    """All subspaces of F_q^n as canonical RREF tuples (cached per field).

    A tuple, since every caller shares the cached value.
    """
    q = field.q
    out = [()]
    for r in range(1, n + 1):
        for pivots in combinations(range(n), r):
            free_positions = []
            for i, pc in enumerate(pivots):
                for c in range(pc + 1, n):
                    if c not in pivots:
                        free_positions.append((i, c))
            for values in product(range(q), repeat=len(free_positions)):
                rows = [[0] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, c), v in zip(free_positions, values):
                    rows[i][c] = v
                out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


@lru_cache(maxsize=None)
def subspace_index(field: GF, n: int) -> dict:
    """Each subspace of F_q^n -> its position in subspaces_of (cached per field)."""
    return {u: i for i, u in enumerate(subspaces_of(field, n))}


def superspaces(field: GF, lower, ambient_dim: int):
    """All subspaces of F^ambient containing the given RREF lower bound."""
    if not lower:
        return subspaces_of(field, ambient_dim)
    l = len(lower)
    if l == ambient_dim:
        return [tuple(lower)]
    comp_cols = quotient_data(lower, ambient_dim)
    out = []
    for small in subspaces_of(field, len(comp_cols)):
        lift = []
        for row in small:
            v = [0] * ambient_dim
            for x, c in zip(row, comp_cols):
                v[c] = x
            lift.append(tuple(v))
        out.append(span(field, list(lower) + lift))
    return out


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = prod(q**n - q**i for i in range(k))
    den = prod(q**k - q**i for i in range(k))
    return num // den


def extend_to_dim(field: GF, lower, target_dim: int, ambient_dim: int):
    """One concrete subspace of the target dimension containing the bound."""
    basis = tuple(lower)
    for c in range(ambient_dim):
        if len(basis) == target_dim:
            break
        e = tuple(1 if i == c else 0 for i in range(ambient_dim))
        if not in_span(field, basis, e):
            basis = span(field, basis + (e,))
    if len(basis) != target_dim:
        raise ArithmeticError("cannot extend to requested dimension")
    return basis


def quotient_data(sub, ambient_dim: int) -> list[int]:
    """The free (non-pivot) columns of an RREF subspace of F^ambient.

    Quotient coordinates of v are the entries of (v reduced by sub) at the
    free columns.
    """
    pivots = pivot_columns(sub)
    return [c for c in range(ambient_dim) if c not in pivots]


def project_to_quotient(field: GF, sub, free_cols, vec):
    """Quotient coordinates of vec modulo the RREF subspace sub."""
    v = _reduce(field, sub, vec)
    return tuple(v[c] for c in free_cols)
