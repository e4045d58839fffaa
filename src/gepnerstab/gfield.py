"""Small finite fields GF(p^k) with table-driven arithmetic.

Elements are integer codes 0..q-1 (base-p digit vectors against a fixed
irreducible modulus).  Everything the subrepresentation search needs lives
here: row reduction, span/membership, canonical subspace keys, full
subspace enumeration for ambient dimension <= 4, superspace enumeration,
and Gaussian binomial counts.  Cyclotomic data reduces into GF(p^k)
through a chosen multiplicative root of unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

from .exactmath import CycloNum


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
    """Monic irreducible of degree k over F_p, low-to-high coefficients."""
    if k == 1:
        return [0, 1]
    # degree 2 and 3: irreducible iff no roots
    for tail in range(p**k):
        coeffs = []
        t = tail
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        poly = coeffs + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p for x in range(p)):
            if k <= 3:
                return poly
    raise ArithmeticError(f"no irreducible of degree {k} found over F_{p}")


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def check_prime(p: int) -> None:
    """Reject a characteristic that is not a prime >= 2 (Z/p is then no field)."""
    if not is_prime(p):
        raise ValueError(f"the characteristic must be a prime >= 2, got {p}")


class GF:
    """The field with p^k elements; element codes are ints in range(q)."""

    def __init__(self, p: int, k: int = 1):
        check_prime(p)
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = _find_irreducible(p, k)
        q = self.q

        def decode(n):
            digits = []
            for _ in range(k):
                digits.append(n % p)
                n //= p
            return digits

        def encode(digits):
            n = 0
            for d in reversed(digits):
                n = n * p + (d % p)
            return n

        self._decode = decode
        self._encode = encode
        self.add = [[encode([(x + y) % p for x, y in zip(decode(a), decode(b))]) for b in range(q)] for a in range(q)]
        self.neg = [encode([(-x) % p for x in decode(a)]) for a in range(q)]
        self.mul = [
            [encode(_poly_mul_mod(decode(a), decode(b), self.modulus, p)) for b in range(q)]
            for a in range(q)
        ]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self._pow(a, q - 2)

    def _pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul[out][base]
            base = self.mul[base][base]
            e >>= 1
        return out

    def label(self) -> str:
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.q} (= F_{self.p}^{self.k})"

    # -- roots of unity and reduction ------------------------------------------

    @lru_cache(maxsize=None)
    def root_of_unity(self, n: int) -> int:
        """An element of multiplicative order n (requires n | q - 1)."""
        if n == 1:
            return 1
        if (self.q - 1) % n:
            raise BadReductionError(f"no order-{n} root in GF({self.q})")
        for g in range(2, self.q):
            if self._order(g) == self.q - 1:
                return self._pow(g, (self.q - 1) // n)
        raise ArithmeticError("no generator found")

    def _order(self, a: int) -> int:
        if a == 0:
            return 0
        x, n = a, 1
        while x != 1:
            x = self.mul[x][a]
            n += 1
        return n

    def from_fraction(self, fr) -> int:
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise BadReductionError(f"denominator divisible by {self.p}")
        num = fr.numerator % self.p
        den_inv = self.inv[fr.denominator % self.p]
        return self.mul[num][den_inv]

    def reduce_cyclo(self, x: CycloNum, conductor: int) -> int:
        """Reduce a cyclotomic number via zeta_conductor -> fixed root."""
        if conductor % x.d:
            raise BadReductionError(f"conductor {conductor} not divisible by {x.d}")
        y = x.promote(conductor)
        root = self.root_of_unity(conductor)
        acc, power = 0, 1
        for c in y.coeffs:
            if c:
                acc = self.add[acc][self.mul[self.from_fraction(c)][power]]
            power = self.mul[power][root]
        return acc


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


@lru_cache(maxsize=None)
def field_for(p: int, conductor: int) -> GF:
    """The smallest GF(p^k) containing the conductor-th roots of unity."""
    return GF(p, field_degree(p, conductor))


# ---------------------------------------------------------------------------
# linear algebra over GF (vectors are tuples of codes)
# ---------------------------------------------------------------------------


def rref(field: GF, rows: list[tuple[int, ...]]):
    """Row-reduced echelon basis (nonzero rows) and pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv[mat[r][c]]
        mat[r] = [field.mul[inv][x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = field.neg[mat[i][c]]
                mat[i] = [field.add[x][field.mul[f][y]] for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = [tuple(mat[i]) for i in range(r)]
    return basis, pivots


def span(field: GF, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical (RREF) form of the span; usable as a dict key."""
    basis, _ = rref(field, [tuple(v) for v in vectors if any(v)])
    return tuple(basis)


def in_span(field: GF, basis, vec) -> bool:
    v = list(vec)
    for row in basis:
        c = next((i for i, x in enumerate(row) if x), None)
        if c is not None and v[c]:
            f = field.neg[v[c]]
            v = [field.add[x][field.mul[f][y]] for x, y in zip(v, row)]
    return not any(v)


def mat_apply(field: GF, mat, vec):
    """mat rows x cols applied to a coordinate vector (length cols)."""
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc = field.add[acc][field.mul[a][b]]
        out.append(acc)
    return tuple(out)


def image_vectors(field: GF, mat, basis):
    """Images of basis vectors of a subspace under a vertex map."""
    return [mat_apply(field, mat, v) for v in basis]


@lru_cache(maxsize=None)
def all_subspaces(field_key, n: int):
    """All subspaces of F_q^n as canonical RREF tuples (cached per field)."""
    field = _FIELD_REGISTRY[field_key]
    q = field.q
    out = [()]
    from itertools import combinations, product

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
    return out


_FIELD_REGISTRY: dict = {}


def register_field(field: GF):
    key = (field.p, field.k)
    _FIELD_REGISTRY[key] = field
    return key


def subspaces_of(field: GF, n: int):
    return all_subspaces(register_field(field), n)


def superspaces(field: GF, lower, ambient_dim: int):
    """All subspaces of F^ambient containing the given RREF lower bound."""
    l = len(lower)
    if l == ambient_dim:
        return [tuple(lower)]
    _, pivots = rref(field, list(lower)) if lower else ([], [])
    comp_cols = [c for c in range(ambient_dim) if c not in pivots]
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
    basis = list(lower)
    for c in range(ambient_dim):
        if len(basis) == target_dim:
            break
        e = tuple(1 if i == c else 0 for i in range(ambient_dim))
        if not in_span(field, basis, e):
            basis, _ = rref(field, basis + [e])
    if len(basis) != target_dim:
        raise ArithmeticError("cannot extend to requested dimension")
    return tuple(basis)


def quotient_data(field: GF, sub, ambient_dim: int):
    """Projection data for F^ambient / sub: returns (pivots, free columns).

    Quotient coordinates of v are the entries of (v reduced by sub) at the
    free columns.
    """
    if not sub:
        return [], list(range(ambient_dim))
    _, pivots = rref(field, list(sub))
    free = [c for c in range(ambient_dim) if c not in pivots]
    return pivots, free


def project_to_quotient(field: GF, sub, free_cols, vec):
    v = list(vec)
    for row in sub:
        c = next((i for i, x in enumerate(row) if x), None)
        if c is not None and v[c]:
            f = field.neg[v[c]]
            v = [field.add[x][field.mul[f][y]] for x, y in zip(v, row)]
    return tuple(v[c] for c in free_cols)


def coords_in_basis(field: GF, basis, vec):
    """Coordinates of vec in a given (not necessarily RREF) basis, or None."""
    if not basis:
        return () if not any(vec) else None
    n = len(vec)
    # solve basis^T x = vec by elimination on an augmented matrix
    rows = [[basis[j][i] for j in range(len(basis))] + [vec[i]] for i in range(n)]
    red, pivots = rref(field, [tuple(r) for r in rows])
    k = len(basis)
    if k in pivots:
        return None
    coords = [0] * k
    for r, pc in zip(red, pivots):
        coords[pc] = r[k]
    return tuple(coords)
