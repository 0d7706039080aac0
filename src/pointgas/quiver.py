"""Lattice hole-pairing model with an exact operator-algebra backend.

Spin-1/2 electrons live on a rectangular lattice; each site carries one of
four states (doubly occupied, spin up, spin down, hole).  The module has
three layers:

* exact Jordan-Wigner fermion operators on lattices of at most six sites,
  with exhaustive checks of the anticommutation relations, the
  current-operator commutator identities, and the directed-hop composition
  laws (`build_fermion_ops`, `current_ops`, `check_commutators`,
  `check_composition`).  A `FermionOps` is its column table, built from
  the definition: c[x] flips only the Fock bit of mode x, so it is one row
  of weights, and its sparse matrices are views of the table.  Hops c†_b
  c_a are products of rows, and the CAR, commutator and composition
  residuals share one gather over all site tuples of a chunk, exact in
  Gaussian-integer arithmetic;
* the 4x4 single-vertex representation of the directed hop maps
  (`vertex_matrices`);
* a diagonal stationary energy on occupation patterns with exact ground
  states, simulated annealing for larger lattices, and hole-pairing
  diagnostics (`energy`, `ground_search_exact`, `ground_search_anneal`,
  `pairing_diagnostics`, `energy_estimates`).  The energy is five integer
  counts from one term table per lattice, so every path, the annealer's
  exact count differences included, agrees bitwise.  The exact search is a
  min-plus transfer matrix over lattice slices; it decides the minimum on
  energies recomputed from the integer counts, not on its float sums.

Conventions: site index s = x * ly + y; fermion mode index 2 * site + spin
with spin 0 = up, 1 = down; an occupation code per site packs n_up in bit 0
and n_dn in bit 1, so code 0 is a hole.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "SPIN_UP",
    "SPIN_DOWN",
    "BASIS_STATES",
    "Lattice",
    "QuiverParams",
    "Occupation",
    "FermionOps",
    "CurrentOps",
    "AlgebraReport",
    "CompositionReport",
    "VertexMatrices",
    "AnnealResult",
    "HoleDiagnostics",
    "build_fermion_ops",
    "current_ops",
    "check_commutators",
    "check_composition",
    "vertex_matrices",
    "energy",
    "energy_batch",
    "exact_search_fits",
    "ground_search_exact",
    "ground_search_anneal",
    "pairing_diagnostics",
    "energy_estimates",
]

SPIN_UP = 0
SPIN_DOWN = 1

# Single-vertex basis order used by vertex_matrices().
BASIS_STATES = ("double", "up", "down", "hole")

_MAX_ALGEBRA_SITES = 6      # Fock dimension 4**6 = 4096
_CHUNK_ENTRIES = 1 << 14    # table entries per site tuple chunk of an algebra check

_CODE_ELECTRONS = (0, 1, 1, 2)
_CODE_CHARS = (".", "u", "d", "2")


# ---------------------------------------------------------------------------
# lattice geometry


@dataclass(frozen=True)
class Lattice:
    """Rectangular lattice with open or periodic boundary.

    Derived geometry: `bonds` lists each nearest-neighbor bond once as a
    (site, +x or +y neighbor) pair; `bonds_ordered` repeats every bond in
    both directions; `nnn_triples` lists (center, from, to) where from/to
    are distinct nearest neighbors of the center separated by a diagonal
    step (squared Euclidean distance 2, minimum-image for periodic
    boundaries).  Periodic wrap needs both dimensions >= 2; on a width-2
    periodic dimension the same site pair appears twice in `bonds` (a
    double bond), keeping four incident bonds per site.
    """

    lx: int
    ly: int
    boundary: str = "open"

    def __post_init__(self):
        if self.lx < 1 or self.ly < 1:
            raise ValueError("lattice dimensions must be positive")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")
        if self.boundary == "periodic" and min(self.lx, self.ly) < 2:
            raise ValueError("periodic boundaries need lx >= 2 and ly >= 2")

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    def site(self, x: int, y: int) -> int:
        if not (0 <= x < self.lx and 0 <= y < self.ly):
            raise ValueError(f"coordinates ({x}, {y}) outside {self.lx}x{self.ly} lattice")
        return x * self.ly + y

    def coords(self, s: int) -> tuple[int, int]:
        if not 0 <= s < self.n_sites:
            raise ValueError(f"site index {s} outside lattice with {self.n_sites} sites")
        return divmod(s, self.ly)

    def displacement(self, a: int, b: int) -> tuple[int, int]:
        """Minimum-image displacement from site a to site b."""
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        dx, dy = bx - ax, by - ay
        if self.boundary == "periodic":
            if 2 * dx > self.lx:
                dx -= self.lx
            elif 2 * dx < -self.lx:
                dx += self.lx
            if 2 * dy > self.ly:
                dy -= self.ly
            elif 2 * dy < -self.ly:
                dy += self.ly
        return dx, dy

    @cached_property
    def bonds(self) -> tuple[tuple[int, int], ...]:
        out = []
        for x in range(self.lx):
            for y in range(self.ly):
                a = self.site(x, y)
                if x + 1 < self.lx:
                    out.append((a, self.site(x + 1, y)))
                elif self.boundary == "periodic":
                    out.append((a, self.site(0, y)))
                if y + 1 < self.ly:
                    out.append((a, self.site(x, y + 1)))
                elif self.boundary == "periodic":
                    out.append((a, self.site(x, 0)))
        return tuple(out)

    @cached_property
    def bonds_ordered(self) -> tuple[tuple[int, int], ...]:
        return self.bonds + tuple((b, a) for a, b in self.bonds)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Distinct nearest-neighbor sites of every site."""
        nb = [set() for _ in range(self.n_sites)]
        for a, b in self.bonds:
            nb[a].add(b)
            nb[b].add(a)
        return tuple(tuple(sorted(s)) for s in nb)

    @cached_property
    def nnn_triples(self) -> tuple[tuple[int, int, int], ...]:
        out = []
        for a in range(self.n_sites):
            for m in self.neighbors[a]:
                for n in self.neighbors[a]:
                    if m == n:
                        continue
                    dx, dy = self.displacement(m, n)
                    if dx * dx + dy * dy == 2:
                        out.append((a, m, n))
        return tuple(out)

    @cached_property
    def diagonal_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Distinct sites one diagonal step from every site: the ends of `nnn_triples`."""
        nb = [set() for _ in range(self.n_sites)]
        for _, m, n in self.nnn_triples:
            nb[m].add(n)
        return tuple(tuple(sorted(s)) for s in nb)


# ---------------------------------------------------------------------------
# model parameters and occupation patterns


@dataclass(frozen=True)
class QuiverParams:
    """Couplings and flags of the stationary lattice energy.

    U >= 0 penalizes double occupancy, t >= 0 rewards a nearest-neighbor
    hop channel (electron at the bond head, vacancy at the tail), k >= 0
    penalizes adjacent holes, and J >= 0 rewards diagonal
    (next-to-nearest-neighbor) hop channels around a center site.  The
    flags select how the diagonal term is gated: alpha_q = 1 counts it at
    every center, beta_q = 1 counts it only at centers that are holes.
    The two canonical settings are (1, 0) and (0, 1); other combinations
    are accepted with a warning.

    bond_convention fixes the normalization of the nearest-neighbor sums:
    "ordered" (default) runs over both directions of every bond as the
    directed-hop reading suggests, "unordered" counts each bond once by
    averaging the two directions, which halves the t and k sums and leaves
    the U and J terms unchanged.
    """

    U: float
    t: float
    k: float
    J: float
    alpha_q: int
    beta_q: int
    bond_convention: str = "ordered"

    def __post_init__(self):
        for name in ("U", "t", "k", "J"):
            val = float(getattr(self, name))
            if not math.isfinite(val) or val < 0.0:
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, val)
        for name in ("alpha_q", "beta_q"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.bond_convention not in ("ordered", "unordered"):
            raise ValueError("bond_convention must be 'ordered' or 'unordered'")
        if not self.canonical:
            warnings.warn(
                f"non-canonical flag combination (alpha_q, beta_q) = "
                f"({self.alpha_q}, {self.beta_q}); canonical settings are (1, 0) and (0, 1)",
                stacklevel=3,
            )

    @property
    def canonical(self) -> bool:
        return (self.alpha_q, self.beta_q) in ((1, 0), (0, 1))


@dataclass(frozen=True)
class Occupation:
    """Per-site electron content, packed as one code in 0..3 per site.

    Bit 0 of a code is the up occupation, bit 1 the down occupation:
    0 = hole, 1 = up, 2 = down, 3 = double.
    """

    codes: tuple[int, ...]

    def __post_init__(self):
        codes = tuple(int(c) for c in self.codes)
        if any(c < 0 or c > 3 for c in codes):
            raise ValueError("occupation codes must lie in 0..3")
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_pairs(cls, pairs) -> "Occupation":
        """Build from per-site (n_up, n_dn) pairs."""
        codes = []
        for n_up, n_dn in pairs:
            if n_up not in (0, 1) or n_dn not in (0, 1):
                raise ValueError("occupations must be 0 or 1")
            codes.append(n_up | (n_dn << 1))
        return cls(tuple(codes))

    @classmethod
    def from_arrays(cls, up, dn) -> "Occupation":
        up = np.asarray(up, dtype=np.int64)
        dn = np.asarray(dn, dtype=np.int64)
        if up.shape != dn.shape or up.ndim != 1:
            raise ValueError("up and dn must be equal-length 1-d arrays")
        return cls.from_pairs(zip(up.tolist(), dn.tolist()))

    @property
    def n_sites(self) -> int:
        return len(self.codes)

    @property
    def electron_count(self) -> int:
        return sum(_CODE_ELECTRONS[c] for c in self.codes)

    def pair(self, site: int) -> tuple[int, int]:
        c = self.codes[site]
        return c & 1, (c >> 1) & 1

    def up_dn_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        codes = np.array(self.codes, dtype=np.int64)
        return codes & 1, (codes >> 1) & 1

    def holes(self) -> tuple[int, ...]:
        return tuple(s for s, c in enumerate(self.codes) if c == 0)

    def spin_flipped(self) -> "Occupation":
        return Occupation(tuple(((c & 1) << 1) | ((c >> 1) & 1) for c in self.codes))

    def relabeled(self, perm) -> "Occupation":
        """Apply a site permutation: new site perm[s] receives the old state of s."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n_sites)):
            raise ValueError("perm must be a permutation of the site indices")
        codes = [0] * self.n_sites
        for s, c in enumerate(self.codes):
            codes[perm[s]] = c
        return Occupation(tuple(codes))

    def __str__(self) -> str:
        return "".join(_CODE_CHARS[c] for c in self.codes)


# ---------------------------------------------------------------------------
# exact fermion operators


def _check_fock_cap(lattice: Lattice) -> None:
    """ValueError for a lattice above the _MAX_ALGEBRA_SITES cap of exact operators."""
    if lattice.n_sites > _MAX_ALGEBRA_SITES:
        raise ValueError(f"lattice has {lattice.n_sites} sites; exact Fock operators are capped "
                         f"at {_MAX_ALGEBRA_SITES} sites (dimension 4096)")


@dataclass(frozen=True)
class FermionOps:
    """Jordan-Wigner operators of every lattice mode, held as one column table.

    `weights` is the (n_modes, 4**n_sites) table of the annihilators: column
    col of c[x] holds weights[x, col] in Fock row col ^ bit(x), with bit(x) =
    1 << (n_modes - 1 - x) (mode 0 is the most significant bit), so no table
    can hold an operator that moves another bit.  `c` and `cdag` are sparse
    views of the table.
    """

    lattice: Lattice
    weights: np.ndarray = field(compare=False)

    def __post_init__(self):
        _check_fock_cap(self.lattice)
        if np.shape(self.weights) != (self.n_modes, self.dim):
            raise ValueError(f"weights must have shape ({self.n_modes}, {self.dim})")

    @property
    def n_modes(self) -> int:
        return 2 * self.lattice.n_sites

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    def mode(self, site: int, spin: int) -> int:
        if not 0 <= site < self.lattice.n_sites:
            raise ValueError(f"site index {site} outside lattice")
        if spin not in (SPIN_UP, SPIN_DOWN):
            raise ValueError("spin must be SPIN_UP (0) or SPIN_DOWN (1)")
        return 2 * site + spin

    @cached_property
    def _tables(self):
        """Column tables of every c, then every cdag, then the identity:
        (weights, masks) with row x < n_modes c[x], row n_modes + x cdag[x]
        and row 2 n_modes the identity (mask 0).  cdag[x] is the adjoint of
        c[x], so its column col holds conj(weights[x, col ^ bit(x)]).
        """
        bits = 1 << (self.n_modes - 1 - np.arange(self.n_modes))
        dag = self.weights[np.arange(self.n_modes)[:, None], np.arange(self.dim) ^ bits[:, None]]
        return (np.vstack((self.weights, dag.conj(), np.ones(self.dim))),
                np.concatenate((bits, bits, [0])))

    @cached_property
    def _currents(self):
        """Hop, flux and symmetric-flux column tables, and their shared masks.

        j(a, b) = -i (v(a, b) - v(b, a)) and k(a, b) = v(a, b) + v(b, a)
        keep one entry per column: both hops move the same two bits.
        """
        v, masks = _hop_tables(self)
        n = self.lattice.n_sites
        vt = v.reshape(2, n, n, -1).transpose(0, 2, 1, 3).reshape(v.shape)
        return v, -1j * (v - vt), v + vt, masks

    def _views(self, first: int) -> tuple:
        """csr matrices, with no stored zeros, of the n_modes table rows from `first`."""
        from scipy import sparse  # only the sparse views need scipy

        tables, masks = self._tables
        cols, rows = np.arange(self.dim), slice(first, first + self.n_modes)
        return tuple(sparse.csr_matrix((w[w != 0], ((cols ^ m)[w != 0], cols[w != 0])),
                                       shape=(self.dim, self.dim))
                     for w, m in zip(tables[rows], masks[rows]))

    @cached_property
    def c(self) -> tuple:
        return self._views(0)

    @cached_property
    def cdag(self) -> tuple:
        return self._views(self.n_modes)

    def car_residual(self) -> float:
        """Worst Frobenius deviation from the canonical anticommutation relations.

        Stacked c first, the pairs (c_i, c_j) and (cdag_i, cdag_j) with i <= j
        and (c_i, cdag_j) are exactly the pairs x <= y of rows of `_tables`.
        Each anticommutator XY + YX, minus the identity row when Y is X's
        adjoint, is one sum of `_worst_residual`, exact in small integers.
        """
        weights, masks = self._tables
        x, y = np.triu_indices(2 * self.n_modes)
        eye = np.full(x.size, 2 * self.n_modes)
        return _worst_residual(masks, [(1, weights, x, weights, y), (1, weights, y, weights, x)],
                               [(-1 * (y == x + self.n_modes), weights, eye)])


def build_fermion_ops(lattice: Lattice) -> FermionOps:
    """Exact fermion operators, one mode per (site, spin), as their column table.

    c[x] empties an occupied mode x with sign (-1)^(occupied modes before x):
    the Jordan-Wigner string runs over modes in site-major order (mode =
    2 * site + spin), which fixes all sign conventions.
    """
    _check_fock_cap(lattice)  # before the table is allocated
    n_modes = 2 * lattice.n_sites
    occupied = (np.arange(1 << n_modes) >> (n_modes - 1 - np.arange(n_modes))[:, None]) & 1
    before = np.cumsum(occupied, axis=0) - occupied
    weights = (occupied * (-1) ** before).astype(complex)
    return FermionOps(lattice=lattice, weights=weights)


@dataclass(frozen=True)
class CurrentOps:
    """Density rho(a), antisymmetric flux j(a, b), symmetric flux k(a, b),
    and directed hop v(a, b) = cdag_b c_a for one spin channel."""

    rho: object
    j: object
    k: object
    v: object


def current_ops(ops: FermionOps, a: int, b: int, sigma: int) -> CurrentOps:
    """Current-algebra generators for the ordered site pair (a, b) at one spin.

    rho = cdag_a c_a, j = -i (cdag_b c_a - cdag_a c_b),
    k = cdag_b c_a + cdag_a c_b, v = (k + i j) / 2 = cdag_b c_a.
    Coincident sites are allowed: j(a, a) = 0, k(a, a) = 2 rho(a),
    v(a, a) = rho(a).
    """
    ma = ops.mode(a, sigma)
    mb = ops.mode(b, sigma)
    ca, cb = ops.c[ma], ops.c[mb]
    da, db = ops.cdag[ma], ops.cdag[mb]
    rho = da @ ca
    jop = -1j * (db @ ca - da @ cb)
    kop = db @ ca + da @ cb
    vop = 0.5 * (kop + 1j * jop)
    return CurrentOps(rho=rho, j=jop, k=kop, v=vop)


@dataclass(frozen=True)
class AlgebraReport:
    """Residuals of the five current-algebra commutator identities."""

    max_residual: float
    residuals: dict
    n_checks: int


def _hop_tables(ops: FermionOps):
    """Column tables of every hop v(s, a, b) = cdag_b c_a of `ops`.

    Returns (weights, masks), flattened over (spin, a, b) at row
    (s * n + a) * n + b: column col of the hop holds weights[row, col] in
    Fock row col ^ masks[row].  c_a sends column col to col ^ mask(c_a),
    where cdag_b reads it, so all hops are one gather of `FermionOps._tables`;
    a hop's mask is the XOR of its two modes' bits, 0 when a == b.
    """
    n = ops.lattice.n_sites
    tables, masks = ops._tables
    s, a, b = np.indices((2, n, n)).reshape(3, -1)
    ma, mb = 2 * a + s, ops.n_modes + 2 * b + s
    cols = np.arange(ops.dim)
    return tables[mb[:, None], cols ^ masks[ma, None]] * tables[ma], masks[ma] ^ masks[mb]


def _worst_residual(masks, products, singles) -> float:
    """Largest Frobenius norm, over site tuples, of a sum of column tables.

    The sum is, per tuple t, sum(sign X[ix[t]] Y[iy[t]]) over `products`
    (sign +-1, X, ix, Y, iy) plus sum(coef[t] Z[iz[t]]) over `singles`
    (coef, Z, iz); X, Y and Z are column tables sharing `masks`.  Column
    col of XY holds X[col ^ mask(Y)] Y[col].  Every term with a nonzero
    coefficient in the identities checked here moves the same bits (a
    Kronecker delta removes two equal mode bits from the XOR), so the terms
    add column by column.

    The masks take few distinct values, so the column permutations
    cols ^ mask are the rows of one table built per call: a chunk gathers
    X[ix] read through Y's mask as one flat `take` of X at that table row
    plus ix * dim, into buffers that every chunk reuses.  The indices are
    trusted to address rows of the tables.  A single's coefficients are
    Kronecker deltas, mostly zero, so each single is reduced once to its
    nonzero tuples, and a chunk adds only those that fall inside it.
    Weights are small Gaussian integers, so every sum is an exact Gaussian
    integer, and each squared norm, summed by einsum over the real and
    imaginary parts alike, is an exact integer in any order of summation.
    """
    n_tuples = len(products[0][2])
    dim = products[0][1].shape[1]
    uniq, qid = np.unique(masks, return_inverse=True)
    perms = np.arange(dim) ^ uniq[:, None]
    gathers = [(sign > 0, np.asarray(x, complex).ravel(), ix * dim, qid[iy],
                np.asarray(y, complex), iy) for sign, x, ix, y, iy in products]
    nonzero = []
    for coef, z, iz in singles:
        hit = np.flatnonzero(coef)
        nonzero.append((hit, coef[hit, None], z, iz[hit]))
    chunk = max(1, min(n_tuples, _CHUNK_ENTRIES // dim))
    # chunk buffers reused by every chunk: `take` writes straight into `out`
    # only in mode "clip", and every index built here is in range
    index_buf, value_bufs = np.empty((chunk, dim), perms.dtype), np.empty((3, chunk, dim), complex)
    worst = 0.0
    for start in range(0, n_tuples, chunk):
        cut = slice(start, start + chunk)
        size = min(chunk, n_tuples - start)
        idx, (diff, term, rows) = index_buf[:size], value_bufs[:, :size]
        for k, (plus, x, base, row, y, iy) in enumerate(gathers):
            np.take(perms, row[cut], axis=0, out=idx, mode="clip")
            idx += base[cut, None]
            out = term if k else diff
            np.take(x, idx, out=out, mode="clip")
            out *= np.take(y, iy[cut], axis=0, out=rows, mode="clip")
            if k == 0:
                if not plus:
                    np.negative(diff, out=diff)
            elif plus:
                diff += term
            else:
                diff -= term
        for hit, coef, z, iz in nonzero:
            lo, hi = np.searchsorted(hit, (start, start + chunk))
            if lo < hi:
                diff[hit[lo:hi] - start] += coef[lo:hi] * z[iz[lo:hi]]
        flat = diff.view(np.float64)
        worst = max(worst, float(np.einsum("ij,ij->i", flat, flat).max()))
    return math.sqrt(worst)


def _current_tables(lattice: Lattice, ops: FermionOps | None):
    """`FermionOps._currents` of ops, or of a fresh build_fermion_ops(lattice)
    when ops is None; a given ops builds its tables once for every check."""
    if ops is None:
        ops = build_fermion_ops(lattice)
    elif ops.lattice != lattice:
        raise ValueError("ops were built for another lattice")
    return ops._currents


def _row(n: int, s, a, b):
    """Table row of (spin, a, b)."""
    return (s * n + a) * n + b


def check_commutators(lattice: Lattice, ops: FermionOps | None = None) -> AlgebraReport:
    """Exhaustively verify the current-algebra commutators on a small lattice.

    All five identities are evaluated over every site tuple (coincident
    indices included) and every spin pair; cross-spin commutators must
    vanish.  Residuals are Frobenius norms of (LHS - RHS), evaluated on
    column tables of the Jordan-Wigner operators (see `_hop_tables`) for all
    tuples of a chunk at once; rho(a) is the hop v(a, a). Pass the lattice's
    operators as ops to reuse a build; by default they are built here.
    """
    n = lattice.n_sites
    v, jop, kop, masks = _current_tables(lattice, ops)

    def comm(x, ix, y, iy):
        return [(1, x, ix, y, iy), (-1, y, iy, x, ix)]

    s1, s2, a, m, nn = np.indices((2, 2, n, n, n)).reshape(5, -1)
    rho, mn = _row(n, s1, a, a), _row(n, s2, m, nn)
    coef = (s1 == s2) * ((a == nn).astype(int) - (a == m))
    residuals = {
        "density_flux": _worst_residual(masks, comm(v, rho, jop, mn), [(1j * coef, kop, mn)]),
        "density_sym": _worst_residual(masks, comm(v, rho, kop, mn), [(-1j * coef, jop, mn)]),
    }
    n_checks = 2 * a.size

    s1, s2, a, b, m, nn = np.indices((2, 2, n, n, n, n)).reshape(6, -1)
    ab, mn = _row(n, s1, a, b), _row(n, s2, m, nn)
    same = 1j * (s1 == s2)
    am, an, bn, bm = (same * (a == m), same * (a == nn), same * (b == nn), same * (b == m))

    # RHS = i sum(+-[x == y] Z(p, r)) at equal spins; `same` holds i [s1 == s2]
    def rhs(z, *terms):
        return [(-delta, z, _row(n, s2, p, r)) for delta, p, r in terms]

    residuals["flux_flux"] = _worst_residual(masks, comm(jop, ab, jop, mn), rhs(
        jop, (-am, b, nn), (an, b, m), (-bn, a, m), (bm, a, nn)))
    residuals["flux_sym"] = _worst_residual(masks, comm(jop, ab, kop, mn), rhs(
        kop, (-am, nn, b), (-an, m, b), (bn, m, a), (bm, nn, a)))
    residuals["sym_sym"] = _worst_residual(masks, comm(kop, ab, kop, mn), rhs(
        jop, (am, nn, b), (an, m, b), (bn, m, a), (bm, nn, a)))
    n_checks += 3 * a.size
    return AlgebraReport(
        max_residual=max(residuals.values()),
        residuals=residuals,
        n_checks=n_checks,
    )


@dataclass(frozen=True)
class CompositionReport:
    """Residuals of the directed-hop composition and roundtrip laws.

    `coincident_gap` reports the literal LHS - RHS mismatch of the
    roundtrip law at coincident endpoints (a, a), where it degenerates:
    v(a, a) v(a, a) = rho(a) while rho(a)(1 - rho(a)) = 0.  It is exposed
    for documentation and excluded from `max_residual`; the exact
    statements at a = b are idempotence and complement annihilation.
    """

    max_residual: float
    composition_residual: float
    roundtrip_residual: float
    idempotence_residual: float
    complement_residual: float
    coincident_gap: float
    n_checks: int


def check_composition(lattice: Lattice, ops: FermionOps | None = None) -> CompositionReport:
    """Exhaustively verify the hop composition and roundtrip laws.

    Composition: v(a, b) v(m, n) = [a == n] v(m, b) + [m == n] v(a, b)
    - v(m, b) v(a, n), over all site 4-tuples and both spins.
    Roundtrip: v(a, b) v(b, a) = rho(b)(1 - rho(a)) for a != b.
    Evaluated on the column tables of `_current_tables`.  Complement
    annihilation rho(1 - rho) = 0 is the negated idempotence residual
    rho rho - rho, so the two share one norm. ops as in check_commutators.
    """
    n = lattice.n_sites
    v, _, _, masks = _current_tables(lattice, ops)
    s, a, b, m, nn = np.indices((2, n, n, n, n)).reshape(5, -1)
    mb, ab = _row(n, s, m, b), _row(n, s, a, b)
    comp = _worst_residual(
        masks, [(1, v, ab, v, _row(n, s, m, nn)), (1, v, mb, v, _row(n, s, a, nn))],
        [(-1 * (a == nn), v, mb), (-1 * (m == nn), v, ab)])
    n_checks = a.size

    # v(a, b) v(b, a) - rho(b) (1 - rho(a)) = v(a, b) v(b, a) + rho(b) rho(a) - rho(b)
    s, a, b = np.indices((2, n, n)).reshape(3, -1)
    ab, ba, aa, bb = _row(n, s, a, b), _row(n, s, b, a), _row(n, s, a, a), _row(n, s, b, b)

    def roundtrip(sel):
        return _worst_residual(masks, [(1, v, ab[sel], v, ba[sel]), (1, v, bb[sel], v, aa[sel])],
                               [(-np.ones(sel.sum()), v, bb[sel])])

    apart = a != b
    roundtrip_residual, gap = roundtrip(apart), roundtrip(~apart)
    n_checks += a.size

    aa = aa[~apart]
    idem = _worst_residual(masks, [(1, v, aa, v, aa)], [(-np.ones(aa.size), v, aa)])
    n_checks += 2 * aa.size
    return CompositionReport(
        max_residual=max(comp, roundtrip_residual, idem),
        composition_residual=comp,
        roundtrip_residual=roundtrip_residual,
        idempotence_residual=idem,
        complement_residual=idem,
        coincident_gap=gap,
        n_checks=n_checks,
    )


# ---------------------------------------------------------------------------
# single-vertex representation


@dataclass(frozen=True)
class VertexMatrices:
    """4x4 hop and density maps on one vertex, basis order BASIS_STATES."""

    v_up: np.ndarray
    v_dn: np.ndarray
    rho_up: np.ndarray
    rho_dn: np.ndarray


def vertex_matrices() -> VertexMatrices:
    """Representation matrices of the directed hop and density maps.

    Entry (r, c) of a hop matrix is 1 when the hop can move the spin out of
    a source vertex in state c and deposit it on a target vertex reaching
    state r; density maps project onto the states containing that spin.
    Arrays are returned read-only.
    """
    v_up = np.array(
        [[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float
    )
    v_dn = np.array(
        [[0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0]], dtype=float
    )
    rho_up = np.diag([1.0, 1.0, 0.0, 0.0])
    rho_dn = np.diag([1.0, 0.0, 1.0, 0.0])
    for arr in (v_up, v_dn, rho_up, rho_dn):
        arr.setflags(write=False)
    return VertexMatrices(v_up=v_up, v_dn=v_dn, rho_up=rho_up, rho_dn=rho_dn)


# ---------------------------------------------------------------------------
# stationary energy


def _count_table() -> np.ndarray:
    """Counts of one energy term at row 64 * kind + 16 * c0 + 4 * c1 + c2.

    c0, c1, c2 are the codes of the term's three sites, padded with a
    phantom hole.  Kinds: 0 a site (a, -, -), 1 a bond (a, b, -), 2 a
    diagonal pair (center, m, n), the last two in both directions.  Columns:
    doubles, bond hop channels (spins that differ between the two ends),
    bond hole pairs, diagonal hop channels, hole-gated diagonal hop channels.
    """
    c0, c1, c2 = np.indices((4, 4, 4)).reshape(3, 64)
    channels = np.array(_CODE_ELECTRONS)
    table = np.zeros((3, 64, 5), dtype=np.uint8)
    table[0, :, 0] = c0 == 3
    table[1, :, 1] = channels[c0 ^ c1]
    table[1, :, 2] = 2 * ((c0 | c1) == 0)
    table[2, :, 3] = channels[c1 ^ c2]
    table[2, :, 4] = channels[c1 ^ c2] * (c0 == 0)
    return table.reshape(3 * 64, 5)


_COUNT_TABLE = _count_table()
# counts as 12-bit fields of a uint64: numpy sums 2047 terms (<= 4094 each) at once
_FIELD_SHIFTS = np.arange(0, 60, 12, dtype=np.uint64)
_PACKED_TABLE = (_COUNT_TABLE.astype(np.uint64) << _FIELD_SHIFTS).sum(axis=1, dtype=np.uint64)
_COUNT_ROWS = 1 << 14       # code rows counted per numpy pass


@lru_cache(maxsize=8)
def _terms(lattice: Lattice):
    """Every energy term: (sites (T, 3), first table rows (T,), touch, width).

    Site index n_sites is the phantom hole.  touch[s] lists, for the terms
    on site s, (s0, s1, s2, counts by code index, weight) with the five
    counts packed `width` bits apart (no term counts more than 2, so no
    total reaches 2**width), one counts tuple shared by every term of a
    kind, and weight the digit weight of s in the code index 16 c0 + 4 c1
    + c2 (summed if s occurs twice).
    """
    hole = lattice.n_sites
    terms = [(0, a, hole, hole) for a in range(hole)]
    terms += [(64, a, b, hole) for a, b in lattice.bonds]
    terms += [(128, *t) for t in lattice.nnn_triples if t[1] < t[2]]
    width = (2 * len(terms)).bit_length()
    packed = [sum(c << (width * i) for i, c in enumerate(row)) for row in _COUNT_TABLE.tolist()]
    kinds = {row: tuple(packed[row:row + 64]) for row in (0, 64, 128)}
    touch = [[] for _ in range(hole)]
    for row, *triple in terms:
        for s in set(triple) - {hole}:
            weight = sum(w for w, t in zip((16, 4, 1), triple) if t == s)
            touch[s].append((*triple, kinds[row], weight))
    arr = np.array(terms, dtype=np.intp)
    return arr[:, 1:], arr[:, 0].astype(np.uint8), tuple(map(tuple, touch)), width


def _count_terms(padded: np.ndarray, sites: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The five counts, shape (5, m), of the terms (sites, rows) on padded code rows."""
    counts = np.zeros((5, padded.shape[0]), dtype=np.int64)
    for r in range(0, padded.shape[0], _COUNT_ROWS):
        part, out = padded[r:r + _COUNT_ROWS], counts[:, r:r + _COUNT_ROWS]
        idx = rows + 16 * part[:, sites[:, 0]] + 4 * part[:, sites[:, 1]] + part[:, sites[:, 2]]
        for start in range(0, idx.shape[1], 2047):
            packed = _PACKED_TABLE[idx[:, start:start + 2047]].sum(axis=1, dtype=np.uint64)
            out += ((packed >> _FIELD_SHIFTS[:, None]) & 4095).astype(np.int64)
    return counts


def _term_counts(codes: np.ndarray, lattice: Lattice) -> np.ndarray:
    """The five energy counts, shape (5, m), of code rows of shape (m, n_sites)."""
    sites, rows, _, _ = _terms(lattice)
    padded = np.zeros((codes.shape[0], lattice.n_sites + 1), dtype=np.uint8)
    padded[:, :-1] = codes
    return _count_terms(padded, sites, rows)


def _combine(counts, p: QuiverParams):
    """The energy of its five counts (ints or int arrays), in one fixed order."""
    doubles, hops, hole_pairs, diag_hops, gated_hops = counts
    # "unordered" counts each bond once by averaging both directions
    scale = 1.0 if p.bond_convention == "ordered" else 0.5
    e = p.U * doubles - (p.t * scale) * hops + (2.0 * p.k * scale) * hole_pairs
    if p.alpha_q:
        e = e - (2.0 * p.J) * diag_hops
    if p.beta_q:
        e = e - (2.0 * p.J) * gated_hops
    return e


def energy_batch(up, dn, lattice: Lattice, p: QuiverParams) -> np.ndarray:
    """Stationary energies of a batch of occupation patterns.

    up, dn: arrays of shape (m, n_sites) with 0/1 entries.  The energy of
    a row is

        U * sum_a n_up n_dn
        - t * sum_(a,b),sigma n_sigma(b) (1 - n_sigma(a))
        + k * sum_(a,b),sigma h(a) h(b)
        - J * sum_a,sigma (alpha_q + beta_q h(a))
              * sum_(m,n) in diag(a), sigma' n_sigma'(n) (1 - n_sigma'(m))

    with h = (1 - n_up)(1 - n_dn), (a, b) running over ordered bonds (both
    directions; halved under the unordered convention) and diag(a) the
    ordered diagonal neighbor pairs of center a.  The spin sums over
    spin-blind summands contribute their multiplicity literally (factor 2
    on the hole-hole and diagonal terms).

    Every sum above is an integer count read from one term table per
    lattice, combined with the couplings in a fixed scalar order: the energy
    is bitwise invariant under any symmetry that preserves the counts (spin
    flip, lattice symmetries) and equal on every path that evaluates it.
    """
    up = np.asarray(up)
    dn = np.asarray(dn)
    if up.ndim != 2 or up.shape != dn.shape or up.shape[1] != lattice.n_sites:
        raise ValueError("up and dn must both have shape (m, n_sites)")
    if not (np.isin(up, (0, 1)).all() and np.isin(dn, (0, 1)).all()):
        raise ValueError("up and dn entries must be 0 or 1")
    codes = up.astype(np.uint8) + 2 * dn.astype(np.uint8)
    return _combine(_term_counts(codes, lattice), p)


def energy(occ: Occupation, lattice: Lattice, p: QuiverParams) -> float:
    """Stationary energy of one occupation pattern (see energy_batch)."""
    if occ.n_sites != lattice.n_sites:
        raise ValueError("occupation length does not match the lattice")
    return float(_combine(_term_counts(np.array([occ.codes]), lattice), p)[0])


# ---------------------------------------------------------------------------
# ground-state search


_FRONTIER_ENTRIES = 1 << 16  # (partial pattern, slice code) pairs scored per numpy pass
_TABLE_ROWS = 1024          # transfer-table rows gathered per numpy pass
_PRODUCT_ENTRIES = 1 << 15  # partial sums of one min-plus product per numpy pass
# listed minimizers: about 350 B each in a quiver-ground run, which
# diagnoses each distinct hole set once (3x4 open, 6 electrons, all
# couplings 0: 134,596 minimizers, 44 MB above the library import), so
# that a run at the cap peaks near 140 MB above a bare interpreter
_MAX_MINIMIZERS = 200_000
# Cost rule of the exact search, in multiply-adds of its forward pass (about
# 2 ns each on a 2-vCPU Linux VM, Python 3.11, numpy 2.4, timed in fresh
# processes).  One min-plus block product also costs _PRODUCT_MADDS of them
# in numpy call overhead (about 30 us), and one byte of a transfer table or a
# kept state _BYTE_MADDS, more than its time, so that an admitted lattice
# keeps at most _EXACT_BUDGET / _BYTE_MADDS bytes (50 MB).  The budget is about
# 1 s there.  At half filling 4x4 periodic counts 3.2e7 (runs in 0.05 s), 4x6
# periodic 1.1e8 (0.15 s), 4x11 periodic 4.7e8 (0.8 s) and 5x13 open 4.9e8
# (0.7 s); 5x5 periodic counts 1.1e9 (1.9 s) and is left to the annealer.
_PRODUCT_MADDS = 15_000
_BYTE_MADDS = 10
_EXACT_BUDGET = 500_000_000


@lru_cache(maxsize=8)
def _code_classes(width: int):
    """Slice codes in blocks of equal electron count: (codes, electrons, starts).

    codes lists the 4**width slice codes stably sorted by their electron
    count `electrons`; the codes holding c electrons sit at positions
    starts[c]:starts[c + 1].  Every transfer table and forward-pass state
    is indexed by these positions.
    """
    shifts = 2 * np.arange(width)
    count = np.array(_CODE_ELECTRONS)[(np.arange(4 ** width)[:, None] >> shifts) & 3].sum(axis=1)
    codes = np.argsort(count, kind="stable")
    return codes, count[codes], np.searchsorted(count[codes], np.arange(2 * width + 2))


@lru_cache(maxsize=8)
def _code_images(width: int, periodic: bool):
    """The slice group G as images of code positions: (images, distinct, reps).

    G is spin flip x the reflection across a slice, x the w translations
    along it on a ring (|G| = 4 or 4w); applied to every slice it maps each
    table's terms onto themselves.  images[g, i] is the `_code_classes`
    position of g on code i, distinct[g, i] marks the first g of each
    distinct image (distinct[:, i].sum() is the orbit size), and reps lists
    each orbit's least position, in order.
    """
    codes = _code_classes(width)[0]
    r = np.arange(width)
    digits = (codes[:, None] >> 2 * r) & 3
    perms = [np.roll(r, s) for s in range(width if periodic else 1)]
    perms += [m[::-1] for m in perms]
    flips = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])
    images = np.argsort(codes)[np.array([(f[digits[:, m]] << 2 * r).sum(axis=1)
                                         for f in flips for m in perms])]
    distinct = np.array([(images[:g] != image).all(axis=0) for g, image in enumerate(images)])
    return images, distinct, np.flatnonzero(images.min(axis=0) == np.arange(codes.size))


@lru_cache(maxsize=8)
def _ring_firsts(width: int) -> tuple:
    """A ring's first codes per electron class: the orbit representatives in it."""
    reps = _code_images(width, True)[2]
    return tuple(np.split(reps, np.searchsorted(reps, _code_classes(width)[2][1:-1])))


def _slice_shape(lattice: Lattice) -> tuple[int, int, bool]:
    """(n_slices, width, ring): max(lx, ly) slices of min(lx, ly) sites, and whether
    a closing table joins the last slice to the first (periodic, 3 or more slices)."""
    n_slices, width = max(lattice.lx, lattice.ly), min(lattice.lx, lattice.ly)
    return n_slices, width, lattice.boundary == "periodic" and n_slices >= 3


@lru_cache(maxsize=8)
def _slice_plan(lattice: Lattice):
    """Slices along the longer side and the energy terms of each transfer table.

    Returns (slices, parts): slices (L, w) lists the sites of each slice;
    parts[k] = (key, group, span) describes table k < L, over the codes of
    slice 0 (k = 0) or of slices k - 1 and k, from the terms whose highest
    slice is k.  A periodic ring of three or more slices adds parts[L], the
    closing table over slices L - 1 and 0 from the terms between them.
    group holds the terms' (sites, rows) and span the slice indices; key is
    the sorted term list relabeled to positions within the span, so two
    parts with one key have one table.  Each term is in exactly one part:
    on a two-slice ring every term between the slices, wrap bonds included,
    is in parts[1].
    """
    n_slices, width, ring = _slice_shape(lattice)
    grid = np.arange(lattice.n_sites).reshape(lattice.lx, lattice.ly)
    slices = grid if lattice.lx == n_slices else grid.T
    slice_of = np.empty(lattice.n_sites, dtype=np.intp)
    slice_of[slices] = np.arange(n_slices)[:, None]
    sites, rows, _, _ = _terms(lattice)
    owner = []
    for triple in sites.tolist():
        touched = sorted({int(slice_of[s]) for s in triple if s < lattice.n_sites})
        if touched[-1] - touched[0] <= 1:
            owner.append(touched[-1])
        elif touched == [0, n_slices - 1] and ring:
            owner.append(n_slices)
        else:
            raise RuntimeError(f"energy term on sites {triple} spans non-adjacent slices")
    owner = np.array(owner)
    spans = [(0,)] + [(k - 1, k) for k in range(1, n_slices)] + [(n_slices - 1, 0)] * ring
    parts = []
    for k, span in enumerate(spans):
        mine = owner == k
        # the phantom hole takes the position after the span's sites
        position = np.full(lattice.n_sites + 1, len(span) * width)
        for j, s in enumerate(span):
            position[slices[s]] = j * width + np.arange(width)
        relabeled = zip(rows[mine].tolist(), map(tuple, position[sites[mine]].tolist()))
        parts.append(((len(span), tuple(sorted(relabeled))), (sites[mine], rows[mine]), span))
    return slices, tuple(parts)


def _slice_table(lattice: Lattice, p: QuiverParams, group, *slice_sites) -> np.ndarray:
    """Energy of the `group` terms over every code of each given slice.

    A slice code packs the slice's w site codes, site j in bits 2j, 2j + 1;
    the result has one axis per slice over the 4**w codes in the order of
    `_code_classes`.  An entry is `_combine` of counts that the group of
    `_code_images` keeps, so T[g c, g c'] == T[c, c'] bitwise: only the
    rows at representatives of the first slice are counted, _TABLE_ROWS
    entries at a time, and scattered to their images.
    """
    width, n_axes = len(slice_sites[0]), len(slice_sites)
    codes = _code_classes(width)[0]
    images, _, reps = _code_images(width, lattice.boundary == "periodic")
    digits = ((codes[:, None] >> 2 * np.arange(width)) & 3).astype(np.uint8)
    shape = (reps.size,) + (codes.size,) * (n_axes - 1)
    rows = np.empty(math.prod(shape))
    padded = np.zeros((_TABLE_ROWS, lattice.n_sites + 1), dtype=np.uint8)
    for start in range(0, rows.size, _TABLE_ROWS):
        first, *index = np.unravel_index(np.arange(start, min(start + _TABLE_ROWS, rows.size)),
                                         shape)
        chunk = padded[:first.size]
        for sites, code in zip(slice_sites, (reps[first], *index)):
            chunk[:, sites] = digits[code]
        rows[start:start + chunk.shape[0]] = _combine(_count_terms(chunk, *group), p)
    table = np.empty((codes.size,) * n_axes)
    for image in images:
        table[np.ix_(image[reps], *[image] * (n_axes - 1))] = rows.reshape(shape)
    return table


def _transfer_tables(lattice: Lattice, p: QuiverParams):
    """(tables, closing): table k of every slice and, on a ring of three or
    more slices, the closing table indexed [first, last] (None otherwise).
    Each distinct table is built once."""
    slices, parts = _slice_plan(lattice)
    built = {}
    for key, group, span in parts:
        if key not in built:
            built[key] = _slice_table(lattice, p, group, *slices[list(span)])
    tables = [built[key] for key, _, _ in parts]
    closing = tables.pop().T if _slice_shape(lattice)[2] else None
    return tables, closing


def _first_classes(width: int, n_slices: int, electrons: int) -> list:
    """Electron counts of a ring's first slice from which `electrons` is reachable."""
    top = 2 * width
    return [a for a in range(top + 1) if a <= electrons <= a + top * (n_slices - 1)]


def _minplus(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """min over j of rows[..., j] + table[j, :], in blocks of _PRODUCT_ENTRIES sums."""
    flat = rows.reshape(-1, rows.shape[-1])
    step = max(1, _PRODUCT_ENTRIES // table.size)
    out = np.empty((flat.shape[0], table.shape[1]))
    for s in range(0, flat.shape[0], step):
        np.minimum.reduce(flat[s:s + step, :, None] + table, axis=1, out=out[s:s + step])
    return out.reshape(*rows.shape[:-1], table.shape[1])


def _pass_blocks(width: int, n_slices: int, electrons: int, off: int, ring: bool):
    """The min-plus block products of one forward pass, slice by slice.

    Yields (k, n_layers, blocks) for every slice k the pass steps to:
    slice k keeps n_layers layers (the last one only the layer that
    reaches `electrons`), and blocks lists (b, c, i_lo, i_hi), the product
    of prev class b over layers i_lo..i_hi of slice k - 1 with code class
    c.  Those are the layers i for which off + i + b + c, the electrons
    through slice k, lies in [lo, electrons], lo leaving `electrons`
    reachable in the later slices.
    """
    top = 2 * width
    for k in range(ring + 1, n_slices):
        lo = electrons - top * (n_slices - 1 - k)
        n_prev = min(top * (k - 1 - ring), electrons - off) + 1
        blocks = []
        for b in range(top + 1):
            for c in range(top + 1):
                i_lo, i_hi = max(lo - off - b - c, 0), min(electrons - off - b - c, n_prev - 1)
                if i_lo <= i_hi:
                    blocks.append((b, c, i_lo, i_hi))
        yield k, min(top * (k - ring), electrons - off) + 1, blocks


def _forward(tables, closing, electrons: int, firsts=None, keep: bool = False):
    """One min-plus forward pass over the slices, block by electron class.

    firsts: on a ring, positions of first-slice codes that all hold `a`
    electrons (the search passes orbit representatives); None otherwise.
    The state after slice k (from slice 1 on a ring, 0 otherwise) is
    h[f, i, code]: the least DP sum over slices 0..k that ends in `code`
    and holds off + i electrons in slices 0..k-1, off = a on a ring and 0
    otherwise.  A DP sum adds table entries in slice order, T_0 + T_1 +
    ... + T_k, then the closing entry.  Each step takes the block products
    of `_pass_blocks`; every cell they skip, from which `electrons` is out
    of reach, stays inf.

    Returns (total, least): total[f, last] is the least DP sum with
    `electrons` in all (inf where none); least lists (off, h) for slices
    0..L-2 if keep, else None.  A ring's slice 0 state holds T_0 of the
    first code at h[f, 0, firsts[f]] and inf elsewhere.
    """
    n_codes = tables[0].size
    width = (n_codes.bit_length() - 1) // 2
    _, count, starts = _code_classes(width)
    n_slices = len(tables)
    if firsts is None:
        off = 0
        h = tables[0][None, None, :]
        least = [(0, h)]
    else:
        off = int(count[firsts[0]])
        h0 = np.full((firsts.size, 1, n_codes), np.inf)
        h0[np.arange(firsts.size), 0, firsts] = tables[0][firsts]
        h = (tables[0][firsts, None] + tables[1][firsts])[:, None, :]
        least = [(0, h0), (off, h)]
    for k, n_layers, blocks in _pass_blocks(width, n_slices, electrons, off, firsts is not None):
        table = tables[k]
        final = k == n_slices - 1
        g = np.full((h.shape[0], n_codes) if final else (h.shape[0], n_layers, n_codes), np.inf)
        for b, c, i_lo, i_hi in blocks:
            prev, code = slice(starts[b], starts[b + 1]), slice(starts[c], starts[c + 1])
            part = _minplus(h[:, i_lo:i_hi + 1, prev], table[prev, code])
            if final:
                np.minimum(g[:, code], part[:, 0], out=g[:, code])
            else:
                dest = g[:, i_lo + b:i_hi + b + 1, code]
                np.minimum(dest, part, out=dest)
        h = g
        if keep and not final:
            least.append((off, h))
    if n_slices == 1:
        h = np.where(count == electrons, h[:, 0], np.inf)
    if closing is not None:
        h = h + closing[firsts]
    return h, least if keep else None


def _exact_search_work(lattice: Lattice, electrons: int, stop: float = math.inf) -> int:
    """Work units of ground_search_exact's forward pass at `electrons`.

    Counts, in integers from the class sizes C(2w, c), the multiply-adds of
    every min-plus block product of `_pass_blocks`, plus _PRODUCT_MADDS per
    product of each pass (one pass per first-slice class on a ring, over its
    `_ring_firsts`).  Stops counting once the total passes `stop`.
    """
    n_slices, width, ring = _slice_shape(lattice)
    sizes = [math.comb(2 * width, c) for c in range(2 * width + 1)]
    firsts = ([(_ring_firsts(width)[a].size, a) for a in _first_classes(width, n_slices, electrons)]
              if ring else [(1, 0)])
    work = 4 ** width * sum(size for size, _ in firsts) if ring else 0
    for size, off in firsts:
        for _, _, blocks in _pass_blocks(width, n_slices, electrons, off, ring):
            if work > stop:
                return work
            work += sum(size * sizes[b] * sizes[c] * (i_hi - i_lo + 1) for b, c, i_lo, i_hi in blocks)
            work += _PRODUCT_MADDS * len(blocks)
    return work


def _exact_search_bytes(lattice: Lattice) -> int:
    """Bytes of the distinct transfer tables plus the forward states that
    one backtracking pass keeps, at the electron count that keeps the most:
    on a ring a rerun keeps one row per held first code, at most the
    representatives of the largest first-slice class."""
    n_slices, width, ring = _slice_shape(lattice)
    top, n_codes = 2 * width, 4 ** width
    # one layer for slice 0 and, on a ring, one for slice 1
    layers = 1 + ring + sum(top * k + 1 for k in range(1, n_slices - 1 - ring))
    rows = max(reps.size for reps in _ring_firsts(width)) if ring else 1
    # slice 0's table, one shared by every later slice and a ring's closing one
    tables = n_codes + n_codes ** 2 * ((n_slices > 1) + ring)
    return 8 * (tables + rows * layers * n_codes)


@lru_cache(maxsize=64)
def exact_search_fits(lattice: Lattice) -> bool:
    """Whether ground_search_exact accepts the lattice.

    The cost rule: the forward pass's work at half filling, the costliest
    electron count (see `_exact_search_work`), plus _BYTE_MADDS per byte of
    its tables and kept states (`_exact_search_bytes`), both priced from
    `_slice_shape` alone, stays within one budget of about 1 s.  It admits
    every lattice of at most 12 sites, strips of width 4 and 5 up to 4x47
    and 5x13, rings of width 3 and 4 up to 3x48 and 4x11 (narrower ones
    longer), and no ring of width 5 or more.
    """
    n_slices, width, _ = _slice_shape(lattice)
    # at least one table of 16**w entries and one block product per slice
    floor = _BYTE_MADDS * 8 * 16 ** width * (n_slices > 1) + _PRODUCT_MADDS * (n_slices - 1)
    if floor > _EXACT_BUDGET:
        return False
    budget = _EXACT_BUDGET - _BYTE_MADDS * _exact_search_bytes(lattice)
    return budget >= 0 and _exact_search_work(lattice, lattice.n_sites, stop=budget) <= budget


def _energy_bound(lattice: Lattice, p: QuiverParams) -> float:
    """A = sum over all terms of |coupling x largest count|; ValueError if 2 A overflows."""
    _, rows, _, _ = _terms(lattice)
    kinds, n_terms = np.unique(rows, return_counts=True)
    largest = sum(int(m) * _COUNT_TABLE[k:k + 64].max(axis=0).astype(int)
                  for k, m in zip(kinds.tolist(), n_terms.tolist()))
    doubles, hops, hole_pairs, diag_hops, gated_hops = largest.tolist()
    # every coupling is >= 0: negated reward counts make each product positive
    a_max = _combine((doubles, -hops, hole_pairs, -diag_hops, -gated_hops), p)
    if not math.isfinite(2.0 * a_max):
        raise ValueError("couplings too large: energies on this lattice would overflow")
    return a_max


def _rounding_slack(lattice: Lattice, p: QuiverParams, n_items: int) -> float:
    """Margin above the least DP sum within which every true minimizer lies.

    A float sum of j terms is within gamma_j = j u / (1 - j u) times the sum
    of their magnitudes of the exact sum (Higham 2002, sec. 3.1), u = 2**-53.
    With A the `_energy_bound`, an energy (five products) is within
    5.01 u A of its exact value, and a DP sum of n_items table entries (each
    five products) within (n_items + 5.01) u A.
    A true minimizer's DP sum, in any summation order, then exceeds the
    least DP sum by at most 2 (n_items + 5.01) u A + 2 (5.01 u A) <=
    (2 n_items + 21) u A.  The margin doubles that to cover the rounding of
    A and of the threshold, plus 2**-1022 for subnormal products.
    """
    return 2.0 * (2 * n_items + 21) * 2.0 ** -53 * _energy_bound(lattice, p) + 2.0 ** -1022


def ground_search_exact(lattice: Lattice, p: QuiverParams, electrons: int):
    """Exact minimum energy and the complete set of minimizers.

    Returns (min_energy, minimizers) over every occupation with the
    requested electron count, minimizers a tuple of Occupation in
    lexicographic order of the per-site code tuple.

    The lattice is cut into L slices of w = min(lx, ly) sites along its
    longer side; every energy term touches at most two adjacent slices
    (or the last and the first of a periodic ring).  A min-plus transfer
    matrix over the 4**w slice codes, grouped by electron count, runs over
    the state (first slice code on a periodic ring, current slice code,
    electrons so far), visiting only the states from which the requested
    count stays reachable (see `_forward`).  The DP sums table entries in
    floating point, so it can differ from the energy in the last bits:
    backtracking keeps every pattern whose DP sum lies within a proven
    rounding margin of the least one, and the minimum and its minimizers
    are decided on each candidate's energy recomputed from its integer
    counts, bitwise equal to `energy`.  A ring runs one forward pass per
    reachable electron class of its first slice, over the class's orbit
    representatives (`_code_images`; an open strip runs one pass), and
    reruns it, keeping its states from slice 0 on, for the representatives
    that hold a candidate.  g maps the patterns from first code F onto
    those from g F at equal DP sums, so one g per distinct image of F maps
    F's minimizers onto the rest of its orbit.

    Raises ValueError for a lattice that `exact_search_fits` rejects, for
    an electron count outside 0..2 n_sites, for couplings so large that an
    energy could overflow (no finite rounding margin exists then), and
    once more than _MAX_MINIMIZERS candidates are found (a ring's once per
    code of the first code's orbit), before any Occupation is built.
    """
    n = lattice.n_sites
    if not exact_search_fits(lattice):
        raise ValueError(
            f"the exact transfer-matrix search on {lattice.lx}x{lattice.ly} {lattice.boundary} "
            f"exceeds its cost budget; use ground_search_anneal for this lattice"
        )
    if not 0 <= electrons <= 2 * n:
        raise ValueError(f"electron count must lie in 0..{2 * n}")
    slices, parts = _slice_plan(lattice)
    n_slices, width, _ = _slice_shape(lattice)
    codes, count, _ = _code_classes(width)
    n_codes = codes.size
    slack = _rounding_slack(lattice, p, len(parts))
    tables, closing = _transfer_tables(lattice, p)

    # a ring's passes, one per reachable class of first codes over the
    # class's orbit representatives, an open strip's one kept pass as None;
    # each keeps the (row, last) pairs within the running margin
    passes = [None] if closing is None else [
        _ring_firsts(width)[a] for a in _first_classes(width, n_slices, electrons)]
    low, near = math.inf, []
    for firsts in passes:
        total, least = _forward(tables, closing, electrons, firsts, keep=closing is None)
        low = min(low, float(total.min()))
        row, last = np.nonzero(total <= low + slack)
        near.append((firsts, row, last, total[row, last], least))
    threshold = low + slack

    # backtracking, depth first in chunks of `step`: a partial pattern fixes
    # slices k..L-1 (path), its row in the pass's first codes, its
    # electrons in slices 0..k and the DP sum of its tables above slice k
    best = math.inf
    best_paths: list = []
    n_candidates = 0
    shifts = 2 * np.arange(width)
    images, distinct, _ = _code_images(width, lattice.boundary == "periodic")

    def decode(paths):
        site_codes = np.zeros((paths.shape[0], n), dtype=np.uint8)
        site_codes[:, slices] = (codes[paths][:, :, None] >> shifts) & 3
        return site_codes

    every = np.arange(n_codes)
    step = max(1, _FRONTIER_ENTRIES // n_codes)
    for firsts, row, last, value, least in near:
        row, last = row[value <= threshold], last[value <= threshold]
        if row.size == 0:
            continue
        if firsts is not None:
            # rerun the pass, keeping its states, for the first codes that hold a candidate
            held = np.flatnonzero(np.bincount(row))
            firsts, row = firsts[held], np.searchsorted(held, row)
            least = _forward(tables, closing, electrons, firsts, keep=True)[1]
        rest = np.zeros(row.size) if firsts is None else closing[firsts[row], last]
        stack = [(n_slices - 1, row, last[:, None], np.full(row.size, electrons), rest)]
        while stack:
            k, row, path, e, rest = stack.pop()
            if row.size > step:
                stack.append((k, row[step:], path[step:], e[step:], rest[step:]))
                row, path, e, rest = row[:step], path[:step], e[:step], rest[:step]
            if k == 0:
                # a ring's candidate stands for one per code of its first code's orbit
                n_candidates += row.size if firsts is None else int(distinct[:, path[:, 0]].sum())
                if n_candidates > _MAX_MINIMIZERS:
                    raise ValueError(
                        f"more than {_MAX_MINIMIZERS} candidate minimizers on this input; "
                        f"the exact search lists at most {_MAX_MINIMIZERS}")
                e_cand = _combine(_term_counts(decode(path), lattice), p)
                emin = float(e_cand.min())
                if emin < best:
                    best = emin
                    best_paths = []
                if emin == best:
                    best_paths.append(path[e_cand == best])
                continue
            # a finite DP sum holds at least the slice's electrons, so e stays >= 0
            e = e - count[path[:, 0]]
            rest = tables[k][:, path[:, 0]].T + rest[:, None]
            off, h = least[k - 1]
            layer = e[:, None] - off - count
            inside = (layer >= 0) & (layer < h.shape[1])
            dp = np.where(inside, h[row[:, None], np.clip(layer, 0, h.shape[1] - 1), every],
                          np.inf) + rest
            hit, prev = np.nonzero(dp <= threshold)
            path = np.concatenate((prev[:, None], path[hit]), axis=1)
            stack.append((k - 1, row[hit], path, e[hit], rest[hit, prev]))
    paths = np.concatenate(best_paths)
    if closing is not None:
        # the minimizers from first code g F are g applied to those from F:
        # one g per distinct image of each first code, so no row repeats
        paths = np.concatenate([image[paths[d[paths[:, 0]]]] for image, d in zip(images, distinct)])
    rows = decode(paths)
    # lexicographic order of the code tuples, site 0 first
    rows = rows[np.lexsort(rows.T[::-1])]
    minimizers = []
    for s in range(0, rows.shape[0], 1 << 16):
        minimizers.extend(Occupation(tuple(row)) for row in rows[s:s + (1 << 16)].tolist())
    return best, tuple(minimizers)


_RAW_BLOCK = 4096           # PCG64 words the annealer reads per block
_MOVE_CACHE = 1 << 14       # move outcomes the annealer keeps before clearing them all
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _pcg64(rng):
    """The PCG64 bit generator of a numpy Generator, else TypeError."""
    bitgen = getattr(rng, "bit_generator", None)
    if not isinstance(bitgen, np.random.PCG64):
        name = type(bitgen or rng).__name__
        raise TypeError(f"rng must be a numpy Generator on PCG64, got {name}")
    return bitgen


def _pcg64_blocks(rng, bounds):
    """Per-block draw tables of a PCG64 Generator's raw stream.

    Returns (refill, close, buffered), buffered being whether the rng holds
    a 32-bit half.  refill(k) reads _RAW_BLOCK words and returns the lists
    (doubles, *halves) and the start (1, 0): entry 1 + i of a list is of
    word i, entry 0 of entry k of the last block (at first, the rng's kept
    half).  A double is rng.random()'s (w >> 11) * 2**-53.  For each bound
    b, the low and the high half x of each word give rng.integers(0, b)'s
    Lemire draw (x * b) >> 32, or -1 where numpy rejects x.  close(i, k,
    buffered) leaves the rng past the words before entry i, keeping entry
    k's high half.  The rng must be PCG64, else TypeError."""
    bitgen = _pcg64(rng)
    start = bitgen.state
    # numpy keeps a consumed half, and rejects low products below (2**32 - b) % b
    words = np.full(_RAW_BLOCK + 1, np.uint64(start["uinteger"]) << _SHIFT32)
    limits = [(np.uint64(b), np.uint64((2 ** 32 - b) % b)) for b in bounds]
    read = 0

    def refill(k):
        nonlocal read
        words[0] = words[k]
        words[1:] = bitgen.random_raw(_RAW_BLOCK)
        read += 1
        halves = np.stack((words & _LOW32, words >> _SHIFT32))
        tables = [((words >> np.uint64(11)) * 2.0 ** -53).tolist()]
        for b, floor in limits:
            m = halves * b
            draws = (m >> _SHIFT32).astype(np.int64)
            tables += np.where((m & _LOW32) >= floor, draws, -1).tolist()
        return (*tables, 1, 0)

    def close(i, k, buffered):
        bitgen.state = start
        bitgen.advance((read - 1) * _RAW_BLOCK + i - 1)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = int(buffered), int(words[k] >> _SHIFT32)
        bitgen.state = state

    return refill, close, bool(start["has_uint32"])


def _site_change(codes: list, touch: tuple, site: int, code: int) -> int:
    """Set codes[site] = code; return the change of the packed term counts.

    The write moves each touching term's table row by the site's digit
    weight times the code step, so every term is read once at each row.
    """
    step = code - codes[site]
    delta = 0
    for a, b, c, table, weight in touch[site]:
        row = 16 * codes[a] + 4 * codes[b] + codes[c]
        delta += table[row + weight * step] - table[row]
    codes[site] = code
    return delta


@dataclass(frozen=True)
class AnnealResult:
    """Best state found by simulated annealing.

    Iterating the result yields (best_energy, best_occupation); `trace`
    holds the running energy after each sweep and `n_accepted` the number
    of accepted moves.
    """

    best_energy: float
    best_occupation: Occupation
    trace: tuple
    n_accepted: int

    def __iter__(self):
        return iter((self.best_energy, self.best_occupation))


def ground_search_anneal(lattice: Lattice, p: QuiverParams, electrons: int,
                         schedule=None, rng=None) -> AnnealResult:
    """Simulated annealing over occupation patterns at fixed electron count.

    schedule = (T_init, cooling, sweeps): the temperature starts at T_init
    (0 <= T_init < inf; 0 is greedy descent) and is multiplied by cooling
    after each sweep of 2 * n_sites proposed moves: an electron's relocation
    to an empty spin slot or an on-site spin flip.  Moves change the five
    integer energy counts by exact differences, so every energy is bitwise
    `energy` of its state.  Move outcomes are cached under the state they
    were proposed from (at most _MOVE_CACHE, cleared whole when full).

    rng must be a PCG64 Generator (np.random.default_rng), else TypeError.
    Draws are read by index from per-block tables (`_pcg64_blocks`), slot
    draws against a 0/1 occupancy list per spin slot and site draws against
    a singly-occupied flag per site; the draws, result and rng end state
    match scalar rng.random() and rng.integers() calls bit for bit.  A bad
    schedule, or couplings that could overflow, raise ValueError, and an rng
    on another bit generator TypeError, before rng is read."""
    n = lattice.n_sites
    if not 0 <= electrons <= 2 * n:
        raise ValueError(f"electron count must lie in 0..{2 * n}")
    _energy_bound(lattice, p)
    if rng is None:
        rng = np.random.default_rng(0)
    if schedule is None:
        schedule = (2.0 * p.t if p.t > 0 else 1.0, 0.95, 2000)
    t_init, cooling, sweeps = schedule
    sweeps = int(sweeps)
    if not 0.0 <= t_init < math.inf or not 0.0 < cooling < 1.0 or sweeps < 1:
        raise ValueError("schedule must be (T_init >= 0 and finite, cooling in (0, 1), "
                         "sweeps >= 1)")

    _pcg64(rng)     # refuse another bit generator before its first draw
    # spin slot 2 * s + sigma is bit sigma of codes[s]; codes[n] is the phantom hole
    codes = [0] * (n + 1)
    for slot in rng.permutation(2 * n)[:electrons].tolist():
        codes[slot >> 1] |= 1 << (slot & 1)

    _, _, touch, width = _terms(lattice)
    shifts = range(0, 5 * width, width)
    mask = (1 << width) - 1
    counts = _term_counts(np.array([codes[:n]]), lattice)[:, 0].tolist()
    packed = sum(c << s for c, s in zip(counts, shifts))
    e_now = best_e = _combine(counts, p)
    energies = {packed: e_now}      # packed counts -> energy, for this run
    best_codes = tuple(codes[:n])
    n_slots = 2 * n
    movable = 0 < electrons < n_slots
    trace, accepted, temp, exp = [], 0, float(t_init), math.exp
    # state key (codes at 2 bits a site) -> {move key: (i, new_i, j, new_j,
    # packed counts, energy)}: the outcome of a move proposed from that state
    key = sum(c << 2 * s for s, c in enumerate(codes[:n]))
    cache, cached = {}, 0
    moves = cache[key] = {}
    # doubles, slot and site draws of low and high halves; pos is the next
    # fresh entry, hp the entry whose high half numpy holds when buffered
    refill, close, buffered = _pcg64_blocks(rng, (n_slots, n))
    dbl, slo, shi, nlo, nhi, pos, hp = refill(0)
    end, dst = _RAW_BLOCK + 1, -1
    full = [codes[s >> 1] >> (s & 1) & 1 for s in range(n_slots)]   # occupied slots
    single = [0 < c < 3 for c in codes[:n]]                         # singly occupied sites
    site_tries = range(64 if n > 1 else 0)      # integers(0, 1) reads no word
    try:
        for _ in range(sweeps):
            for _ in range(n_slots):
                if pos == end:
                    dbl, slo, shi, nlo, nhi, pos, hp = refill(hp)
                pos += 1
                if dbl[pos - 1] < 0.5:
                    if not movable:
                        continue
                    for bit in (1, 0):          # src holds an electron, dst none
                        for _ in range(64):
                            while True:         # a rejected half (-1) is no try
                                if buffered:
                                    slot = shi[hp]
                                else:
                                    if pos == end:
                                        dbl, slo, shi, nlo, nhi, pos, hp = refill(hp)
                                    hp, pos = pos, pos + 1
                                    slot = slo[hp]
                                buffered = not buffered
                                if slot >= 0:
                                    break
                            if full[slot] == bit:
                                break
                        else:
                            slot = -1
                        src, dst = dst, slot
                    if src < 0 or dst < 0:
                        continue
                    move = src * n_slots + dst
                    out = moves.get(move)
                    if out is None:
                        i, j = src >> 1, dst >> 1
                        old_i, old_j = codes[i], codes[j]
                        new_i = old_i ^ (1 << (src & 1))
                        delta = _site_change(codes, touch, i, new_i)
                        new_j = codes[j] ^ (1 << (dst & 1))
                        delta += _site_change(codes, touch, j, new_j)
                        codes[j], codes[i] = old_j, old_i
                else:
                    for _ in site_tries:
                        while True:
                            if buffered:
                                i = nhi[hp]
                            else:
                                if pos == end:
                                    dbl, slo, shi, nlo, nhi, pos, hp = refill(hp)
                                hp, pos = pos, pos + 1
                                i = nlo[hp]
                            buffered = not buffered
                            if i >= 0:
                                break
                        if single[i]:
                            break
                    else:
                        if n > 1 or not single[0]:
                            continue
                        i = 0
                    move = -1 - i
                    out = moves.get(move)
                    if out is None:
                        j = i
                        old_i = codes[i]
                        new_i = new_j = old_i ^ 3
                        delta = _site_change(codes, touch, i, new_i)
                        codes[i] = old_i
                if out is None:
                    new = packed + delta
                    e_new = energies.get(new)
                    if e_new is None:
                        e_new = energies[new] = _combine([new >> s & mask for s in shifts], p)
                    if cached == _MOVE_CACHE:
                        cache.clear()
                        moves = cache[key] = {}
                        cached = 0
                    out = moves[move] = (i, new_i, j, new_j, new, e_new)
                    cached += 1
                d_e = out[5] - e_now
                if d_e > 0.0:
                    if temp <= 0.0:
                        continue
                    if pos == end:
                        dbl, slo, shi, nlo, nhi, pos, hp = refill(hp)
                    pos += 1
                    if dbl[pos - 1] >= exp(-d_e / temp):
                        continue
                i, new_i, j, new_j, packed, e_now = out
                key ^= (codes[i] ^ new_i) << 2 * i
                codes[i] = new_i
                key ^= (codes[j] ^ new_j) << 2 * j
                codes[j] = new_j
                full[2 * i:2 * i + 2] = new_i & 1, new_i >> 1
                full[2 * j:2 * j + 2] = new_j & 1, new_j >> 1
                single[i], single[j] = 0 < new_i < 3, 0 < new_j < 3
                moves = cache.setdefault(key, {})
                accepted += 1
                if e_now < best_e:
                    best_e = e_now
                    best_codes = tuple(codes[:n])
            trace.append(e_now)
            temp *= cooling
    finally:
        close(pos, hp, buffered)

    return AnnealResult(best_e, Occupation(best_codes), tuple(trace), accepted)


# ---------------------------------------------------------------------------
# hole-pairing diagnostics


@dataclass(frozen=True)
class HoleDiagnostics:
    """Hole adjacency summary of one occupation pattern.

    adjacent_pairs counts unordered nearest-neighbor hole pairs,
    diagonal_pairs unordered hole pairs one diagonal step apart, and
    cluster_histogram maps cluster size to count for the connected
    components of the hole set under nearest-neighbor adjacency.
    """

    occupation: Occupation
    hole_count: int
    adjacent_pairs: int
    diagonal_pairs: int
    cluster_histogram: dict
    largest_cluster: int


def pairing_diagnostics(occs, lattice: Lattice) -> tuple:
    """Per-occupation hole pairing report (see HoleDiagnostics)."""
    out = []
    for occ in occs:
        if occ.n_sites != lattice.n_sites:
            raise ValueError("occupation length does not match the lattice")
        hole_list = occ.holes()
        holes = set(hole_list)
        # each unordered hole pair is met once from either end
        adjacent = sum(b in holes for a in hole_list for b in lattice.neighbors[a]) // 2
        diagonal = sum(b in holes for a in hole_list for b in lattice.diagonal_neighbors[a]) // 2
        histogram: dict[int, int] = {}
        seen: set[int] = set()
        for start in hole_list:
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            size = 0
            while stack:
                s = stack.pop()
                size += 1
                for nb in lattice.neighbors[s]:
                    if nb in holes and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            histogram[size] = histogram.get(size, 0) + 1
        out.append(
            HoleDiagnostics(
                occupation=occ,
                hole_count=len(holes),
                adjacent_pairs=adjacent,
                diagonal_pairs=diagonal,
                cluster_histogram=histogram,
                largest_cluster=max(histogram) if histogram else 0,
            )
        )
    return tuple(out)


def energy_estimates(n_sites: int, h: int, p: QuiverParams) -> tuple[float, float]:
    """Crude lowest-energy estimates for h holes on n_sites sites.

    Returns the two closed-form estimates for the canonical flag settings
    (alpha_q, beta_q) = (1, 0) and (0, 1).  They assume a rigid
    antiferromagnetic background and a quadratic hop count, so they are
    displayed next to enumerated minima rather than asserted against them;
    exact minima are typically lower because the spin background is
    optimized freely.
    """
    if h < 0 or n_sites < 1 or h > n_sites:
        raise ValueError("need 0 <= h <= n_sites and n_sites >= 1")
    pairs = (n_sites - h) * (n_sites - h - 1) / 2.0
    e_10 = -p.t * pairs - 4.0 * p.J * h
    e_01 = -p.t * pairs - 2.0 * p.J * h + p.k * h / 2.0
    return e_10, e_01
