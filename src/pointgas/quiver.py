"""Lattice hole-pairing model with an exact operator-algebra backend.

Spin-1/2 electrons live on a rectangular lattice; each site carries one of
four states (doubly occupied, spin up, spin down, hole).  The module has
three layers:

* exact Jordan-Wigner fermion operators on lattices of at most six sites,
  with exhaustive checks of the anticommutation relations, the
  current-operator commutator identities, and the directed-hop composition
  laws (`build_fermion_ops`, `current_ops`, `check_commutators`,
  `check_composition`).  Every hop c†_b c_a maps a Fock basis state to at
  most one basis state, so the two identity checks read each operator into
  a column table (one weight per column, one fixed set of flipped bits) and
  evaluate every product and residual by gathers over all site tuples of a
  chunk at once, exactly in Gaussian-integer arithmetic;
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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

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
_MAX_TUPLE_SITES = 4        # exhaustive 4-tuple sweeps stay affordable
_CHUNK_ENTRIES = 1 << 14    # table entries per site tuple chunk of an algebra check
_MAX_ENUM_STATES = 20_000_000

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


def _fro(mat) -> float:
    """Frobenius norm of a sparse matrix."""
    if mat.nnz == 0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(mat.data) ** 2)))


@dataclass(frozen=True)
class FermionOps:
    """Jordan-Wigner annihilation/creation operators for every lattice mode."""

    lattice: Lattice
    c: tuple
    cdag: tuple
    dim: int

    @property
    def n_modes(self) -> int:
        return 2 * self.lattice.n_sites

    def mode(self, site: int, spin: int) -> int:
        if not 0 <= site < self.lattice.n_sites:
            raise ValueError(f"site index {site} outside lattice")
        if spin not in (SPIN_UP, SPIN_DOWN):
            raise ValueError("spin must be SPIN_UP (0) or SPIN_DOWN (1)")
        return 2 * site + spin

    def car_residual(self) -> float:
        """Worst Frobenius deviation from the canonical anticommutation relations."""
        eye = sparse.identity(self.dim, dtype=complex, format="csr")
        worst = 0.0
        for i in range(self.n_modes):
            for j in range(i, self.n_modes):
                anti = self.c[i] @ self.c[j] + self.c[j] @ self.c[i]
                worst = max(worst, _fro(anti))
                anti = self.cdag[i] @ self.cdag[j] + self.cdag[j] @ self.cdag[i]
                worst = max(worst, _fro(anti))
        for i in range(self.n_modes):
            for j in range(self.n_modes):
                mixed = self.c[i] @ self.cdag[j] + self.cdag[j] @ self.c[i]
                if i == j:
                    mixed = mixed - eye
                worst = max(worst, _fro(mixed))
        return worst


def build_fermion_ops(lattice: Lattice) -> FermionOps:
    """Exact sparse fermion operators, one mode per (site, spin).

    The Jordan-Wigner string runs over modes in site-major order
    (mode = 2 * site + spin), which fixes all sign conventions; any
    consistent ordering satisfies the same algebra.
    """
    n = lattice.n_sites
    if n > _MAX_ALGEBRA_SITES:
        raise ValueError(
            f"lattice has {n} sites; exact Fock operators are capped at "
            f"{_MAX_ALGEBRA_SITES} sites (dimension 4096)"
        )
    n_modes = 2 * n
    eye2 = sparse.identity(2, dtype=complex, format="csr")
    zmat = sparse.csr_matrix(np.diag([1.0 + 0j, -1.0 + 0j]))
    # annihilator in the (empty, occupied) single-mode basis
    lower = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    ann = []
    for mode in range(n_modes):
        acc = None
        for pos in range(n_modes):
            factor = zmat if pos < mode else lower if pos == mode else eye2
            acc = factor if acc is None else sparse.kron(acc, factor, format="csr")
        ann.append(acc)
    cdag = tuple(op.conj().T.tocsr() for op in ann)
    return FermionOps(lattice=lattice, c=tuple(ann), cdag=cdag, dim=2 ** n_modes)


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


def _column_table(op, dim: int):
    """(target, weight) arrays of an operator with at most one entry per column.

    Column col maps to row target[col] with weight[col]; index dim is a sink
    (target dim, weight 0) that also stands for every empty column, so that
    tables compose by gathers.
    """
    csc = sparse.csc_matrix(op)
    csc.sum_duplicates()
    csc.eliminate_zeros()
    counts = np.diff(csc.indptr)
    if counts.max(initial=0) > 1:
        raise ValueError("operator has more than one entry in a column")
    cols = np.flatnonzero(counts)
    target = np.full(dim + 1, dim)
    weight = np.zeros(dim + 1, dtype=complex)
    target[cols] = csc.indices[csc.indptr[cols]]
    weight[cols] = csc.data[csc.indptr[cols]]
    return target, weight


def _hop_tables(ops: FermionOps):
    """Column tables of every hop v(s, a, b) = cdag_b c_a of `ops`.

    Returns (weights, masks), flattened over (spin, a, b) at row
    (s * n + a) * n + b: column col of the hop holds weights[row, col] in
    Fock row col ^ masks[row].  Each hop is one gather of the column tables
    of c_a and cdag_b.  Its mask is the XOR of the Fock bits of its two
    modes (mode 0 is the most significant bit of the kron order), 0 when
    a == b; a ValueError is raised when some column of a hop moves other
    bits.
    """
    n = ops.lattice.n_sites
    c = [_column_table(op, ops.dim) for op in ops.c]
    cdag = [_column_table(op, ops.dim) for op in ops.cdag]
    cols = np.arange(ops.dim)
    weights = np.zeros((2 * n * n, ops.dim), dtype=complex)
    masks = np.zeros(2 * n * n, dtype=np.intp)
    for row, (s, a, b) in enumerate(np.ndindex(2, n, n)):
        ma, mb = ops.mode(a, s), ops.mode(b, s)
        mask = (1 << (ops.n_modes - 1 - ma)) ^ (1 << (ops.n_modes - 1 - mb))
        target_a, weight_a = c[ma]
        target_b, weight_b = cdag[mb]
        weight = (weight_b[target_a] * weight_a)[:ops.dim]
        moved = weight != 0
        if np.any(target_b[target_a][:ops.dim][moved] != cols[moved] ^ mask):
            raise ValueError(f"hop ({s}, {a}, {b}) does not move exactly the bits of its modes")
        weights[row] = weight
        masks[row] = mask
    return weights, masks


def _worst_residual(masks, products, singles) -> float:
    """Largest Frobenius norm, over site tuples, of a sum of column tables.

    The sum is, per tuple t, sum(sign X[ix[t]] Y[iy[t]]) over `products`
    (sign, X, ix, Y, iy) plus sum(coef[t] Z[iz[t]]) over `singles`
    (coef, Z, iz); tables are rows of hop-shaped tables sharing `masks`.
    Column col of XY holds X[col ^ mask(Y)] Y[col].  Every term of an
    identity below moves the same bits (a Kronecker delta removes two equal
    mode bits from the XOR), so the terms add column by column.  Weights are
    small Gaussian integers, so every sum, and the largest squared norm, is
    exact.
    """
    n_tuples = len(products[0][2])
    cols = np.arange(products[0][1].shape[1])
    chunk = max(1, _CHUNK_ENTRIES // cols.size)
    worst = 0.0
    for start in range(0, n_tuples, chunk):
        cut = slice(start, start + chunk)
        diff = 0
        for sign, x, ix, y, iy in products:
            ix, iy = ix[cut], iy[cut]
            diff = diff + sign * x[ix[:, None], cols ^ masks[iy, None]] * y[iy]
        for coef, z, iz in singles:
            diff = diff + coef[cut, None] * z[iz[cut]]
        worst = max(worst, float((diff.real ** 2 + diff.imag ** 2).sum(axis=1).max()))
    return math.sqrt(worst)


def _current_tables(lattice: Lattice):
    """Hop, flux and symmetric-flux column tables, and their shared masks.

    j(a, b) = -i (v(a, b) - v(b, a)) and k(a, b) = v(a, b) + v(b, a) keep one
    entry per column: both hops move the same two bits.
    """
    v, masks = _hop_tables(build_fermion_ops(lattice))
    n = lattice.n_sites
    vt = v.reshape(2, n, n, -1).transpose(0, 2, 1, 3).reshape(v.shape)
    return v, -1j * (v - vt), v + vt, masks


def _row(n: int, s, a, b):
    """Table row of (spin, a, b)."""
    return (s * n + a) * n + b


def check_commutators(lattice: Lattice) -> AlgebraReport:
    """Exhaustively verify the current-algebra commutators on a small lattice.

    All five identities are evaluated over every site tuple (coincident
    indices included) and every spin pair; cross-spin commutators must
    vanish.  Residuals are Frobenius norms of (LHS - RHS), evaluated on
    column tables of the Jordan-Wigner operators (see `_hop_tables`) for all
    tuples of a chunk at once; rho(a) is the hop v(a, a).
    """
    n = lattice.n_sites
    if n > _MAX_TUPLE_SITES:
        raise ValueError(
            f"commutator sweep is exhaustive over site tuples; lattice capped "
            f"at {_MAX_TUPLE_SITES} sites, got {n}"
        )
    v, jop, kop, masks = _current_tables(lattice)

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


def check_composition(lattice: Lattice) -> CompositionReport:
    """Exhaustively verify the hop composition and roundtrip laws.

    Composition: v(a, b) v(m, n) = [a == n] v(m, b) + [m == n] v(a, b)
    - v(m, b) v(a, n), over all site 4-tuples and both spins.
    Roundtrip: v(a, b) v(b, a) = rho(b)(1 - rho(a)) for a != b.
    Evaluated on the column tables of `_current_tables`.  Complement
    annihilation rho(1 - rho) = 0 is the negated idempotence residual
    rho rho - rho, so the two share one norm.
    """
    n = lattice.n_sites
    if n > _MAX_TUPLE_SITES:
        raise ValueError(
            f"composition sweep is exhaustive over site tuples; lattice capped "
            f"at {_MAX_TUPLE_SITES} sites, got {n}"
        )
    v, _, _, masks = _current_tables(lattice)
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


@lru_cache(maxsize=8)
def _terms(lattice: Lattice):
    """Every energy term: (sites (T, 3), first table rows (T,), touch, width).

    Site index n_sites is the phantom hole.  touch[s] lists, for the terms
    on site s, (s0, s1, s2, counts by code index) with the five counts
    packed `width` bits apart: no term counts more than 2, so no total
    reaches 2**width.
    """
    hole = lattice.n_sites
    terms = [(0, a, hole, hole) for a in range(hole)]
    terms += [(64, a, b, hole) for a, b in lattice.bonds]
    terms += [(128, *t) for t in lattice.nnn_triples if t[1] < t[2]]
    width = (2 * len(terms)).bit_length()
    packed = [sum(c << (width * i) for i, c in enumerate(row)) for row in _COUNT_TABLE.tolist()]
    touch = [[] for _ in range(hole)]
    for row, *triple in terms:
        for s in set(triple) - {hole}:
            touch[s].append((*triple, tuple(packed[row:row + 64])))
    arr = np.array(terms, dtype=np.intp)
    return arr[:, 1:], arr[:, 0].astype(np.uint8), tuple(map(tuple, touch)), width


def _count_terms(padded: np.ndarray, sites: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The five counts, shape (5, m), of the terms (sites, rows) on padded code rows."""
    idx = rows + 16 * padded[:, sites[:, 0]] + 4 * padded[:, sites[:, 1]] + padded[:, sites[:, 2]]
    counts = np.zeros((5, padded.shape[0]), dtype=np.int64)
    for start in range(0, idx.shape[1], 2047):
        packed = _PACKED_TABLE[idx[:, start:start + 2047]].sum(axis=1, dtype=np.uint64)
        counts += ((packed >> _FIELD_SHIFTS[:, None]) & 4095).astype(np.int64)
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


_FRONTIER_CHUNK = 4096      # partial patterns extended per numpy pass


def exact_search_fits(lattice: Lattice) -> bool:
    """Whether ground_search_exact accepts the lattice (4**n_sites within the cap)."""
    return 4 ** lattice.n_sites <= _MAX_ENUM_STATES


@lru_cache(maxsize=8)
def _slice_plan(lattice: Lattice):
    """Slices along the longer side and the energy terms of each transfer table.

    Returns (slices, groups, wrap): slices (L, w) lists the sites of each
    slice, groups[k] the (sites, rows) of the terms whose highest slice is
    k, and wrap the terms between the last and the first slice of a
    periodic ring of three or more slices (None otherwise).  Each term is in
    exactly one group: on a two-slice ring every term between the slices,
    wrap bonds included, is in groups[1].
    """
    grid = np.arange(lattice.n_sites).reshape(lattice.lx, lattice.ly)
    slices = grid if lattice.lx >= lattice.ly else grid.T
    n_slices = slices.shape[0]
    slice_of = np.empty(lattice.n_sites, dtype=np.intp)
    slice_of[slices] = np.arange(n_slices)[:, None]
    sites, rows, _, _ = _terms(lattice)
    owner = []
    for triple in sites.tolist():
        touched = sorted({int(slice_of[s]) for s in triple if s < lattice.n_sites})
        if touched[-1] - touched[0] <= 1:
            owner.append(touched[-1])
        elif touched == [0, n_slices - 1] and lattice.boundary == "periodic":
            owner.append(n_slices)
        else:
            raise RuntimeError(f"energy term on sites {triple} spans non-adjacent slices")
    owner = np.array(owner)
    groups = [(sites[owner == k], rows[owner == k]) for k in range(n_slices + 1)]
    wrap = groups.pop()
    return slices, tuple(groups), wrap if wrap[1].size else None


def _slice_table(lattice: Lattice, p: QuiverParams, group, *slice_sites) -> np.ndarray:
    """Energy of the `group` terms over every code of each given slice.

    A slice code packs the slice's w site codes, site j in bits 2j, 2j + 1;
    the result has one axis of 4**w codes per slice.
    """
    width = len(slice_sites[0])
    shape = (4 ** width,) * len(slice_sites)
    codes = np.indices(shape).reshape(len(slice_sites), -1)
    padded = np.zeros((codes.shape[1], lattice.n_sites + 1), dtype=np.uint8)
    for sites, code in zip(slice_sites, codes):
        padded[:, sites] = (code[:, None] >> 2 * np.arange(width)) & 3
    return _combine(_count_terms(padded, *group), p).reshape(shape)


def _rounding_slack(lattice: Lattice, p: QuiverParams, n_items: int) -> float:
    """Margin above the least DP sum within which every true minimizer lies.

    A float sum of j terms is within gamma_j = j u / (1 - j u) times the sum
    of their magnitudes of the exact sum (Higham 2002, sec. 3.1), u = 2**-53.
    With A the sum over all terms of |coupling x largest count|, an energy
    (five products) is within 5.01 u A of its exact value, and a DP sum of
    n_items table entries (each five products) within (n_items + 5.01) u A.
    A true minimizer's DP sum, in any summation order, then exceeds the
    least DP sum by at most 2 (n_items + 5.01) u A + 2 (5.01 u A) <=
    (2 n_items + 21) u A.  The margin doubles that to cover the rounding of
    A and of the threshold, plus 2**-1022 for subnormal products.
    """
    _, rows, _, _ = _terms(lattice)
    kinds, n_terms = np.unique(rows, return_counts=True)
    largest = sum(int(m) * _COUNT_TABLE[k:k + 64].max(axis=0).astype(int)
                  for k, m in zip(kinds.tolist(), n_terms.tolist()))
    doubles, hops, hole_pairs, diag_hops, gated_hops = largest.tolist()
    # every coupling is >= 0: negated reward counts make each product positive
    a_max = _combine((doubles, -hops, hole_pairs, -diag_hops, -gated_hops), p)
    if not math.isfinite(2.0 * a_max):
        raise ValueError("couplings too large: energies on this lattice would overflow")
    return 2.0 * (2 * n_items + 21) * 2.0 ** -53 * a_max + 2.0 ** -1022


def ground_search_exact(lattice: Lattice, p: QuiverParams, electrons: int):
    """Exact minimum energy and the complete set of minimizers.

    Returns (min_energy, minimizers) over every occupation with the
    requested electron count, minimizers a tuple of Occupation in
    lexicographic order of the per-site code tuple.

    The lattice is cut into L slices of w = min(lx, ly) sites along its
    longer side; every energy term touches at most two adjacent slices
    (or the last and the first of a periodic ring).  A min-plus transfer
    matrix over the 4**w slice codes runs over the state (first slice code
    on a periodic ring, current slice code, electrons so far).  The DP sums
    table entries in floating point, so it can differ from the energy in
    the last bits: backtracking keeps every pattern whose DP sum lies within
    a proven rounding margin of the least one, and the minimum and its
    minimizers are decided on each candidate's energy recomputed from its
    integer counts, bitwise equal to `energy`.

    Raises ValueError above the cap of `exact_search_fits`, for an electron
    count outside 0..2 n_sites, and for couplings so large that an energy
    could overflow (no finite rounding margin exists then).
    """
    n = lattice.n_sites
    if not exact_search_fits(lattice):
        raise ValueError(
            f"exact enumeration needs {4 ** n} occupation patterns, above the "
            f"cap {_MAX_ENUM_STATES}; use ground_search_anneal for this lattice"
        )
    if not 0 <= electrons <= 2 * n:
        raise ValueError(f"electron count must lie in 0..{2 * n}")
    slices, groups, wrap = _slice_plan(lattice)
    n_slices, width = slices.shape
    n_codes = 4 ** width
    shifts = 2 * np.arange(width)
    code_electrons = np.array(_CODE_ELECTRONS)[(np.arange(n_codes)[:, None] >> shifts) & 3].sum(axis=1)
    slack = _rounding_slack(lattice, p, n_slices + (wrap is not None))
    tables = [_slice_table(lattice, p, groups[0], slices[0])]
    tables += [_slice_table(lattice, p, groups[k], slices[k - 1], slices[k])
               for k in range(1, n_slices)]

    # forward pass: least[k][first, code, e] is the least DP sum over slices
    # 0..k ending in `code` with e electrons (first = 0 unless on a ring)
    n_first = 1 if wrap is None else n_codes
    reach = np.flatnonzero(code_electrons <= electrons)
    f = np.full((n_first, n_codes, electrons + 1), np.inf)
    f[reach if wrap is not None else 0, reach, code_electrons[reach]] = tables[0][reach]
    least = [f]
    for table in tables[1:]:
        g = np.full_like(f, np.inf)
        for prev in range(n_codes):
            np.minimum(g, f[:, prev, None, :] + table[prev, None, :, None], out=g)
        f = np.full_like(g, np.inf)
        for d in range(min(2 * width, electrons) + 1):
            sel = code_electrons == d
            f[:, sel, d:] = g[:, sel, :electrons + 1 - d]
        least.append(f)
    closing = (np.zeros((1, n_codes)) if wrap is None
               else _slice_table(lattice, p, wrap, slices[-1], slices[0]).T)
    total = f[:, :, electrons] + closing
    threshold = float(total.min()) + slack

    # backtracking, depth first in chunks: a partial pattern fixes slices
    # k..L-1 (path), its first slice code, its electrons in slices 0..k and
    # the DP sum of its tables above slice k
    first, last = np.nonzero(total <= threshold)
    stack = [(n_slices - 1, first, last[:, None], np.full(first.size, electrons),
              closing[first, last])]
    best = math.inf
    best_keys: list = []
    place = 4 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    while stack:
        k, first, path, e, rest = stack.pop()
        if k == 0:
            site_codes = np.zeros((first.size, n), dtype=np.uint8)
            site_codes[:, slices] = (path[:, :, None] >> shifts) & 3
            e_cand = _combine(_term_counts(site_codes, lattice), p)
            emin = float(e_cand.min())
            if emin < best:
                best = emin
                best_keys = []
            if emin == best:
                best_keys.append(site_codes[e_cand == best] @ place)
            continue
        # a finite DP sum holds at least the slice's electrons, so e stays >= 0
        e = e - code_electrons[path[:, 0]]
        rest = tables[k][:, path[:, 0]].T + rest[:, None]
        dp = least[k - 1][first[:, None], np.arange(n_codes), e[:, None]] + rest
        row, prev = np.nonzero(dp <= threshold)
        path = np.concatenate((prev[:, None], path[row]), axis=1)
        first, e, rest = first[row], e[row], rest[row, prev]
        for s in range(0, row.size, _FRONTIER_CHUNK):
            cut = slice(s, s + _FRONTIER_CHUNK)
            stack.append((k - 1, first[cut], path[cut], e[cut], rest[cut]))
    keys = np.sort(np.concatenate(best_keys))
    minimizers = []
    for s in range(0, keys.size, 1 << 16):
        digits = keys[s:s + (1 << 16), None] // place % 4
        minimizers.extend(Occupation(tuple(row)) for row in digits.tolist())
    return best, tuple(minimizers)


def _draw_slot(rng, codes: list, n_slots: int, bit: int) -> int:
    """A random spin slot holding `bit`, or -1 after 64 misses."""
    for _ in range(64):
        slot = int(rng.integers(0, n_slots))
        if codes[slot >> 1] >> (slot & 1) & 1 == bit:
            return slot
    return -1


def _site_change(codes: list, touch: tuple, site: int, code: int) -> int:
    """Set codes[site] = code; return the change of the packed term counts."""
    before = after = 0
    for a, b, c, table in touch[site]:
        before += table[16 * codes[a] + 4 * codes[b] + codes[c]]
    codes[site] = code
    for a, b, c, table in touch[site]:
        after += table[16 * codes[a] + 4 * codes[b] + codes[c]]
    return after - before


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


def ground_search_anneal(
    lattice: Lattice,
    p: QuiverParams,
    electrons: int,
    schedule=None,
    rng=None,
) -> AnnealResult:
    """Simulated annealing over occupation patterns at fixed electron count.

    schedule = (T_init, cooling, sweeps): the temperature starts at T_init
    and is multiplied by cooling after each sweep of 2 * n_sites proposed
    moves.  Moves are single-electron relocation to any empty spin slot and
    an on-site spin flip at a singly occupied site; both preserve the
    electron count.  T_init = 0 gives greedy descent (only downhill or flat
    moves accepted), so the per-sweep energy trace is monotone.  Moves
    change the five integer energy counts by exact differences, so every
    running and best energy is bitwise `energy` of its state and can never
    undercut the exact enumeration minimum.  Deterministic for a given seed.
    """
    n = lattice.n_sites
    if not 0 <= electrons <= 2 * n:
        raise ValueError(f"electron count must lie in 0..{2 * n}")
    if rng is None:
        rng = np.random.default_rng(0)
    if schedule is None:
        schedule = (2.0 * p.t if p.t > 0 else 1.0, 0.95, 2000)
    t_init, cooling, sweeps = schedule
    sweeps = int(sweeps)
    if t_init < 0 or not (0.0 < cooling < 1.0) or sweeps < 1:
        raise ValueError("schedule must be (T_init >= 0, cooling in (0, 1), sweeps >= 1)")

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
    best_codes = tuple(codes[:n])
    n_slots = 2 * n
    movable = 0 < electrons < n_slots
    trace = []
    accepted = 0
    temp = float(t_init)
    exp = math.exp

    for _ in range(sweeps):
        for _ in range(n_slots):
            if rng.random() < 0.5:
                if not movable:
                    continue
                src = _draw_slot(rng, codes, n_slots, 1)
                dst = _draw_slot(rng, codes, n_slots, 0)
                if src < 0 or dst < 0:
                    continue
                i, j = src >> 1, dst >> 1
                old_i, old_j = codes[i], codes[j]
                delta = _site_change(codes, touch, i, old_i ^ (1 << (src & 1)))
                delta += _site_change(codes, touch, j, codes[j] ^ (1 << (dst & 1)))
            else:
                for _ in range(64):
                    i = int(rng.integers(0, n))
                    if codes[i] in (1, 2):
                        break
                else:
                    continue
                j = i
                old_i = old_j = codes[i]
                delta = _site_change(codes, touch, i, old_i ^ 3)
            e_new = _combine([(packed + delta) >> s & mask for s in shifts], p)
            d_e = e_new - e_now
            if d_e <= 0.0 or (temp > 0.0 and rng.random() < exp(-d_e / temp)):
                packed += delta
                e_now = e_new
                accepted += 1
                if e_now < best_e:
                    best_e = e_now
                    best_codes = tuple(codes[:n])
            else:
                codes[j] = old_j
                codes[i] = old_i
        trace.append(e_now)
        temp *= cooling

    return AnnealResult(
        best_energy=best_e,
        best_occupation=Occupation(best_codes),
        trace=tuple(trace),
        n_accepted=accepted,
    )


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
    unique_bonds = {tuple(sorted(b)) for b in lattice.bonds}
    for occ in occs:
        if occ.n_sites != lattice.n_sites:
            raise ValueError("occupation length does not match the lattice")
        holes = set(occ.holes())
        adjacent = sum(1 for a, b in unique_bonds if a in holes and b in holes)
        hole_list = sorted(holes)
        diagonal = 0
        for i, a in enumerate(hole_list):
            for b in hole_list[i + 1:]:
                dx, dy = lattice.displacement(a, b)
                if dx * dx + dy * dy == 2:
                    diagonal += 1
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
