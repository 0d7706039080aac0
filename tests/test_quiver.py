"""Tests for the lattice hole-pairing model."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import sparse

from pointgas import quiver as q


def canonical_params(alpha_q, beta_q, convention="ordered"):
    # U >> t, t > J, 4J > k, 2k > 5J
    return q.QuiverParams(U=100.0, t=1.0, k=1.8, J=0.6,
                          alpha_q=alpha_q, beta_q=beta_q,
                          bond_convention=convention)


def naive_energy(occ, lattice, p):
    """Plain-loop reference for the stationary energy."""
    n = lattice.n_sites
    up = [occ.pair(s)[0] for s in range(n)]
    dn = [occ.pair(s)[1] for s in range(n)]
    hole = [(1 - up[s]) * (1 - dn[s]) for s in range(n)]
    scale = 1.0 if p.bond_convention == "ordered" else 0.5
    e = sum(p.U * up[s] * dn[s] for s in range(n))
    for a, b in lattice.bonds_ordered:
        for spin in (up, dn):
            e -= p.t * scale * spin[b] * (1 - spin[a])
        e += 2.0 * p.k * scale * hole[a] * hole[b]
    for c, m, nn in lattice.nnn_triples:
        w = p.alpha_q + p.beta_q * hole[c]
        for spin in (up, dn):
            e -= 2.0 * p.J * w * spin[nn] * (1 - spin[m])
    return e


def random_occupation(rng, n_sites):
    return q.Occupation(tuple(int(c) for c in rng.integers(0, 4, n_sites)))


@functools.lru_cache(maxsize=None)
def all_patterns(n_sites):
    """Every per-site code tuple, in lexicographic order."""
    return np.array(list(itertools.product(range(4), repeat=n_sites)), dtype=np.uint8)


def brute_force_minima(lattice, p, electron_counts):
    """Oracle: {electrons: (minimum, minimizer code tuples)} over every pattern, by energy_batch."""
    codes = all_patterns(lattice.n_sites)
    up, dn = codes & 1, codes >> 1
    e = q.energy_batch(up, dn, lattice, p)
    electrons = up.sum(axis=1) + dn.sum(axis=1)
    out = {}
    for count in electron_counts:
        e_count = np.where(electrons == count, e, np.inf)
        e_min = e_count.min()
        out[count] = float(e_min), [tuple(row) for row in codes[e_count == e_min].tolist()]
    return out


def rotation_perm(lattice):
    # 90 degree rotation of a square lattice: (x, y) -> (y, lx - 1 - x)
    assert lattice.lx == lattice.ly
    perm = [0] * lattice.n_sites
    for s in range(lattice.n_sites):
        x, y = lattice.coords(s)
        perm[s] = lattice.site(y, lattice.lx - 1 - x)
    return perm


def translation_perm(lattice, dx, dy):
    perm = [0] * lattice.n_sites
    for s in range(lattice.n_sites):
        x, y = lattice.coords(s)
        perm[s] = lattice.site((x + dx) % lattice.lx, (y + dy) % lattice.ly)
    return perm


class TestLattice:
    def test_site_coords_roundtrip(self):
        lat = q.Lattice(3, 4, "open")
        for s in range(12):
            x, y = lat.coords(s)
            assert lat.site(x, y) == s

    def test_bond_counts(self):
        assert len(q.Lattice(3, 3, "open").bonds) == 12
        assert len(q.Lattice(3, 3, "periodic").bonds) == 18
        assert len(q.Lattice(2, 1, "open").bonds) == 1

    def test_ordered_bonds_double_the_list(self):
        lat = q.Lattice(3, 3, "open")
        assert len(lat.bonds_ordered) == 2 * len(lat.bonds)
        assert set(lat.bonds_ordered) == {(a, b) for a, b in lat.bonds} | {
            (b, a) for a, b in lat.bonds
        }

    def test_periodic_four_incident_bonds_per_site(self):
        lat = q.Lattice(3, 3, "periodic")
        incid = [0] * lat.n_sites
        for a, b in lat.bonds:
            incid[a] += 1
            incid[b] += 1
        assert incid == [4] * lat.n_sites

    def test_width_two_periodic_keeps_double_bonds(self):
        lat = q.Lattice(2, 3, "periodic")
        incid = [0] * lat.n_sites
        pair_mult = {}
        for a, b in lat.bonds:
            incid[a] += 1
            incid[b] += 1
            key = tuple(sorted((a, b)))
            pair_mult[key] = pair_mult.get(key, 0) + 1
        assert incid == [4] * lat.n_sites
        assert max(pair_mult.values()) == 2  # wrap across the width-2 axis

    def test_diagonal_triples_count(self):
        # 3x3 open: 4 corners x 2 + 4 edges x 4 + 1 center x 8 ordered pairs
        assert len(q.Lattice(3, 3, "open").nnn_triples) == 32
        assert len(q.Lattice(2, 2, "open").nnn_triples) == 8
        # chains have no diagonal neighbor pairs at squared distance 2
        assert q.Lattice(3, 1, "open").nnn_triples == ()
        assert q.Lattice(6, 1, "open").nnn_triples == ()

    def test_diagonal_triples_geometry(self):
        for boundary in ("open", "periodic"):
            lat = q.Lattice(3, 3, boundary)
            for a, m, n in lat.nnn_triples:
                assert m != n
                assert m in lat.neighbors[a] and n in lat.neighbors[a]
                dx, dy = lat.displacement(m, n)
                assert dx * dx + dy * dy == 2

    def test_min_image_displacement(self):
        lat = q.Lattice(3, 3, "periodic")
        a = lat.site(0, 0)
        b = lat.site(0, 2)
        assert lat.displacement(a, b) == (0, -1)
        assert lat.displacement(b, a) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            q.Lattice(0, 3, "open")
        with pytest.raises(ValueError):
            q.Lattice(3, 3, "twisted")
        with pytest.raises(ValueError):
            q.Lattice(1, 6, "periodic")
        with pytest.raises(ValueError):
            q.Lattice(3, 3, "open").site(3, 0)
        with pytest.raises(ValueError):
            q.Lattice(3, 3, "open").coords(9)


class TestQuiverParams:
    def test_canonical_settings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = canonical_params(1, 0)
            assert p.canonical
            p = canonical_params(0, 1)
            assert p.canonical

    def test_non_canonical_flags_warn(self):
        for alpha_q, beta_q in ((0, 0), (1, 1)):
            with pytest.warns(UserWarning, match="non-canonical"):
                p = q.QuiverParams(U=1.0, t=1.0, k=0.0, J=0.0,
                                   alpha_q=alpha_q, beta_q=beta_q)
            assert not p.canonical

    def test_validation(self):
        with pytest.raises(ValueError):
            q.QuiverParams(U=-1.0, t=1.0, k=0.0, J=0.0, alpha_q=1, beta_q=0)
        with pytest.raises(ValueError):
            q.QuiverParams(U=1.0, t=math.inf, k=0.0, J=0.0, alpha_q=1, beta_q=0)
        with pytest.raises(ValueError):
            q.QuiverParams(U=1.0, t=1.0, k=0.0, J=0.0, alpha_q=2, beta_q=0)
        with pytest.raises(ValueError):
            q.QuiverParams(U=1.0, t=1.0, k=0.0, J=0.0, alpha_q=1, beta_q=0,
                           bond_convention="both")


class TestOccupation:
    def test_pair_roundtrip(self):
        occ = q.Occupation.from_pairs([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert occ.codes == (0, 1, 2, 3)
        assert [occ.pair(s) for s in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert occ.electron_count == 4
        assert occ.holes() == (0,)
        assert str(occ) == ".ud2"

    def test_arrays(self):
        occ = q.Occupation((0, 1, 2, 3))
        up, dn = occ.up_dn_arrays()
        assert up.tolist() == [0, 1, 0, 1]
        assert dn.tolist() == [0, 0, 1, 1]
        assert q.Occupation.from_arrays(up, dn) == occ

    def test_spin_flip_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            occ = random_occupation(rng, 9)
            flipped = occ.spin_flipped()
            assert flipped.spin_flipped() == occ
            assert flipped.electron_count == occ.electron_count
            assert flipped.holes() == occ.holes()

    def test_relabel(self):
        occ = q.Occupation((1, 2, 3))
        assert occ.relabeled([0, 1, 2]) == occ
        moved = occ.relabeled([2, 0, 1])
        assert moved.codes == (2, 3, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            q.Occupation((0, 4))
        with pytest.raises(ValueError):
            q.Occupation.from_pairs([(2, 0)])
        with pytest.raises(ValueError):
            q.Occupation.from_arrays([1, 0], [1])
        with pytest.raises(ValueError):
            q.Occupation((0, 1, 2)).relabeled([0, 0, 1])


class TestFermionOps:
    def test_single_site_car(self):
        ops = q.build_fermion_ops(q.Lattice(1, 1, "open"))
        assert ops.dim == 4
        eye = np.eye(4)
        for mode in range(2):
            anti = ops.c[mode] @ ops.cdag[mode] + ops.cdag[mode] @ ops.c[mode]
            assert np.max(np.abs(anti.toarray() - eye)) < 1e-15

    def test_cross_mode_anticommutator_vanishes(self):
        ops = q.build_fermion_ops(q.Lattice(2, 1, "open"))
        up0 = ops.mode(0, q.SPIN_UP)
        up1 = ops.mode(1, q.SPIN_UP)
        anti = ops.c[up0] @ ops.cdag[up1] + ops.cdag[up1] @ ops.c[up0]
        assert anti.nnz == 0 or np.max(np.abs(anti.data)) < 1e-15

    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2)])
    def test_car_residual(self, shape):
        ops = q.build_fermion_ops(q.Lattice(*shape, "open"))
        assert ops.dim == 4 ** (shape[0] * shape[1])
        assert ops.car_residual() < 1e-13

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            q.build_fermion_ops(q.Lattice(7, 1, "open"))

    def test_mode_validation(self):
        ops = q.build_fermion_ops(q.Lattice(2, 1, "open"))
        with pytest.raises(ValueError):
            ops.mode(2, q.SPIN_UP)
        with pytest.raises(ValueError):
            ops.mode(0, 2)


@pytest.fixture(scope="module")
def ops22():
    return q.build_fermion_ops(q.Lattice(2, 2, "open"))


class TestCurrentOps:
    def test_hermiticity(self, ops22):
        for sigma in (q.SPIN_UP, q.SPIN_DOWN):
            for a in range(4):
                for b in range(4):
                    cur = q.current_ops(ops22, a, b, sigma)
                    for op in (cur.rho, cur.j, cur.k):
                        assert q._fro(op - op.conj().T) < 1e-13

    def test_hop_adjoint_reverses_direction(self, ops22):
        for a in range(4):
            for b in range(4):
                fwd = q.current_ops(ops22, a, b, q.SPIN_UP).v
                rev = q.current_ops(ops22, b, a, q.SPIN_UP).v
                assert q._fro(fwd.conj().T - rev) < 1e-13

    def test_hop_is_cdag_b_c_a(self, ops22):
        for sigma in (q.SPIN_UP, q.SPIN_DOWN):
            for a in range(4):
                for b in range(4):
                    cur = q.current_ops(ops22, a, b, sigma)
                    direct = ops22.cdag[ops22.mode(b, sigma)] @ ops22.c[ops22.mode(a, sigma)]
                    assert q._fro(cur.v - direct) < 1e-14

    def test_coincident_site_reductions(self, ops22):
        for a in range(4):
            cur = q.current_ops(ops22, a, a, q.SPIN_DOWN)
            assert q._fro(cur.v - cur.rho) < 1e-14
            assert q._fro(cur.k - 2.0 * cur.rho) < 1e-14
            assert q._fro(cur.j) < 1e-14

    def test_validation(self, ops22):
        with pytest.raises(ValueError):
            q.current_ops(ops22, 0, 4, q.SPIN_UP)
        with pytest.raises(ValueError):
            q.current_ops(ops22, 0, 1, 5)


class TestCheckCommutators:
    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2)])
    def test_all_identities(self, shape):
        rep = q.check_commutators(q.Lattice(*shape, "open"))
        assert rep.max_residual < 1e-12
        assert set(rep.residuals) == {
            "density_flux", "density_sym", "flux_flux", "flux_sym", "sym_sym",
        }
        assert rep.n_checks > 0

    def test_cross_spin_commutators_vanish(self):
        ops = q.build_fermion_ops(q.Lattice(2, 1, "open"))
        rho_up = q.current_ops(ops, 0, 0, q.SPIN_UP).rho
        cur_dn = q.current_ops(ops, 0, 1, q.SPIN_DOWN)
        for op in (cur_dn.j, cur_dn.k):
            assert q._fro(rho_up @ op - op @ rho_up) < 1e-15

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            q.check_commutators(q.Lattice(3, 3, "open"))


def hard_core_boson_ops(lattice):
    """The Jordan-Wigner construction without its string: modes commute."""
    n_modes = 2 * lattice.n_sites
    eye2 = sparse.identity(2, dtype=complex, format="csr")
    lower = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    ann = []
    for mode in range(n_modes):
        acc = None
        for pos in range(n_modes):
            factor = lower if pos == mode else eye2
            acc = factor if acc is None else sparse.kron(acc, factor, format="csr")
        ann.append(acc)
    cdag = tuple(op.conj().T.tocsr() for op in ann)
    return q.FermionOps(lattice=lattice, c=tuple(ann), cdag=cdag, dim=2 ** n_modes)


class TestAlgebraTables:
    def test_hop_tables_reproduce_current_ops(self, ops22):
        weights, masks = q._hop_tables(ops22)
        cols = np.arange(ops22.dim)
        for row, (sigma, a, b) in enumerate(itertools.product(range(2), range(4), range(4))):
            dense = np.zeros((ops22.dim, ops22.dim), dtype=complex)
            dense[cols ^ masks[row], cols] = weights[row]
            assert np.array_equal(dense, q.current_ops(ops22, a, b, sigma).v.toarray())

    def test_checks_read_the_operators(self, monkeypatch):
        # without the string, flux operators on different sites commute
        # where fermion ones anticommute: the flux identities must fail
        monkeypatch.setattr(q, "build_fermion_ops", hard_core_boson_ops)
        lat = q.Lattice(3, 1, "open")
        rep = q.check_commutators(lat)
        assert rep.residuals == {"density_flux": 0.0, "density_sym": 0.0,
                                 "flux_flux": 8.0, "flux_sym": 8.0, "sym_sym": 8.0}
        assert rep.n_checks == 1188
        assert q.check_composition(lat).max_residual == 5.656854249492381

    @pytest.mark.parametrize("corrupt, message", [
        (lambda c: (c[0] + c[1],) + c[1:], "more than one entry"),
        (lambda c: (c[1], c[0]) + c[2:], "bits of its modes"),
    ])
    def test_operators_that_are_not_hops_rejected(self, monkeypatch, corrupt, message):
        build = q.build_fermion_ops

        def corrupted(lattice):
            ops = build(lattice)
            return q.FermionOps(lattice=lattice, c=corrupt(ops.c), cdag=ops.cdag, dim=ops.dim)

        monkeypatch.setattr(q, "build_fermion_ops", corrupted)
        with pytest.raises(ValueError, match=message):
            q.check_commutators(q.Lattice(2, 1, "open"))


class TestCheckComposition:
    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2)])
    def test_composition_and_roundtrip(self, shape):
        rep = q.check_composition(q.Lattice(*shape, "open"))
        assert rep.max_residual < 1e-12
        assert rep.composition_residual < 1e-12
        assert rep.roundtrip_residual < 1e-12
        assert rep.idempotence_residual < 1e-12
        assert rep.complement_residual < 1e-12

    def test_coincident_roundtrip_is_degenerate(self):
        # at a == b the naive roundtrip law degenerates to rho = 0; the gap
        # equals the Frobenius norm of the density projector
        rep = q.check_composition(q.Lattice(2, 1, "open"))
        assert rep.coincident_gap == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            q.check_composition(q.Lattice(3, 2, "open"))


class TestVertexMatrices:
    def test_printed_values(self):
        vm = q.vertex_matrices()
        assert vm.v_up.tolist() == [
            [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        assert vm.v_dn.tolist() == [
            [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0]]
        assert vm.rho_up.tolist() == np.diag([1.0, 1, 0, 0]).tolist()
        assert vm.rho_dn.tolist() == np.diag([1.0, 0, 1, 0]).tolist()

    def test_densities_are_projections(self):
        vm = q.vertex_matrices()
        for rho in (vm.rho_up, vm.rho_dn):
            assert np.array_equal(rho @ rho, rho)
        # total occupancy per basis state: double, up, down, hole
        total = np.diag(vm.rho_up + vm.rho_dn)
        assert total.tolist() == [2, 1, 1, 0]

    def test_hop_support(self):
        vm = q.vertex_matrices()
        assert set(np.unique(vm.v_up)) <= {0.0, 1.0}
        assert set(np.unique(vm.v_dn)) <= {0.0, 1.0}
        # up hops land in states containing up and leave from states lacking up
        assert np.array_equal(np.nonzero(vm.v_up.any(axis=1))[0], [0, 1])
        assert np.array_equal(np.nonzero(vm.v_up.any(axis=0))[0], [2, 3])
        assert np.array_equal(np.nonzero(vm.v_dn.any(axis=1))[0], [0, 2])
        assert np.array_equal(np.nonzero(vm.v_dn.any(axis=0))[0], [1, 3])

    def test_arrays_read_only(self):
        vm = q.vertex_matrices()
        with pytest.raises(ValueError):
            vm.v_up[0, 0] = 7.0


class TestEnergy:
    def test_two_site_singly_occupied(self):
        lat = q.Lattice(2, 1, "open")
        occ = q.Occupation.from_pairs([(1, 0), (0, 1)])
        assert q.energy(occ, lat, canonical_params(1, 0)) == -2.0

    def test_two_site_double_plus_hole(self):
        lat = q.Lattice(2, 1, "open")
        occ = q.Occupation.from_pairs([(1, 1), (0, 0)])
        assert q.energy(occ, lat, canonical_params(1, 0)) == 98.0

    def test_neel_square(self):
        lat = q.Lattice(2, 2, "open")
        occ = q.Occupation.from_pairs([(1, 0), (0, 1), (0, 1), (1, 0)])
        # alternating spins frustrate the diagonal hop term entirely
        assert q.energy(occ, lat, canonical_params(1, 0)) == -8.0

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("convention", ["ordered", "unordered"])
    def test_matches_naive_reference(self, boundary, convention):
        lat = q.Lattice(3, 3, boundary)
        rng = np.random.default_rng(23)
        for flags in ((1, 0), (0, 1)):
            p = canonical_params(*flags, convention=convention)
            for _ in range(40):
                occ = random_occupation(rng, 9)
                assert q.energy(occ, lat, p) == pytest.approx(
                    naive_energy(occ, lat, p), abs=1e-12)

    def test_spin_flip_invariance_exact(self):
        lat = q.Lattice(3, 3, "open")
        rng = np.random.default_rng(29)
        for flags in ((1, 0), (0, 1)):
            p = canonical_params(*flags)
            for _ in range(50):
                occ = random_occupation(rng, 9)
                assert q.energy(occ.spin_flipped(), lat, p) == q.energy(occ, lat, p)

    def test_rotation_invariance_exact(self):
        lat = q.Lattice(3, 3, "open")
        perm = rotation_perm(lat)
        p = canonical_params(0, 1)
        rng = np.random.default_rng(31)
        for _ in range(50):
            occ = random_occupation(rng, 9)
            assert q.energy(occ.relabeled(perm), lat, p) == q.energy(occ, lat, p)

    def test_translation_invariance_exact(self):
        lat = q.Lattice(3, 3, "periodic")
        p = canonical_params(0, 1)
        rng = np.random.default_rng(37)
        for dx, dy in ((1, 0), (0, 1), (2, 2)):
            perm = translation_perm(lat, dx, dy)
            for _ in range(20):
                occ = random_occupation(rng, 9)
                assert q.energy(occ.relabeled(perm), lat, p) == q.energy(occ, lat, p)

    def test_unordered_halves_bond_terms(self):
        lat = q.Lattice(3, 3, "open")
        rng = np.random.default_rng(41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bond_only_o = q.QuiverParams(U=0.0, t=1.0, k=1.8, J=0.0,
                                         alpha_q=0, beta_q=0)
            bond_only_u = q.QuiverParams(U=0.0, t=1.0, k=1.8, J=0.0,
                                         alpha_q=0, beta_q=0,
                                         bond_convention="unordered")
        full_o = canonical_params(0, 1)
        full_u = canonical_params(0, 1, convention="unordered")
        for _ in range(30):
            occ = random_occupation(rng, 9)
            assert q.energy(occ, lat, bond_only_u) == pytest.approx(
                0.5 * q.energy(occ, lat, bond_only_o), abs=1e-12)
            # the U and J terms are untouched by the bond convention
            diff_o = q.energy(occ, lat, full_o) - q.energy(occ, lat, bond_only_o)
            diff_u = q.energy(occ, lat, full_u) - q.energy(occ, lat, bond_only_u)
            assert diff_u == pytest.approx(diff_o, abs=1e-12)

    def test_shape_validation(self):
        lat = q.Lattice(2, 2, "open")
        p = canonical_params(1, 0)
        with pytest.raises(ValueError):
            q.energy(q.Occupation((0, 1)), lat, p)
        with pytest.raises(ValueError):
            q.energy_batch(np.zeros((2, 3)), np.zeros((2, 3)), lat, p)
        with pytest.raises(ValueError):
            q.energy_batch(np.zeros(4), np.zeros(4), lat, p)
        # entries outside {0, 1} would alias other occupation codes
        with pytest.raises(ValueError, match="0 or 1"):
            q.energy_batch([[2, 0]], [[0, 5]], q.Lattice(2, 1), p)
        with pytest.raises(ValueError, match="0 or 1"):
            q.energy_batch(np.full((1, 4), 0.5), np.zeros((1, 4)), lat, p)
        with pytest.raises(ValueError, match="0 or 1"):
            q.energy_batch(np.zeros((1, 4)), -np.ones((1, 4)), lat, p)


@pytest.fixture(scope="module")
def hole_pair_scenarios():
    lat = q.Lattice(3, 3, "open")
    out = {}
    for flags in ((0, 1), (1, 0)):
        p = canonical_params(*flags)
        e_min, mins = q.ground_search_exact(lat, p, 7)
        out[flags] = (e_min, mins, q.pairing_diagnostics(mins, lat))
    return lat, out


@pytest.fixture(scope="module")
def exact33():
    lat = q.Lattice(3, 3, "open")
    p = canonical_params(0, 1)
    e_min, _ = q.ground_search_exact(lat, p, 7)
    return lat, p, e_min


class TestGroundSearchExact:
    def test_two_site_strong_repulsion(self):
        lat = q.Lattice(2, 1, "open")
        e_min, mins = q.ground_search_exact(lat, canonical_params(1, 0), 2)
        assert e_min == -2.0
        assert {str(m) for m in mins} == {"ud", "du"}
        for m in mins:
            assert all(m.pair(s) != (1, 1) for s in range(2))

    def test_hole_conditioned_scenario_minimum(self, hole_pair_scenarios):
        _, out = hole_pair_scenarios
        e_min, mins, _ = out[(0, 1)]
        assert e_min == -24.0
        assert len(mins) == 64

    def test_hole_conditioned_scenario_binds_holes_diagonally(self, hole_pair_scenarios):
        # holes pair at one diagonal step in every minimizer; direct
        # nearest-neighbor contact is always avoided (it costs the
        # adjacent-hole penalty without extra diagonal-hop benefit)
        _, out = hole_pair_scenarios
        _, mins, diags = out[(0, 1)]
        assert all(d.hole_count == 2 for d in diags)
        assert all(d.adjacent_pairs == 0 for d in diags)
        assert all(d.diagonal_pairs == 1 for d in diags)

    def test_unconditional_scenario_minimum(self, hole_pair_scenarios):
        _, out = hole_pair_scenarios
        e_min, mins, diags = out[(1, 0)]
        assert e_min == pytest.approx(-45.6, abs=1e-12)
        assert len(mins) == 24
        assert all(d.adjacent_pairs == 0 for d in diags)
        # holes are fully separated here, not even diagonal contact
        assert all(d.diagonal_pairs == 0 for d in diags)

    def test_minimizer_energies_match_scalar_path(self, hole_pair_scenarios):
        lat, out = hole_pair_scenarios
        for flags, (e_min, mins, _) in out.items():
            p = canonical_params(*flags)
            for m in mins[:8]:
                assert q.energy(m, lat, p) == e_min
                assert m.electron_count == 7

    def test_minimizers_in_lexicographic_order(self, hole_pair_scenarios):
        _, out = hole_pair_scenarios
        for e_min, mins, _ in out.values():
            codes = [m.codes for m in mins]
            assert codes == sorted(codes)

    def test_qualitative_conclusions_hold_unordered(self):
        lat = q.Lattice(3, 3, "open")
        _, mins = q.ground_search_exact(
            lat, canonical_params(0, 1, convention="unordered"), 7)
        diags = q.pairing_diagnostics(mins, lat)
        assert all(d.adjacent_pairs == 0 and d.diagonal_pairs == 1 for d in diags)
        _, mins = q.ground_search_exact(
            lat, canonical_params(1, 0, convention="unordered"), 7)
        diags = q.pairing_diagnostics(mins, lat)
        assert all(d.adjacent_pairs == 0 for d in diags)

    def test_large_repulsion_empties_doubles(self):
        lat = q.Lattice(3, 3, "open")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = q.QuiverParams(U=100.0, t=1.0, k=0.0, J=0.0, alpha_q=0, beta_q=0)
        _, mins = q.ground_search_exact(lat, p, 9)
        for m in mins:
            assert all(m.pair(s) != (1, 1) for s in range(9))

    # (flags, convention, couplings) combinations; couplings "random" draws
    # one-decimal values, whose float sums often differ from the energy
    ORACLE_COMBOS = [(flags, convention, couplings)
                     for flags in ((0, 0), (0, 1), (1, 0), (1, 1))
                     for convention in ("ordered", "unordered")
                     for couplings in ("zero", "canonical", "random")]

    @pytest.mark.parametrize("lx,ly,boundary", [
        (1, 1, "open"), (1, 5, "open"), (5, 1, "open"), (1, 9, "open"),
        (2, 3, "open"), (3, 2, "open"), (2, 4, "open"), (4, 2, "open"),
        (3, 3, "open"), (2, 2, "periodic"), (2, 3, "periodic"),
        (3, 2, "periodic"), (2, 4, "periodic"), (4, 2, "periodic"),
        (3, 3, "periodic"),
    ])
    def test_matches_brute_force_oracle(self, lx, ly, boundary):
        lat = q.Lattice(lx, ly, boundary)
        n = lat.n_sites
        combos = self.ORACLE_COMBOS
        electron_counts = range(2 * n + 1)
        if n >= 8:
            electron_counts = (0, 1, n - 1, n, n + 3, 2 * n)
        if n == 8:
            # every flag pair; the transposed lattice takes the other half
            combos = combos[lx % 2::2]
        if n == 9:
            # every flag pair at one or two (convention, couplings) settings:
            # combos[i::6] fixes setting i of ordered/unordered x zero/canonical/random
            settings = {"open": (5,) if lx == 3 else (1,), "periodic": (2, 4)}[boundary]
            combos = [c for i in settings for c in combos[i::6]]
        rng = np.random.default_rng(100 * lx + ly)
        for flags, convention, couplings in combos:
            values = {"zero": (0.0, 0.0, 0.0, 0.0), "canonical": (100.0, 1.0, 1.8, 0.6),
                      "random": tuple(rng.integers(0, 30, 4) / 10.0)}[couplings]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = q.QuiverParams(*values, *flags, bond_convention=convention)
            oracle = brute_force_minima(lat, p, electron_counts)
            for electrons in electron_counts:
                e_min, mins = q.ground_search_exact(lat, p, electrons)
                e_ref, mins_ref = oracle[electrons]
                case = (flags, convention, values, electrons)
                assert type(e_min) is float
                assert e_min == e_ref, case
                assert [m.codes for m in mins] == mins_ref, case

    @pytest.mark.parametrize("lx,ly,boundary,electrons,flags,e_ref,count,first,last", [
        # the transfer matrix's float sum reads 22.4 here
        (2, 2, "periodic", 1, (0, 1), 22.400000000000002, 8, None, None),
        (2, 6, "periodic", 9, (1, 0), -67.19999999999999, 496, None, None),
        (3, 4, "open", 10, (0, 1), -34.0, 16, ".uudd.duuuud", "ddduu.ud.ddu"),
        (3, 4, "periodic", 10, (0, 1), -47.2, 48, ".udud.duduud", "dduudud..udu"),
    ])
    def test_frozen_minima(self, lx, ly, boundary, electrons, flags, e_ref,
                           count, first, last):
        lat = q.Lattice(lx, ly, boundary)
        p = canonical_params(*flags)
        e_min, mins = q.ground_search_exact(lat, p, electrons)
        assert e_min == e_ref
        assert len(mins) == count
        assert all(q.energy(m, lat, p) == e_min for m in mins)
        if first is not None:
            assert (str(mins[0]), str(mins[-1])) == (first, last)

    def test_overflowing_couplings_rejected(self):
        p = q.QuiverParams(U=1e308, t=1.0, k=1.8, J=0.6, alpha_q=0, beta_q=1)
        with pytest.raises(ValueError, match="overflow"):
            q.ground_search_exact(q.Lattice(2, 2), p, 4)

    def test_size_cap_directs_to_annealing(self):
        assert q.exact_search_fits(q.Lattice(3, 4, "open"))
        assert not q.exact_search_fits(q.Lattice(4, 4, "open"))
        with pytest.raises(ValueError, match="anneal"):
            q.ground_search_exact(q.Lattice(4, 4, "open"),
                                  canonical_params(1, 0), 14)

    def test_electron_count_validation(self):
        lat = q.Lattice(2, 1, "open")
        with pytest.raises(ValueError):
            q.ground_search_exact(lat, canonical_params(1, 0), 5)


class TestGroundSearchAnneal:
    def test_deterministic_for_seed(self, exact33):
        lat, p, _ = exact33
        runs = [q.ground_search_anneal(lat, p, 7, rng=np.random.default_rng(42))
                for _ in range(2)]
        assert runs[0].best_energy == runs[1].best_energy
        assert runs[0].best_occupation == runs[1].best_occupation
        assert runs[0].trace == runs[1].trace

    def test_never_undercuts_exact(self, exact33):
        lat, p, e_min = exact33
        for seed in range(5):
            res = q.ground_search_anneal(lat, p, 7,
                                         rng=np.random.default_rng(seed))
            assert res.best_energy >= e_min

    def test_usually_finds_exact_minimum(self, exact33):
        lat, p, e_min = exact33
        hits = sum(
            q.ground_search_anneal(lat, p, 7,
                                   rng=np.random.default_rng(seed)).best_energy
            == e_min
            for seed in range(6)
        )
        assert hits >= 4

    def test_zero_temperature_is_greedy(self, exact33):
        lat, p, _ = exact33
        res = q.ground_search_anneal(lat, p, 7, schedule=(0.0, 0.5, 60),
                                     rng=np.random.default_rng(3))
        assert len(res.trace) == 60
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))

    def test_greedy_running_energy_is_exact(self):
        # the running energy is the count combination of the current state,
        # so a greedy run ends exactly on its best state's energy
        for shape in ((3, 3, "open"), (3, 3, "periodic"), (2, 4, "periodic")):
            lat = q.Lattice(*shape)
            for convention in ("ordered", "unordered"):
                for flags in ((1, 0), (0, 1)):
                    p = canonical_params(*flags, convention=convention)
                    for seed in range(3):
                        res = q.ground_search_anneal(
                            lat, p, lat.n_sites - 2, schedule=(0.0, 0.5, 30),
                            rng=np.random.default_rng(seed))
                        assert res.trace[-1] == res.best_energy
                        assert res.best_energy == q.energy(res.best_occupation, lat, p)

    def test_result_unpacks_as_pair(self, exact33):
        lat, p, _ = exact33
        energy_val, occ = q.ground_search_anneal(
            lat, p, 7, schedule=(1.0, 0.9, 30), rng=np.random.default_rng(1))
        assert isinstance(occ, q.Occupation)
        assert energy_val == q.energy(occ, lat, p)

    def test_degenerate_sectors(self):
        lat = q.Lattice(2, 2, "open")
        p = canonical_params(1, 0)
        res = q.ground_search_anneal(lat, p, 0, schedule=(1.0, 0.9, 10),
                                     rng=np.random.default_rng(0))
        assert res.best_occupation.electron_count == 0
        res = q.ground_search_anneal(lat, p, 8, schedule=(1.0, 0.9, 10),
                                     rng=np.random.default_rng(0))
        assert res.best_occupation.electron_count == 8

    def test_validation(self):
        lat = q.Lattice(2, 2, "open")
        p = canonical_params(1, 0)
        with pytest.raises(ValueError):
            q.ground_search_anneal(lat, p, 9)
        with pytest.raises(ValueError):
            q.ground_search_anneal(lat, p, 4, schedule=(1.0, 1.5, 10))
        with pytest.raises(ValueError):
            q.ground_search_anneal(lat, p, 4, schedule=(-1.0, 0.9, 10))


@pytest.fixture(scope="module")
def large_lattice_hole_runs():
    # 6x6 open, 4 holes, hole-conditioned scenario, 20 seeded anneals
    lat = q.Lattice(6, 6, "open")
    p = canonical_params(0, 1)
    diags = []
    for seed in range(20):
        res = q.ground_search_anneal(lat, p, 32, schedule=(2.0, 0.93, 500),
                                     rng=np.random.default_rng(seed))
        diags.append(q.pairing_diagnostics([res.best_occupation], lat)[0])
    return diags


class TestLargeLatticePairing:
    def test_every_run_keeps_four_holes(self, large_lattice_hole_runs):
        assert all(d.hole_count == 4 for d in large_lattice_hole_runs)

    @pytest.mark.xfail(
        strict=False,
        reason="minimizing states of this energy place paired holes one "
        "diagonal step apart, so direct nearest-neighbor hole contact "
        "does not occur; kept as the stated adjacency reading",
    )
    def test_adjacent_hole_pairs_form(self, large_lattice_hole_runs):
        good = sum(1 for d in large_lattice_hole_runs if d.adjacent_pairs >= 2)
        assert good >= 16

    def test_diagonal_hole_pairs_form(self, large_lattice_hole_runs):
        # the binding phenomenon that does occur: holes pair at one
        # diagonal step in nearly every annealed best state
        good = sum(1 for d in large_lattice_hole_runs if d.diagonal_pairs >= 2)
        assert good >= 16


class TestPairingDiagnostics:
    def test_no_holes(self):
        lat = q.Lattice(2, 2, "open")
        occ = q.Occupation((1, 2, 1, 2))
        d, = q.pairing_diagnostics([occ], lat)
        assert d.hole_count == 0
        assert d.adjacent_pairs == 0
        assert d.diagonal_pairs == 0
        assert d.cluster_histogram == {}
        assert d.largest_cluster == 0

    def test_two_adjacent_holes(self):
        lat = q.Lattice(3, 3, "open")
        codes = [1] * 9
        codes[lat.site(0, 0)] = 0
        codes[lat.site(0, 1)] = 0
        d, = q.pairing_diagnostics([q.Occupation(tuple(codes))], lat)
        assert d.hole_count == 2
        assert d.adjacent_pairs == 1
        assert d.diagonal_pairs == 0
        assert d.cluster_histogram == {2: 1}
        assert d.largest_cluster == 2

    def test_diagonal_hole_pair(self):
        lat = q.Lattice(3, 3, "open")
        codes = [2] * 9
        codes[lat.site(0, 0)] = 0
        codes[lat.site(1, 1)] = 0
        d, = q.pairing_diagnostics([q.Occupation(tuple(codes))], lat)
        assert d.adjacent_pairs == 0
        assert d.diagonal_pairs == 1
        assert d.cluster_histogram == {1: 2}
        assert d.largest_cluster == 1

    def test_square_block_is_one_large_cluster(self):
        lat = q.Lattice(3, 3, "open")
        codes = [1] * 9
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            codes[lat.site(x, y)] = 0
        d, = q.pairing_diagnostics([q.Occupation(tuple(codes))], lat)
        assert d.hole_count == 4
        assert d.adjacent_pairs == 4
        assert d.cluster_histogram == {4: 1}
        assert d.largest_cluster == 4
        assert d.largest_cluster > 2  # the cluster size the model penalizes

    def test_length_mismatch(self):
        lat = q.Lattice(2, 2, "open")
        with pytest.raises(ValueError):
            q.pairing_diagnostics([q.Occupation((0, 1))], lat)


class TestEnergyEstimates:
    def test_no_holes_formulas_coincide(self):
        p = canonical_params(1, 0)
        e_10, e_01 = q.energy_estimates(9, 0, p)
        assert e_10 == e_01 == -36.0  # -t * 9 * 8 / 2

    def test_reference_point(self):
        p = canonical_params(1, 0)
        e_10, e_01 = q.energy_estimates(9, 2, p)
        assert e_10 == pytest.approx(-25.8, abs=1e-12)
        assert e_01 == pytest.approx(-21.6, abs=1e-12)

    def test_enumerated_minima_undercut_the_estimates(self):
        # the estimates assume a rigid alternating spin background; free
        # spin optimization reaches lower energy in both scenarios
        lat = q.Lattice(3, 3, "open")
        e_10, e_01 = q.energy_estimates(9, 2, canonical_params(1, 0))
        exact_10, _ = q.ground_search_exact(lat, canonical_params(1, 0), 7)
        exact_01, _ = q.ground_search_exact(lat, canonical_params(0, 1), 7)
        assert exact_10 <= e_10
        assert exact_01 <= e_01

    def test_validation(self):
        with pytest.raises(ValueError):
            q.energy_estimates(4, 5, canonical_params(1, 0))
        with pytest.raises(ValueError):
            q.energy_estimates(0, 0, canonical_params(1, 0))
