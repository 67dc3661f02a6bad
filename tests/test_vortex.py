from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringgpe import vortex
from ringgpe.errors import NumericalError
from ringgpe.fv import Field
from ringgpe.layout import slot_shifted
from ringgpe.mesh import MeshParams, build_ring_mesh, triangle_shells
from ringgpe.vortex import (
    METHOD_DENSITY,
    WINDING_DEFECT_TOL,
    DetectionParams,
    VortexRecord,
    detect_by_density,
    detect_by_vorticity,
    pseudo_vorticity,
    regularized_vorticity,
)

CORE_WIDTH = 0.05


def searched_shell(mesh, center, lam):
    """Shell lam around center from its own shell search (test oracle)."""
    return triangle_shells(mesh, center, lam)[lam]


def vortex_index(u, record):
    """Phase winding of u around the record's confirming shell (test oracle).

    Raises ValueError when the field vanishes somewhere on the shell.
    """
    shell = searched_shell(u.mesh, record.triangle, record.characteristic_length)
    index, _ = vortex._unwound_shell_phase(u, record.triangle, shell)
    return index


@pytest.fixture(scope="module")
def mesh():
    return build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.08))


def sat_vortex(z, zi, charge, xi=CORE_WIDTH):
    # Unit-modulus far field, winding +-1 core of width xi.
    w = z - zi
    f = w / np.sqrt(np.abs(w) ** 2 + xi ** 2)
    return f if charge > 0 else np.conj(f)


def planted_state(mesh, zeros, charges):
    z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
    vals = np.ones_like(z)
    for zi, c in zip(zeros, charges):
        vals = vals * sat_vortex(z, zi, c)
    return Field(mesh, vals)


def winding_oracle(fn, center, radius, samples=4096):
    # Dense angular sampling of the analytic function around the zero.
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    ring = fn(center + radius * np.exp(1j * t))
    ph = np.unwrap(np.angle(np.append(ring, ring[0])))
    return (ph[-1] - ph[0]) / (2.0 * np.pi)


def center_triangle(mesh, point):
    d = np.hypot(mesh.centers[:, 0] - point.real, mesh.centers[:, 1] - point.imag)
    return int(np.argmin(d))


def kept_records(u, kept):
    """Density records of the kept (center, shell) pairs, each winding taken on
    a shell searched around its own center (test oracle)."""
    mesh = u.mesh
    dens = u.abs2()
    records = []
    for n, lam in kept:
        try:
            index, defect = vortex._unwound_shell_phase(u, n, searched_shell(mesh, n, lam))
            reliable = defect <= WINDING_DEFECT_TOL and index != 0
        except ValueError:
            index, reliable = 0, False
        records.append(VortexRecord(
            triangle=n,
            position=(float(mesh.centers[n, 0]), float(mesh.centers[n, 1])),
            index_or_sign=index,
            characteristic_length=lam,
            method=METHOD_DENSITY,
            extremum_value=float(dens[n]),
            reliable=reliable,
        ))
    records.sort(key=lambda r: r.triangle)
    return records


def per_candidate_detect(u, params, stats=None):
    """The density detector with one shell search per candidate (test oracle).

    This is the detector before shell templates, kept verbatim apart from
    the shared record building and the optional stats: the number of
    confirmed centers, whether some candidate's search ran into empty
    shells, and whether some confirming ball holds both slot 0 and slot
    N_p - 1 (it crosses or spans the seam).
    """
    mesh = u.mesh
    dens = u.abs2()
    candidates = np.flatnonzero(dens < params.tol1)

    confirmed = []
    for n in candidates:
        shells = triangle_shells(mesh, int(n), params.lambda_max)
        if stats is not None and shells[-1].size == 0:
            stats["empty"] = True
        for lam in range(1, params.lambda_max + 1):
            shell = shells[lam]
            if shell.size and np.all(dens[shell] > dens[n] + params.tol2):
                ball = np.concatenate(shells[1:])
                confirmed.append((int(n), lam, ball))
                break

    if stats is not None:
        stats["confirmed"] = len(confirmed)
        stats["wrapped"] = any({0, mesh.n_points - 1} <= set(mesh.slot[ball].tolist())
                               for _, _, ball in confirmed)
    confirmed.sort(key=lambda item: (dens[item[0]], item[0]))
    kept = []
    blocked = np.zeros(mesh.n_triangles, dtype=bool)
    for n, lam, ball in confirmed:
        if blocked[n]:
            continue
        kept.append((n, lam))
        blocked[ball] = True

    return kept_records(u, kept)


def full_shell_detect(u, params, stats=None):
    """The template detector gathering every shell in full (test oracle).

    This is the detector before the same-band pre-test, kept verbatim apart
    from the shared record building and the optional stats: how many
    (candidate, shell) tests the members in the candidate's own band
    already fail.
    """
    mesh = u.mesh
    dens = u.abs2()
    candidates = np.flatnonzero(dens < params.tol1)

    lam_of = np.zeros(candidates.size, dtype=np.int64)
    balls = {}
    group = 2 * mesh.band[candidates] + mesh.kind[candidates]
    for key in np.unique(group):
        in_group = np.flatnonzero(group == key)
        band, kind = divmod(int(key), 2)
        shells = triangle_shells(mesh, 2 * band * mesh.n_points + kind, params.lambda_max)
        for lam in range(1, params.lambda_max + 1):
            open_ = in_group[lam_of[in_group] == 0]
            if open_.size == 0 or shells[lam].size == 0:
                break
            centers = candidates[open_]
            ring = dens[slot_shifted(mesh, shells[lam], mesh.slot[centers])]
            passed = np.all(ring > dens[centers, None] + params.tol2, axis=1)
            lam_of[open_[passed]] = lam
            if stats is not None:
                own = mesh.band[shells[lam]] == band
                stats["own_band_failures"] = stats.get("own_band_failures", 0) + int(
                    np.count_nonzero(~np.all(ring[:, own] > dens[centers, None] + params.tol2,
                                             axis=1)))
        balls[key] = np.concatenate(shells[1:])

    confirmed = np.flatnonzero(lam_of)
    centers = candidates[confirmed]
    kept = []
    blocked = np.zeros(mesh.n_triangles, dtype=bool)
    for i in confirmed[np.lexsort((centers, dens[centers]))]:
        n = int(candidates[i])
        if blocked[n]:
            continue
        kept.append((n, int(lam_of[i])))
        blocked[slot_shifted(mesh, balls[group[i]], mesh.slot[[n]])] = True

    return kept_records(u, kept)


@lru_cache(maxsize=None)
def small_ring(n_circles, n_points):
    return build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2,
                                      n_circles=n_circles, n_points=n_points))


def random_field(mesh, seed):
    rng = np.random.default_rng(seed)
    return Field(mesh, rng.standard_normal(mesh.n_triangles)
                 + 1j * rng.standard_normal(mesh.n_triangles))


class TestParams:
    def test_defaults_valid(self):
        DetectionParams()

    @pytest.mark.parametrize("kw", [
        {"tol1": 0.0}, {"tol2": -1.0}, {"lambda_max": 0},
        {"lambda_max": 2.5}, {"delta": 0.0}, {"vort_threshold": 0.0},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            DetectionParams(**kw)

    def test_record_rejects_unknown_method(self, mesh):
        with pytest.raises(ValueError):
            VortexRecord(0, (1.0, 0.0), 1, 1, "fancy", 0.0)

    def test_record_rejects_reliable_zero_charge(self):
        with pytest.raises(ValueError):
            VortexRecord(0, (1.0, 0.0), 0, 1, "density", 0.0)


class TestDensityDetector:
    def test_no_low_density_means_empty(self, mesh):
        u = Field.constant(mesh, 1.0 + 0j)
        assert detect_by_density(u, DetectionParams()) == []

    def test_single_vortex_exact_triangle(self, mesh):
        z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
        t0 = center_triangle(mesh, 1.0 + 0j)
        z0 = z[t0]
        u = planted_state(mesh, [z0], [+1])
        recs = detect_by_density(u, DetectionParams())
        assert len(recs) == 1
        r = recs[0]
        assert r.triangle == t0
        assert r.index_or_sign == 1
        assert 1 <= r.characteristic_length <= 10
        assert r.reliable
        assert r.method == "density"
        assert r.extremum_value == pytest.approx(u.abs2()[t0])

    @pytest.mark.parametrize("zeros,charges", [
        ([1.0 + 0j, -1.0 + 0j], [+1, -1]),
        ([1.0 + 0j, 1j, -1.0 + 0j], [+1, -1, +1]),
        ([1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, -1, +1, +1]),
    ])
    def test_planted_configurations(self, mesh, zeros, charges):
        u = planted_state(mesh, zeros, charges)
        recs = detect_by_density(u, DetectionParams())
        assert len(recs) == len(zeros)
        assert sum(r.index_or_sign for r in recs) == sum(charges)
        for zi, ci in zip(zeros, charges):
            near = min(recs, key=lambda r: abs(complex(*r.position) - zi))
            assert abs(complex(*near.position) - zi) < 1.5 * mesh.params.h
            assert near.index_or_sign == ci
            assert near.reliable

    def test_records_are_isolated(self, mesh):
        p = DetectionParams()
        u = planted_state(mesh, [1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, +1, +1, +1])
        recs = detect_by_density(u, p)
        for r in recs:
            ball = np.concatenate(triangle_shells(mesh, r.triangle, p.lambda_max)[1:])
            for s in recs:
                if s is not r:
                    assert s.triangle not in ball

    def test_phase_global_invariance(self, mesh):
        u = planted_state(mesh, [1.0 + 0j, -1j], [+1, -1])
        v = Field(mesh, u.values * np.exp(0.83j))
        ru = detect_by_density(u, DetectionParams())
        rv = detect_by_density(v, DetectionParams())
        # Densities only match to rounding under the phase twist, so compare
        # the discrete outputs and the extremum within tolerance.
        assert [(r.triangle, r.index_or_sign, r.characteristic_length, r.reliable)
                for r in ru] == \
               [(r.triangle, r.index_or_sign, r.characteristic_length, r.reliable)
                for r in rv]
        for a, b in zip(ru, rv):
            assert a.extremum_value == pytest.approx(b.extremum_value, abs=1e-14)

    def test_charge_conjugation(self, mesh):
        u = planted_state(mesh, [1.0 + 0j, 1j, -1j], [+1, -1, +1])
        ru = detect_by_density(u, DetectionParams())
        rc = detect_by_density(Field(mesh, np.conj(u.values)), DetectionParams())
        assert [r.triangle for r in ru] == [r.triangle for r in rc]
        assert [r.index_or_sign for r in ru] == [-r.index_or_sign for r in rc]


class TestTemplateDetector:
    """The shell-template detector against the per-candidate oracle."""

    @pytest.mark.parametrize("zeros,charges", [
        ([1.0 + 0j], [+1]),
        ([1.0 + 0j, -1.0 + 0j], [+1, -1]),
        ([1.0 + 0j, 1j, -1.0 + 0j], [+1, -1, +1]),
        ([1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, -1, +1, +1]),
        ([1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, +1, +1, +1]),
    ])
    def test_planted_configurations_match_oracle(self, mesh, zeros, charges):
        u = planted_state(mesh, zeros, charges)
        for params in (DetectionParams(), DetectionParams(tol1=0.5, tol2=0.01, lambda_max=3)):
            recs = detect_by_density(u, params)
            assert recs
            assert recs == per_candidate_detect(u, params)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n_points=st.sampled_from([3, 4, 7, 63]), n_circles=st.integers(2, 10),
           tol1=st.floats(0.01, 1.0), tol2=st.floats(1e-3, 1.0),
           lambda_max=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_random_fields_match_oracle(self, n_points, n_circles, tol1, tol2,
                                        lambda_max, seed):
        u = random_field(small_ring(n_circles, n_points), seed)
        params = DetectionParams(tol1=tol1, tol2=tol2, lambda_max=lambda_max)
        assert detect_by_density(u, params) == per_candidate_detect(u, params)

    @pytest.mark.parametrize("n_circles,n_points,tol1,tol2,lambda_max,needs", [
        (2, 7, 0.8, 0.05, 8, "empty"),      # one band: shells run out
        (6, 63, 0.5, 0.02, 3, "wrapped"),   # balls around the slot seam
        (4, 3, 1.0, 0.01, 12, "wrapped"),   # every shell wraps the ring
        (8, 63, 0.6, 0.01, 2, "thinned"),   # a confirmed center is dropped
    ])
    def test_edge_cases_match_oracle(self, n_circles, n_points, tol1, tol2,
                                     lambda_max, needs):
        u = random_field(small_ring(n_circles, n_points), 11)
        params = DetectionParams(tol1=tol1, tol2=tol2, lambda_max=lambda_max)
        stats = {}
        want = per_candidate_detect(u, params, stats)
        got = detect_by_density(u, params)
        if needs == "thinned":
            assert stats["confirmed"] > len(want)
        else:
            assert stats.get(needs)
        assert got and got == want

    @pytest.mark.parametrize("shift", [1, 5])
    def test_rotation_equivariance(self, shift):
        ring = small_ring(5, 63)
        rng = np.random.default_rng(3)
        z = ring.centers[:, 0] + 1j * ring.centers[:, 1]
        zeros = rng.uniform(0.9, 1.1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        vals = np.ones_like(z) + 0.05 * (rng.standard_normal(z.size)
                                         + 1j * rng.standard_normal(z.size))
        for zi, ci in zip(zeros, (+1, -1, +1)):
            vals = vals * sat_vortex(z, zi, ci, xi=0.1)
        # Rotation by shift * 2*pi/N_p moves every triangle shift slots on.
        perm = slot_shifted(ring, np.arange(ring.n_triangles), [shift])[0]
        rotated = np.empty_like(vals)
        rotated[perm] = vals
        params = DetectionParams(tol1=0.3, tol2=0.05, lambda_max=3)
        before = detect_by_density(Field(ring, vals), params)
        after = detect_by_density(Field(ring, rotated), params)
        assert len(before) >= 2
        mapped = [(int(perm[r.triangle]), r.characteristic_length, r.index_or_sign,
                   r.extremum_value) for r in before]
        assert sorted(mapped) == [(r.triangle, r.characteristic_length, r.index_or_sign,
                                   r.extremum_value) for r in after]

    def test_one_shell_search_per_band_and_kind(self, mesh, monkeypatch):
        calls = []

        def counted(m, center, max_lambda):
            calls.append(center)
            return triangle_shells(m, center, max_lambda)

        monkeypatch.setattr(vortex, "triangle_shells", counted)
        u = planted_state(mesh, [1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, -1, +1, +1])
        recs = detect_by_density(u, DetectionParams())
        cand = np.flatnonzero(u.abs2() < DetectionParams().tol1)
        groups = np.unique(2 * mesh.band[cand] + mesh.kind[cand])
        # One template around slot 0 per (band, kind) with a candidate; the
        # windings of the records reuse those templates.
        band, kind = np.divmod(groups, 2)
        assert sorted(calls) == list(2 * band * mesh.n_points + kind)
        assert groups.size < cand.size
        assert len(recs) == 4


class TestSameBandPreTest:
    """The detector with the same-band pre-test against full-shell confirmation."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(n_points=st.sampled_from([3, 4, 7, 63]), n_circles=st.integers(2, 10),
           tol1=st.floats(0.01, 1.0), tol2=st.floats(1e-3, 1.0),
           lambda_max=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_random_fields_match_full_shells(self, n_points, n_circles, tol1, tol2,
                                             lambda_max, seed):
        u = random_field(small_ring(n_circles, n_points), seed)
        params = DetectionParams(tol1=tol1, tol2=tol2, lambda_max=lambda_max)
        assert detect_by_density(u, params) == full_shell_detect(u, params)

    @pytest.mark.parametrize("tol1", [0.1, 0.5])
    def test_ground_state_wall_candidates(self, desk_ground_state, tol1):
        # Cores planted in the Dirichlet ground state, whose wall bands give
        # thousands of candidates with no contrast inside their own band.
        gs = desk_ground_state.field
        mesh = gs.mesh
        zeros = [1.0 + 0j, 1j, -1.0 + 0j, -1j]
        u = Field(mesh, gs.values * planted_state(mesh, zeros, [+1, -1, +1, -1]).values)
        params = DetectionParams(tol1=tol1)
        stats = {}
        want = full_shell_detect(u, params, stats)
        assert np.count_nonzero(u.abs2() < tol1) > 1000
        assert stats["own_band_failures"] > 1000
        assert len(want) == len(zeros)
        assert detect_by_density(u, params) == want


class TestWinding:
    def test_canonical_signs(self, mesh):
        z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
        z0 = z[center_triangle(mesh, 1.0 + 0j)]
        for charge in (+1, -1):
            u = planted_state(mesh, [z0], [charge])
            rec = detect_by_density(u, DetectionParams())[0]
            assert vortex_index(u, rec) == charge

    def test_double_zero_matches_oracle(self, mesh):
        z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
        z0 = z[center_triangle(mesh, 1.0 + 0j)]
        u = Field(mesh, sat_vortex(z, z0, +1) ** 2)
        recs = detect_by_density(u, DetectionParams())
        assert len(recs) == 1
        got = vortex_index(u, recs[0])
        expect = winding_oracle(lambda w: sat_vortex(w, z0, +1) ** 2, z0, 0.1)
        assert expect == pytest.approx(2.0, abs=1e-9)
        assert got == 2

    def test_zero_modulus_on_shell_raises(self, mesh):
        z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
        t0 = center_triangle(mesh, 1.0 + 0j)
        u = planted_state(mesh, [z[t0]], [+1])
        rec = detect_by_density(u, DetectionParams())[0]
        vals = u.values.copy()
        shell = triangle_shells(mesh, rec.triangle, rec.characteristic_length)
        vals[shell[rec.characteristic_length][0]] = 0.0
        poisoned = Field.__new__(Field)
        object.__setattr__(poisoned, "mesh", mesh)
        object.__setattr__(poisoned, "values", vals)
        with pytest.raises(ValueError, match="zero modulus"):
            vortex_index(poisoned, rec)

    def test_unwrap_invariant_raises_numerical_error(self, mesh, monkeypatch):
        z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
        t0 = center_triangle(mesh, 1.0 + 0j)
        u = planted_state(mesh, [z[t0]], [+1])
        rec = detect_by_density(u, DetectionParams())[0]
        # An unwrap that leaves a jump above pi breaks the lifting invariant;
        # the detector must not mistake it for an unreliable record.
        monkeypatch.setattr(vortex.np, "unwrap", lambda p: p + 4.0 * np.arange(p.size))
        match = f"center {rec.triangle} on its shell"
        with pytest.raises(NumericalError, match=match):
            vortex_index(u, rec)
        with pytest.raises(NumericalError, match=match):
            detect_by_density(u, DetectionParams())


class TestRegularizedVorticity:
    def test_real_field_is_zero(self, mesh):
        u = Field(mesh, (1.0 + mesh.centers[:, 0] ** 2).astype(complex))
        w = regularized_vorticity(u, 0.1)
        assert np.abs(w.values).max() == 0.0

    def test_plane_wave_interior_curl_small(self, mesh):
        # Constant velocity field: the interior curl residue is pure
        # discretization error, measured at 5.4e-3 for this mesh; boundary
        # rows are polluted by the homogeneous-boundary gradient closure.
        k = np.array([1.5, 0.7])
        u = Field(mesh, np.exp(1j * (mesh.centers @ k)))
        w = regularized_vorticity(u, 0.1)
        deep = (mesh.band >= 2) & (mesh.band <= mesh.n_bands - 3)
        assert np.abs(w.values[deep]).max() < 0.05

    def test_sign_convention_at_core(self, mesh):
        z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
        z0 = 1.0 + 0j
        for charge in (+1, -1):
            u = planted_state(mesh, [z0], [charge])
            w = regularized_vorticity(u, 0.1)
            peak = np.argmax(np.abs(w.values))
            assert np.sign(w.values[peak]) == charge
            assert abs(z[peak] - z0) < 1.5 * mesh.params.h

    def test_delta_validation(self, mesh):
        with pytest.raises(ValueError):
            regularized_vorticity(Field.constant(mesh, 1.0 + 0j), 0.0)


class TestPseudoVorticity:
    def test_linear_field_unit_interior(self, mesh):
        u = Field(mesh, mesh.centers[:, 0] + 1j * mesh.centers[:, 1])
        w = pseudo_vorticity(u)
        interior = (mesh.band >= 1) & (mesh.band <= mesh.n_bands - 2)
        assert np.abs(w.values[interior] - 1.0).max() < 1e-12

    def test_real_field_is_zero(self, mesh):
        u = Field(mesh, np.cos(mesh.centers[:, 1]).astype(complex))
        assert np.abs(pseudo_vorticity(u).values).max() == 0.0

    def test_swap_re_im_flips_sign(self, mesh):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(mesh.n_triangles)
        b = rng.standard_normal(mesh.n_triangles)
        w1 = pseudo_vorticity(Field(mesh, a + 1j * b))
        w2 = pseudo_vorticity(Field(mesh, b + 1j * a))
        assert np.abs(w1.values + w2.values).max() < 1e-12


class TestBoundaryCondition:
    """A superflow exp(i k theta) of unit modulus up to Neumann walls."""

    K = 6

    def superflow(self, mesh):
        theta = np.arctan2(mesh.centers[:, 1], mesh.centers[:, 0])
        return Field(mesh, np.exp(1j * self.K * theta))

    def wall(self, mesh):
        at_wall = np.zeros(mesh.n_triangles, dtype=bool)
        at_wall[mesh.edge_K[mesh.boundary_edges]] = True
        return at_wall

    def test_neumann_wall_has_no_record(self, mesh):
        u = self.superflow(mesh)
        at_wall = self.wall(mesh)
        # The flow is curl-free: the Neumann gradients keep the walls below
        # the interior discretization error.
        w = pseudo_vorticity(u, "neumann")
        assert np.abs(w.values[at_wall]).max() < np.abs(w.values[~at_wall]).max()
        assert detect_by_vorticity(w, DetectionParams().vort_threshold) == []

    def test_regularized_vorticity_is_bc_blind(self, mesh):
        # conj(u) u times a real vector is real, so the ghost value drops
        # out of the velocity up to round-off.
        u = self.superflow(mesh)
        wd = regularized_vorticity(u, 0.1, "dirichlet").values
        wn = regularized_vorticity(u, 0.1, "neumann").values
        assert np.abs(wd - wn).max() <= 1e-12 * np.abs(wd).max()
        assert detect_by_vorticity(Field(mesh, wn), DetectionParams().vort_threshold) == []

    def test_dirichlet_ghost_makes_wall_records(self, mesh):
        # The ghost value 0 of a Dirichlet gradient turns the tangential
        # phase gradient at the walls into spurious vorticity.
        u = self.superflow(mesh)
        recs = detect_by_vorticity(pseudo_vorticity(u, "dirichlet"),
                                   DetectionParams().vort_threshold)
        assert recs
        assert all(self.wall(mesh)[r.triangle] for r in recs)

    def test_default_is_dirichlet(self, mesh):
        u = planted_state(mesh, [1.0 + 0j], [+1])
        assert np.array_equal(pseudo_vorticity(u).values, pseudo_vorticity(u, "dirichlet").values)
        assert np.array_equal(regularized_vorticity(u, 0.1).values,
                              regularized_vorticity(u, 0.1, "dirichlet").values)


class TestVorticityDetector:
    def test_zero_field_empty(self, mesh):
        w = Field.constant(mesh, 0.0)
        assert detect_by_vorticity(w, 1.0) == []

    @pytest.mark.parametrize("make", [
        lambda u: regularized_vorticity(u, 0.1),
        lambda u: pseudo_vorticity(u),
    ])
    def test_pair_two_components_opposite_signs(self, mesh, make):
        u = planted_state(mesh, [1.0 + 0j, -1.0 + 0j], [+1, -1])
        w = make(u)
        recs = detect_by_vorticity(w, 0.4 * np.abs(w.values).max())
        assert len(recs) == 2
        assert sorted(r.index_or_sign for r in recs) == [-1, 1]
        for r in recs:
            planted = 1.0 if r.index_or_sign > 0 else -1.0
            assert abs(complex(*r.position) - planted) < 1.5 * mesh.params.h
            assert r.characteristic_length == 0
            assert np.sign(r.extremum_value) == r.index_or_sign

    def test_single_core_collapses_to_one_record(self, mesh):
        u = planted_state(mesh, [1j], [+1])
        w = pseudo_vorticity(u)
        thr = 0.2 * np.abs(w.values).max()
        assert (np.abs(w.values) > thr).sum() > 1
        recs = detect_by_vorticity(w, thr)
        assert len(recs) == 1

    def test_net_charge_four_planted(self, mesh):
        u = planted_state(mesh, [1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, -1, +1, +1])
        w = pseudo_vorticity(u)
        recs = detect_by_vorticity(w, 0.4 * np.abs(w.values).max(),
                                   method="pseudo_vorticity")
        assert len(recs) == 4
        assert sum(r.index_or_sign for r in recs) == 2

    def test_threshold_validation(self, mesh):
        with pytest.raises(ValueError):
            detect_by_vorticity(Field.constant(mesh, 0.0), 0.0)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("zeros,charges", [
        ([1.0 + 0j], [+1]),
        ([1.0 + 0j, -1.0 + 0j], [+1, -1]),
        ([1.0 + 0j, 1j, -1j], [-1, +1, +1]),
        ([1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, -1, -1, +1]),
    ])
    def test_counts_and_signs_match(self, mesh, zeros, charges):
        u = planted_state(mesh, zeros, charges)
        by_density = detect_by_density(u, DetectionParams())
        wr = regularized_vorticity(u, 0.1)
        wp = pseudo_vorticity(u)
        by_reg = detect_by_vorticity(wr, 0.4 * np.abs(wr.values).max(),
                                     method="reg_vorticity")
        by_ps = detect_by_vorticity(wp, 0.4 * np.abs(wp.values).max())
        for recs in (by_density, by_reg, by_ps):
            assert len(recs) == len(zeros)
            for zi, ci in zip(zeros, charges):
                near = min(recs, key=lambda r: abs(complex(*r.position) - zi))
                assert near.index_or_sign == ci
