import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermoacoustic import acoustics as acoustics_mod
from thermoacoustic import grid as grid_mod
from thermoacoustic.acoustics import _westervelt_solve, _westervelt_system
from thermoacoustic.coupling import _Workspace
from thermoacoustic.grid import (
    FaceField,
    Grid1D,
    GridMismatch,
    NodeField,
    NonFinite,
    SingularSystem,
    _dirichlet_gradient,
    _face_extend,
    _thomas,
    _thomas_loop,
    divergence_from_faces,
    gradient_to_faces,
    interior_gradient,
    l2_inner,
    l2_norm,
    laplacian_dirichlet,
    solve_tridiagonal,
)
from thermoacoustic.heat import _cattaneo_update, _fourier_update, _heat_matrix
from thermoacoustic.verification import unit_params


@pytest.fixture
def grid64():
    return Grid1D(1.0, 64)


def random_fields(grid, rng):
    w = FaceField(grid, rng.standard_normal(grid.N + 1))
    v = NodeField(grid, rng.standard_normal(grid.N))
    return w, v


class TestGridBasics:
    def test_spacing_and_coordinates(self):
        g = Grid1D(2.0, 3)
        assert g.dx == pytest.approx(0.5)
        assert np.allclose(g.nodes(), [0.5, 1.0, 1.5])
        assert np.allclose(g.faces(), [0.25, 0.75, 1.25, 1.75])

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1)

    @pytest.mark.parametrize(
        "L", [1e-200, math.nextafter(2.0 ** -511 * 3, 0.0), 2.0 ** 512 * 3, 1e300]
    )
    def test_spacing_whose_square_is_not_normal_rejected(self, L):
        # dx*dx underflows below the normal range or overflows: the stencils
        # divide by it
        with pytest.raises(ValueError, match=r"dx\*dx"):
            Grid1D(L, 2)

    @pytest.mark.parametrize(
        "L, N, match",
        [(0.0, 2, "positive"), (-1.0, 2, "positive"), (math.nan, 2, "positive"),
         (1.0, 10**400, r"dx\*dx"), (1.0, 2.5, "^N must be an integer"),
         (1.0, 3.0, "^N must be an integer"), (1.0, True, "^N must be an integer")],
        ids=["zero_L", "negative_L", "nan_L", "N_beyond_float", "fractional_N", "float_N",
             "bool_N"],
    )
    def test_unusable_length_or_size_rejected(self, L, N, match):
        with pytest.raises(ValueError, match=match):
            Grid1D(L, N)

    def test_spacing_at_the_ends_of_the_normal_range_accepted(self):
        tiny, huge = 2.0 ** -511 * 3, 2.0 ** 511 * 3
        for L in (tiny, huge):
            dx = Grid1D(L, 2).dx
            assert 2.0 ** -1022 <= dx * dx < math.inf
            assert 4.0 / dx**2 > 0.0

    def test_nonfinite_field_rejected(self, grid64):
        vals = np.zeros(64)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            NodeField(grid64, vals)

    def test_nonfinite_names_field_and_first_index(self, grid64):
        vals = np.zeros(65)
        vals[[7, 9]] = [np.inf, np.nan]
        with pytest.raises(NonFinite) as err:
            FaceField(grid64, vals)
        assert (err.value.what, err.value.index, err.value.step) == ("FaceField", 7, None)
        located = err.value.located(4, 0.25)
        assert str(located) == (
            "FaceField contains non-finite entries (first at index 7) at step 4, t=0.25"
        )

    def test_repr_names_class_size_and_values(self):
        field = NodeField(Grid1D(1.0, 2), [1.0, 2.0])
        assert repr(field) == "NodeField(N=2, values=array([1., 2.]))"

    def test_wrong_length_rejected(self, grid64):
        with pytest.raises(ValueError):
            NodeField(grid64, np.zeros(65))
        with pytest.raises(ValueError):
            FaceField(grid64, np.zeros(64))


class TestGradient:
    def test_zero(self, grid64):
        out = gradient_to_faces(grid64.zero_node_field())
        assert np.all(out.values == 0.0)

    def test_linear_profile_with_dirichlet_closure(self):
        # u_j = x_j on N=3: interior difference quotients are 1, the last
        # face sees the implicit boundary zero.
        g = Grid1D(1.0, 3)
        u = NodeField(g, g.nodes())
        out = gradient_to_faces(u).values
        assert np.allclose(out[:-1], 1.0)
        assert out[-1] == pytest.approx(-g.nodes()[-1] / g.dx)
        assert out[-1] == pytest.approx(-3.0)

    def test_sine_truncation_bound(self):
        g = Grid1D(1.0, 127)
        u = NodeField(g, np.sin(np.pi * g.nodes()))
        exact = np.pi * np.cos(np.pi * g.faces())
        err = np.max(np.abs(gradient_to_faces(u).values - exact))
        assert err <= 1.1 * math.pi**3 * g.dx**2 / 24.0


class TestDivergence:
    def test_constant_annihilated(self, grid64):
        out = divergence_from_faces(FaceField(grid64, np.full(65, 3.7)))
        assert np.all(out.values == 0.0)

    def test_linear_face_profile(self, grid64):
        out = divergence_from_faces(FaceField(grid64, grid64.faces()))
        assert np.allclose(out.values, 1.0)

    def test_adjointness_random_pairs(self, grid64):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w, v = random_fields(grid64, rng)
            defect = abs(
                l2_inner(divergence_from_faces(w), v)
                + l2_inner(w, gradient_to_faces(v))
            )
            assert defect <= 1e-12 * l2_norm(w) * l2_norm(v)


class TestLaplacian:
    def test_quadratic_is_exact(self, grid64):
        x = grid64.nodes()
        u = NodeField(grid64, x * (1.0 - x))
        assert np.max(np.abs(laplacian_dirichlet(u).values + 2.0)) <= 1e-10

    def test_zero(self, grid64):
        assert np.all(laplacian_dirichlet(grid64.zero_node_field()).values == 0.0)

    def test_sine_truncation(self):
        g = Grid1D(1.0, 127)
        s = np.sin(np.pi * g.nodes())
        out = laplacian_dirichlet(NodeField(g, s)).values
        rel = np.max(np.abs(out + np.pi**2 * s)) / np.pi**2
        assert rel <= 1e-3

    def test_equals_divergence_of_gradient_bitwise(self, grid64):
        rng = np.random.default_rng(3)
        u = NodeField(grid64, rng.standard_normal(64))
        composed = divergence_from_faces(gradient_to_faces(u))
        assert laplacian_dirichlet(u).values.tobytes() == composed.values.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_sine_modes_are_eigenvectors(self, grid64, k):
        s = np.sin(k * np.pi * grid64.nodes())
        out = laplacian_dirichlet(NodeField(grid64, s)).values
        lam = grid64.laplacian_eigenvalue(k)
        assert np.max(np.abs(out + lam * s)) <= 1e-11 * lam


class TestLinearity:
    def test_operators_are_linear(self, grid64):
        rng = np.random.default_rng(11)
        a, b = 1.7, -0.4
        u1 = NodeField(grid64, rng.standard_normal(64))
        u2 = NodeField(grid64, rng.standard_normal(64))
        for op in (gradient_to_faces, laplacian_dirichlet):
            lhs = op(a * u1 + b * u2).values
            rhs = a * op(u1).values + b * op(u2).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs) + 1)
        w1 = FaceField(grid64, rng.standard_normal(65))
        w2 = FaceField(grid64, rng.standard_normal(65))
        lhs = divergence_from_faces(a * w1 + b * w2).values
        rhs = a * divergence_from_faces(w1).values + b * divergence_from_faces(w2).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs) + 1)


class TestNormsAndInner:
    def test_constant_norm(self, grid64):
        u = NodeField(grid64, np.ones(64))
        assert l2_norm(u) ** 2 == pytest.approx(64 / 65, abs=1e-15)

    def test_sine_parseval(self, grid64):
        u = NodeField(grid64, np.sin(np.pi * grid64.nodes()))
        assert abs(l2_norm(u) ** 2 - 0.5) <= 1e-14

    def test_inner_consistent_with_norm(self, grid64):
        rng = np.random.default_rng(5)
        u = NodeField(grid64, rng.standard_normal(64))
        assert l2_inner(u, u) == pytest.approx(l2_norm(u) ** 2, rel=1e-15)

    def test_grid_mismatch_rejected(self, grid64):
        other = Grid1D(1.0, 32)
        with pytest.raises(GridMismatch):
            l2_inner(grid64.zero_node_field(), other.zero_node_field())
        with pytest.raises(GridMismatch):
            l2_inner(grid64.zero_node_field(), grid64.zero_face_field())

    def test_interior_gradient_of_constant(self, grid64):
        out = interior_gradient(NodeField(grid64, np.full(64, 2.3)))
        assert out.shape == (63,)
        assert np.all(out == 0.0)


_EPS = np.finfo(float).eps
random_grids = st.builds(
    Grid1D, L=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False), N=st.integers(2, 400)
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=random_grids, seed=st.integers(0, 2**32 - 1))
def test_summation_by_parts_on_random_grids(grid, seed):
    # <div w, v> = -<w, grad v> up to the rounding of the two sums, on any
    # grid: the error bound scales with the sums of absolute products.
    w, v = random_fields(grid, np.random.default_rng(seed))
    div_w, grad_v = divergence_from_faces(w), gradient_to_faces(v)
    defect = abs(l2_inner(div_w, v) + l2_inner(w, grad_v))
    scale = grid.dx * (
        np.sum(np.abs(div_w.values * v.values)) + np.sum(np.abs(w.values * grad_v.values))
    )
    assert defect <= 8 * (grid.N + 1) * _EPS * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(grid=random_grids, data=st.data())
def test_parseval_identities_on_random_grids(grid, data):
    # For every mode k <= N: ||sin||^2 over the nodes and ||cos||^2 over the
    # faces are L/2, -Lap_h sin = lambda_h(k) sin, and by summation by parts
    # ||grad_h sin||^2 = lambda_h(k) ||sin||^2.
    k = data.draw(st.integers(1, grid.N))
    L, tol = grid.L, 16 * (grid.N + 1) * _EPS
    u = NodeField(grid, np.sin(k * np.pi * grid.nodes() / L))
    cos_faces = FaceField(grid, np.cos(k * np.pi * grid.faces() / L))
    assert abs(l2_norm(u) ** 2 - L / 2) <= tol * L
    assert abs(l2_norm(cos_faces) ** 2 - L / 2) <= tol * L
    lam, top = grid.laplacian_eigenvalue(k), 4.0 / grid.dx**2  # lambda_h(k) <= top
    assert np.max(np.abs(laplacian_dirichlet(u).values + lam * u.values)) <= tol * top
    assert abs(l2_norm(gradient_to_faces(u)) ** 2 - lam * l2_norm(u) ** 2) <= tol * top * L


def _kept(diag, lower, upper, rhs, work=None, dominant=False):
    """_thomas through a _Tridiagonal its caller keeps, as the coupled kernel solves;
    _thomas without one makes a one-shot solve."""
    return _thomas(diag, lower, upper, rhs, work or grid_mod._Tridiagonal(len(diag)), dominant)


both_paths = pytest.mark.parametrize("solve", [_thomas, _kept], ids=["fresh", "kept"])


class TestTridiagonal:
    def test_identity(self, grid64):
        rng = np.random.default_rng(1)
        rhs = NodeField(grid64, rng.standard_normal(64))
        x = solve_tridiagonal(np.ones(64), np.zeros(63), np.zeros(63), rhs)
        assert np.array_equal(x.values, rhs.values)

    def test_laplacian_round_trip(self, grid64):
        # forward-apply the (scaled) Laplacian matrix, then solve back
        x = grid64.nodes()
        u = NodeField(grid64, x * (1.0 - x))
        rhs = NodeField(grid64, -grid64.dx**2 * laplacian_dirichlet(u).values)
        diag = np.full(64, 2.0)
        off = np.full(63, -1.0)
        sol = solve_tridiagonal(diag, off, off, rhs)
        assert np.max(np.abs(sol.values - u.values)) <= 1e-10

    def test_residual_contract(self, grid64):
        rng = np.random.default_rng(13)
        for _ in range(5):
            lower = rng.standard_normal(63)
            upper = rng.standard_normal(63)
            bulk = np.abs(np.concatenate(([0], lower))) + np.abs(np.concatenate((upper, [0])))
            diag = bulk + 1.0 + rng.random(64)
            rhs = NodeField(grid64, rng.standard_normal(64))
            x = solve_tridiagonal(diag, lower, upper, rhs).values
            resid = diag * x
            resid[1:] += lower * x[:-1]
            resid[:-1] += upper * x[1:]
            assert np.max(np.abs(resid - rhs.values)) <= 1e-10 * np.max(np.abs(rhs.values))

    def test_zero_row_is_singular(self, grid64):
        diag = np.ones(64)
        diag[10] = 0.0
        lower = np.zeros(63)
        upper = np.zeros(63)
        rhs = NodeField(grid64, np.ones(64))
        with pytest.raises(SingularSystem):
            solve_tridiagonal(diag, lower, upper, rhs)

    def test_tiny_pivot_is_singular(self):
        # no row interchange and a nonzero pivot 2**-52, below 1e-14 of its row
        g = Grid1D(1.0, 2)
        diag = np.array([2.0, 0.5 + 2.0**-52])
        rhs = NodeField(g, np.ones(2))
        with pytest.raises(SingularSystem):
            solve_tridiagonal(diag, np.ones(1), np.ones(1), rhs)

    @pytest.mark.parametrize("n", [1, 3])
    @both_paths
    def test_zero_first_pivot_is_singular(self, n, solve):
        # dgtsv interchanges rows (n = 3) or reports the zero pivot (n = 1), and
        # the loop that _thomas falls back to rejects row 0
        off = np.ones(n - 1)
        with pytest.raises(SingularSystem, match="row 0"):
            solve(np.array([0.0] + [4.0] * (n - 1)), off, off, np.ones(n))


@pytest.mark.parametrize(
    "n_diag, n_lower, n_upper",
    [(63, 63, 63), (64, 64, 63), (64, 63, 62)],
    ids=["short_diag", "long_lower", "short_upper"],
)
def test_solve_tridiagonal_rejects_band_lengths(grid64, n_diag, n_lower, n_upper):
    with pytest.raises(ValueError, match="inconsistent lengths"):
        solve_tridiagonal(np.ones(n_diag), np.zeros(n_lower), np.zeros(n_upper),
                          grid64.zero_node_field())


class TestTridiagonalLoop(TestTridiagonal):
    """The same cases with the LAPACK path switched off: the loop alone."""

    @pytest.fixture(autouse=True)
    def _loop_only(self, monkeypatch):
        monkeypatch.setattr(grid_mod, "_GTSV", None)


def _dominant_system(rng, n, decades, zero_share, rhs_zero_share=0.0):
    """Bands strictly diagonally dominant by rows and by columns, and a rhs.

    Entries have either sign and magnitudes spread over 10**-decades ..
    10**decades; a zero_share of the off-diagonal entries is 0.0.  By
    default the rhs has no zeros, which could give zero solution entries
    and thus the loop; rhs_zero_share sets a share of them to +-0.0.
    """

    def mixed(size, zeros):
        mantissa = rng.uniform(1.0, 10.0, size) * rng.choice([-1.0, 1.0], size)
        values = mantissa * 10.0 ** rng.integers(-decades, decades + 1, size)
        values[rng.random(size) < zeros] = 0.0
        return values

    lower, upper, rhs = mixed(n - 1, zero_share), mixed(n - 1, zero_share), mixed(n, 0.0)
    rhs[rng.random(n) < rhs_zero_share] *= 0.0
    rows = np.zeros(n)
    rows[1:] += np.abs(lower)
    rows[:-1] += np.abs(upper)
    cols = np.zeros(n)
    cols[:-1] += np.abs(lower)
    cols[1:] += np.abs(upper)
    floor = mixed(n, 0.0)
    bound = rng.uniform(1.01, 4.0, n) * np.maximum(rows, cols) + np.abs(floor)
    return np.copysign(bound, floor), lower, upper, rhs


@st.composite
def dominant_systems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _dominant_system(
        rng, draw(st.integers(2, 300)), draw(st.integers(0, 100)), draw(st.floats(0.0, 0.5))
    )


def _loop_reference(diag, lower, upper, rhs):
    return np.array(_thomas_loop(diag.tolist(), lower.tolist(), upper.tolist(), rhs.tolist()))


def _count_fallbacks(monkeypatch):
    calls = []

    def spy(*bands):
        calls.append(len(bands[0]))
        return _thomas_loop(*bands)

    monkeypatch.setattr(grid_mod, "_thomas_loop", spy)
    return calls


needs_lapack = pytest.mark.skipif(
    grid_mod._GTSV is None, reason="numpy ships no bundled OpenBLAS here"
)


def test_missing_lapack_symbol_is_none():
    assert grid_mod._lapack("no_such_routine_64_", []) is None


@both_paths
class TestLapackPath:
    @given(dominant_systems())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_loop_on_dominant_systems(self, solve, system):
        assert solve(*system).tobytes() == _loop_reference(*system).tobytes()

    @needs_lapack
    def test_dominant_systems_take_the_fast_path(self, monkeypatch, solve):
        rng = np.random.default_rng(17)
        sizes = rng.integers(2, 301, 200)
        systems = [_dominant_system(rng, int(n), 100, 0.0) for n in sizes]
        expected = [_loop_reference(*sys_) for sys_ in systems]
        calls = _count_fallbacks(monkeypatch)
        for sys_, ref in zip(systems, expected):
            assert solve(*sys_).tobytes() == ref.tobytes()
        assert calls == []

    def test_row_interchange_falls_back_to_loop(self, monkeypatch, solve):
        # |diag[0]| < |lower[0]|: partial pivoting swaps rows 0 and 1, so
        # dgtsv's operations differ from the loop's.
        diag = np.array([1.0, 4.0, 4.0, 4.0])
        lower = np.array([3.0, 1.0, 1.0])
        upper = np.array([1.0, 1.0, 1.0])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        ref = _loop_reference(diag, lower, upper, rhs)
        calls = _count_fallbacks(monkeypatch)
        assert solve(diag, lower, upper, rhs).tobytes() == ref.tobytes()
        if grid_mod._GTSV is not None:
            assert calls == [4]

    def test_negative_zero_solution_falls_back_to_loop(self, monkeypatch, solve):
        # dgtsv's back substitution subtracts 0.0 * x[i+2], which turns the
        # loop's -0.0 entries into +0.0 here.
        diag = np.full(6, 4.0)
        off = np.full(5, -1.0)
        rhs = np.full(6, -0.0)
        ref = _loop_reference(diag, off, off, rhs)
        assert np.all(np.signbit(ref))
        calls = _count_fallbacks(monkeypatch)
        assert solve(diag, off, off, rhs).tobytes() == ref.tobytes()
        if grid_mod._GTSV is not None:
            assert calls == [6]


@pytest.mark.parametrize("rows", [4, 5])
@pytest.mark.parametrize("n", [2, 128, 256])
def test_lapack_buffer_rows_point_at_its_rows(rows, n):
    # LAPACK reads and writes each row through its prebuilt pointer: dgtsv 4
    # rows of a kept object (DL, D, DU, B), dgttrs 5 and IPIV of a factored
    # one; all six pointers are checked either way
    work = grid_mod._Tridiagonal(n)
    if rows == 5:
        assert work.factor(np.full(n, 4.0), np.ones(n - 1), np.ones(n - 1)) is work
    assert [row.value for row in work.rows] == [work.buf.ctypes.data + 8 * n * k for k in range(6)]


@needs_lapack
def test_one_shot_solve_builds_no_row_pointers(monkeypatch):
    # A one-shot solve passes its row addresses to dgtsv as ints: for one call,
    # converting them costs less than building a c_void_p per row, which only
    # an object kept for many calls does.
    built = []
    pointer = grid_mod.ctypes.c_void_p

    def spy(*args):
        built.append(args)
        return pointer(*args)

    system = _dominant_system(np.random.default_rng(30), 64, 10, 0.0)
    calls = _count_fallbacks(monkeypatch)
    monkeypatch.setattr(grid_mod.ctypes, "c_void_p", spy)
    assert _thomas(*system).tobytes() == _loop_reference(*system).tobytes()
    assert (built, calls) == ([], [])
    grid_mod._Tridiagonal(64)
    assert len(built) == 6


@pytest.mark.parametrize("path", ["fresh", "kept", "loop", "factored"])
def test_solution_owns_its_floats(path):
    # A solution kept for later, such as v in a stepper's history ring, holds
    # its own n floats, not a view that keeps a LAPACK buffer alive.
    diag, off = np.full(6, 4.0), np.full(5, -1.0)
    rhs = np.full(6, -0.0) if path == "loop" else np.arange(1.0, 7.0)
    if path == "factored":
        x = grid_mod._Tridiagonal(6).factor(diag, off, off).solve(rhs)
    else:
        x = (_kept if path == "kept" else _thomas)(diag, off, off, rhs)
    assert x.base is None and x.shape == (6,)
    assert x.tobytes() == _loop_reference(diag, off, off, rhs).tobytes()


def _factored_solve(diag, lower, upper, rhs):
    """A solve as the heat stepper makes it: factored once when possible."""
    lu = grid_mod._Tridiagonal(len(diag)).factor(diag, lower, upper)
    return lu.solve(rhs) if lu.factored else _thomas(diag, lower, upper, rhs)


@st.composite
def dominant_systems_with_zero_rhs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _dominant_system(
        rng, draw(st.integers(2, 300)), draw(st.integers(0, 100)), draw(st.floats(0.0, 0.5)),
        rhs_zero_share=draw(st.floats(0.0, 1.0)),
    )


@given(dominant_systems_with_zero_rhs())
@settings(max_examples=150, deadline=None)
def test_factored_solve_bytes_equal_loop_on_dominant_systems(system):
    ref = _loop_reference(*system).tobytes()
    for solve in (_thomas, _kept):
        assert solve(*system).tobytes() == ref
    assert _factored_solve(*system).tobytes() == ref
    with mock.patch.object(grid_mod, "_GTTRF", None), mock.patch.object(grid_mod, "_GTTRS", None):
        assert _factored_solve(*system).tobytes() == ref


class TestFactoredPath:
    """_Tridiagonal.factor (dgttrf once) and solve (dgttrs per rhs) against the loop."""

    def _factors(self):
        return grid_mod._GTTRF is not None and grid_mod._GTTRS is not None

    def test_dominant_systems_factor_once_and_take_the_fast_path(self, monkeypatch):
        rng = np.random.default_rng(19)
        systems = [_dominant_system(rng, int(n), 100, 0.0) for n in rng.integers(2, 301, 50)]
        calls = _count_fallbacks(monkeypatch)
        for diag, lower, upper, _ in systems:
            lu = grid_mod._Tridiagonal(len(diag)).factor(diag, lower, upper)
            assert lu.factored == self._factors()
            for _ in range(4):
                rhs = rng.uniform(1.0, 2.0, diag.shape[0]) * rng.choice([-1.0, 1.0], diag.shape[0])
                x = lu.solve(rhs) if lu.factored else _thomas(diag, lower, upper, rhs)
                assert x.tobytes() == _loop_reference(diag, lower, upper, rhs).tobytes()
        if grid_mod._GTSV is not None:
            assert calls == []

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative_zero"])
    def test_zero_solution_entries_fall_back_to_loop(self, monkeypatch, zero):
        # dgttrs's back substitution subtracts 0.0 * x[i+2] like dgtsv's, so
        # a zero solution entry may carry the wrong sign
        diag = np.full(6, 4.0)
        off = np.full(5, -1.0)
        rhs = np.full(6, zero)
        ref = _loop_reference(diag, off, off, rhs)
        assert np.all(np.signbit(ref) == np.signbit(zero))
        calls = _count_fallbacks(monkeypatch)
        assert _factored_solve(diag, off, off, rhs).tobytes() == ref.tobytes()
        if grid_mod._GTSV is not None:
            assert calls == [6]

    def test_row_interchange_is_not_factored(self):
        diag = np.array([1.0, 4.0, 4.0, 4.0])
        lower = np.array([3.0, 1.0, 1.0])
        upper = np.array([1.0, 1.0, 1.0])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        assert not grid_mod._Tridiagonal(len(diag)).factor(diag, lower, upper).factored
        ref = _loop_reference(diag, lower, upper, rhs)
        assert _factored_solve(diag, lower, upper, rhs).tobytes() == ref.tobytes()

    def test_unfactored_solve_gives_the_loop_bytes(self):
        # the row-interchange matrix above, solved by solve itself
        diag = np.array([1.0, 4.0, 4.0, 4.0])
        lower = np.array([3.0, 1.0, 1.0])
        upper = np.array([1.0, 1.0, 1.0])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        lu = grid_mod._Tridiagonal(len(diag)).factor(diag, lower, upper)
        assert not lu.factored
        assert lu.solve(rhs).tobytes() == _loop_reference(diag, lower, upper, rhs).tobytes()

    def test_tiny_pivot_is_not_factored_and_stays_singular(self):
        diag = np.array([2.0, 0.5 + 2.0**-52])
        assert not grid_mod._Tridiagonal(len(diag)).factor(diag, np.ones(1), np.ones(1)).factored
        with pytest.raises(SingularSystem):
            _factored_solve(diag, np.ones(1), np.ones(1), np.ones(2))


class TestFactoredPathWithoutGttrs(TestFactoredPath):
    """The same cases with dgttrf/dgttrs missing: no matrix is factored, so
    every _Tridiagonal.solve goes through the loop."""

    @pytest.fixture(autouse=True)
    def _no_gttrs(self, monkeypatch):
        monkeypatch.setattr(grid_mod, "_GTTRF", None)
        monkeypatch.setattr(grid_mod, "_GTTRS", None)


def test_one_shot_solve_leaves_no_stale_factors():
    # solve_once overwrites the rows that dgttrf factored, so a later solve of
    # the factored matrix must not run dgttrs on them
    rng = np.random.default_rng(29)
    kept, once = (_dominant_system(rng, 32, 10, 0.0) for _ in range(2))
    lu = grid_mod._Tridiagonal(32).factor(*kept[:3])
    assert lu.solve_once(*once).tobytes() == _loop_reference(*once).tobytes()
    assert lu.solve(kept[3]).tobytes() == _loop_reference(*kept).tobytes()


def test_reused_gtsv_buffer_gives_the_loop_bytes():
    rng = np.random.default_rng(23)
    work = grid_mod._Tridiagonal(64)
    solutions = []
    for _ in range(20):
        system = _dominant_system(rng, 64, 30, 0.2, rhs_zero_share=0.1)
        x = _thomas(*system, work)
        assert x.tobytes() == _loop_reference(*system).tobytes()
        solutions.append((x, x.copy()))
    # each result is its own array, not a view of the reused buffer
    assert all(x.tobytes() == kept.tobytes() for x, kept in solutions)


@st.composite
def run_systems(draw):
    """The two matrices a coupled run solves, each with a rhs: the Westervelt
    matrix for alpha >= 1 - gamma_bar > 0, r >= h_floor > 0 and b > 0, and
    the heat operator m/dt + ell - eta Lap_h.  Every scalar spans 16
    decades, and alpha and r vary by up to 8 more across the nodes."""
    magnitude = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def nodal(scale):
        return scale * 10.0 ** rng.uniform(-4.0, 4.0, n)

    alpha, r = nodal(draw(magnitude)), nodal(draw(magnitude))
    dt, dx, m, eta = (draw(magnitude) for _ in range(4))
    # m = rho_a and ell = W in the unit medium
    ell = draw(st.one_of(st.just(0.0), magnitude))
    params = replace(unit_params(b=draw(magnitude)), rho_a=m, W=ell)
    g, v, lap_p = (rng.standard_normal(n) * draw(magnitude) for _ in range(3))
    westervelt = _westervelt_system(alpha, r, g, v, lap_p, dt, params, dx)
    heat = _heat_matrix(Grid1D(dx * (n + 1), n), params, dt, eta)
    return westervelt, (*heat, rng.standard_normal(n) * draw(magnitude))


@given(run_systems())
@settings(max_examples=300, deadline=None)
def test_run_matrices_never_meet_a_vanishing_pivot(systems):
    # Both matrices are strictly diagonally dominant by rows, with margins
    # alpha/dt and m/dt + ell, so no solve of a run raises SingularSystem
    # (which _loop_reference would raise on a vanishing pivot).
    westervelt, heat = systems
    for system in (westervelt, heat):
        assert _thomas(*system).tobytes() == _loop_reference(*system).tobytes()
    factored = grid_mod._Tridiagonal(len(heat[0])).factor(*heat[:3]).solve(heat[3])
    assert factored.tobytes() == _loop_reference(*heat).tobytes()


@st.composite
def near_max_systems(draw):
    """Bands with the sign pattern of both run matrices (positive diagonal,
    nonpositive off-diagonals), strictly dominant by rows and by columns,
    scaled so the largest diagonal entry is within a factor 2 of the float
    maximum: a row's absolute sum often exceeds it, while every pivot
    stays below its diagonal entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag, lower, upper, rhs = _dominant_system(rng, draw(st.integers(2, 64)), 0, 0.0)
    scale = draw(st.floats(0.5, 0.99)) * np.finfo(float).max / np.abs(diag).max()
    # no rhs entry above the largest diagonal entry, so rhs * scale stays finite
    rhs = rhs * min(1.0, np.abs(diag).max() / np.abs(rhs).max())
    return np.abs(diag) * scale, -np.abs(lower) * scale, -np.abs(upper) * scale, rhs * scale


@given(near_max_systems())
@settings(max_examples=100, deadline=None)
def test_bands_near_the_float_maximum_meet_no_vanishing_pivot(system):
    # The pivot test scales each entry by _PIVOT_RTOL before summing a row,
    # so a row sum above the float maximum is no vanishing pivot.
    ref = _loop_reference(*system).tobytes()
    assert _thomas(*system).tobytes() == ref
    factored = grid_mod._Tridiagonal(len(system[0])).factor(*system[:3])
    assert factored.solve(system[3]).tobytes() == ref


def _with_full_check(solve, *args):
    """solve(*args), and the verdicts of the full checks
    (_eliminated_like_loop) it ran."""
    verdicts = []
    check = grid_mod._eliminated_like_loop

    def spy(*bands):
        verdicts.append(check(*bands))
        return verdicts[-1]

    with mock.patch.object(grid_mod, "_eliminated_like_loop", spy):
        return solve(*args), verdicts


def _certified_system(alpha, r, g, v, lap_p, dt, dx, b):
    """(bands, the certificate's verdict) that _westervelt_solve hands to
    _thomas for these inputs."""
    calls = []
    with mock.patch.object(acoustics_mod, "_thomas", lambda *bands: calls.append(bands)):
        _westervelt_solve(alpha, float(alpha.min()), r, g, v, np.zeros(len(r) + 1), lap_p,
                          dt, unit_params(b=b), dx)
    (*system, _, dominant), = calls
    return system, dominant


@st.composite
def westervelt_inputs(draw, n=None):
    """Raw inputs of a Westervelt solve over the whole float range.  dt, dx,
    b and the scale of r run from subnormal to near the float maximum; r
    varies by up to 16 decades across the nodes, may drop to (nearly) zero
    on a block, so s jumps, and is negative in half of the draws.  alpha's
    minimum sits on a node before the largest rise of s or anywhere, and
    a/dt lies within 64 ulps of the certificate's threshold or anywhere.
    n, when given, is the number of nodes."""
    with np.errstate(all="ignore"):
        magnitude = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
        n = draw(st.integers(2, 64)) if n is None else n
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dt, dx = draw(magnitude), draw(magnitude)
        b = draw(st.one_of(st.just(0.0), magnitude))
        scale = draw(magnitude) * draw(st.sampled_from([1.0, -1.0]))
        r = scale * 10.0 ** rng.uniform(-draw(st.integers(0, 16)), 0.0, n)
        if draw(st.booleans()):
            lo, hi = sorted(rng.integers(0, n + 1, 2))
            r[lo:hi] *= draw(st.sampled_from([0.0, 2.0**-60, 1e-300]))
        s = (dt * r + b) / (dx * dx)
        assume(np.isfinite(s).all())
        if draw(st.booleans()):
            threshold = s.max() - s.min() + 2.0**-48 * s.max()
            a_min = threshold * (1.0 + draw(st.integers(-64, 64)) * 2.0**-52)
        else:
            a_min = draw(magnitude)
        alpha = a_min * dt * 10.0 ** rng.uniform(0.0, draw(st.integers(0, 8)), n)
        node = int(np.argmax(np.diff(s))) if draw(st.booleans()) else int(rng.integers(n))
        alpha[node] = a_min * dt
        assume(np.isfinite(alpha).all() and alpha.min() > 0.0)
        g, v, lap_p = (rng.standard_normal(n) * draw(magnitude) for _ in range(3))
        assume(np.isfinite(np.concatenate((g, v, lap_p))).all())
    return alpha, r, g, v, lap_p, dt, dx, b


@needs_lapack
@both_paths
@given(westervelt_inputs())
@settings(max_examples=300, deadline=None)
def test_certified_westervelt_systems_are_eliminated_like_the_loop(solve, inputs):
    # Whenever the certificate holds, dgtsv swaps no row and every pivot
    # passes the loop's test (the full check agrees), so a finite nonzero
    # dgtsv result is the loop's to the byte and the loop meets no
    # vanishing pivot.
    with np.errstate(all="ignore"):
        system, dominant = _certified_system(*inputs)
        if dominant:
            x, verdicts = _with_full_check(solve, *system, None, True)
            assert verdicts == []
            assert _with_full_check(solve, *system)[1] == [True]
            assert x.tobytes() == _loop_reference(*system).tobytes()


@needs_lapack
@pytest.mark.parametrize(
    "alpha, r, swapped",
    [(1.0, [1.0, 1e6, 1.0, 1.0], True), (1e-20, [1.0] * 4, False)],
    ids=["steep_r", "tiny_a"],
)
def test_uncertified_westervelt_systems_get_the_full_check(alpha, r, swapped):
    # A steep r fails the certificate and makes dgtsv swap rows 0 and 1;
    # a tiny a fails it on the rounding margin alone, and dgtsv swaps none.
    # Either way the full check decides, and the loop's bytes come back.
    rhs = np.array([1.0, -2.0, 3.0, -4.0])
    system, dominant = _certified_system(
        np.full(4, alpha), np.array(r), rhs, np.zeros(4), np.zeros(4), 1.0, 1.0, 0.0
    )
    assert not dominant
    x, verdicts = _with_full_check(_thomas, *system)
    assert verdicts == [not swapped]
    assert x.tobytes() == _loop_reference(*system).tobytes()


def _signed_zeros(draw, n):
    """n entries of +0.0 or -0.0, as drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), -0.0, 0.0)


@st.composite
def westervelt_pairs(draw):
    """Two Westervelt inputs of one size, solved in a row.  Each keeps its
    g, v and lap_p or, in about half the draws, replaces all three by one
    pattern of signed zeros: the solution is then all zeros, whose signs
    the loop takes from the bands, so dgtsv's result goes to the loop."""
    n = draw(st.integers(2, 64))
    pair = []
    for _ in range(2):
        alpha, r, g, v, lap_p, dt, dx, b = draw(westervelt_inputs(n))
        if draw(st.booleans()):
            g = v = lap_p = _signed_zeros(draw, n)
        pair.append((alpha, r, g, v, lap_p, dt, dx, b))
    return pair


def _outcome(solve, *args):
    """The bytes of solve(*args), or the message of its SingularSystem."""
    try:
        return solve(*args).tobytes()
    except SingularSystem as exc:
        return f"SingularSystem: {exc}"


@given(westervelt_pairs())
@settings(max_examples=300, deadline=None)
def test_system_built_in_reused_rows_solves_like_a_fresh_one(pair):
    # The kernel builds each system in the scratch rows of its workspace and
    # solves it through the workspace's dgtsv buffer, both reused by every
    # iterate; certified or not, and whether the loop takes over or not, each
    # solve gives the bytes (or the SingularSystem) of _thomas on freshly
    # built arrays, so nothing of a solve leaks into the next one and every
    # fallback gets the untouched bands and rhs.
    n = len(pair[0][0])
    ws = _Workspace(Grid1D(1.0, n), 1e-3, unit_params(), 1e-10, 25, 0.5)
    with np.errstate(all="ignore"):
        for alpha, r, g, v, lap_p, dt, dx, b in pair:
            _, dominant = _certified_system(alpha, r, g, v, lap_p, dt, dx, b)
            args = alpha, r, g, v, lap_p, dt, unit_params(b=b), dx
            fresh = _outcome(lambda: _thomas(*_westervelt_system(*args), None, dominant))
            reused = _outcome(_westervelt_solve, alpha, float(alpha.min()), r, g, v,
                              np.zeros(n + 1), lap_p, dt, unit_params(b=b), dx, ws.gtsv, ws.rows)
            assert reused == fresh


@st.composite
def heat_rhs_pairs(draw):
    """A kernel workspace, the bands of its heat operator and two (f, m_theta,
    w_div_q) of its size, solved in a row; w_div_q is None (the Fourier
    update) in about half the draws, and about half the right-hand sides are
    signed zeros, which the loop solves; half of those get one spike in f,
    up to 1e308, whose solution may overflow or decay to exact zeros, so the
    loop solves a nonzero rhs."""
    n = draw(st.integers(2, 64))
    magnitude = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
    params = replace(unit_params(tau=draw(magnitude)), rho_a=draw(magnitude), W=draw(magnitude))
    grid, dt = Grid1D(draw(magnitude) * (n + 1), n), draw(magnitude)
    ws = _Workspace(grid, dt, params, 1e-10, 25, 0.5)
    bands = _heat_matrix(grid, params, dt, ws.eta)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        if draw(st.booleans()):
            f = m_theta = _signed_zeros(draw, n)
            w_div_q = None if draw(st.booleans()) else _signed_zeros(draw, n) * -1.0
            if draw(st.booleans()):
                f = f.copy()
                f[draw(st.integers(0, n - 1))] = draw(magnitude) * draw(st.sampled_from([1, 1e300]))
        else:
            f, m_theta, w_div_q = (rng.standard_normal(n) * draw(magnitude) for _ in range(3))
            w_div_q = None if draw(st.booleans()) else w_div_q
        pair.append((f, m_theta, w_div_q))
    return ws, bands, pair


@given(heat_rhs_pairs())
@settings(max_examples=200, deadline=None)
def test_heat_rhs_built_in_a_reused_row_solves_like_a_fresh_one(case):
    # The kernel's thermal update builds its rhs in one scratch row of the
    # workspace, reused by every iterate, and solves it with the workspace's
    # factored operator; each solve gives the bytes of a fresh operator's
    # solve of a fresh rhs, and a fallback gets that rhs untouched.
    ws, bands, pair = case
    for f, m_theta, w_div_q in pair:
        fresh = grid_mod._Tridiagonal(len(bands[0])).factor(*bands).solve
        if w_div_q is None:
            reused = _fourier_update(f, m_theta, ws.solve_heat, ws.heat_rhs)
            expected = fresh(f + m_theta)
        else:
            reused = _cattaneo_update(f, m_theta, w_div_q, ws.solve_heat, ws.heat_rhs)
            expected = fresh(f + m_theta - w_div_q)
        assert reused.tobytes() == expected.tobytes()


@given(westervelt_inputs())
@settings(max_examples=200, deadline=None)
def test_westervelt_bands_equal_the_stencil_formula(inputs):
    # The bands divide by -(dx*dx) once instead of negating the stencil
    # (dt r + b)/dx^2 twice; IEEE division and subtraction are symmetric in
    # sign, so the bytes equal the formula's.
    alpha, r, g, v, lap_p, dt, dx, b = inputs
    with np.errstate(all="ignore"):
        stencil = (dt * r + b) / (dx * dx)
        expected = (alpha / dt + 2.0 * stencil, -stencil[1:], -stencil[:-1],
                    alpha * v / dt + r * lap_p + g)
        system = _westervelt_system(alpha, r, g, v, lap_p, dt, unit_params(b=b), dx)
    for band, oracle in zip(system, expected, strict=True):
        assert band.tobytes() == oracle.tobytes()


# Finite values up to 1e300 in magnitude, with signed zeros and subnormals.
_stencil_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]),
    st.floats(-1e300, 1e300),
)


@st.composite
def grids_and_values(draw):
    grid = Grid1D(draw(st.floats(1e-2, 10.0)), draw(st.integers(2, 40)))
    nodes = draw(arrays(np.float64, grid.N, elements=_stencil_values))
    faces = draw(arrays(np.float64, grid.N + 1, elements=_stencil_values))
    return grid, nodes, faces


class TestStencilsMatchDiffFormulas:
    """The slicing stencils against the np.diff/np.concatenate formulas they
    replaced, byte for byte."""

    @given(grids_and_values())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_old_formulas(self, case):
        grid, nodes, faces = case
        dx = grid.dx
        old_gradient = np.diff(nodes, prepend=0.0, append=0.0) / dx
        old_extend = np.concatenate(([nodes[0]], 0.5 * (nodes[:-1] + nodes[1:]), [nodes[-1]]))
        assert _dirichlet_gradient(nodes, dx).tobytes() == old_gradient.tobytes()
        assert _face_extend(nodes).tobytes() == old_extend.tobytes()
        node_field = NodeField(grid, nodes)
        assert gradient_to_faces(node_field).values.tobytes() == old_gradient.tobytes()
        assert interior_gradient(node_field).tobytes() == (np.diff(nodes) / dx).tobytes()
        divergence = divergence_from_faces(FaceField(grid, faces)).values
        assert divergence.tobytes() == (np.diff(faces) / dx).tobytes()

    def test_boundary_faces_keep_signed_zeros(self):
        g = Grid1D(1.0, 3)
        out = _dirichlet_gradient(np.array([-0.0, 1.0, 0.0]), g.dx)
        # -0.0 - 0.0 stays -0.0; 0.0 - (+0.0) is +0.0, not -(+0.0)
        assert np.signbit(out[0]) and not np.signbit(out[-1])
