"""Staggered 1D grid, discrete operators, inner products and a tridiagonal kernel.

The domain is Omega = (0, L) with homogeneous Dirichlet conditions on the
node-centred unknowns.  Scalar fields (pressure, temperature) live at the N
interior nodes x_j = j*dx, j = 1..N; flux-like fields live at the N+1 cell
faces x_{j+1/2} = (j+1/2)*dx, j = 0..N, with dx = L/(N+1).  The two boundary
values of a node field are implicitly zero and are never stored.

The discrete gradient (nodes -> faces, with the zero boundary closure) and
the discrete divergence (faces -> nodes) are exact negative adjoints with
respect to the plain dx-weighted Euclidean inner products defined here:

    <div w, v>_nodes = -<w, grad v>_faces     for all w, v,

to rounding error.  This summation-by-parts identity is what makes the
semi-discrete energy balances of the heat and wave steppers exact in space,
and it pins the quadrature: every node and every face carries the full
weight dx (the faces are strictly interior points of the domain, so no
boundary half-weighting applies; total face weight is (N+1)*dx = L).

The same quadrature makes the discrete Parseval identities exact: for the
eigenpair u_j = sin(k*pi*x_j/L) the discrete Laplacian returns
-lambda_h(k) * u with lambda_h(k) = (4/dx^2) sin^2(k*pi*dx/(2L)), and
||sin||^2 = ||cos||^2 = L/2 exactly (up to rounding).
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "NodeField",
    "FaceField",
    "GridMismatch",
    "NonFinite",
    "SingularSystem",
    "gradient_to_faces",
    "divergence_from_faces",
    "laplacian_dirichlet",
    "interior_gradient",
    "l2_inner",
    "l2_norm",
    "solve_tridiagonal",
]


class GridMismatch(ValueError):
    """Fields living on different grids (or of different kinds) were combined."""


class NonFinite(ValueError):
    """A field or a diagnostic holds inf or nan.

    what names the field type or the report column; index is the first bad
    entry of a field (None for a scalar).  The coupled driver adds the
    failing step and time.
    """

    def __init__(self, what, index=None, step=None, time=None):
        self.what = what
        self.index = index
        self.step = step
        self.time = time
        at = "" if index is None else f" (first at index {index})"
        when = f" at step {step}, t={time:.6g}" if step is not None else ""
        super().__init__(f"{what} contains non-finite entries{at}{when}")

    def located(self, step: int, time: float) -> "NonFinite":
        return NonFinite(self.what, self.index, step, time)


class SingularSystem(ArithmeticError):
    """Tridiagonal elimination met a vanishing pivot."""


def _require(name: str, why: str, got: str = "") -> None:
    """Raise ValueError(f"{name} {why}{got}") unless why is ''; the rules below say why."""
    if why:
        raise ValueError(f"{name} {why}{got}")


def _count_problem(n, least: int) -> str:
    """Why n cannot be a count of at least `least`, or ''; a bool is not a count."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        return "must be an integer"
    return "" if n >= least else f"must be at least {least}"


def _length_problem(L: float, N: int) -> str:
    """Why L cannot be the length of a grid of N nodes, or '': the stencils
    divide by dx*dx, dx = L/(N+1), so it must be a normal float."""
    if not L > 0.0:
        return "must be positive"
    try:
        dx = L / (N + 1)
    except OverflowError:  # N beyond the float range
        dx = 0.0
    normal = sys.float_info.min <= dx * dx < math.inf
    return "" if normal else "must make dx*dx = (L/(N+1))**2 a normal float"


def _step_problem(dt: float, name: str = "dt") -> str:
    """Why dt cannot be a time step, or '' when it can: the energy diagnostics
    divide by dt*dt, so dt must be positive and dt*dt a finite normal float."""
    if not dt > 0.0:
        return "must be positive"
    if dt * dt == math.inf:
        return f"too large: {name}**2 must be a finite float"
    return "" if dt * dt >= sys.float_info.min else f"too small: {name}**2 must be a normal float"


def _tolerance_problem(tol: float) -> str:
    """Why tol cannot be a Picard tolerance, or ''."""
    return "must be finite" if tol == math.inf else "" if tol > 0.0 else "must be positive"


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid on (0, L) with N interior nodes.

    dx = L/(N+1); nodes at j*dx (j = 1..N), faces at (j+1/2)*dx (j = 0..N).
    """

    L: float
    N: int

    def __post_init__(self) -> None:
        _require("N", _count_problem(self.N, 2), f", got N={self.N}")
        _require("L", _length_problem(self.L, self.N), f", got L={self.L}, N={self.N}")

    @property
    def dx(self) -> float:
        return self.L / (self.N + 1)

    def nodes(self) -> np.ndarray:
        """Coordinates of the interior nodes, length N."""
        return np.arange(1, self.N + 1, dtype=float) * self.dx

    def faces(self) -> np.ndarray:
        """Coordinates of the cell faces, length N+1."""
        return (np.arange(0, self.N + 1, dtype=float) + 0.5) * self.dx

    def laplacian_eigenvalue(self, k: int) -> float:
        """Eigenvalue lambda_h(k) of -Delta_h for the mode sin(k*pi*x/L)."""
        s = math.sin(k * math.pi * self.dx / (2.0 * self.L))
        return 4.0 / self.dx**2 * s * s

    def zero_node_field(self) -> "NodeField":
        return NodeField(self, np.zeros(self.N))

    def zero_face_field(self) -> "FaceField":
        return FaceField(self, np.zeros(self.N + 1))


def _require_finite(what: str, values: np.ndarray) -> None:
    """Raise NonFinite(what, first bad index) unless every entry is finite."""
    finite = np.isfinite(values)
    if not finite[first := finite.argmin()]:  # the first False, else 0
        raise NonFinite(what, int(first))


def _check_arrays(arrays) -> None:
    """Raise the NonFinite of the first (kind, values) pair with a bad entry."""
    for kind, values in arrays:
        _require_finite(kind, values)


class _Field:
    """Shared machinery of NodeField / FaceField: validation and arithmetic."""

    __slots__ = ("grid", "values")

    _length_offset = 0  # number of entries minus N

    def __init__(self, grid: Grid1D, values) -> None:
        vals = np.asarray(values, dtype=float)
        expected = grid.N + self._length_offset
        if vals.shape != (expected,):
            raise ValueError(
                f"{type(self).__name__} on N={grid.N} needs shape ({expected},), "
                f"got {vals.shape}"
            )
        _require_finite(type(self).__name__, vals)
        self.grid = grid
        self.values = vals

    @classmethod
    def _proven(cls, grid: Grid1D, values: np.ndarray) -> "_Field":
        """A field of float values of its length, proven finite: no check runs."""
        field = object.__new__(cls)
        field.grid, field.values = grid, values
        return field

    def _check_compatible(self, other: "_Field") -> None:
        if type(self) is not type(other):
            raise GridMismatch(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.grid is not other.grid and self.grid != other.grid:
            raise GridMismatch("fields live on different grids")

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.grid, self.values + other.values)

    def __mul__(self, scalar):
        return type(self)(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={self.grid.N}, values={self.values!r})"


class NodeField(_Field):
    """Real field at the N interior nodes; boundary values are implicitly 0."""

    _length_offset = 0


class FaceField(_Field):
    """Real field at the N+1 cell faces."""

    _length_offset = 1


def _dirichlet_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Face values (u_{j+1} - u_j)/dx of node values, with the zero closure.
    Like the next two, it acts on the last axis of one level or K levels."""
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + 2,))
    padded[..., 1:-1] = values
    # the end faces subtract the boundary zero explicitly: 0.0 - (+0.0) is
    # +0.0, where -(+0.0) would be -0.0
    out = padded[..., 1:] - padded[..., :-1]
    out /= dx
    return out


def _difference_quotient(values: np.ndarray, dx: float) -> np.ndarray:
    """(values[j+1] - values[j])/dx: faces -> nodes divergence, or the
    interior gradient of node values."""
    out = values[..., 1:] - values[..., :-1]
    out /= dx
    return out


def _face_extend(node_values: np.ndarray) -> np.ndarray:
    """Interpolate node values to all N+1 faces, one-sided at the boundary."""
    out = np.empty(node_values.shape[:-1] + (node_values.shape[-1] + 1,))
    out[..., 0] = node_values[..., 0]
    np.add(node_values[..., :-1], node_values[..., 1:], out=out[..., 1:-1])
    out[..., 1:-1] *= 0.5
    out[..., -1] = node_values[..., -1]
    return out


def gradient_to_faces(u: NodeField) -> FaceField:
    """Difference quotient (u_{j+1} - u_j)/dx with the zero Dirichlet closure."""
    return FaceField(u.grid, _dirichlet_gradient(u.values, u.grid.dx))


def divergence_from_faces(w: FaceField) -> NodeField:
    """Difference quotient (w_{j+1/2} - w_{j-1/2})/dx at the nodes."""
    return NodeField(w.grid, _difference_quotient(w.values, w.grid.dx))


def laplacian_dirichlet(u: NodeField) -> NodeField:
    """Standard 3-point Laplacian; by construction div(grad(u)) bit for bit."""
    return divergence_from_faces(gradient_to_faces(u))


def interior_gradient(u: NodeField) -> np.ndarray:
    """One-sided gradient on the N-1 interior faces, without boundary closure.

    For fields that do not vanish on the boundary (frozen coefficients such
    as the wave-speed field): the Dirichlet closure of gradient_to_faces
    would fabricate O(1/dx) boundary gradients for them.
    """
    return _difference_quotient(u.values, u.grid.dx)


def _l2(values: np.ndarray, dx: float) -> float:
    return math.sqrt(dx * float(np.dot(values, values)))


def l2_inner(u: _Field, v: _Field) -> float:
    """dx-weighted Euclidean inner product of two same-kind, same-grid fields."""
    u._check_compatible(v)
    return u.grid.dx * float(np.dot(u.values, v.values))


def l2_norm(u: _Field) -> float:
    return _l2(u.values, u.grid.dx)


_PIVOT_RTOL = 1e-14


def _thomas_loop(diag, lower, upper, rhs):
    """Thomas elimination on Python lists; returns the solution as a list.

    The reference for _thomas and its fallback.  Raises SingularSystem
    when a pivot is zero or falls below the sum of the original matrix
    row's absolute entries, each times _PIVOT_RTOL (scaled before summing,
    so the sum cannot overflow).
    """
    n = len(diag)
    d = [0.0] * n
    y = [0.0] * n
    r = _PIVOT_RTOL
    piv = diag[0]
    scale = r * abs(diag[0]) + (r * abs(upper[0]) if n > 1 else 0.0)
    if piv == 0.0 or abs(piv) < scale:
        raise SingularSystem(f"vanishing pivot at row 0 (pivot={piv!r})")
    d[0] = piv
    y[0] = rhs[0]
    for i in range(1, n):
        w = lower[i - 1] / d[i - 1]
        piv = diag[i] - w * upper[i - 1]
        scale = r * abs(lower[i - 1]) + r * abs(diag[i])
        if i < n - 1:
            scale += r * abs(upper[i])
        if piv == 0.0 or abs(piv) < scale:
            raise SingularSystem(f"vanishing pivot at row {i} (pivot={piv!r})")
        d[i] = piv
        y[i] = rhs[i] - w * y[i - 1]
    x = [0.0] * n
    x[n - 1] = y[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] - upper[i] * x[i + 1]) / d[i]
    return x


def _lapack(name: str, argtypes: list):
    """LAPACK routine ``name`` of the OpenBLAS bundled with numpy's wheel, or None.

    The library (numpy.libs/libscipy_openblas64_*) is already mapped into
    every process that imports numpy, so loading it costs neither import
    time nor memory.  It is built with 64-bit integers, and the Fortran ABI
    passes every argument by reference.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        lib = min(f for f in os.listdir(libdir) if f.startswith("libscipy_openblas64_"))
        routine = getattr(ctypes.CDLL(os.path.join(libdir, lib)), name)
    except (OSError, ValueError, AttributeError):  # no directory, library or symbol
        return None
    routine.argtypes = argtypes
    routine.restype = None
    return routine


_REF, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
# N, NRHS, DL, D, DU, B, LDB, INFO
_GTSV = _lapack("scipy_dgtsv_64_", [_REF, _REF] + [_PTR] * 4 + [_REF, _REF])
# N, DL, D, DU, DU2, IPIV, INFO
_GTTRF = _lapack("scipy_dgttrf_64_", [_REF] + [_PTR] * 5 + [_REF])
# TRANS, N, NRHS, DL, D, DU, DU2, IPIV, B, LDB, INFO, hidden length of TRANS
_GTTRS = _lapack(
    "scipy_dgttrs_64_", [ctypes.c_char_p, _REF, _REF] + [_PTR] * 6 + [_REF, _REF, ctypes.c_size_t]
)
_ONE = ctypes.c_int64(1)  # NRHS; read, never written, by LAPACK


class _LapackBuffer:
    """A (rows, n) LAPACK buffer: bands lower, diag, upper in its first rows (the
    last entry of lower and upper stays 0), rhs B in its last, kept as views dl,
    d, du, b, with int64 N and INFO and a prebuilt c_void_p to each row, so a
    call converts no Python int; reused across solves of one size."""

    __slots__ = ("buf", "dl", "d", "du", "b", "rows", "size", "info")

    def __init__(self, rows: int, n: int) -> None:
        buf = self.buf = np.zeros((rows, n))
        self.dl, self.d, self.du, self.b = buf[0, :-1], buf[1], buf[2, :-1], buf[-1]
        at = buf.ctypes.data
        self.rows = tuple(ctypes.c_void_p(at + 8 * n * k) for k in range(rows))
        self.size = ctypes.c_int64(n)
        self.info = ctypes.c_int64(0)

    def load_bands(self, diag, lower, upper) -> None:
        self.dl[...] = lower  # kept views: indexing buf for each copy costs more than the copy
        self.d[...] = diag
        self.du[...] = upper


def _eliminated_like_loop(u_diag: np.ndarray, diag, lower, upper) -> bool:
    """Whether an LU elimination of the matrix with these bands interchanged
    no row and left a U diagonal u_diag that passes the loop's _PIVOT_RTOL
    row test."""
    n = u_diag.shape[0]
    piv = np.abs(u_diag)
    abs_lower = np.abs(lower)
    if np.count_nonzero(piv[:-1] > abs_lower) != n - 1:  # a row interchange
        return False
    # the loop's row scales; addition commutes, so the order matches
    scale = _PIVOT_RTOL * np.abs(diag)
    scale[1:] += _PIVOT_RTOL * abs_lower
    scale[:-1] += _PIVOT_RTOL * np.abs(upper)
    return np.count_nonzero(piv >= scale) == n


def _finite_nonzero(x: np.ndarray) -> bool:
    size = np.abs(x)  # argmin and argmax find its extremes, or its first nan
    return 0.0 < size.item(size.argmin()) and size.item(size.argmax()) < math.inf


def _loop(diag, lower, upper, rhs) -> np.ndarray:
    return np.array(_thomas_loop(diag.tolist(), lower.tolist(), upper.tolist(), rhs.tolist()))


def _thomas(
    diag: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rhs: np.ndarray,
    work: _LapackBuffer | None = None,
    dominant: bool = False,
) -> np.ndarray:
    """Solve the tridiagonal system (lower[i] on row i+1) into a fresh array.

    Without a row interchange dgtsv performs the IEEE operations of
    _thomas_loop, except that its back substitution also subtracts
    0.0 * x[i+2], which can flip the sign of a zero entry or turn 0 * inf
    into nan.  So its result is returned only when info is 0, no row was
    interchanged, every pivot passes the loop's _PIVOT_RTOL row test and
    every entry is finite and nonzero; it then equals the loop's bit for
    bit.  dominant=True, from the Westervelt certificate of acoustics, skips
    checking the middle two.  Otherwise, and without the library, the loop
    runs and returns its result or raises SingularSystem.  work, a
    _LapackBuffer(4, n), saves the allocations of a call.  The bands and rhs
    are copied into its rows, which dgtsv overwrites, so the check and the
    loop read the caller's arrays untouched, wherever they were built.
    """
    if _GTSV is not None:
        n = diag.shape[0]
        fresh = work is None
        if fresh:
            work = _LapackBuffer(4, n)
        work.load_bands(diag, lower, upper)
        work.b[...] = rhs  # -> solution
        _GTSV(work.size, _ONE, *work.rows, work.size, work.info)
        x = work.b
        if (
            work.info.value == 0
            and (dominant or _eliminated_like_loop(work.d, diag, lower, upper))
            and _finite_nonzero(x)
        ):
            return x if fresh else x.copy()
    return _loop(diag, lower, upper, rhs)


class _FactoredTridiagonal:
    """A tridiagonal matrix factored once by dgttrf, for repeated dgttrs solves.

    Without row interchange dgttrf and dgttrs perform the IEEE operations
    of _thomas_loop (w = l/d, d - w*u, b - w*y, (y - u*x)/d), plus dgtsv's
    0.0 * x[i+2] term.  ``factored`` says whether the routines exist and the
    factorization interchanged no row and passes the loop's pivot test,
    checked once here.  The loop is the one fallback: it solves every rhs
    when ``factored`` is false (dgtsv would make the pivot decisions just
    rejected), and each dgttrs solution that is not finite and nonzero.
    """

    def __init__(self, diag: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        n = diag.shape[0]
        self.bands = (diag, lower, upper)
        self.lu = _LapackBuffer(5, n)  # rows: DL, D, DU, DU2, B
        self.ipiv = np.zeros(n, dtype=np.int64)
        # DL, D, DU, DU2, IPIV, B
        self.ptrs = (*self.lu.rows[:4], ctypes.c_void_p(self.ipiv.ctypes.data), self.lu.rows[4])
        self.lu.load_bands(diag, lower, upper)
        self.factored = _GTTRF is not None and _GTTRS is not None
        if self.factored:
            _GTTRF(self.lu.size, *self.ptrs[:5], self.lu.info)
            self.factored = self.lu.info.value == 0 and _eliminated_like_loop(
                self.lu.d, *self.bands
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution for rhs as a fresh array."""
        if self.factored:
            lu = self.lu
            lu.b[...] = rhs
            _GTTRS(b"N", lu.size, _ONE, *self.ptrs, lu.size, lu.info, 1)
            if lu.info.value == 0 and _finite_nonzero(lu.b):
                return lu.b.copy()
        return _loop(*self.bands, rhs)


def solve_tridiagonal(diag, lower, upper, rhs: NodeField) -> NodeField:
    """Solve the tridiagonal system A x = rhs for a node field.

    diag has length N, lower/upper length N-1 (lower[i] sits on row i+1).
    Intended for the diagonally dominant systems assembled by the implicit
    steppers; the residual then satisfies ||A x - rhs||_inf <= 1e-10
    ||rhs||_inf.  Raises SingularSystem on a vanishing pivot.
    """
    n = rhs.grid.N
    dg = np.asarray(diag, dtype=float)
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    if dg.shape != (n,) or lo.shape != (n - 1,) or up.shape != (n - 1,):
        raise ValueError("tridiagonal bands have inconsistent lengths")
    return NodeField(rhs.grid, _thomas(dg, lo, up, rhs.values))
