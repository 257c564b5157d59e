"""Energy and dissipation functionals, balance residuals and norm diagnostics.

Every functional the solver reports is defined here, computed from stored
state histories only (backward differences for time derivatives), so the
diagnostics stay independent of the steppers they audit.

Heat side, per time-derivative order k = 0, 1, 2:

    E_k = 1/2 (m kappa_a ||d_t^k theta||^2 + tau ||d_t^k q||^2)
    D_k = ell kappa_a ||d_t^k theta||^2 + ||d_t^k q||^2

with the exact balance  d/dt E_k + D_k = kappa_a <d_t^k f, d_t^k theta>.
The higher-order temperature energies control the L-infinity bound on theta
needed by the temperature-dependent coefficients:

    cal_E0 = (m kappa_a / 2)(||theta||^2 + ||theta_t||^2 + ||theta_tt||^2)
    cal_E1 = ((m + tau ell)/2)||grad theta||^2 + kappa_a ||grad theta_t||^2
             + kappa_a ||Lap theta||^2

with dissipations cal_D0, cal_D1 (same structure, coefficients ell kappa_a
and {ell, kappa_a, kappa_a}).

Acoustic side, with frozen coefficients alpha, r and diffusivity b:

    E1 = 1/2 (||sqrt(alpha) p_t||^2 + ||sqrt(r) grad p||^2)
    E2 = 1/2 (||sqrt(alpha) p_tt||^2 + ||sqrt(r) grad p_t||^2 + b ||Lap p||^2)
    E3 = 1/2 (b ||grad p_tt||^2 + b ||grad Lap p||^2)

plus the coefficient diagnostics

    Lambda = ||alpha_t||^2 + ||alpha_t||^{4/3} + ||r_t||^{4/3}
             + ||grad r||^2 + ||r_t||_{L3}^2 + ||alpha_t||_{L3}^2
             + ||grad r||_{L3}^2 + ||grad alpha||_{L3}^2
    F      = ||grad g||^2 + ||g_t||^2.

The 4/3 exponent is 4/(4-d) with the spatial dimension d = 1 fixed by this
artifact.  Coefficient gradients use the one-sided interior gradient: the
frozen coefficients do not vanish on the boundary, so the Dirichlet closure
would be wrong for them.  Third spatial derivatives (grad Lap p) use the
composite stencil Lap_h then grad_h and are first-order accurate only;
Lambda and E3 are reported as diagnostics, never asserted against a priori
bounds, whose hidden constants are not computable.

simulate defers the diagnostics of up to K = max(1, 4096 // N) accepted
steps and runs them as one chunk pass (_Rows).  Each ring level is stacked
once per pass (heat._Stacked), each time difference and stencil is one
array of rows, and each L2 norm or inner product is one np.vecdot, which
sums each row in np.dot's order, so a row's bits do not depend on the other
rows of its array.  The five arrays the per-step x-norm sums read (v, p_tt,
v_tt, q_t, q_tt) are formed on all K rows; the arrays only the report reads
are formed on the report rows alone (every row at output stride 1).  Then,
row by row in step order, the x-norm sums, sample_output and the report
read the row's Python floats (_Row), and the scalar formulas and Python
powers run per row; the public functions are one-row passes.  No
field is validated on the way: a non-finite norm or report column re-checks
the row's arrays in the order the field-based diagnostics built them
(x-norm samples, Q(v), grad g, grad p of the previous level), so the same
NonFinite results, located at the row's own step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .acoustics import AcousticState, FrozenCoefficients
from .grid import (
    NodeField,
    NonFinite,
    _check_arrays,
    _difference_quotient,
    _dirichlet_gradient,
    _face_extend,
    _require,
    _step_problem,
)
from .heat import InsufficientHistory, ThermalState, _Stacked
from .model import PhysicalParams

__all__ = [
    "EnergyReport",
    "TIMESERIES_COLUMNS",
    "heat_energy",
    "heat_dissipation",
    "theta_higher_energy",
    "heat_balance_residual",
    "acoustic_energy",
    "coefficient_diagnostics",
    "acoustic_identity_residual",
    "XNormAccumulator",
    "gronwall_bound",
]

_SPATIAL_DIM = 1  # fixes the 4/(4-d) exponent below
_CHUNK_ENTRIES = 4096  # the entries a chunk pass stacks, at most (one row at least)


def _chunk_rows(grid) -> int:
    """How many steps one chunk pass of the diagnostics stacks on grid."""
    return max(1, _CHUNK_ENTRIES // grid.N)


def _stencils(u: np.ndarray, dx: float, order: int):
    """Yield grad u, Lap u = div grad u, grad Lap u, ... (order of them)."""
    for k in range(order):
        u = (_dirichlet_gradient if k % 2 == 0 else _difference_quotient)(u, dx)
        yield u


_LEVELS = {0: ("theta", "q"), 1: ("theta_t", "q_t"), 2: ("theta_tt", "q_tt"),
           "prev": ("theta_prev", "q_prev")}
# name: (ring, slot, k, stencils): of field ``slot`` of the acoustic (0) or
# thermal (1) ring, the level -k steps back (k <= 0) or the order-k time
# difference (k > 0), then as many stencils as are read
_ARRAYS = {
    "q": (1, 2, 0, 0), "theta_prev": (1, 1, -1, 0), "q_prev": (1, 2, -1, 0), "q_t": (1, 2, 1, 0),
    "q_tt": (1, 2, 2, 0), "p": (0, 1, 0, 3), "v": (0, 2, 0, 3), "p_tt": (0, 1, 2, 2),
    "v_tt": (0, 2, 2, 0), "theta": (1, 1, 0, 2), "theta_t": (1, 1, 1, 1), "theta_tt": (1, 1, 2, 0),
}
_KEPT = ("q", "theta", "v", "grad_p", "p_tt", "grad_v")  # read again by the report's dots
_ON_ALL_ROWS = ("v", "p_tt", "v_tt", "q_t", "q_tt")  # feed the x-norm sums; the rest only reports
# (x-norm sum, array, ring, stored levels needed); the first three arrays'
# norms are read by the sums alone
_SUMS = (("grad_lap_pt", "grad_lap_v", 0, 2), ("lap_ptt", "lap_p_tt", 0, 3), ("pttt", "v_tt", 0, 3),
         ("qt", "q_t", 1, 2), ("qtt", "q_tt", 1, 3))
_SUMS_ONLY = ("grad_lap_v", "lap_p_tt", "v_tt")
# (name, stencils its field had, flux) of the arrays re-checked for a row
# and for the x-norm sums, in the order the field-based diagnostics built them
_ROW_FIELDS = (("p", 3, None), ("v", 3, None), ("p_tt", 1, None), ("theta", 3, None),
               ("theta_t", 3, "q_t"), ("theta_tt", 0, "q_tt"))
_SUM_FIELDS = (("v", 3, None), ("p_tt", 2, None), ("v_tt", 0, None), ("theta_t", 0, "q_t"),
               ("theta_tt", 0, "q_tt"))


def _formed(name: str, levels) -> np.ndarray | None:
    """Array ``name`` of _ARRAYS from the _Stacked levels of some acoustic and
    thermal rings, as rows; None below its depth."""
    which, slot, k, _ = _ARRAYS[name]
    stacked = levels[which]
    if stacked.rings and stacked.rings[0].depth > abs(k):
        return stacked.difference(slot, k) if k > 0 else stacked[slot, -k]
    return None


def _stacked(coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, r, g) of some FrozenCoefficients, as rows."""
    return tuple(np.array([getattr(c, k).values for c in coeffs]) for k in ("alpha", "r", "g"))


def _roots(sq: dict, dx: float) -> dict:
    """The norms sqrt(dx * s) of the squared sums ``sq``, as lists of floats."""
    return dict(zip(sq, np.sqrt(dx * np.array(list(sq.values()))).tolist()))


class _Rows:
    """K rows (time levels) in one pass: each ring level is stacked once,
    each time difference or stencil is one array of rows, each norm one
    np.vecdot, which sums a row in np.dot's order.  acs and ths are the
    rows' rings (either may be empty; those of a list have one depth, >=
    ``levels``).  _ON_ALL_ROWS and their ``norms`` span all K rows; the
    other arrays span the report rows ``sel`` (all by default) alone, which
    get inner products with their coefficients, with the time differences
    from the level ``prev`` on (over the rings' spacing or ``dts``) and with
    the sources ``f``; ``cells[i]`` holds report row i's (f, norms, products)."""

    def __init__(self, acs=(), ths=(), levels=1, sel=None, coeffs=(), prev=None, f=None, dts=()):
        rings = acs or ths
        if rings and rings[0].depth < levels:
            raise InsufficientHistory(f"need {levels} stored levels, have {rings[0].depth}")
        self.acs, self.ths = acs, ths
        self.dx = dx = (rings[0].grid if rings else coeffs[0].alpha.grid).dx
        self.sel = list(range(len(rings) or len(coeffs))) if sel is None else sel
        every = sel is None or len(self.sel) == len(rings)
        on_all = (_Stacked(acs), _Stacked(ths))
        on_sel = on_all if every else tuple(_Stacked([r[i] for i in self.sel]) for r in (acs, ths))
        a, sq, sel_sq = {}, {}, {}  # the _KEPT arrays of rows sel; squared norms of K rows, of sel
        for name, (_, _, _, read) in _ARRAYS.items():
            summed = name in _ON_ALL_ROWS
            if (u := _formed(name, on_all if summed else on_sel)) is not None:
                for key, values in zip((name, "grad_" + name, "lap_" + name, "grad_lap_" + name),
                                       (u, *_stencils(u, dx, read))):
                    (sq if summed else sel_sq)[key] = np.vecdot(values, values)
                    if key in _KEPT:
                        a[key] = values[self.sel] if summed and not every else values
        self.norms, sel_norms = _roots(sq, dx), _roots(sel_sq, dx)
        self.cells, d = {}, {}
        if not self.sel:  # no report row: the sums alone read this pass
            return

        def dot(x, y):
            return np.vecdot(x, y).tolist()

        if ths:
            div_q = _difference_quotient(a["q"], dx)
            d["div_q"] = dot(div_q, div_q)
        if f is not None:
            d["f_theta"] = dot(f, a["theta"])
        stacked = _stacked(coeffs if prev is None else [prev, *coeffs])  # each level once
        alpha, r, g = stacked if prev is None else (u[1:] for u in stacked)
        if coeffs and acs:
            v, grad_p, r_faces = a["v"], a["grad_p"], _face_extend(r)
            d["alpha_v"], d["r_grad_p"] = dot(alpha * v, v), dot(r_faces * grad_p, grad_p)
            if "p_tt" in a:
                p_tt, grad_v = a["p_tt"], a["grad_v"]
                d["alpha_p_tt"] = dot(alpha * p_tt, p_tt)
                d["r_grad_v"] = dot(r_faces * grad_v, grad_v)
        if prev is not None:
            alpha0, r0, g0 = (u[:-1] for u in stacked)
            dt = np.array(dts)[:, None] if dts else on_sel[0 if acs else 1][0, 1]
            alpha_t, r_t, g_t = (alpha - alpha0) / dt, (r - r0) / dt, (g - g0) / dt
            grad_r, grad_g = _difference_quotient(r, dx), _dirichlet_gradient(g, dx)
            for name, u in (("alpha_t", alpha_t), ("r_t", r_t), ("grad_r", grad_r),
                            ("grad_g", grad_g), ("g_t", g_t)):
                d[name] = dot(u, u)
            # L3 norms: a row-axis reduce sums each row as np.sum sums a 1-D array
            for name, u in (("r_t", r_t), ("alpha_t", alpha_t), ("grad_r", grad_r),
                            ("grad_alpha", _difference_quotient(alpha, dx))):
                d["cube_" + name] = np.add.reduce(np.abs(u) ** 3, axis=-1).tolist()
        if prev is not None and acs:
            p0, v0 = on_sel[0][1, 1], on_sel[0][2, 1]
            grad_p0 = _dirichlet_gradient(p0, dx)
            d["alpha0_v0"] = dot(alpha0 * v0, v0)
            d["r0_grad_p0"] = dot(_face_extend(r0) * grad_p0, grad_p0)
            d["g_v"], d["alpha_t_vv"] = dot(g, v), dot(alpha_t, v * v)
            d["grad_r_p_v"] = dot(grad_r * grad_p[:, 1:-1], _face_extend(v)[:, 1:-1])
            d["r_t_grad_p2"] = dot(_face_extend(r_t), grad_p * grad_p)
        n = {k: col if every else [col[i] for i in self.sel]  # the norms of rows sel, by column
             for k, col in self.norms.items() if k not in _SUMS_ONLY} | sel_norms
        sources = [None] * len(self.sel) if f is None else f
        for i, source, *row in zip(self.sel, sources, *n.values(), *d.values()):  # transposed
            self.cells[i] = (source, dict(zip(n, row)), dict(zip(d, row[len(n):])))

    def fields(self, i: int, table, extra=()):
        """(kind, values) of u, flux and order stencils of u for the chains
        (u, order, flux) of row i's arrays in table, formed again from the
        row's rings (the same operations give the same bits), then of extra."""
        levels = (_Stacked(self.acs[i:i + 1]), _Stacked(self.ths[i:i + 1]))
        chains = [(u[0], order, flux and _formed(flux, levels)[0])
                  for name, order, flux in table if (u := _formed(name, levels)) is not None]
        for u, order, flux in chains + list(extra):
            yield "NodeField", u
            if flux is not None:
                yield "FaceField", flux
            yield from zip(("FaceField", "NodeField", "FaceField"), _stencils(u, self.dx, order))


class _Row:
    """Row i (one of ``sel``) of a _Rows: the norms ``n`` and inner products
    ``d`` it reads, as Python floats, and ``f``, its source; its methods are
    the diagnostics' scalar formulas.  The re-check also checks stencils no
    norm reads; one overflows only from an entry above 1.3e154 of the array
    below (for dx > 1.5e-154), whose norm then overflows too."""

    def __init__(self, rows: _Rows, i: int) -> None:
        self.rows, self.i, self.dx = rows, i, rows.dx
        self.ac, self.th = (ring[i] if ring else None for ring in (rows.acs, rows.ths))
        self.f, self.n, self.d = rows.cells[i]

    def fields(self, *extra):
        """(kind, values) of the row's arrays, then of ``extra`` chains
        (u, order, flux), in the field-based diagnostics' order."""
        return self.rows.fields(self.i, _ROW_FIELDS, extra)

    def heat(self, params: PhysicalParams, k=0) -> tuple[float, float]:
        """(E_k, D_k) of time order k = 0, 1, 2, or (E_0, D_0) of the level before ("prev")."""
        theta, q = _LEVELS[k]
        theta_sq, q_sq = self.n[theta] ** 2, self.n[q] ** 2
        e = 0.5 * (params.m * params.kappa_a * theta_sq + params.tau * q_sq)
        return e, params.ell * params.kappa_a * theta_sq + q_sq

    def theta_higher(self, params: PhysicalParams) -> tuple[float, float, float, float]:
        n = self.n
        sq_sum = n["theta"] ** 2 + n["theta_t"] ** 2 + n["theta_tt"] ** 2
        grad, grad_t, lap = n["grad_theta"] ** 2, n["grad_theta_t"] ** 2, n["lap_theta"] ** 2
        m, ell, kappa, tau = params.m, params.ell, params.kappa_a, params.tau
        cal_e0 = 0.5 * m * kappa * sq_sum
        cal_e1 = 0.5 * (m + tau * ell) * grad + kappa * grad_t + kappa * lap
        cal_d0 = ell * kappa * sq_sum
        cal_d1 = ell * grad + kappa * grad_t + kappa * lap
        return cal_e0, cal_e1, cal_d0, cal_d1

    def heat_residual(self, params: PhysicalParams, e_new: float, d_new: float) -> float:
        """The balance defect of the last step, given (E_0, D_0) of the newest level."""
        e_old, _ = self.heat(params, "prev")
        work = params.kappa_a * (self.dx * self.d["f_theta"])
        return abs((e_new - e_old) / self.th.dt + d_new - work)

    def acoustic(self, params: PhysicalParams) -> tuple:
        """(E1, E2, E3, total); E1 only, with zeros, below 3 stored levels."""
        n, d, dx = self.n, self.d, self.dx
        e1 = 0.5 * (dx * d["alpha_v"] + dx * d["r_grad_p"])
        if self.ac.depth < 3:
            return e1, 0.0, 0.0, e1
        e2 = 0.5 * (dx * d["alpha_p_tt"] + dx * d["r_grad_v"] + params.b * n["lap_p"] ** 2)
        e3 = 0.5 * params.b * (n["grad_p_tt"] ** 2 + n["grad_lap_p"] ** 2)
        return e1, e2, e3, e1 + e2 + e3

    def coefficients(self) -> tuple[float, float]:
        """(Lambda, F) of coefficient_diagnostics."""
        d, dx, exponent = self.d, self.dx, 4.0 / (4.0 - _SPATIAL_DIM)
        alpha_t, r_t = math.sqrt(dx * d["alpha_t"]), math.sqrt(dx * d["r_t"])
        l3 = {k: (dx * d["cube_" + k]) ** (1.0 / 3.0)
              for k in ("r_t", "alpha_t", "grad_r", "grad_alpha")}
        lam = (
            alpha_t**2 + alpha_t**exponent + r_t**exponent + dx * d["grad_r"] + l3["r_t"] ** 2
            + l3["alpha_t"] ** 2 + l3["grad_r"] ** 2 + l3["grad_alpha"] ** 2
        )
        return lam, math.sqrt(dx * d["grad_g"]) ** 2 + dx * d["g_t"]

    def identity_residual(self, params: PhysicalParams, e1: float) -> float:
        """acoustic_identity_residual, given E1 of the newest level."""
        dt, dx, d = self.ac.dt, self.dx, self.d
        e1_old = 0.5 * (dx * d["alpha0_v0"] + dx * d["r0_grad_p0"])
        lhs = (e1 - e1_old) / dt
        lhs += params.b * self.n["grad_v"] ** 2
        rhs = dx * d["g_v"]
        rhs += 0.5 * dx * d["alpha_t_vv"]
        # grad r lives only on interior faces (r does not vanish on the
        # boundary); v is interpolated to the same face midpoints.
        rhs -= dx * d["grad_r_p_v"]
        rhs += 0.5 * dx * d["r_t_grad_p2"]
        return abs(lhs - rhs)


def _make_report(state, coeffs_prev: FrozenCoefficients | None, params: PhysicalParams,
                 row: _Row) -> EnergyReport:
    """The report of the output row of a coupling.CoupledState, read from
    its _Row of the chunk pass, which holds the inner products with
    coeffs_prev and its source row.f; a non-finite column re-checks the row's arrays."""
    th, ac, coeffs = state.thermal, state.acoustic, state.coeffs_last
    e, d = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
    for k in range(min(th.depth, 3)):  # order k needs k + 1 stored levels
        e[k], d[k] = row.heat(params, k)
    cal_e0, cal_e1 = row.theta_higher(params)[:2] if th.depth >= 3 else (0.0, 0.0)
    ac_e1, ac_e2, ac_e3, ac_total = row.acoustic(params)
    lam = frak_f = heat_res = ac_res = 0.0
    built = ()
    if coeffs_prev is not None:  # every row but step 0's, which has no row.f either
        # the fields the report's own functions built: Q(v), grad g, grad p_prev
        built = ((row.f, 0, None), (coeffs.g.values, 1, None), (ac.history[-2][1].values, 1, None))
        lam, frak_f = row.coefficients()
        ac_res = row.identity_residual(params, ac_e1)
        heat_res = row.heat_residual(params, e[0], d[0])
    report = EnergyReport(
        t=state.t, E0=e[0], E1=e[1], E2=e[2], E_tau=e[0] + e[1] + e[2],
        D0=d[0], D1=d[1], D2=d[2], cal_E0=cal_e0, cal_E1=cal_e1,
        acE1=ac_e1, acE2=ac_e2, acE3=ac_e3, acE_total=ac_total, lam=lam, frak_f=frak_f,
        alpha_min=coeffs.alpha_min, picard_iters=state.picard_iterations_last,
        heat_residual=heat_res, acoustic_residual=ac_res,
    )
    if not math.isfinite(sum(values := report.row())):  # an overflowing sum finds no bad column
        for column, value in zip(TIMESERIES_COLUMNS, values):
            if not math.isfinite(value):
                _check_arrays(row.fields(*built))
                raise NonFinite(f"report column {column}")
    return report


def heat_energy(state: ThermalState, params: PhysicalParams, k: int) -> float:
    """E_k of the current level; time derivatives from the history ring."""
    return _Row(_Rows(ths=[state], levels=k + 1), 0).heat(params, k)[0]


def heat_dissipation(state: ThermalState, params: PhysicalParams, k: int) -> float:
    """D_k of the current level."""
    return _Row(_Rows(ths=[state], levels=k + 1), 0).heat(params, k)[1]


def theta_higher_energy(
    state: ThermalState, params: PhysicalParams
) -> tuple[float, float, float, float]:
    """(cal_E0, cal_E1, cal_D0, cal_D1); needs 3 stored levels for theta_tt."""
    return _Row(_Rows(ths=[state], levels=3), 0).theta_higher(params)


def heat_balance_residual(
    state: ThermalState, f_next: NodeField, params: PhysicalParams
) -> float:
    """Defect |(E0' - E0)/dt + D0' - kappa_a <f', theta'>| over the last step.

    Summation-by-parts exactness kills every spatial contribution, so the
    residual is purely the backward-Euler time defect
    (m kappa_a ||d theta||^2 + tau ||d q||^2) / (2 dt), which is O(dt) on
    smooth runs and matches the scalar modal defect exactly on single-mode
    runs.
    """
    row = _Row(_Rows(ths=[state], levels=2, f=f_next.values[None]), 0)
    return row.heat_residual(params, *row.heat(params))


def acoustic_energy(
    state: AcousticState, coeffs: FrozenCoefficients, params: PhysicalParams
) -> tuple[float, float, float, float]:
    """(E1, E2, E3, total); E2 and E3 need p_tt, hence 3 stored levels."""
    return _Row(_Rows([state], levels=3, coeffs=[coeffs]), 0).acoustic(params)


def coefficient_diagnostics(
    coeffs_prev: FrozenCoefficients, coeffs_next: FrozenCoefficients, dt: float
) -> tuple[float, float]:
    """(Lambda, F) from two consecutive coefficient levels."""
    _require("dt", _step_problem(dt))
    return _Row(_Rows(coeffs=[coeffs_next], prev=coeffs_prev, dts=[dt]), 0).coefficients()


def acoustic_identity_residual(
    state: AcousticState,
    coeffs_prev: FrozenCoefficients,
    coeffs_next: FrozenCoefficients,
    params: PhysicalParams,
) -> float:
    """Defect of the first-energy balance of the damped wave equation.

    The continuous identity obtained by testing with p_t,

        d/dt E1[p] + b ||grad p_t||^2
            = <g, p_t> + 1/2 <alpha_t, p_t^2> - <grad r . grad p, p_t>
              + 1/2 <r_t, |grad p|^2>,

    is evaluated with backward differences in time and face-midpoint values
    for the mixed-location product, using the last two stored levels.  The
    residual is the backward-Euler defect and vanishes at rate O(dt) on
    smooth runs; the spatial part cancels exactly by summation by parts.
    """
    row = _Row(_Rows([state], levels=2, coeffs=[coeffs_next], prev=coeffs_prev), 0)
    return row.identity_residual(params, row.acoustic(params)[0])


class XNormAccumulator:
    """Running solution-space norms of a run.

    Sup-in-time terms are running maxima sampled at output times; squared
    L2-in-time terms are dt-weighted sums accumulated at every accepted
    step.  Components:

        ||p||_X     = ||p||_{Loo H3} + ||p_t||_{Loo H2} + ||grad Lap p_t||_{L2 L2}
                      + ||grad p_tt||_{Loo L2} + ||Lap p_tt||_{L2 L2}
                      + ||p_ttt||_{L2 L2}
        ||theta||_X = ||theta||_{Loo H2} + ||theta_t||_{Loo H1}
                      + ||theta_tt||_{Loo L2}
        ||q||_X     = ||q||_{Loo H1} + ||q_t||_{L2 L2} + ||q_tt||_{L2 L2}

    Derivative terms join the accumulation as soon as the history ring is
    deep enough.  Every component is monotone in run length.
    """

    def __init__(self, dt: float) -> None:
        _require("dt", _step_problem(dt))
        self.dt = dt
        self._sup = dict.fromkeys(
            ("p_h3", "pt_h2", "ptt_grad", "theta_h2", "thetat_h1", "thetatt", "q_h1"), 0.0
        )
        self._int = dict.fromkeys(("grad_lap_pt", "lap_ptt", "pttt", "qt", "qtt"), 0.0)

    def accumulate_step(self, ac: AcousticState, th: ThermalState, rows=None, i=0) -> None:
        """Add the L2-in-time contributions of the newest accepted level, row
        i of a chunk pass ``rows`` or of one made here; a non-finite sum
        re-checks the row's arrays in their field order."""
        rows = _Rows([ac], [th]) if rows is None else rows
        n, dt, acc = rows.norms, self.dt, self._int
        for key, name, which, depth in _SUMS:
            if (ac, th)[which].depth >= depth:
                acc[key] += dt * n[name][i] ** 2
        if not math.isfinite(sum(acc.values())):
            _check_arrays(rows.fields(i, _SUM_FIELDS[ac.depth < 2:]))  # no v at depth 1

    def sample_output(self, ac: AcousticState, th: ThermalState, row: _Row | None = None) -> _Row:
        """Refresh the sup-in-time terms at an output time and return the
        _Row they were read from: ``row`` of a chunk pass, or one made here;
        a non-finite norm re-checks its arrays."""
        row = _Row(_Rows([ac], [th]), 0) if row is None else row
        n = row.n
        samples = {
            "p_h3": _h_norm(n["p"], n["grad_p"], n["lap_p"], n["grad_lap_p"]),
            "pt_h2": _h_norm(n["v"], n["grad_v"], n["lap_v"]),
            "theta_h2": _h_norm(n["theta"], n["grad_theta"], n["lap_theta"]),
            "q_h1": math.sqrt(n["q"] ** 2 + row.dx * row.d["div_q"]),
        }
        if ac.depth >= 3:
            samples["ptt_grad"] = n["grad_p_tt"]
        if th.depth >= 2:
            samples["thetat_h1"] = _h_norm(n["theta_t"], n["grad_theta_t"])
        if th.depth >= 3:
            samples["thetatt"] = n["theta_tt"]
        if not math.isfinite(sum(n.values())):
            _check_arrays(row.fields())
        for key, value in samples.items():
            self._sup[key] = max(self._sup[key], value)
        return row

    def norms(self) -> tuple[float, float, float]:
        s, i = self._sup, self._int
        x_p = (
            s["p_h3"] + s["pt_h2"] + math.sqrt(i["grad_lap_pt"]) + s["ptt_grad"]
            + math.sqrt(i["lap_ptt"]) + math.sqrt(i["pttt"])
        )
        x_theta = s["theta_h2"] + s["thetat_h1"] + s["thetatt"]
        x_q = s["q_h1"] + math.sqrt(i["qt"]) + math.sqrt(i["qtt"])
        return x_p, x_theta, x_q


def _h_norm(*norms: float) -> float:
    """sqrt of the sum of squares of a seminorm ladder ||u||, |u|_H1, ..., left to right"""
    total = 0.0
    for n in norms:
        total += n * n
    return math.sqrt(total)


def gronwall_bound(
    u0: float, alpha_samples, beta_samples, t_grid
) -> np.ndarray:
    """Evaluate the integral-inequality bound on a uniform time grid.

    For u' + v <= alpha u + beta with u(0) = u0 the bound is

        u(t) + int_0^t v <= u0 e^{A(t)} + int_0^t beta(s) e^{A(t)-A(s)} ds,
        A(t) = int_0^t alpha,

    with both integrals accumulated by the trapezoidal rule.
    """
    t = np.asarray(t_grid, dtype=float)
    alpha = np.broadcast_to(np.asarray(alpha_samples, dtype=float), t.shape)
    beta = np.broadcast_to(np.asarray(beta_samples, dtype=float), t.shape)
    if t.size < 2:
        return np.full_like(t, u0)
    steps = np.diff(t)
    if steps.size and (not steps.min() > 0 or steps.max() - steps.min() > 1e-9 * steps[0]):
        raise ValueError("t_grid must be uniform and increasing")

    def cumtrapz(y):
        inc = 0.5 * (y[1:] + y[:-1]) * steps
        return np.concatenate(([0.0], np.cumsum(inc)))

    a_curve = cumtrapz(alpha)
    weighted = beta * np.exp(-a_curve)
    return np.exp(a_curve) * (u0 + cumtrapz(weighted))


@dataclass(frozen=True)
class EnergyReport:
    """One diagnostics row of a run.

    Derivative-based entries read 0.0 until the history ring is deep enough
    to define them (the first one or two rows).
    """

    t: float
    E0: float
    E1: float
    E2: float
    E_tau: float
    D0: float
    D1: float
    D2: float
    cal_E0: float
    cal_E1: float
    acE1: float
    acE2: float
    acE3: float
    acE_total: float
    lam: float
    frak_f: float
    alpha_min: float
    picard_iters: int
    heat_residual: float
    acoustic_residual: float

    def row(self) -> tuple:
        """The values in TIMESERIES_COLUMNS order, which is the field order."""
        return _row_values(self)


_row_values = attrgetter(*(f.name for f in fields(EnergyReport)))
# the timeseries.csv header is the field order, two fields spelled otherwise
_CSV_SPELLINGS = {"lam": "lambda", "frak_f": "frakF"}
TIMESERIES_COLUMNS = tuple(_CSV_SPELLINGS.get(f.name, f.name) for f in fields(EnergyReport))
