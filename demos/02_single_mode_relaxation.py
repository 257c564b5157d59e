"""A single thermal mode under the Cattaneo law, against its exact ODE.

With theta0 = sin(pi x) and zero initial flux, the staggered discretization
keeps the run inside the two-dimensional modal subspace (sin at nodes, cos
at faces) forever, so the whole PDE run reduces to one damped oscillator:
the telegraph equation with the *discrete* Laplacian eigenvalue.  The
closed-form oracle for that oscillator then gives an exact yardstick for
the time stepper: the gap is pure backward-Euler time error, first order
in dt.
"""

import numpy as np

from thermoacoustic import Grid1D, NodeField
from thermoacoustic.verification import mode_run, unit_params

params = unit_params(tau=0.1)
grid = Grid1D(L=1.0, N=128)
lam = grid.laplacian_eigenvalue(1)
print(f"tau = {params.tau}, lambda_h(1) = {lam:.6f} (vs pi^2 = {np.pi**2:.6f})")
disc = (params.m + params.tau * params.ell) ** 2 - 4 * params.tau * params.m * (
    params.ell + params.kappa_a * lam
)
print(f"characteristic discriminant = {disc:.4f} -> oscillatory decay\n")

shape = NodeField(grid, np.sin(np.pi * grid.nodes()))

for dt in (1e-3, 5e-4):
    worst = 0.0
    rows = []
    run = mode_run(params, shape, 1.0, 1, dt, int(round(1.0 / dt)))
    for n, (state, numeric, oracle) in enumerate(run, start=1):
        worst = max(worst, abs(numeric - oracle))
        if dt == 1e-3 and n % 200 == 0:
            rows.append((state.t, numeric, oracle))
    if rows:
        print(f"{'t':>6} {'numeric':>12} {'oracle':>12}")
        for t, numeric, oracle in rows:
            print(f"{t:6.2f} {numeric:12.6f} {oracle:12.6f}")
        print()
    print(f"dt = {dt:g}: max-in-time modal amplitude error = {worst:.4e}")
print("\nhalving dt halves the error: the stepper is first order in time.")
