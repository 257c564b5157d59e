"""Convergence orders of the damped wave stepper, and a cautionary tale.

The exact solution p = e^{-t} sin(pi x) of

    p_tt - Lap p - b Lap p_t = (1 + pi^2 - b pi^2) e^{-t} sin(pi x)

measures the stepper's accuracy.  Temporal refinement shows clean first
order, as expected of the implicit one-step scheme.

The spatial study holds a surprise worth knowing about: at b = 1 the
forcing collapses to e^{-t} sin(pi x) and the r- and b-truncation errors
cancel *for any Laplacian eigenvalue* - sin is an eigenvector of the
discrete operator too, so the same field solves the semi-discrete system
exactly and the error is independent of N.  A manufactured solution can be
blind to the thing you want to measure.  Setting b = 2 breaks the
cancellation and the genuine second-order spatial error appears.
"""

from thermoacoustic.verification import manufactured_error, manufactured_spatial_orders

print("temporal refinement at N = 256 (T = 1):")
for dt in (4e-3, 2e-3, 1e-3):
    print(f"  dt = {dt:6.0e}: error = {manufactured_error(256, dt, 1.0):.4e}")
print()

print("spatial refinement at dt = 1e-5 (T = 0.1), b = 1:")
for N in (32, 64, 128):
    print(f"  N = {N:4d}: error = {manufactured_error(N, 1e-5, 0.1, 1.0):.4e}")
print("  -> N-independent: the b = 1 solution is spatially exact\n")

print("spatial refinement at dt = 1e-5 (T = 0.1), b = 2:")
for N in (32, 64, 128):
    print(f"  N = {N:4d}: error = {manufactured_error(N, 1e-5, 0.1, 2.0):.4e}")
orders = manufactured_spatial_orders(b=2.0)
print(f"  observed orders: {[round(o, 3) for o in orders]} (second order)")
