"""Shared fixtures and oracle helpers.

The oracles here are deliberately independent of the shipping code
paths: dense quadrature instead of closed-form integrals, finite
differences instead of analytic derivatives.  Frozen constants in the
test modules were produced by these oracles.
"""

import math

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # Fixed example sequence and no timing deadline: the tier-1 run stays
    # deterministic and free of flaky deadline failures on a slow host.
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("tier1")

from dephasor import (CatSpec, EvolutionSpec, NoiseSchedule, branch_model,
                      cat_initial_state, evolve_exact, evolve_lindblad_numeric)
from dephasor.fisher import sld_and_qfi


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def dense_schedule_integral(schedule, t, n=64):
    """Segment-split trapezoid of the rate, oracle for closed integrals.

    Splits at the schedule's own declared onset or knot times (plain
    data fields) so every segment is linear, where the trapezoid rule
    is exact.  Only the rate evaluators are exercised, never the
    closed-form integral under test.
    """
    if schedule.variant == "piecewise_linear":
        cuts = [tk for tk, _ in schedule.knots]
    else:
        cuts = [schedule.t0]
    edges = sorted({0.0, t} | {c for c in cuts if 0.0 < c < t})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        ts = np.linspace(a, b, n + 1)
        vals = [schedule.rate_right(float(x)) for x in ts[:-1]]
        vals.append(schedule.rate(float(ts[-1])))
        total += float(np.trapezoid(vals, ts))
    return total


def cat_reference(spec, schedule, t):
    """The two-branch cat state as a 2x2 array, from its closed form
    0.5 [[1, c e^{i phi}], [c e^{-i phi}, 1]] with c = exp(-dL^2 Gamma),
    phi = dE t, and Gamma by quadrature of the rate."""
    c = math.exp(-spec.delta_l ** 2 * dense_schedule_integral(schedule, t))
    off = c * np.exp(1j * spec.delta_e * t)
    return 0.5 * np.array([[1.0, off], [np.conj(off), 1.0]])


def exact_cat_state(model, schedule, t):
    """The model's cat state evolved to t by ``evolve_exact``."""
    run = EvolutionSpec(model=model, schedule=schedule, t_final=t)
    return evolve_exact(run, cat_initial_state(model))


def evolved_branch_state(spec, schedule, t, dt=2.5e-4):
    model = branch_model(spec)
    run = EvolutionSpec(model=model, schedule=schedule, t_final=t, dt=dt)
    return model, evolve_lindblad_numeric(run, cat_initial_state(model))


def numeric_qfi(model, schedule, rho_t, t, parameter):
    """RK4 state + analytic equation-of-motion derivative + SLD."""
    from dephasor.fisher import drho_domega, drho_dt
    if parameter == "time":
        drho = drho_dt(model, schedule, rho_t, t)
    else:
        drho = drho_domega(model, schedule, rho_t, t)
    _, report = sld_and_qfi(rho_t, drho, parameter=parameter)
    return report


def fd_qfi_time(spec, schedule, t, h=1e-6, dt=2.5e-4):
    """Fully independent QFI(time): finite-difference state derivative."""
    model = branch_model(spec)
    rho0 = cat_initial_state(model)

    def state(tt):
        run = EvolutionSpec(model=model, schedule=schedule, t_final=tt,
                            dt=dt)
        return evolve_lindblad_numeric(run, rho0).matrix

    drho = (state(t + h) - state(t - h)) / (2.0 * h)
    rho_t = evolve_lindblad_numeric(
        EvolutionSpec(model=model, schedule=schedule, t_final=t, dt=dt),
        rho0)
    _, report = sld_and_qfi(rho_t, drho, parameter="time")
    return report.value


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def cat22():
    return CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0)


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T)


def haar_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def framed(u, levels):
    """The Hermitian matrix with eigenvalues ``levels`` in the frame u."""
    mat = (u * levels) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def kpi_window_schedule(spec, gamma_dot, k=1):
    """Linear ramp whose half-decay window lands on a parity extremum.

    Returns (schedule, t) with t = t0 + window and delta_e * t = k*pi;
    the onset is shifted to realize the phase condition for any slope.
    """
    window = math.sqrt(math.log(2.0) / (gamma_dot * spec.delta_l ** 2))
    t = k * math.pi / spec.delta_e
    t0 = t - window
    if t0 < 0.0:
        raise ValueError("window does not fit before the phase point")
    return NoiseSchedule.linear_ramp(gamma_dot, t0=t0), t
