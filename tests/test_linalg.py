"""Eigenbasis contracts of joint_eigenbasis and custom-model builds.

The oracle is a known spectrum: h = U diag(levels) U^dag in a
Haar-random frame U, so eigenvalues, degeneracies and a commuting L are
fixed by construction and no second eigensolver is needed.  Each check
is a residual: h V = V diag(eps), V unitary, eps ascending, L diagonal
in V.
"""

import warnings

import numpy as np
import pytest

from dephasor import Operator, build_sensor_model
from dephasor.linalg import joint_eigenbasis

from conftest import framed, haar_unitary, random_hermitian

DIMS = [2, 3, 4, 5, 6, 7, 8]


def commuting_pairs(rng, n):
    """(h, l, sorted levels of h): a generic spectrum, a degenerate one
    whose degeneracy l lifts, and a random Hermitian h with l a
    polynomial in it (levels unknown: None)."""
    u = haar_unitary(rng, n)
    generic = rng.normal(size=n)
    yield framed(u, generic), framed(u, rng.normal(size=n)), np.sort(generic)
    degenerate = rng.choice([-1.0, 0.5, 2.0], size=n)
    degenerate[:2] = (-1.0, 2.0)
    yield (framed(u, degenerate), framed(u, rng.normal(size=n)),
           np.sort(degenerate))
    h = random_hermitian(rng, n)
    yield h, h @ h - 0.5 * h, None


def assert_eigen_contract(h, l, eps, lam, v):
    n = h.shape[0]
    scale = max(1.0, float(np.max(np.abs(eps))))
    assert np.linalg.norm(h @ v - v * eps) <= 1e-12 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-13
    lscale = max(1.0, float(np.max(np.abs(lam))))
    assert np.linalg.norm(v.conj().T @ l @ v - np.diag(lam)) \
        <= 1e-12 * lscale


@pytest.mark.parametrize("n", DIMS)
def test_joint_eigenbasis_meets_residual_contract(n, rng):
    for _ in range(5):
        for h, l, levels in commuting_pairs(rng, n):
            eps, lam, v = joint_eigenbasis(h, l)
            assert_eigen_contract(h, l, eps, lam, v)
            assert np.all(np.diff(eps) >= 0.0)
            if levels is not None:
                scale = max(1.0, float(np.max(np.abs(levels))))
                assert np.max(np.abs(eps - levels)) <= 1e-12 * scale


@pytest.mark.parametrize("n", DIMS)
def test_custom_model_basis_meets_residual_contract(n, rng):
    omega = 1.3
    for _ in range(5):
        for h, l, _levels in commuting_pairs(rng, n):
            hop = Operator(h, hermitian=True)
            energy = build_sensor_model("custom", n, omega, "energy", h=hop)
            assert_eigen_contract(h, omega * h, energy.spectrum,
                                  energy.lindblad_spectrum, energy.basis)
            assert np.all(np.diff(energy.spectrum) >= 0.0)
            explicit = build_sensor_model(
                "custom", n, omega, Operator(l, hermitian=True), h=hop)
            assert_eigen_contract(h, l, explicit.spectrum,
                                  explicit.lindblad_spectrum, explicit.basis)


def test_joint_eigenbasis_commuting_pair(rng):
    # two operators diagonal in the same random basis, one degenerate
    u, _ = np.linalg.qr(random_hermitian(rng, 4))
    a = u @ np.diag([1.0, 1.0, 2.0, 3.0]) @ u.conj().T
    b = u @ np.diag([5.0, -1.0, 0.0, 0.0]) @ u.conj().T
    eps, lam, v = joint_eigenbasis(a, b)
    assert np.max(np.abs(v.conj().T @ a @ v - np.diag(eps))) < 1e-11
    assert np.max(np.abs(v.conj().T @ b @ v - np.diag(lam))) < 1e-11


def test_joint_eigenbasis_real_h_complex_l(rng):
    # a real h with a degenerate eigenspace that a complex l lifts: the
    # rotation inside that eigenspace is complex and must not be cut to
    # its real part
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    h = q @ np.diag([1.0, 1.0, 2.0]) @ q.T
    inner = np.array([[0.0, 1j, 0.0], [-1j, 0.0, 0.0], [0.0, 0.0, 3.0]])
    l = q @ inner @ q.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning included
        eps, lam, v = joint_eigenbasis(h, l)
    assert_eigen_contract(h, l, eps, lam, v)
    assert np.allclose(np.sort(lam), [-1.0, 1.0, 3.0])


@pytest.mark.parametrize("gap", [1e-9, 1e-7, 1e-5, 1e-3])
def test_near_degenerate_h_leaves_l_diagonal(gap, rng):
    # eigh mixes the vectors of levels a gap g apart by about 1e-16 / g;
    # rotating inside the cluster must undo that for l, whichever order
    # l puts the close levels in, or whether l tells them apart at all
    levels = np.array([0.0, gap, 1.0])
    for lam in ([1.0, -1.0, 0.0], [-1.0, 1.0, 0.5], [0.3, 0.3, -1.0]):
        for _ in range(5):
            u = haar_unitary(rng, 3)
            h, l = framed(u, levels), framed(u, np.array(lam))
            eps, lam_got, v = joint_eigenbasis(h, l)
            assert_eigen_contract(h, l, eps, lam_got, v)
            assert np.max(np.abs(eps - levels)) <= 1e-14
            np.testing.assert_allclose(lam_got, lam, rtol=0.0, atol=1e-12)


def test_joint_eigenbasis_keeps_diagonal_ordering():
    # degenerate diagonal h: basis positions must survive so that
    # distinguished branch indices keep their meaning
    h = np.diag([2.0, -2.0, 2.0]).astype(complex)
    l = np.diag([1.0, 0.0, 3.0]).astype(complex)
    eps, lam, v = joint_eigenbasis(h, l)
    assert np.allclose(eps, [2.0, -2.0, 2.0])
    assert np.allclose(lam, [1.0, 0.0, 3.0])
    assert np.max(np.abs(v - np.eye(3))) < 1e-15
