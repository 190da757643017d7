"""Simultaneous eigenbasis of two commuting Hermitian matrices.

Eigensolves go through LAPACK (``numpy.linalg.eigh``); this module only
adds the step LAPACK does not do: rotating the second matrix diagonal
inside each degenerate or nearly degenerate eigenspace of the first.
"""

from __future__ import annotations

import numpy as np

DEGENERACY_TOL = 1e-10


def _is_diagonal(a: np.ndarray, tol: float) -> bool:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2))) <= \
        tol * max(1.0, float(np.max(np.abs(a))))


def _clusters(levels: np.ndarray, tol: float) -> list[list[int]]:
    """Groups of level indices, ascending: one pass over the sorted levels
    opens a group at each level more than ``tol`` above the group's first."""
    groups: list[list[int]] = []
    first = 0.0
    for j in np.argsort(levels, kind="stable").tolist():
        if groups and levels[j] - first <= tol:
            groups[-1].append(j)
        else:
            groups.append([j])
            first = levels[j]
    return [sorted(g) for g in groups]


def eigenbasis(h: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``(eps, v)`` of a Hermitian ``h``: its diagonal and None (the
    computational basis) when ``h`` is already diagonal (off-diagonal
    Frobenius norm within 1e-14, relative), so basis positions keep
    their meaning; else LAPACK ``eigh``, ascending."""
    h = np.asarray(h, dtype=complex)  # a complex rotation fits into v
    if _is_diagonal(h, 1e-14):
        return np.diag(h).real.copy(), None
    return np.linalg.eigh(h)


def joint_eigenbasis(h: np.ndarray, l: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous eigenbasis of two commuting Hermitian matrices.

    Diagonalizes ``h`` first (``eigenbasis``), then rotates inside each
    cluster of ``h`` levels closer than 1e-4 (relative) to diagonalize
    ``l`` there as well: LAPACK mixes the eigenvectors of levels a gap g
    apart by about 1e-16 / g, which leaves ``l`` off-diagonal unless
    they are rotated too.  Inside a cluster, levels of ``l`` closer
    than ``DEGENERACY_TOL`` (relative) are split by ``h``, each vector
    returns to a position of its own ``h`` level, and the vectors of one
    level go in ascending ``l``.  ``h`` levels closer than
    ``DEGENERACY_TOL`` count as one level, whose ``eps`` is not each
    vector's own eigenvalue: there ||h v - v diag(eps)|| reaches about
    ``DEGENERACY_TOL`` times the scale of ``h``, and ``build_sensor_model``
    takes the spectrum as diag(v^dag h v) instead, which meets 1e-12.

    Returns ``(eps, lam, v)``: eigenvalues of ``h``, eigenvalues of
    ``l`` in the matching order, and the common eigenvector columns, or
    None for the computational basis (diagonal ``h`` and no cluster of
    it rotated).
    """
    eps, v = eigenbasis(h)
    scale = max(1.0, float(np.max(np.abs(h))))
    lmat = l if v is None else v.conj().T @ l @ v
    lam = np.diag(lmat).real.copy()
    lscale = max(1.0, float(np.max(np.abs(lam))))
    for idx in [g for g in _clusters(eps, 1e-4 * scale) if len(g) > 1]:
        sub = lmat[np.ix_(idx, idx)]
        if _is_diagonal(sub, 1e-14):
            continue
        e = eps[idx]
        level = np.empty(len(idx), dtype=int)
        for k, g in enumerate(_clusters(e, DEGENERACY_TOL * scale)):
            level[g] = k
        wl, u = np.linalg.eigh(sub)
        hs = (u.conj().T * e) @ u
        for g in _clusters(wl, DEGENERACY_TOL * lscale):
            block = hs[np.ix_(g, g)]
            if len(g) > 1 and not _is_diagonal(block, 1e-14):
                u[:, g] = u[:, g] @ np.linalg.eigh(block)[1]
                wl[g] = np.einsum("ij,ik,kj->j", u[:, g].conj(), sub,
                                  u[:, g]).real
        e_new = np.einsum("ij,i,ij->j", u.conj(), e, u).real
        own = level[np.argmin(np.abs(e_new[:, None] - e), axis=1)]
        perm = np.empty(len(idx), dtype=int)
        perm[np.argsort(level, kind="stable")] = np.lexsort((wl, own))
        if v is None:
            v = np.eye(len(eps), dtype=complex)
        v[:, idx] = v[:, idx] @ u[:, perm]
        lam[idx] = wl[perm]
    return eps, lam, v
