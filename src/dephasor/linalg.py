"""Simultaneous eigenbasis of two commuting Hermitian matrices.

Eigensolves go through LAPACK (``numpy.linalg.eigh``); this module only
adds the step LAPACK does not do: rotating the second matrix diagonal
inside each degenerate or nearly degenerate eigenspace of the first.
"""

from __future__ import annotations

import numpy as np


def _is_diagonal(a: np.ndarray, tol: float) -> bool:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2))) <= \
        tol * max(1.0, float(np.max(np.abs(a))))


def _clusters(levels: np.ndarray, tol: float) -> list[list[int]]:
    """Indices of levels within ``tol`` of their cluster's first one."""
    groups: list[list[int]] = []
    for j, e in enumerate(levels):
        for g in groups:
            if abs(e - levels[g[0]]) <= tol:
                g.append(j)
                break
        else:
            groups.append([j])
    return groups


def joint_eigenbasis(h: np.ndarray, l: np.ndarray,
                     degeneracy_tol: float = 1e-10
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous eigenbasis of two commuting Hermitian matrices.

    Diagonalizes ``h`` first, then rotates inside each cluster of ``h``
    levels closer than 1e-4 (relative) to diagonalize ``l`` there as
    well: LAPACK mixes the eigenvectors of levels a gap g apart by about
    1e-16 / g, which leaves ``l`` off-diagonal unless they are rotated
    too.  Inside a cluster, levels of ``l`` closer than
    ``degeneracy_tol`` are split by ``h``, each vector returns to a
    position of its own ``h`` level (levels closer than
    ``degeneracy_tol`` count as one), and the vectors of one level go
    in ascending ``l``.  When ``h`` is already diagonal its basis
    ordering is kept, so distinguished basis states (network branch
    states) stay at their positions.

    Returns ``(eps, lam, v)``: eigenvalues of ``h``, eigenvalues of
    ``l`` in the matching order, and the common eigenvector columns.
    """
    h = np.asarray(h, dtype=complex)  # a complex rotation fits into v
    n = h.shape[0]
    scale = max(1.0, float(np.max(np.abs(h))))
    if _is_diagonal(h, 1e-14):
        eps = np.diag(h).real.copy()
        v = np.eye(n, dtype=complex)
    else:
        eps, v = np.linalg.eigh(h)

    lmat = v.conj().T @ l @ v
    lam = np.diag(lmat).real.copy()
    lscale = max(1.0, float(np.max(np.abs(lam))))
    for idx in [g for g in _clusters(eps, 1e-4 * scale) if len(g) > 1]:
        sub = lmat[np.ix_(idx, idx)]
        if _is_diagonal(sub, 1e-14):
            continue
        e = eps[idx]
        level = np.empty(len(idx), dtype=int)
        for k, g in enumerate(_clusters(e, degeneracy_tol * scale)):
            level[g] = k
        wl, u = np.linalg.eigh(sub)
        hs = (u.conj().T * e) @ u
        for g in _clusters(wl, degeneracy_tol * lscale):
            block = hs[np.ix_(g, g)]
            if len(g) > 1 and not _is_diagonal(block, 1e-14):
                u[:, g] = u[:, g] @ np.linalg.eigh(block)[1]
                wl[g] = np.einsum("ij,ik,kj->j", u[:, g].conj(), sub,
                                  u[:, g]).real
        e_new = np.einsum("ij,i,ij->j", u.conj(), e, u).real
        own = level[np.argmin(np.abs(e_new[:, None] - e), axis=1)]
        perm = np.empty(len(idx), dtype=int)
        perm[np.argsort(level, kind="stable")] = np.lexsort((wl, own))
        v[:, idx] = v[:, idx] @ u[:, perm]
        lam[idx] = wl[perm]
    return eps, lam, v
