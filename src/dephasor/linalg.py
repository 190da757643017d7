"""Simultaneous eigenbasis of two commuting Hermitian matrices.

Eigensolves go through LAPACK (``numpy.linalg.eigh``); this module only
adds the step LAPACK does not do: rotating the second matrix diagonal
inside each degenerate eigenspace of the first.
"""

from __future__ import annotations

import numpy as np


def _is_diagonal(a: np.ndarray, tol: float) -> bool:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2))) <= \
        tol * max(1.0, float(np.max(np.abs(a))))


def joint_eigenbasis(h: np.ndarray, l: np.ndarray,
                     degeneracy_tol: float = 1e-10
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous eigenbasis of two commuting Hermitian matrices.

    Diagonalizes ``h`` first, then rotates inside each degenerate
    eigenspace of ``h`` to diagonalize ``l`` there as well.  When ``h``
    is already diagonal its basis ordering is kept, so distinguished
    basis states (network branch states) stay at their positions.

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
    lam = np.zeros(n)
    # Group indices sharing an h eigenvalue; rotate l inside each group.
    groups: list[list[int]] = []
    for j in range(n):
        placed = False
        for g in groups:
            if abs(eps[j] - eps[g[0]]) <= degeneracy_tol * scale:
                g.append(j)
                placed = True
                break
        if not placed:
            groups.append([j])
    for g in groups:
        if len(g) == 1:
            lam[g[0]] = lmat[g[0], g[0]].real
            continue
        idx = np.array(g)
        sub = lmat[np.ix_(idx, idx)]
        if _is_diagonal(sub, 1e-14):
            lam[idx] = np.diag(sub).real
            continue
        wl, ul = np.linalg.eigh(sub)
        v[:, idx] = v[:, idx] @ ul
        lam[idx] = wl
    return eps, lam, v
