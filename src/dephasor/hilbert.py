"""Operators, density matrices, and sensor models on small dense Hilbert spaces.

Everything is dense complex128.  The intended scale is a handful of
qubits or a two-branch photonic sensor, capped at dimension 4096, so no
sparse machinery is used anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import joint_eigenbasis

DIM_CAP = 4096
QUBIT_CAP = 12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9
COMMUTATOR_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10

MODEL_KINDS = ("qubit_network", "photonic_two_mode", "custom")


class ValidationError(ValueError):
    """Rejected input: malformed operator, state, model, or argument."""


class NumericalContractError(RuntimeError):
    """A numerical guarantee (trace, positivity, convergence) was violated."""


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("expected a square matrix")
    if m.shape[0] < 1:
        raise ValidationError("dimension must be at least 1")
    if m.shape[0] > DIM_CAP:
        raise ValidationError(
            f"dimension {m.shape[0]} exceeds the cap of {DIM_CAP}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError("matrix entries must be finite")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dag| relative to max(1, max |M|)."""
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    return float(np.max(np.abs(m - m.conj().T))) / scale


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(tr(A^dag A))."""
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense linear operator, optionally flagged (and checked) Hermitian."""

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if self.hermitian and hermiticity_defect(m) > HERMITICITY_TOL:
            raise ValidationError(
                f"operator flagged Hermitian has defect "
                f"{hermiticity_defect(m):.3e} > {HERMITICITY_TOL}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Quantum state: Hermitian, unit trace, positive within tolerance.

    Construction hard-fails on violations instead of repairing them.
    ``positivity_tol`` exists because the numeric integrator admits a
    slightly looser bound (1e-7) than fresh states (1e-9).

    ``frame``, when set, is ``(v, m)``: the same state written in the
    orthonormal columns of v, ``matrix`` = v m v^dag up to round-off.
    Cat states on a model's branches and integrated states carry it in
    the model's eigenbasis, where a coherence far below the populations
    keeps its relative accuracy; in a dense frame the round-off of the
    populations (about 1e-16) swamps it.
    """

    matrix: np.ndarray
    positivity_tol: float = POSITIVITY_TOL
    frame: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValidationError(
                f"density matrix Hermiticity defect {defect:.3e} > "
                f"{HERMITICITY_TOL}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"density matrix trace {tr!r} deviates from 1 by more "
                f"than {TRACE_TOL}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_min_eig", None)
        if self.frame is not None:
            v, mf = self.frame
            if v.shape != m.shape or mf.shape != m.shape:
                raise ValidationError("frame dimension does not match")
            mf = mf.view()
            mf.flags.writeable = False
            object.__setattr__(self, "frame", (v, mf))
        low = self._gershgorin_lower()
        if low < -self.positivity_tol:
            low = self.min_eigenvalue()
            if low < -self.positivity_tol:
                raise ValidationError(
                    f"density matrix minimum eigenvalue {low:.3e} below "
                    f"-{self.positivity_tol}")

    def _gershgorin_lower(self) -> float:
        # Cheap sufficient positivity bound; exact spectrum only when needed.
        d = np.diag(self.matrix).real
        radii = np.sum(np.abs(self.matrix), axis=1) - np.abs(np.diag(self.matrix))
        return float(np.min(d - radii))

    def min_eigenvalue(self) -> float:
        if self._min_eig is None:
            w = np.linalg.eigvalsh(self.matrix)
            object.__setattr__(self, "_min_eig", float(w[0]))
        return self._min_eig

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CatSpec:
    """Reduced description of an equal-weight two-branch superposition.

    delta_e and delta_l are the energy and noise-eigenvalue gaps between
    the two branches; delta_eps = delta_e / omega is derived, never set.
    """

    delta_e: float
    delta_l: float
    omega: float
    delta_eps: float = field(init=False)

    def __post_init__(self):
        # Plain floats keep numpy scalars out of every downstream repr.
        for name in ("delta_e", "delta_l", "omega"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.omega > 0.0) or not math.isfinite(self.omega):
            raise ValidationError("omega must be positive and finite")
        if self.delta_e < 0.0 or not math.isfinite(self.delta_e):
            raise ValidationError("delta_e must be nonnegative and finite")
        if self.delta_l < 0.0 or not math.isfinite(self.delta_l):
            raise ValidationError("delta_l must be nonnegative and finite")
        object.__setattr__(self, "delta_eps", self.delta_e / self.omega)

    @property
    def energy_like(self) -> bool:
        """True when the noise gap matches the energy gap (L = H)."""
        return self.delta_l == self.delta_e


@dataclass(frozen=True, eq=False)
class SensorModel:
    """A sensor: generator h (H = omega*h), commuting noise operator L.

    ``basis`` holds a joint eigenbasis of h and L in its columns;
    ``spectrum`` and ``lindblad_spectrum`` are the matching eigenvalues.
    ``branch_indices`` points at the two basis states used to form cat
    states, ordered so the first has the lower energy.
    """

    kind: str
    size: int
    omega: float
    h: Operator
    lindblad: Operator
    spectrum: np.ndarray
    lindblad_spectrum: np.ndarray
    basis: np.ndarray
    energy_lindblad: bool
    branch_indices: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.h.dim

    def hamiltonian(self) -> np.ndarray:
        return self.omega * self.h.matrix

    def branch_gap(self) -> float:
        i, j = self.branch_indices
        return abs(float(self.omega * (self.spectrum[j] - self.spectrum[i])))

    def lindblad_branch_gap(self) -> float:
        i, j = self.branch_indices
        return abs(float(self.lindblad_spectrum[j]
                         - self.lindblad_spectrum[i]))

    def to_eigenbasis(self, rho: DensityMatrix) -> np.ndarray:
        """A state in this model's eigenbasis: the form it carries there
        (``DensityMatrix.frame``), or its matrix rotated in."""
        if rho.dim != self.dim:
            raise ValidationError("state dimension does not match the model")
        if rho.frame is not None and rho.frame[0] is self.basis:
            return rho.frame[1]
        return self.basis.conj().T @ rho.matrix @ self.basis

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """An eigenbasis array rotated out to the model's frame."""
        return self.basis @ m @ self.basis.conj().T


def _qubit_diagonal(n: int) -> np.ndarray:
    # Collective half-spin: basis state with k excited qubits sits at (n-2k)/2.
    k = np.array([bin(b).count("1") for b in range(2 ** n)])
    return 0.5 * (n - 2 * k)


def _resolve_lindblad(h_mat: np.ndarray, omega: float, lindblad,
                      basis: np.ndarray, spectrum: np.ndarray):
    """Returns (L operator, lindblad eigenvalues, basis, energy flag)."""
    if isinstance(lindblad, str):
        if lindblad != "energy":
            raise ValidationError(
                f"unknown lindblad choice {lindblad!r}; expected 'energy' "
                "or an explicit Operator")
        lmat = omega * h_mat
        op = Operator(lmat, hermitian=True)
        return op, omega * spectrum, basis, True
    if not isinstance(lindblad, Operator):
        raise ValidationError("lindblad must be 'energy' or an Operator")
    lmat = lindblad.matrix
    if lmat.shape != h_mat.shape:
        raise ValidationError("lindblad dimension does not match h")
    if hermiticity_defect(lmat) > HERMITICITY_TOL:
        raise ValidationError("lindblad operator must be Hermitian")
    hmat = omega * h_mat
    comm = hs_norm(commutator(hmat, lmat))
    bound = COMMUTATOR_TOL * hs_norm(hmat) * hs_norm(lmat)
    if comm > bound:
        raise ValidationError(
            f"lindblad does not commute with H: ||[H, L]||_2 = {comm:.6e} "
            f"exceeds {COMMUTATOR_TOL} * ||H||_2 * ||L||_2 = {bound:.6e}")
    eps, lam, v = joint_eigenbasis(h_mat, lmat)
    return Operator(lmat, hermitian=True), lam, v, False


def build_sensor_model(kind: str, size: int, omega: float,
                       lindblad="energy", *, branch_gap: float | None = None,
                       h: Operator | None = None,
                       branches: tuple[int, int] | None = None) -> SensorModel:
    """Assemble a sensor model.

    kind 'qubit_network': ``size`` qubits under a collective sigma_z/2
    generator; cat branches are the all-ground and all-excited states.

    kind 'photonic_two_mode': the two branch states of an N-photon
    two-mode superposition, represented directly on that 2-dimensional
    subspace.  The branch energy gap defaults to size*omega and can be
    overridden with ``branch_gap``.

    kind 'custom': explicit Hermitian generator ``h``; branches default
    to the extreme eigenvalues of h.
    """
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    if not (omega > 0.0) or not math.isfinite(omega):
        raise ValidationError("omega must be positive and finite")

    if kind == "qubit_network":
        if not (1 <= size <= QUBIT_CAP):
            raise ValidationError(
                f"qubit_network size must be in 1..{QUBIT_CAP} "
                f"(dimension cap {DIM_CAP})")
        eps = _qubit_diagonal(size)
        h_mat = np.diag(eps).astype(complex)
        basis = np.eye(2 ** size, dtype=complex)
        lop, lam, basis, energy = _resolve_lindblad(
            h_mat, omega, lindblad, basis, eps)
        # all-excited state has the lower collective energy
        branches = (2 ** size - 1, 0)
    elif kind == "photonic_two_mode":
        if size < 1:
            raise ValidationError("photon number must be at least 1")
        gap = float(branch_gap) if branch_gap is not None else size * omega
        if not (gap > 0.0) or not math.isfinite(gap):
            raise ValidationError("branch gap must be positive and finite")
        deps = gap / omega
        eps = np.array([-0.5 * deps, 0.5 * deps])
        h_mat = np.diag(eps).astype(complex)
        basis = np.eye(2, dtype=complex)
        lop, lam, basis, energy = _resolve_lindblad(
            h_mat, omega, lindblad, basis, eps)
        branches = (0, 1)
    else:
        if h is None:
            raise ValidationError("custom models require an explicit h")
        if not h.hermitian and hermiticity_defect(h.matrix) > HERMITICITY_TOL:
            raise ValidationError("custom h must be Hermitian")
        h_mat = h.matrix
        if isinstance(lindblad, str):
            eps, basis = _diag_or_eigh(h_mat)
            lop, lam, basis, energy = _resolve_lindblad(
                h_mat, omega, lindblad, basis, eps)
        else:
            lop, lam, basis, energy = _resolve_lindblad(
                h_mat, omega, lindblad, np.eye(h.dim, dtype=complex),
                np.zeros(h.dim))
            eps = np.diag(basis.conj().T @ h_mat @ basis).real.copy()
        size = h.dim
        if branches is None:  # a 1x1 or flat h leaves no distinct pair
            branches = (int(np.argmin(eps)), int(np.argmax(eps)))
        b0, b1 = int(branches[0]), int(branches[1])
        if not (0 <= b0 < size and 0 <= b1 < size) or b0 == b1:
            raise ValidationError(
                "branch indices out of range or not two distinct levels")
        branches = (b0, b1)

    model = SensorModel(kind=kind, size=size, omega=omega,
                        h=Operator(h_mat, hermitian=True), lindblad=lop,
                        spectrum=np.asarray(eps, dtype=float),
                        lindblad_spectrum=np.asarray(lam, dtype=float),
                        basis=basis, energy_lindblad=energy,
                        branch_indices=branches)
    _check_spectrum(model)
    return model


def _diag_or_eigh(h_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    off = h_mat - np.diag(np.diag(h_mat))
    offmax = float(np.max(np.abs(off))) if off.size else 0.0
    if offmax > 1e-14 * max(1.0, float(np.max(np.abs(h_mat)))):
        return np.linalg.eigh(h_mat)
    return np.diag(h_mat).real.copy(), np.eye(h_mat.shape[0], dtype=complex)


def _check_spectrum(model: SensorModel):
    # basis^dag h basis must reproduce the stored spectrum, and so must
    # basis^dag L basis the lindblad spectrum unless L = omega h
    checks = [("spectrum", "h", model.h, model.spectrum)]
    if not model.energy_lindblad:
        checks.append(("lindblad spectrum", "L", model.lindblad,
                       model.lindblad_spectrum))
    for name, symbol, op, levels in checks:
        mt = model.basis.conj().T @ op.matrix @ model.basis
        resid = np.max(np.abs(mt - np.diag(levels)))
        scale = max(1.0, float(np.max(np.abs(levels))))
        if resid > 1e-10 * scale:
            raise ValidationError(
                f"{name} does not match {symbol} in the stored basis "
                f"(residual {resid:.3e})")


def cat_spec_for(model: SensorModel) -> CatSpec:
    """CatSpec with the branch gaps of the model's two branch states.
    With L = H the noise gap is the energy gap by construction, since
    gaps taken from the two spectra can differ in the last bit."""
    delta_e = model.branch_gap()
    delta_l = delta_e if model.energy_lindblad else \
        model.lindblad_branch_gap()
    return CatSpec(delta_e=delta_e, delta_l=delta_l, omega=model.omega)


def branch_model(spec: CatSpec) -> SensorModel:
    """Two-level sensor carrying exactly the gaps of ``spec``.

    The full dynamics of a cat state live on its two branch states, so
    this is the model every analytic formula is cross-checked against.
    """
    h_op = Operator(np.diag([-0.5 * spec.delta_eps, 0.5 * spec.delta_eps])
                    .astype(complex), hermitian=True)
    lind: object = "energy"
    if not spec.energy_like or spec.delta_e == 0.0:
        lind = Operator(np.diag([-0.5 * spec.delta_l, 0.5 * spec.delta_l])
                        .astype(complex), hermitian=True)
    return build_sensor_model("custom", 2, spec.omega, lind, h=h_op,
                              branches=(0, 1))


def cat_initial_state(model_or_spec, branch_vectors=None) -> DensityMatrix:
    """Equal superposition of the two branch states, as a density matrix.

    With a CatSpec the state lives on the 2-dimensional branch space.
    With a SensorModel the state is embedded in the full space, either
    on the model's branch states or on explicitly supplied orthonormal
    eigenvector columns.
    """
    if isinstance(model_or_spec, CatSpec):
        if branch_vectors is not None:
            raise ValidationError("branch vectors only apply to models")
        return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    model = model_or_spec
    if not isinstance(model, SensorModel):
        raise ValidationError("expected a CatSpec or SensorModel")
    frame = None
    if branch_vectors is None:
        i, j = model.branch_indices
        v0 = model.basis[:, i]
        v1 = model.basis[:, j]
        branches = np.zeros((model.dim, model.dim), dtype=complex)
        branches[np.ix_((i, j), (i, j))] = 0.5
        frame = (model.basis, branches)
    else:
        v0 = np.asarray(branch_vectors[0], dtype=complex).reshape(-1)
        v1 = np.asarray(branch_vectors[1], dtype=complex).reshape(-1)
        if v0.shape != (model.dim,) or v1.shape != (model.dim,):
            raise ValidationError("branch vectors have the wrong dimension")
        g00 = abs(np.vdot(v0, v0) - 1.0)
        g11 = abs(np.vdot(v1, v1) - 1.0)
        g01 = abs(np.vdot(v0, v1))
        if max(g00, g11, g01) > 1e-10:
            raise ValidationError(
                f"branch vectors are not orthonormal "
                f"(defects {g00:.3e}, {g11:.3e}, {g01:.3e})")
        hmat = model.hamiltonian()
        for v in (v0, v1):
            hv = hmat @ v
            e = np.vdot(v, hv)
            resid = float(np.sqrt(np.sum(np.abs(hv - e * v) ** 2)))
            if resid > 1e-8 * max(1.0, abs(e)):
                raise ValidationError(
                    f"branch vectors must be H eigenvectors "
                    f"(residual {resid:.3e})")
    # Expanded form keeps standard-basis branches at exactly 0.5 per
    # entry; squaring 1/sqrt(2) would leave rounding dust on the trace.
    rho = 0.5 * (np.outer(v0, v0.conj()) + np.outer(v0, v1.conj())
                 + np.outer(v1, v0.conj()) + np.outer(v1, v1.conj()))
    return DensityMatrix(rho, frame=frame)


def operator_expectation(op: Operator, rho: DensityMatrix) -> tuple[float, float]:
    """Mean and variance of a Hermitian operator in a state.

    The imaginary residue of tr(O rho) is checked against 1e-10 and
    discarded; a variance within -1e-12 of zero is clamped to zero.
    """
    if not isinstance(op, Operator):
        op = Operator(op, hermitian=True)
    if hermiticity_defect(op.matrix) > HERMITICITY_TOL:
        raise ValidationError("expectation requires a Hermitian operator")
    if op.dim != rho.dim:
        raise ValidationError("operator and state dimensions differ")
    m = op.matrix @ rho.matrix
    mean_c = complex(np.trace(m))
    scale = max(1.0, abs(mean_c))
    if abs(mean_c.imag) > IMAG_RESIDUE_TOL * scale:
        raise ValidationError(
            f"tr(O rho) has imaginary residue {mean_c.imag:.3e}")
    mean = mean_c.real
    second = complex(np.trace(op.matrix @ m)).real
    var = second - mean * mean
    if var < 0.0:
        if var < -1e-12:
            raise ValidationError(f"negative variance {var:.3e}")
        var = 0.0
    return mean, var


def commutator_norms(a: Operator, b: Operator,
                     rho: DensityMatrix) -> tuple[float, float]:
    """(||[A, rho]||_2^2, ||[B, [B, rho]]||_2^2), Hilbert-Schmidt squared."""
    am = a.matrix if isinstance(a, Operator) else np.asarray(a, dtype=complex)
    bm = b.matrix if isinstance(b, Operator) else np.asarray(b, dtype=complex)
    if am.shape != rho.matrix.shape or bm.shape != rho.matrix.shape:
        raise ValidationError("operator and state dimensions differ")
    first = hs_norm(commutator(am, rho.matrix)) ** 2
    second = hs_norm(commutator(bm, commutator(bm, rho.matrix))) ** 2
    return first, second


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(entries) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix entries: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            "matrix entries must be a square grid of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def model_to_json(model: SensorModel) -> str:
    doc: dict = {"kind": model.kind, "N": model.size, "omega": model.omega}
    if model.energy_lindblad:
        doc["lindblad"] = "energy"
    else:
        doc["lindblad"] = {"matrix": _matrix_to_json(model.lindblad.matrix)}
    if model.kind == "photonic_two_mode":
        doc["branch_gap"] = model.branch_gap()
    if model.kind == "custom":
        doc["h"] = {"matrix": _matrix_to_json(model.h.matrix)}
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> SensorModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("model file must hold a JSON object")
    for key in ("kind", "N", "omega", "lindblad"):
        if key not in doc:
            raise ValidationError(f"model file missing field {key!r}")
    kind = doc["kind"]
    lind = doc["lindblad"]
    if isinstance(lind, dict):
        if "matrix" not in lind:
            raise ValidationError("lindblad object must carry a matrix")
        lind = Operator(_matrix_from_json(lind["matrix"]), hermitian=True)
    h_op = None
    if kind == "custom":
        if "h" not in doc or "matrix" not in doc["h"]:
            raise ValidationError("custom models require an h matrix")
        h_op = Operator(_matrix_from_json(doc["h"]["matrix"]), hermitian=True)
    size = doc["N"]
    if not isinstance(size, int) or isinstance(size, bool):
        raise ValidationError(f"N must be an integer, got {size!r}")
    gap = doc.get("branch_gap")
    try:
        omega = float(doc["omega"])
        gap = float(gap) if gap is not None else None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed omega or branch_gap: {exc}") from exc
    return build_sensor_model(kind, size, omega, lind, branch_gap=gap, h=h_op)


def load_model(path: str) -> SensorModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
