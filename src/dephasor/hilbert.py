"""Operators, density matrices, and sensor models on small dense Hilbert spaces.

Operators are dense complex128, capped at dimension 4096; a model
diagonal as built is its spectra, and a state its block on the basis
columns it lives on (a cat state: 2 x 2 at any dimension).  The state
checks are written once, over a stack of blocks: an RK4 pass checks its
samples a stack at a time, and a lone state is a stack of one.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import eigenbasis, joint_eigenbasis

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
    if not np.isfinite(m.view(float)).all():
        raise ValidationError("matrix entries must be finite")
    return m


def hermiticity_defect(m: np.ndarray):
    """max |M - M^dag| relative to max(1, max |M|); an array of them
    for a stack of matrices."""
    axes = {"axis": (-2, -1), "initial": 0.0}
    defect = np.abs(m - m.conj().swapaxes(-2, -1)).max(**axes) \
        / np.maximum(1.0, np.abs(m).max(**axes))
    return defect if m.ndim > 2 else float(defect)


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


class _Diagonal(Operator):
    """diag(levels), Hermitian, held as its real levels until read."""

    def __init__(self, levels):
        self.__dict__.update(levels=np.asarray(levels, float), hermitian=True)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        m = np.diag(self.levels.astype(complex))
        m.flags.writeable = False
        return m


@dataclass(frozen=True, eq=False)
class SupportBlock:
    """A matrix as its k x k block ``array`` on the columns ``support``
    (distinct; None: all n, in order) of the orthonormal ``basis``
    (None: the computational one) of the dim-n space, zero elsewhere; n
    is needed only for a support without a basis.  ``matrix``, also what
    numpy reads, is the n x n matrix, formed on first use."""

    array: np.ndarray
    basis: np.ndarray | None = None
    support: tuple[int, ...] | None = None
    dim: int | None = None

    def __post_init__(self):
        a = _as_complex_matrix(self.array)
        n = self.dim if self.dim is not None else \
            len(a if self.basis is None else self.basis)
        s = self.support
        if s is not None:
            s = tuple(int(j) for j in s)
            if len(s) != len(a) or len(set(s)) < len(s) or min(s) < 0 \
                    or max(s) >= n:
                raise ValidationError("support must be distinct columns "
                                      "of a basis, one per row")
            s = None if s == tuple(range(n)) else s
        if (s is None and len(a) != n) or (
                self.basis is not None and self.basis.shape != (n, n)):
            raise ValidationError("basis dimension does not match the state")
        a.flags.writeable = False
        for name, value in (("array", a), ("support", s), ("dim", n)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """basis array basis^dag on the support, re-symmetrized."""
        if self.support is None and self.basis is None:
            return self.array
        if self.basis is None:
            m = np.zeros((self.dim, self.dim), dtype=complex)
            m[np.ix_(self.support, self.support)] = self.array
        else:
            v = self.basis if self.support is None \
                else self.basis[:, list(self.support)]
            m = v @ self.array @ v.conj().T
            m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        return m

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


@np.errstate(all="ignore")  # a non-finite block fails its first check
def _check_states(a: np.ndarray, dim: int, positivity_tol: float) -> list:
    """Check a (samples, k, k) stack of state blocks on a dim-n space.

    Per block, in order: finite entries, Hermiticity defect, trace and
    least eigenvalue; the first failing block raises the ValidationError
    of its first failing check, with ``lows``, those before it.  Returns
    each block's least eigenvalue (at most 0 off a full support) from
    one ``eigvalsh``."""
    defect = hermiticity_defect(a)
    tr = a.trace(axis1=1, axis2=2)
    fails = [~np.isfinite(a.view(float)).all(axis=(1, 2)),
             defect > HERMITICITY_TOL, np.abs(tr - 1.0) > TRACE_TOL]
    ok = ~np.logical_or.reduce(fails)
    low = np.full(len(a), np.nan)
    low[ok] = np.linalg.eigvalsh(a if ok.all() else a[ok])[:, 0]
    if a.shape[1] < dim:  # min(low, 0.0), signed zeros included
        low = np.where(low > 0.0, 0.0, low)
    fails.append(low < -positivity_tol)
    bad = np.logical_or.reduce(fails)
    if bad.any():
        i = int(np.argmax(bad))
        check = next(c for c, f in enumerate(fails) if f[i])
        exc = ValidationError([
            "matrix entries must be finite",
            f"density matrix Hermiticity defect {defect[i]:.3e} > "
            f"{HERMITICITY_TOL}",
            f"density matrix trace {complex(tr[i])!r} deviates from 1 by "
            f"more than {TRACE_TOL}",
            f"density matrix minimum eigenvalue {low[i]:.3e} below "
            f"-{positivity_tol}"][check])
        exc.lows = low[:i].tolist()
        raise exc
    return low.tolist()


@dataclass(frozen=True, eq=False)
class DensityMatrix(SupportBlock):
    """Quantum state: Hermitian, unit trace, positive within tolerance.

    Every check reads the block, as all are unitary invariants and the
    state is zero off it, and fails hard instead of repairing.  The
    checks live in one place, ``_check_states``, over a stack of blocks:
    a state is a stack of one, ``stack`` checks many at once, and either
    keeps each least eigenvalue for ``min_eigenvalue``.
    ``positivity_tol`` exists because the numeric integrator admits a
    slightly looser bound (1e-7) than fresh states (1e-9).  Cat states
    and evolved states are written in the model's eigenbasis, where a
    coherence far below the populations keeps its relative accuracy.
    """

    positivity_tol: float = POSITIVITY_TOL

    def __post_init__(self):
        super().__post_init__()
        low, = _check_states(self.array[None], self.dim, self.positivity_tol)
        object.__setattr__(self, "_min_eig", low)

    @classmethod
    def stack(cls, blocks, *, basis: np.ndarray | None = None,
              support=None, dim=None, positivity_tol=POSITIVITY_TOL) -> list:
        """States from a nonempty (samples, k, k) stack of blocks on one
        basis and support, checked once as a stack."""
        a = np.array(blocks, dtype=complex)
        # the block's shape, its support and the basis, checked once
        head = SupportBlock(a[0], basis=basis, support=support, dim=dim)
        return cls._checked(a, _check_states(a, head.dim, positivity_tol),
                            basis=basis, support=head.support, dim=head.dim,
                            positivity_tol=positivity_tol)

    @classmethod
    def _checked(cls, a: np.ndarray, lows, **fields) -> list:
        """States of blocks that ``_check_states`` passed, with ``lows``."""
        a.flags.writeable = False
        states = [object.__new__(cls) for _ in lows]  # checked as a stack
        for rho, block, low in zip(states, a, lows):
            rho.__dict__.update(fields, array=block, _min_eig=low)
        return states

    def min_eigenvalue(self) -> float:
        """The block's least eigenvalue, and at most 0 off a full support."""
        return self._min_eig

    def purity(self) -> float:
        return float(np.trace(self.array @ self.array).real)


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

    ``basis`` holds a joint eigenbasis of h and L in its columns (None:
    the computational one, where energy dephasing keeps h and L diagonal);
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
    basis: np.ndarray | None
    energy_lindblad: bool
    branch_indices: tuple[int, int]

    @property
    def dim(self) -> int:
        return len(self.spectrum)

    def hamiltonian(self) -> np.ndarray:
        return self.omega * self.h.matrix

    def branch_gap(self) -> float:
        i, j = self.branch_indices
        return abs(float(self.omega * (self.spectrum[j] - self.spectrum[i])))

    def lindblad_branch_gap(self) -> float:
        i, j = self.branch_indices
        return abs(float(self.lindblad_spectrum[j]
                         - self.lindblad_spectrum[i]))

    def eigenbasis_block(self, rho: SupportBlock) -> tuple:
        """(block, support) of a state in this model's eigenbasis: as
        written in this basis object, else its matrix rotated in."""
        if rho.dim != self.dim:
            raise ValidationError("state dimension does not match the model")
        if rho.basis is self.basis:
            return rho.array, rho.support
        return _in_basis(self.basis, rho.matrix), None


def _qubit_diagonal(n: int) -> np.ndarray:
    # Collective half-spin: basis state with k excited qubits sits at (n-2k)/2.
    return 0.5 * n - np.bitwise_count(np.arange(2 ** n))


def _hermitian(op: Operator, name: str) -> Operator:
    """``op``, flagged Hermitian, checked once unless it is flagged so."""
    if op.hermitian:
        return op
    try:
        return Operator(op.matrix, hermitian=True)
    except ValidationError:
        raise ValidationError(f"{name} must be Hermitian") from None


def _resolve_lindblad(h: Operator, omega: float, lindblad) -> Operator | None:
    """An explicit L checked against H = omega h, or None for 'energy'."""
    if isinstance(lindblad, str):
        if lindblad != "energy":
            raise ValidationError(
                f"unknown lindblad choice {lindblad!r}; expected 'energy' "
                "or an explicit Operator")
        return None
    if not isinstance(lindblad, Operator):
        raise ValidationError("lindblad must be 'energy' or an Operator")
    if lindblad.dim != h.dim:
        raise ValidationError("lindblad dimension does not match h")
    lindblad = _hermitian(lindblad, "lindblad operator")
    lmat, hmat = lindblad.matrix, omega * h.matrix
    norm = np.linalg.norm  # Hilbert-Schmidt
    comm = norm(hmat @ lmat - lmat @ hmat)
    bound = COMMUTATOR_TOL * norm(hmat) * norm(lmat)
    if comm > bound:
        raise ValidationError(
            f"lindblad does not commute with H: ||[H, L]||_2 = {comm:.6e} "
            f"exceeds {COMMUTATOR_TOL} * ||H||_2 * ||L||_2 = {bound:.6e}")
    return lindblad


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

    kind 'custom': explicit Hermitian generator ``h`` (checked unless
    flagged Hermitian); branches default to the extreme eigenvalues of h.

    Each kind builds only its h (the first two as its spectrum) and
    branch pair; the rest is one path.  ``lindblad`` is 'energy' (L =
    omega h) or an explicit L, which must be Hermitian and commute with
    H.  One eigensolve of a dense h gives the basis, None for diagonal
    input: ``linalg.eigenbasis`` for energy dephasing,
    ``joint_eigenbasis`` for an explicit L, whose spectrum is then
    diag(basis^dag h basis).
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
        h = _Diagonal(_qubit_diagonal(size))
        # all-excited state has the lower collective energy
        branches = (2 ** size - 1, 0)
    elif kind == "photonic_two_mode":
        if size < 1:
            raise ValidationError("photon number must be at least 1")
        gap = float(branch_gap) if branch_gap is not None else size * omega
        if not (gap > 0.0) or not math.isfinite(gap):
            raise ValidationError("branch gap must be positive and finite")
        deps = gap / omega
        h = _Diagonal([-0.5 * deps, 0.5 * deps])
        branches = (0, 1)
    else:
        if h is None:
            raise ValidationError("custom models require an explicit h")
        h = _hermitian(h, "custom h")
        size = h.dim

    lop = _resolve_lindblad(h, omega, lindblad)
    energy = lop is None
    h_rot = None  # basis^dag h basis, formed once
    if energy:
        eps, basis = (h.levels, None) if isinstance(h, _Diagonal) else \
            eigenbasis(h.matrix)
        lam = omega * eps
        lop = _Diagonal(lam) if basis is None else \
            Operator(omega * h.matrix, hermitian=True)
    else:
        _, lam, basis = joint_eigenbasis(h.matrix, lop.matrix)
        h_rot = _in_basis(basis, h.matrix)
        eps = np.diag(h_rot).real.copy()
    if branches is None:  # a 1x1 or flat h leaves no distinct pair
        branches = (int(np.argmin(eps)), int(np.argmax(eps)))
    b0, b1 = int(branches[0]), int(branches[1])
    if not (0 <= b0 < len(eps) and 0 <= b1 < len(eps)) or b0 == b1:
        raise ValidationError(
            "branch indices out of range or not two distinct levels")

    model = SensorModel(kind=kind, size=size, omega=omega, h=h, lindblad=lop,
                        spectrum=eps, lindblad_spectrum=lam, basis=basis,
                        energy_lindblad=energy, branch_indices=(b0, b1))
    if basis is not None or not energy:  # else h and L are the spectra
        _check_spectrum(model, h_rot)
    return model


def _in_basis(v: np.ndarray | None, m: np.ndarray) -> np.ndarray:
    """v^dag m v, or m itself for v None (the computational basis)."""
    return m if v is None else v.conj().T @ m @ v


def _check_spectrum(model: SensorModel, h_rot: np.ndarray | None = None):
    # basis^dag h basis (``h_rot`` when the caller formed it) must
    # reproduce the stored spectrum, and so must basis^dag L basis the
    # lindblad spectrum unless L = omega h
    v = model.basis
    if h_rot is None:
        h_rot = _in_basis(v, model.h.matrix)
    checks = [("spectrum", "h", h_rot, model.spectrum)]
    if not model.energy_lindblad:
        checks.append(("lindblad spectrum", "L",
                       _in_basis(v, model.lindblad.matrix),
                       model.lindblad_spectrum))
    for name, symbol, mt, levels in checks:
        r = np.abs(mt)  # elementwise |mt - diag(levels)|
        np.fill_diagonal(r, np.abs(mt.diagonal() - levels))
        resid = r.max()
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
    h_op = _Diagonal([-0.5 * spec.delta_eps, 0.5 * spec.delta_eps])
    lind: object = "energy"
    if not spec.energy_like or spec.delta_e == 0.0:
        lind = _Diagonal([-0.5 * spec.delta_l, 0.5 * spec.delta_l])
    return build_sensor_model("custom", 2, spec.omega, lind, h=h_op,
                              branches=(0, 1))


# The cat block [[1/2, 1/2], [1/2, 1/2]] is Hermitian with trace 1, and
# eigvalsh gives its eigenvalues as exactly [0, 1] (pinned in the tests).
_CAT_BLOCK = np.full((2, 2), 0.5, dtype=complex)
_CAT_BLOCK.flags.writeable = False


def _cat_block(basis=None, support=None, dim=None) -> DensityMatrix:
    """The cat block on ``support`` of ``basis``: the structural checks
    of ``DensityMatrix.stack``, with the least eigenvalue 0 exactly."""
    head = SupportBlock(_CAT_BLOCK, basis, support, dim)
    return DensityMatrix._checked(head.array[None], [0.0], basis=basis,
                                  support=head.support, dim=head.dim,
                                  positivity_tol=POSITIVITY_TOL)[0]


def cat_initial_state(model_or_spec) -> DensityMatrix:
    """Equal superposition of the two branch states, as a density matrix.

    With a CatSpec the state lives on the 2-dimensional branch space;
    with a SensorModel it is the 2 x 2 block on the model's branch
    columns of its eigenbasis.  The block is the constant
    [[1/2, 1/2], [1/2, 1/2]], whose least eigenvalue is 0 exactly, so
    only its basis, support and dimension are checked per call.
    """
    if isinstance(model_or_spec, CatSpec):
        return _cat_block()
    model = model_or_spec
    if not isinstance(model, SensorModel):
        raise ValidationError("expected a CatSpec or SensorModel")
    return _cat_block(model.basis, model.branch_indices, model.dim)


def operator_expectation(op: Operator, rho: DensityMatrix) -> tuple[float, float]:
    """Mean and variance of a Hermitian operator in a state.

    The imaginary residue of tr(O rho) is checked against 1e-10 and
    discarded; a variance within -1e-12 of zero is clamped to zero.
    """
    if not isinstance(op, Operator):
        op = Operator(op, hermitian=True)
    op = _hermitian(op, "expectation operator")
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
