"""States, operators, sensor models, and their JSON form."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, Operator, ValidationError,
                      branch_model, build_sensor_model, cat_initial_state,
                      cat_spec_for, commutator_norms, load_model,
                      model_from_json, model_to_json, operator_expectation)
from dephasor.hilbert import _check_spectrum

from conftest import random_hermitian


# ---------------------------------------------------------------- operators

def test_operator_rejects_nonsquare():
    with pytest.raises(ValidationError):
        Operator(np.zeros((2, 3)))


def test_operator_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_operator_hermitian_flag_checked():
    with pytest.raises(ValidationError):
        Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


def test_operator_matrix_is_frozen():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


# ------------------------------------------------------------------- states

def test_density_matrix_accepts_valid_mixed_state():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert rho.dim == 2
    assert rho.purity() == pytest.approx(0.25 ** 2 + 0.75 ** 2, abs=1e-15)


@pytest.mark.parametrize("bad", [
    np.diag([0.5, 0.6]),                       # trace 1.1
    np.array([[0.5, 0.1j], [0.1j, 0.5]]),      # not Hermitian
    np.diag([1.2, -0.2]),                      # negative eigenvalue
])
def test_density_matrix_rejects_invalid(bad):
    with pytest.raises(ValidationError):
        DensityMatrix(np.asarray(bad, dtype=complex))


def test_density_matrix_tolerates_tiny_negative_eigenvalue():
    eps = 1e-12
    rho = DensityMatrix(np.diag([1.0 + eps, -eps]).astype(complex))
    assert rho.min_eigenvalue() == pytest.approx(-eps, abs=1e-15)


def test_density_matrix_frame_is_checked_and_kept_read_only():
    model = build_sensor_model("photonic_two_mode", 1, omega=1.0)
    m = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    rho = DensityMatrix(m, frame=(model.basis, m))
    assert model.to_eigenbasis(rho) is rho.frame[1]
    # a frame in another basis object is not used
    other = DensityMatrix(m, frame=(model.basis.copy(), 0 * m))
    assert np.array_equal(model.to_eigenbasis(other), m)
    with pytest.raises(ValueError):
        rho.frame[1][0, 0] = 1.0
    assert m.flags.writeable  # the caller's array is left alone
    with pytest.raises(ValidationError, match="frame"):
        DensityMatrix(m, frame=(np.eye(3, dtype=complex), m))
    with pytest.raises(ValidationError, match="dimension"):
        build_sensor_model("qubit_network", 2, 1.0).to_eigenbasis(rho)


def test_min_eigenvalue_matches_lapack(rng):
    for _ in range(10):
        w = rng.uniform(0.05, 1.0, size=4)
        w /= w.sum()
        u, _ = np.linalg.qr(random_hermitian(rng, 4))
        rho = DensityMatrix(u @ np.diag(w) @ u.conj().T)
        ref = float(np.min(np.linalg.eigvalsh(rho.matrix)))
        assert rho.min_eigenvalue() == pytest.approx(ref, abs=1e-12)


# ----------------------------------------------------------------- cat spec

def test_cat_spec_derives_relative_gap():
    spec = CatSpec(delta_e=4.0, delta_l=2.0, omega=2.0)
    assert spec.delta_eps == 2.0
    assert not spec.energy_like
    assert CatSpec(delta_e=3.0, delta_l=3.0, omega=1.0).energy_like


@pytest.mark.parametrize("kw", [
    dict(delta_e=-1.0, delta_l=1.0, omega=1.0),
    dict(delta_e=1.0, delta_l=-1.0, omega=1.0),
    dict(delta_e=1.0, delta_l=1.0, omega=0.0),
    dict(delta_e=math.inf, delta_l=1.0, omega=1.0),
])
def test_cat_spec_rejects_bad_gaps(kw):
    with pytest.raises(ValidationError):
        CatSpec(**kw)


def test_cat_spec_coerces_numpy_scalars_to_float():
    spec = CatSpec(delta_e=np.float64(2.0), delta_l=np.float64(2.0),
                   omega=np.float64(1.0))
    assert type(spec.delta_e) is float
    assert repr(spec.delta_e) == "2.0"


# ------------------------------------------------------------------- models

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_qubit_network_spectrum(n):
    model = build_sensor_model("qubit_network", n, omega=1.0)
    assert model.dim == 2 ** n
    # collective half-spin level for k excitations is (n - 2k)/2
    for b in range(model.dim):
        k = bin(b).count("1")
        assert model.spectrum[b] == pytest.approx(0.5 * (n - 2 * k))
    assert model.branch_indices == (2 ** n - 1, 0)
    assert model.branch_gap() == pytest.approx(n * 1.0)
    assert model.lindblad_branch_gap() == pytest.approx(n * 1.0)


def test_photonic_two_mode_defaults_and_override():
    m = build_sensor_model("photonic_two_mode", 3, omega=2.0)
    assert m.dim == 2
    assert m.branch_gap() == pytest.approx(6.0)
    m2 = build_sensor_model("photonic_two_mode", 3, omega=2.0,
                            branch_gap=1.5)
    assert m2.branch_gap() == pytest.approx(1.5)


def test_custom_model_picks_extreme_branches():
    h = Operator(np.diag([0.0, 1.0, -1.0]).astype(complex), hermitian=True)
    model = build_sensor_model("custom", 3, omega=1.0, h=h)
    assert model.branch_indices == (2, 1)
    assert model.branch_gap() == pytest.approx(2.0)


def test_custom_model_rejects_noncommuting_lindblad():
    h = Operator(np.diag([0.5, -0.5]).astype(complex), hermitian=True)
    sx = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                  hermitian=True)
    with pytest.raises(ValidationError, match="commute"):
        build_sensor_model("custom", 2, omega=1.0, lindblad=sx, h=h)


def test_custom_model_accepts_commuting_nonenergy_lindblad():
    h = Operator(np.diag([0.5, -0.5]).astype(complex), hermitian=True)
    l = Operator(np.diag([2.0, 1.0]).astype(complex), hermitian=True)
    model = build_sensor_model("custom", 2, omega=1.0, lindblad=l, h=h)
    assert not model.energy_lindblad
    assert model.lindblad_branch_gap() == pytest.approx(1.0)


def test_spectrum_check_covers_an_explicit_lindblad():
    h = Operator(np.diag([0.5, -0.5]).astype(complex), hermitian=True)
    l = Operator(np.diag([2.0, 1.0]).astype(complex), hermitian=True)
    model = build_sensor_model("custom", 2, omega=1.0, lindblad=l, h=h)
    off = dataclasses.replace(model, lindblad_spectrum=np.array([2.0, 0.9]))
    with pytest.raises(ValidationError, match="lindblad spectrum"):
        _check_spectrum(off)
    with pytest.raises(ValidationError, match="spectrum does not match h"):
        _check_spectrum(dataclasses.replace(
            model, spectrum=np.array([0.5, -0.4])))


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        build_sensor_model("spin_glass", 2, omega=1.0)


def test_branch_model_reproduces_gaps():
    spec = CatSpec(delta_e=3.0, delta_l=1.5, omega=2.0)
    model = branch_model(spec)
    back = cat_spec_for(model)
    assert back.delta_e == pytest.approx(spec.delta_e, abs=1e-15)
    assert back.delta_l == pytest.approx(spec.delta_l, abs=1e-15)
    assert back.omega == spec.omega


# --------------------------------------------------------------- cat states

def test_cat_state_on_spec_is_exact():
    rho = cat_initial_state(CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0))
    assert np.array_equal(rho.matrix, np.full((2, 2), 0.5, dtype=complex))
    assert rho.purity() == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cat_state_on_network_is_pure_branch_pair(n):
    model = build_sensor_model("qubit_network", n, omega=1.0)
    rho = cat_initial_state(model)
    assert rho.purity() == pytest.approx(1.0, abs=1e-15)
    i, j = model.branch_indices
    assert rho.matrix[i, i] == 0.5
    assert rho.matrix[j, j] == 0.5
    assert rho.matrix[i, j] == 0.5
    # nothing outside the branch pair
    mask = np.ones((rho.dim, rho.dim), dtype=bool)
    mask[np.ix_([i, j], [i, j])] = False
    assert np.max(np.abs(rho.matrix[mask])) == 0.0


def test_cat_state_carries_its_eigenbasis_form(rng):
    # in a model's own frame the branch pair is exact: 1/2 on four
    # entries, zero elsewhere
    q, _ = np.linalg.qr(random_hermitian(rng, 5))
    h = q @ np.diag([-1.0, 0.0, 0.5, 1.0, 2.0]) @ q.conj().T
    model = build_sensor_model("custom", 5, 1.0, "energy",
                               h=Operator(0.5 * (h + h.conj().T)))
    rho = cat_initial_state(model)
    m = model.to_eigenbasis(rho)
    i, j = model.branch_indices
    want = np.zeros((5, 5), dtype=complex)
    want[np.ix_([i, j], [i, j])] = 0.5
    assert np.array_equal(m, want)
    v = model.basis
    assert np.max(np.abs(v @ m @ v.conj().T - rho.matrix)) <= 1e-15


def test_cat_state_with_explicit_vectors():
    model = build_sensor_model("qubit_network", 2, omega=1.0)
    v0 = model.basis[:, 1]
    v1 = model.basis[:, 2]
    rho = cat_initial_state(model, branch_vectors=(v0, v1))
    assert rho.matrix[1, 2] == pytest.approx(0.5)
    assert rho.frame is None


def test_cat_state_rejects_nonorthonormal_vectors():
    model = build_sensor_model("qubit_network", 2, omega=1.0)
    v = model.basis[:, 0]
    with pytest.raises(ValidationError, match="orthonormal"):
        cat_initial_state(model, branch_vectors=(v, v))


def test_cat_state_rejects_non_eigenvectors():
    model = build_sensor_model("qubit_network", 2, omega=1.0)
    v0 = (model.basis[:, 0] + model.basis[:, 1]) / math.sqrt(2.0)
    v1 = model.basis[:, 3]
    with pytest.raises(ValidationError, match="eigenvector"):
        cat_initial_state(model, branch_vectors=(v0, v1))


# ------------------------------------------------------------- expectations

def test_operator_expectation_known_values():
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    sx = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                  hermitian=True)
    sz = Operator(np.diag([1.0, -1.0]).astype(complex), hermitian=True)
    mean, var = operator_expectation(sx, rho)
    assert mean == pytest.approx(1.0, abs=1e-15)
    assert var == pytest.approx(0.0, abs=1e-15)
    mean, var = operator_expectation(sz, rho)
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(1.0, abs=1e-15)


def test_operator_expectation_dimension_mismatch():
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    with pytest.raises(ValidationError):
        operator_expectation(Operator(np.eye(3), hermitian=True), rho)


def test_commutator_norms_dephasing_structure():
    # [H, rho] touches only coherences; the double commutator scales
    # them by the squared gap
    spec = CatSpec(delta_e=2.0, delta_l=1.0, omega=1.0)
    model = branch_model(spec)
    rho = cat_initial_state(model)
    first, second = commutator_norms(model.h, model.lindblad, rho)
    # |rho01|^2 * gap^2 * 2 with h gap = delta_eps = 2
    assert first == pytest.approx(2.0 * 0.25 * 4.0, abs=1e-14)
    # double commutator gap^4 with l gap = 1
    assert second == pytest.approx(2.0 * 0.25 * 1.0, abs=1e-14)


# --------------------------------------------------------------------- json

@pytest.mark.parametrize("builder", [
    lambda: build_sensor_model("qubit_network", 2, omega=1.0),
    lambda: build_sensor_model("photonic_two_mode", 2, omega=1.0,
                               branch_gap=2.0),
    lambda: build_sensor_model(
        "custom", 2, omega=1.0,
        lindblad=Operator(np.diag([2.0, 1.0]).astype(complex),
                          hermitian=True),
        h=Operator(np.diag([0.5, -0.5]).astype(complex), hermitian=True)),
])
def test_model_json_round_trip(builder):
    model = builder()
    text = model_to_json(model)
    back = model_from_json(text)
    assert back.kind == model.kind
    assert back.size == model.size
    assert back.omega == model.omega
    assert np.allclose(back.h.matrix, model.h.matrix)
    assert np.allclose(back.lindblad.matrix, model.lindblad.matrix)
    assert back.branch_gap() == pytest.approx(model.branch_gap())


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("kind"),
    lambda d: d.pop("omega"),
    lambda d: d.update(lindblad={"rows": []}),
    lambda d: d.update(omega=-1.0),
])
def test_model_json_rejects_malformed(mutate):
    doc = json.loads(model_to_json(build_sensor_model(
        "qubit_network", 2, omega=1.0)))
    mutate(doc)
    with pytest.raises(ValidationError):
        model_from_json(json.dumps(doc))


def test_model_json_rejects_invalid_json():
    with pytest.raises(ValidationError, match="JSON"):
        model_from_json("{not json")


def test_load_model_files():
    root = pathlib.Path(__file__).resolve().parents[1] / "models"
    for name in ("ghz2", "ghz3", "noon2"):
        model = load_model(str(root / f"{name}.json"))
        assert model.dim in (2, 4, 8)
    with pytest.raises(ValidationError, match="commute"):
        load_model(str(root / "bad_noncommuting.json"))


@pytest.mark.parametrize("doc", [
    {"kind": "photonic_two_mode", "N": 2, "omega": 1.0,
     "lindblad": "energy", "branch_gap": "x"},
    {"kind": "qubit_network", "N": 2.7, "omega": 1.0, "lindblad": "energy"},
    {"kind": "custom", "N": 1, "omega": 1.0, "lindblad": "energy",
     "h": {"matrix": [[[0.3, 0.0]]]}},
], ids=["branch_gap-text", "N-fractional", "custom-1x1"])
def test_model_json_rejected_at_load(doc, tmp_path, capsys):
    from dephasor.cli import parse_and_run
    with pytest.raises(ValidationError):
        model_from_json(json.dumps(doc))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert parse_and_run(["validate", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation:") and err.count("\n") == 1


def test_cat_spec_energy_gaps_equal_by_construction():
    # a rotated 4-level h: omega*spectrum and the gap of the spectrum
    # round differently for some frames, the CatSpec must not care
    rng = np.random.default_rng(3)
    seen_mismatch = False
    for _ in range(30):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(z)
        h = (q * np.sort(rng.uniform(-1.0, 1.0, 4))) @ q.conj().T
        model = build_sensor_model(
            "custom", 4, float(rng.uniform(0.5, 1.5)), "energy",
            h=Operator(0.5 * (h + h.conj().T), hermitian=True))
        seen_mismatch |= model.lindblad_branch_gap() != model.branch_gap()
        spec = cat_spec_for(model)
        assert spec.energy_like and spec.delta_l == spec.delta_e
    assert seen_mismatch
