"""States, operators, sensor models, and their JSON form."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from dephasor import (CatSpec, DensityMatrix, NoiseSchedule, Operator,
                      ValidationError, branch_model, build_sensor_model,
                      cat_initial_state, cat_spec_for, load_model,
                      model_from_json, model_to_json, operator_expectation,
                      qfi_lower_bound)
from dephasor.hilbert import POSITIVITY_TOL, _check_spectrum, _check_states

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
    # a model whose eigenbasis is not the computational one (sigma_x)
    sx = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    model = build_sensor_model("custom", 2, omega=1.0, h=sx)
    m = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    rho = DensityMatrix(m, basis=model.basis)
    block, support = model.eigenbasis_block(rho)
    assert block is rho.array and support is None
    # an array in another basis object is rotated in through the matrix
    other = DensityMatrix(m, basis=model.basis.copy())
    assert np.max(np.abs(model.eigenbasis_block(other)[0] - m)) <= 1e-15
    with pytest.raises(ValueError):
        rho.array[0, 0] = 1.0
    with pytest.raises(ValueError):
        other.matrix[0, 0] = 1.0
    assert m.flags.writeable  # the caller's array is left alone
    with pytest.raises(ValidationError, match="basis dimension"):
        DensityMatrix(m, basis=np.eye(3, dtype=complex))
    with pytest.raises(ValidationError, match="dimension"):
        build_sensor_model("qubit_network", 2, 1.0).eigenbasis_block(rho)


def test_min_eigenvalue_matches_lapack(rng):
    for _ in range(10):
        w = rng.uniform(0.05, 1.0, size=4)
        w /= w.sum()
        u, _ = np.linalg.qr(random_hermitian(rng, 4))
        rho = DensityMatrix(u @ np.diag(w) @ u.conj().T)
        ref = float(np.min(np.linalg.eigvalsh(rho.matrix)))
        assert rho.min_eigenvalue() == pytest.approx(ref, abs=1e-12)


def random_states(rng, count, k):
    """``count`` random full-rank k x k density matrices, as one stack."""
    a = rng.normal(size=(count, k, k)) + 1j * rng.normal(size=(count, k, k))
    rho = a @ a.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


@pytest.mark.parametrize("bad", [
    np.array([[0.5, np.inf], [np.inf, 0.5]]),  # not finite
    np.array([[0.5, 0.1j], [0.1j, 0.5]]),      # not Hermitian
    np.diag([0.5, 0.6]),                       # trace 1.1
    np.diag([1.2, -0.2]),                      # negative eigenvalue
])
@pytest.mark.parametrize("at", [0, 3, 5])
def test_a_stack_fails_as_its_first_bad_block_alone(rng, bad, at):
    # one check over the stack: the first failing block raises the same
    # error as a state built from it alone, and later blocks do not count
    blocks = random_states(rng, 7, 2)
    blocks[at] = bad
    blocks[-1] = np.diag([0.5, 0.7])  # a later failure
    with pytest.raises(ValidationError) as alone:
        DensityMatrix(np.asarray(bad, dtype=complex), positivity_tol=1e-7)
    with pytest.raises(type(alone.value)) as stacked:
        DensityMatrix.stack(blocks, positivity_tol=1e-7)
    assert str(stacked.value) == str(alone.value)


def test_stacked_least_eigenvalues_equal_each_blocks_eigvalsh(rng):
    model = build_sensor_model("qubit_network", 3, omega=1.0)
    for k, support in ((2, (7, 0)), (3, None), (8, None), (3, (1, 4, 2))):
        blocks = random_states(rng, 9, k)
        dim = None if support is None else model.dim
        states = DensityMatrix.stack(blocks, support=support, dim=dim)
        for rho, block in zip(states, blocks):
            low = float(np.linalg.eigvalsh(block)[0])
            want = low if support is None else min(low, 0.0)
            assert rho.min_eigenvalue() == want  # bit for bit
            single = DensityMatrix(block, support=support, dim=dim)
            assert single.min_eigenvalue() == want
            assert np.array_equal(rho.array, block)
            assert rho.support == single.support and rho.dim == single.dim
            with pytest.raises(ValueError):
                rho.array[0, 0] = 1.0
    # the support and basis are checked once for the stack, as for one
    with pytest.raises(ValidationError, match="support"):
        DensityMatrix.stack(random_states(rng, 3, 2), dim=model.dim,
                            support=(0, 0))


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


def test_spectrum_check_on_an_identity_basis_matches_the_dense_route():
    # the computational basis (None) is checked on h itself, any other
    # through basis^dag h basis; a diagonal sign flip is one that keeps
    # every residual, so both routes must report the same one
    levels = np.arange(8.0) / 7.0
    lind = Operator(np.diag(levels).astype(complex), hermitian=True)
    model = build_sensor_model("qubit_network", 3, omega=1.0, lindblad=lind)
    flip = np.diag([1.0, -1.0] * 4).astype(complex)
    h = model.h.matrix.copy()
    h[1, 2] = h[2, 1] = 3e-9
    for bad, match in (
            (dataclasses.replace(model, h=Operator(h, hermitian=True)), "h"),
            (dataclasses.replace(model, spectrum=model.spectrum + 2e-9), "h"),
            (dataclasses.replace(model, lindblad_spectrum=levels - 2e-9),
             "L")):
        text = []
        for basis in (model.basis, flip):
            with pytest.raises(ValidationError,
                               match=f"does not match {match}") as exc:
                _check_spectrum(dataclasses.replace(bad, basis=basis))
            text.append(str(exc.value))
        assert text[0] == text[1]
    _check_spectrum(dataclasses.replace(model, basis=flip))


def test_qubit_levels_match_the_popcount_loop():
    # the collective half-spin (n - 2k) / 2 of a basis state with k
    # excited qubits, against the Python loop over the states
    for n in range(1, 13):
        want = [0.5 * (n - 2 * bin(b).count("1")) for b in range(2 ** n)]
        model = build_sensor_model("qubit_network", n, omega=1.0)
        assert model.spectrum.tolist() == want and model.basis is None


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


def _framed_custom():
    # a dense h in a random frame, with an explicit commuting L: the
    # state's basis is the model's joint eigenbasis
    q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(3), 5))
    frame = lambda levels: Operator(q @ np.diag(levels) @ q.conj().T)
    return build_sensor_model("custom", 5, 1.3,
                              frame([0.0, 0.5, 0.5, 1.5, 2.0]),
                              h=frame([-1.0, 0.0, 0.5, 1.0, 2.0]))


@pytest.mark.parametrize("make", [
    *[lambda n=n: build_sensor_model("qubit_network", n, omega=0.7)
      for n in range(1, 13)],
    lambda: build_sensor_model("photonic_two_mode", 3, omega=2.0),
    _framed_custom,
    lambda: branch_model(CatSpec(delta_e=2.0, delta_l=0.5, omega=1.0)),
    lambda: CatSpec(delta_e=2.0, delta_l=2.0, omega=1.0),
])
def test_cat_state_is_the_checked_block(make):
    # the cat state skips the stack check of its constant block; it
    # must be the state that check gives, field for field
    x = make()
    rho = cat_initial_state(x)
    where = () if isinstance(x, CatSpec) else \
        (x.basis, x.branch_indices, x.dim)
    ref = DensityMatrix(np.full((2, 2), 0.5), *where)
    assert type(rho) is DensityMatrix
    assert rho.array.dtype == ref.array.dtype == complex
    assert rho.array.shape == (2, 2)
    assert rho.array.tobytes() == ref.array.tobytes()
    assert rho.support == ref.support and rho.dim == ref.dim
    assert rho.basis is ref.basis
    assert rho.positivity_tol == ref.positivity_tol
    low = rho.min_eigenvalue()
    assert type(low) is float and low == ref.min_eigenvalue() == 0.0
    assert math.copysign(1.0, low) == math.copysign(1.0, ref.min_eigenvalue())
    # a full dim-2 support, in order, is normalized to None
    full = rho.dim == 2 and getattr(x, "branch_indices", (0, 1)) == (0, 1)
    assert (rho.support is None) == full
    assert not rho.array.flags.writeable
    with pytest.raises(ValueError):
        rho.array[0, 1] = 1.0
    assert np.array_equal(rho.matrix, ref.matrix)


@pytest.mark.parametrize("dim", [2, 3, 4096])
def test_cat_block_least_eigenvalue_is_zero_exactly(dim):
    # the constant cat_initial_state relies on, pinned: eigvalsh gives
    # [0, 1] for [[1/2, 1/2], [1/2, 1/2]], with a positive zero
    lows = _check_states(np.full((1, 2, 2), 0.5, dtype=complex), dim,
                         POSITIVITY_TOL)
    assert lows == [0.0] and math.copysign(1.0, lows[0]) == 1.0
    assert np.linalg.eigvalsh(np.full((2, 2), 0.5, dtype=complex)).tolist() \
        == [0.0, 1.0]


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
    m, support = model.eigenbasis_block(rho)
    assert support == model.branch_indices and rho.dim == 5
    assert np.array_equal(m, np.full((2, 2), 0.5, dtype=complex))
    v = model.basis[:, list(support)]
    assert np.max(np.abs(v @ m @ v.conj().T - rho.matrix)) <= 1e-15


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


def test_operator_expectation_rejects_an_unflagged_non_hermitian_operator():
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    shift = Operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValidationError, match="must be Hermitian"):
        operator_expectation(shift, rho)


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
    norms = qfi_lower_bound(model, NoiseSchedule.constant(0.0), rho, 0.0,
                            "time").diagnostics
    first, second = norms["norm_h_sq"], norms["norm_ll_sq"]
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
