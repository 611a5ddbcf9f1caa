import math

import numpy as np
import pytest

from witkit import linalg, states

INV_ROOT2 = 1.0 / math.sqrt(2.0)


def test_schmidt_state_basis_cases():
    assert np.allclose(states.schmidt_state(1.0, 0.0).amplitudes,
                       [0, 1, 0, 0])
    sym = states.schmidt_state(INV_ROOT2, INV_ROOT2)
    assert np.allclose(sym.amplitudes, [0, INV_ROOT2, INV_ROOT2, 0])


def test_schmidt_state_orthogonal_to_phi_minus():
    # oracle: direct inner product; supports live on disjoint basis states
    phi_m = states.PureState(2, [INV_ROOT2, 0, 0, -INV_ROOT2]).amplitudes
    for a in (0.0, 0.3, INV_ROOT2, 0.9, 1.0):
        b = math.sqrt(1.0 - a * a)
        overlap = np.vdot(phi_m, states.schmidt_state(a, b).amplitudes)
        assert abs(overlap) < 1e-14


def test_schmidt_state_validation():
    with pytest.raises(ValueError):
        states.schmidt_state(0.9, 0.9)
    with pytest.raises(ValueError):
        states.schmidt_state(-INV_ROOT2, INV_ROOT2)


def test_singlet_state():
    psi = states.singlet_state()
    assert np.allclose(psi.amplitudes, [0, INV_ROOT2, -INV_ROOT2, 0])
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-14
    zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    val = np.vdot(psi.amplitudes, zz @ psi.amplitudes)
    assert abs(val + 1.0) < 1e-14


def test_ghz_and_w_states():
    ghz = states.ghz_state().amplitudes
    assert abs(ghz[0] - INV_ROOT2) < 1e-14 and abs(ghz[7] - INV_ROOT2) < 1e-14
    assert np.abs(ghz[1:7]).max() == 0
    w = states.w_state().amplitudes
    inv_root3 = 1.0 / math.sqrt(3.0)
    for idx in (0b100, 0b010, 0b001):
        assert abs(w[idx] - inv_root3) < 1e-14
    assert abs(np.vdot(ghz, w)) == 0


def test_slocc_normal_form():
    ghz = states.slocc_normal_form(INV_ROOT2, 0, 0, 0, INV_ROOT2)
    assert np.allclose(ghz.amplitudes, states.ghz_state().amplitudes)
    inv_root3 = 1.0 / math.sqrt(3.0)
    perm_w = states.slocc_normal_form(0, inv_root3, inv_root3, inv_root3, 0)
    assert abs(np.linalg.norm(perm_w.amplitudes) - 1.0) < 1e-14
    # the W-class normal form has no |111> component
    w_class = states.slocc_normal_form(0.5, 0.5, 0.5, 0.5, 0.0, theta=0.0)
    assert w_class.amplitudes[7] == 0
    product = states.slocc_normal_form(1.0, 0, 0, 0, 0)
    assert np.allclose(product.amplitudes, np.eye(8)[0])
    with pytest.raises(ValueError):
        states.slocc_normal_form(1.0, 1.0, 0, 0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_state_parameters_are_rejected_first(bad):
    # each parameter is checked before the state is built: an infinite
    # theta used to raise numpy's RuntimeWarning from exp (an error under
    # the suite's filters) and a NaN coefficient reached PureState's
    # amplitude check
    with pytest.raises(ValueError, match="Schmidt coefficient a must be a finite real number"):
        states.schmidt_state(bad, INV_ROOT2)
    with pytest.raises(ValueError, match="Schmidt coefficient b must be a finite real number"):
        states.schmidt_state(INV_ROOT2, bad)
    for i in range(5):
        lams = [0.6, 0.8, 0.0, 0.0, 0.0]
        lams[i] = bad
        with pytest.raises(ValueError, match=f"coefficient l{i} must be a finite real number"):
            states.slocc_normal_form(*lams)
    with pytest.raises(ValueError, match="theta must be a finite real number"):
        states.slocc_normal_form(0.6, 0.8, 0.0, 0.0, 0.0, theta=bad)


def test_white_noise_mix_endpoints():
    psi = states.ghz_state()
    pure = states.white_noise_mix(psi, 1.0)
    assert np.abs(pure.matrix - psi.projector()).max() < 1e-14
    mixed = states.white_noise_mix(psi, 0.0)
    assert np.abs(mixed.matrix - np.eye(8) / 8).max() < 1e-14
    with pytest.raises(ValueError):
        states.white_noise_mix(psi, 1.5)


def test_white_noise_mix_spectrum_and_ppt():
    a, b = 0.6, 0.8
    for p in (0.2, 0.5, 0.9):
        rho = states.white_noise_mix(states.schmidt_state(a, b), p)
        vals = linalg.hermitian_eigenvalues(rho.matrix)
        expected = sorted([(1 - p) / 4] * 3 + [(1 - p) / 4 + p])
        assert np.abs(vals - expected).max() < 1e-12
        pt = linalg.partial_transpose(rho.matrix, 1, [2, 2])
        min_eig = linalg.hermitian_eigenvalues(pt)[0]
        assert abs(min_eig - ((1 - p) / 4 - a * b * p)) < 1e-12


def test_white_noise_mix_affine_in_p():
    psi = states.w_state()
    lo = states.white_noise_mix(psi, 0.0).matrix
    hi = states.white_noise_mix(psi, 1.0).matrix
    for p in (0.125, 0.5, 0.625):
        mix = states.white_noise_mix(psi, p).matrix
        assert np.array_equal(mix, p * hi + (1 - p) * lo)


@pytest.mark.parametrize("psi", [states.ghz_state(), states.w_state(),
                                 states.schmidt_state(INV_ROOT2, INV_ROOT2),
                                 states.schmidt_state(0.6, 0.8), states.singlet_state()])
def test_white_noise_mix_of_a_pure_state_validates_once(psi, monkeypatch):
    # the projector is mixed as it is and only the mix is validated, by one
    # eigendecomposition; the bytes are those of the form that validates
    # the projector as a DensityMatrix first
    dim = 2 ** psi.n_qubits
    projector = states.DensityMatrix(psi.n_qubits, psi.projector()).matrix
    eigenvalues, calls = linalg._symmetrized_eigenvalues, []

    def counted(mat):
        calls.append(mat.shape)
        return eigenvalues(mat)

    monkeypatch.setattr(linalg, "_symmetrized_eigenvalues", counted)
    for p in (0.0, 0.3, 1.0):
        calls.clear()
        mix = states.white_noise_mix(psi, p)
        assert calls == [(dim, dim)]
        assert mix.matrix.tobytes() == (p * projector + (1.0 - p) * np.eye(dim) / dim).tobytes()
        # a state that is no PureState is still read through as_state
        assert states.white_noise_mix(psi.density_matrix(), p).matrix.tobytes() == \
            mix.matrix.tobytes()
    # p is still checked before the state is read
    with pytest.raises(ValueError, match="mixing weight p"):
        states.white_noise_mix(None, 1.5)


def test_global_phase_convention():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1j * INV_ROOT2
    amps[2] = -1j * INV_ROOT2
    psi = states.PureState(2, amps)
    lead = psi.amplitudes[np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0][0]]
    assert abs(lead.imag) < 1e-14 and lead.real > 0


def test_pure_state_is_a_fixed_point_of_its_constructor():
    # the phase fix left a complex lead with an imaginary part of ~1e-17,
    # so building a state from its own amplitudes rescaled every amplitude
    # by a factor that is 1 only to rounding
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((100, 8)) + 1j * rng.standard_normal((100, 8))
    for amps in raw / np.linalg.norm(raw, axis=1, keepdims=True):
        psi = states.PureState(3, amps)
        lead = psi.amplitudes[0]
        assert lead.imag == 0.0 and lead.real == abs(amps[0])
        assert states.PureState(3, psi.amplitudes) == psi
    # a lead that is already real and positive leaves the amplitudes as given
    amps = np.array([0.0, 0.6, 0.8j, 0.0])
    assert states.PureState(2, amps).amplitudes.tobytes() == amps.astype(complex).tobytes()


def test_random_product_state_valid_and_deterministic():
    psi1 = states.random_product_state(3, seed=9)
    psi2 = states.random_product_state(3, seed=9)
    assert np.array_equal(psi1.amplitudes, psi2.amplitudes)
    assert abs(np.linalg.norm(psi1.amplitudes) - 1.0) < 1e-12
    psi3 = states.random_product_state(3, seed=10)
    assert not np.array_equal(psi1.amplitudes, psi3.amplitudes)
    # product structure: amplitude matrix across any cut has rank one
    m = psi1.amplitudes.reshape(2, 4)
    assert np.linalg.matrix_rank(m, tol=1e-10) == 1


def test_random_biseparable_state_is_ppt_across_its_cut():
    # oracle: mixtures of product states across a cut keep a positive
    # partial transpose across that cut
    party_of = {"A-BC": 0, "B-AC": 1, "C-AB": 2}
    for cut, party in party_of.items():
        for seed in range(8):
            rho = states.random_biseparable_state(cut, seed=seed)
            pt = linalg.partial_transpose(rho.matrix, party, [2, 2, 2])
            assert np.linalg.eigvalsh(pt)[0] > -1e-10
    # an unknown or unhashable cut is refused by the same test
    for bad in ("AB-C", ["A-BC"], {"A-BC": 1}, None):
        with pytest.raises(ValueError, match="partition must be one of"):
            states.random_biseparable_state(bad, seed=0)


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        states.DensityMatrix(2, np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        states.DensityMatrix(2, bad)  # negative eigenvalue
    nonherm = np.eye(4, dtype=complex) / 4
    nonherm[0, 1] = 0.1
    with pytest.raises(ValueError):
        states.DensityMatrix(2, nonherm)


def test_non_finite_inputs_rejected():
    amps = np.array([math.nan, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        states.PureState(2, amps)
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = rho[2, 1] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        states.DensityMatrix(2, rho)


def test_as_state_is_the_one_state_admission():
    rho = states.DensityMatrix(3, np.eye(8) / 8)
    assert states.as_state(rho) is rho
    psi = states.w_state()
    assert states.as_state(psi) == psi.density_matrix()
    assert states.as_state(np.eye(4) / 4) == states.DensityMatrix(2, np.eye(4) / 4)
    for bad, message in ((-np.eye(4) / 4, "trace"), (np.eye(4) / 2, "trace"),
                         (np.diag([1.5, -0.5]), "eigenvalue"),
                         (np.triu(np.ones((2, 2))) / 2, "not Hermitian"),
                         (np.full((2, 2), np.nan), "non-finite"),
                         (np.eye(3) / 3, "power-of-two"), (np.ones(4) / 4, "square")):
        with pytest.raises(ValueError, match=message):
            states.as_state(bad)
