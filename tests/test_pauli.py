import dataclasses
import math

import numpy as np
import pytest

from witkit import certify, linalg, pauli, settings, states, witnesses

INV_ROOT2 = 1.0 / math.sqrt(2.0)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (I2, SX, SY, SZ)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def test_to_pauli_w0_support():
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.25
    expected[1, 1] = expected[2, 2] = -0.25
    expected[3, 3] = 0.25
    assert np.abs(c.coeffs - expected).max() < 1e-14


def test_to_pauli_identity():
    c = pauli.to_pauli(np.eye(8) / 8)
    assert abs(c.coeffs[0, 0, 0] - 0.125) < 1e-14
    rest = c.coeffs.copy()
    rest[0, 0, 0] = 0.0
    assert np.abs(rest).max() < 1e-14


def test_to_pauli_ghz_witness_support():
    lam = 8.0 * pauli.to_pauli(witnesses.witness_ghz().operator).coeffs
    assert abs(lam[0, 0, 0] - 5.0) < 1e-12
    for idx in ((0, 3, 3), (3, 0, 3), (3, 3, 0), (1, 1, 1)):
        assert abs(lam[idx] + 1.0) < 1e-12
    for idx in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
        assert abs(lam[idx] - 1.0) < 1e-12
    assert np.count_nonzero(np.abs(lam) > 1e-9) == 8


def test_round_trip_and_single_coefficient():
    w1 = witnesses.witness_w1().operator
    back = pauli.from_pauli(pauli.to_pauli(w1))
    assert np.linalg.norm(back - w1) < 1e-12
    coeffs = np.zeros((4, 4))
    coeffs[3, 3] = 1.0
    c = pauli.PauliCoefficients(2, coeffs)
    assert np.abs(pauli.from_pauli(c) - np.kron(SZ, SZ)).max() < 1e-14


def test_from_pauli_matches_partial_transpose_projector():
    # oracle: the closed coefficient set versus an explicit transpose
    rng = np.random.default_rng(8)
    for _ in range(5):
        alpha = rng.uniform(-1.0, 1.0)
        beta = math.copysign(math.sqrt(1 - alpha ** 2), rng.uniform(-1, 1))
        phi = np.zeros(4, dtype=complex)
        phi[0], phi[3] = alpha, beta
        target = linalg.partial_transpose(np.outer(phi, phi.conj()), 1, [2, 2])
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = coeffs[3, 3] = 0.25
        coeffs[3, 0] = coeffs[0, 3] = (alpha ** 2 - beta ** 2) / 4
        coeffs[1, 1] = coeffs[2, 2] = alpha * beta / 2
        built = pauli.from_pauli(pauli.PauliCoefficients(2, coeffs))
        assert np.abs(built - target).max() < 1e-12


def test_to_pauli_linear_and_parseval():
    rng = np.random.default_rng(13)
    x = random_hermitian(rng, 8)
    y = random_hermitian(rng, 8)
    cx = pauli.to_pauli(x).coeffs
    cy = pauli.to_pauli(y).coeffs
    both = pauli.to_pauli(0.7 * x - 1.3 * y).coeffs
    assert np.abs(both - (0.7 * cx - 1.3 * cy)).max() < 1e-12
    # Frobenius consistency: Tr(M^2) = 2^n * sum of squared coefficients
    lhs = float(np.real(np.trace(x @ x)))
    assert abs(lhs - 8.0 * float(np.sum(cx ** 2))) < 1e-10


def test_to_pauli_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli.to_pauli(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_to_pauli_reads_an_admitted_operator_as_admitted():
    # an exactly Hermitian operator of size 1e7 carries 4.7e-10 of
    # rounding in its coefficients' imaginary parts, which an absolute
    # 1e-10 check refused in to_pauli and lower_bound
    g = np.random.default_rng(0)
    big = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
    big = 1e7 * (big + big.conj().T)
    assert linalg.is_hermitian(big)
    raw = np.einsum("kij,ji->k", pauli.product_basis(3), big) / 8
    assert np.abs(raw.imag).max() > 1e-10
    c = pauli.to_pauli(big)
    assert np.array_equal(c.coeffs.ravel(), raw.real)
    assert np.abs(pauli.from_pauli(c) - big).max() < 1e-6
    assert certify.lower_bound(big).bound >= 1
    # near the Hermiticity tolerance, the coefficients are those of the
    # Hermitian part within rounding
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        dim = 2 ** n
        for _ in range(5):
            a = random_hermitian(rng, dim)
            noise = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
            noise -= noise.conj().T
            # an anti-Hermitian part of 0.45 * TOL puts the gap at 0.9 * TOL
            a = a + 0.45 * linalg.HERMITICITY_TOL * noise / np.abs(noise).max()
            assert linalg.is_hermitian(a)
            got = pauli.to_pauli(a).coeffs
            want = pauli.to_pauli((a + a.conj().T) / 2).coeffs
            assert np.abs(got - want).max() < 1e-15


def test_slice_family_ghz_witness():
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    fam = pauli.slice_family(c, "AB|C")
    m = [8.0 * mat for mat in fam]
    assert np.abs(m[0] - np.diag([0.0, 0.0, -1.0])).max() < 1e-12
    assert np.abs(m[1] - np.diag([-1.0, 1.0, 0.0])).max() < 1e-12
    expected2 = np.zeros((3, 3))
    expected2[0, 1] = expected2[1, 0] = 1.0
    assert np.abs(m[2] - expected2).max() < 1e-12
    assert np.abs(m[3]).max() < 1e-12


def test_slice_family_identity_and_errors():
    c = pauli.to_pauli(np.eye(8))
    fam = pauli.slice_family(c, "BC|A")
    for mat in fam:
        assert np.abs(mat).max() == 0
    with pytest.raises(ValueError):
        pauli.slice_family(c, "A|BC")
    c2 = pauli.to_pauli(np.eye(4))
    assert len(pauli.slice_family(c2, "A|B")) == 1


def _slice_loop(c, pairing):
    """The slice family read entry by entry: the sliced party (after the
    bar) takes index k in 0..3, the paired parties keep theirs in 1..3."""
    if c.n_qubits == 2:
        return np.array([[[c.coeffs[i, j] for j in range(1, 4)] for i in range(1, 4)]])
    sliced = "ABC".index(pairing[-1])
    out = np.empty((4, 3, 3))
    for k in range(4):
        for i in range(3):
            for j in range(3):
                idx = [1 + i, 1 + j]
                idx.insert(sliced, k)
                out[k, i, j] = c.coeffs[tuple(idx)]
    return out


@pytest.mark.parametrize("n,pairing", [(3, p) for p in pauli.PAIRINGS_3] + [(2, pauli.PAIRING_2)])
def test_slice_family_is_the_explicit_index_loop(n, pairing):
    rng = np.random.default_rng(31)
    for _ in range(5):
        c = pauli.PauliCoefficients(n, rng.standard_normal((4,) * n))
        fam = pauli.slice_family(c, pairing)
        assert fam.dtype == np.float64 and fam.shape == (4 if n == 3 else 1, 3, 3)
        assert fam.tobytes() == _slice_loop(c, pairing).tobytes()


@pytest.mark.parametrize("n,pairing", [(2, "AB"), (3, "AB"), (3, "A|BC"), (3, pauli.PAIRING_2),
                                       (2, "AB|C"), (3, ["AB|C"])])
def test_slice_family_refuses_a_pairing_the_qubits_do_not_have(n, pairing):
    c = pauli.PauliCoefficients(n, np.zeros((4,) * n))
    with pytest.raises(ValueError, match=f"no pairing .* on {n} qubits"):
        pauli.slice_family(c, pairing)


def test_product_projector_slices_are_rank_one():
    rng = np.random.default_rng(21)
    for seed in range(20):
        psi = states.random_product_state(3, seed=seed)
        c = pauli.to_pauli(psi.projector())
        for pairing in pauli.PAIRINGS_3:
            for mat in pauli.slice_family(c, pairing):
                assert linalg.numerical_rank(list(mat)) <= 1


def test_sparse_map_letters():
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    sparse = pauli.to_sparse_map(c)
    expected = {"11": 0.25, "xx": -0.25, "yy": -0.25, "zz": 0.25}
    assert set(sparse) == set(expected)
    for key, value in expected.items():
        assert abs(sparse[key] - value) < 1e-14
    c3 = pauli.to_pauli(witnesses.witness_ghz().operator)
    sparse3 = pauli.to_sparse_map(c3)
    assert abs(sparse3["111"] - 0.625) < 1e-14
    assert abs(sparse3["1zz"] + 0.125) < 1e-14
    assert abs(sparse3["xxx"] + 0.125) < 1e-14


def to_sparse_map_by_elements(c):
    # the per-index loop to_sparse_map replaced, kept as its reference
    return {pauli.index_string(idx): float(c.coeffs[idx]) for idx in c.support()}


def test_sparse_map_matches_the_index_loop():
    cases = [witnesses.as_coefficients(w) for w in (
        witnesses.witness_w0(), witnesses.witness_phi(0.6, 0.8), witnesses.witness_ghz(),
        witnesses.witness_w1(), witnesses.witness_w2())]
    rng = np.random.default_rng(151)
    for n in (1, 2, 3):
        for _ in range(20):
            coeffs = rng.standard_normal((4,) * n)
            coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
            coeffs[rng.random(coeffs.shape) < 0.2] = -0.0
            # either side of the truncation, and exactly on it
            coeffs[rng.random(coeffs.shape) < 0.2] = rng.choice(
                [1e-13, -1e-13, pauli.SUPPORT_TRUNCATION, -pauli.SUPPORT_TRUNCATION, 2e-12])
            cases.append(pauli.PauliCoefficients(n, coeffs))
    for c in cases:
        assert list(pauli.to_sparse_map(c).items()) == list(to_sparse_map_by_elements(c).items())


def test_product_basis_refuses_more_than_three_qubits_before_allocating():
    # the basis of n qubits was built and cached for any n: to_pauli of a
    # six-qubit operator took 0.6 s and left 268 MB in the cache, and an
    # eight-qubit one asked for ~68 GB; the bases of 1 to 3 qubits are now
    # built at import, and a refusal leaves them the same objects
    bases = [pauli.product_basis(n) for n in range(1, pauli.MAX_QUBITS + 1)]
    for call in (lambda: pauli.product_basis(6), lambda: pauli.product_basis(0),
                 lambda: pauli.to_pauli(np.eye(64) / 64),
                 lambda: pauli.from_pauli(pauli.PauliCoefficients(6, np.zeros((4,) * 6))),
                 # the search verifies a found decomposition in the basis
                 lambda: settings.decomposition_search(
                     pauli.PauliCoefficients(4, np.ones((4,) * 4)), 2)):
        with pytest.raises(ValueError, match="1 to 3 qubits"):
            call()
    assert all(a is b for a, b in zip(pauli._BASES, bases, strict=True))
    for n, basis in enumerate(bases, start=1):
        assert basis.shape == (4 ** n, 2 ** n, 2 ** n) and not basis.flags.writeable


def _counted_builds():
    """Per entry point that takes a qubit count: its build from a count n,
    with inputs that fit three qubits."""
    ghz = states.ghz_state()
    rho = ghz.density_matrix()
    return {
        "PureState": lambda n: states.PureState(n, ghz.amplitudes),
        "DensityMatrix": lambda n: states.DensityMatrix(n, rho.matrix),
        "Witness": lambda n: witnesses.Witness("ghz", witnesses.witness_ghz().operator, n, ()),
        "PauliCoefficients": lambda n: pauli.PauliCoefficients(n, np.zeros((4,) * 3)),
        "random_product_state": lambda n: states.random_product_state(n, 5),
    }


def _party_builds():
    """Per entry point whose count is a number of directions: its build
    from n directions along z."""
    z = [0.0, 0.0, 1.0]
    return {
        "MeasurementSetting": lambda n: settings.MeasurementSetting(
            (settings.direction(z),) * n, np.ones((2,) * n)),
        "setting": lambda n: settings.setting([z] * n, np.ones((2,) * n)),
        "wire format": lambda n: settings.decomposition_from_json_dict(
            {"settings": [{"directions": [z] * n, "weights": {"0" * n: 1.0}}]}),
    }


def test_one_qubit_rule_holds_at_every_entry_point():
    # each count is checked by pauli.qubit_count before anything of size 2^n
    # exists, and a whole number of another type is held as the int it is
    for name, build in _counted_builds().items():
        for bad in (0, 4, 2.5, "3"):
            with pytest.raises(ValueError, match=f"takes 1 to 3 qubits, got {bad!r}"):
                build(bad)
        want = build(3)
        for three in (3.0, np.int64(3)):
            got = build(three)
            assert type(got.n_qubits) is int and got.n_qubits == 3, name
            assert got == want, name
    for bad in (0, 4, 2.5, "3"):
        with pytest.raises(ValueError, match="takes 1 to 3 qubits"):
            pauli.product_basis(bad)
    assert pauli.product_basis(3.0) is pauli.product_basis(np.int64(3)) is pauli.product_basis(3)
    for name, build in _party_builds().items():
        for bad in (0, 4):
            with pytest.raises(ValueError, match=f"a setting takes 1 to 3 qubits, got {bad}"):
                build(bad)
        assert build(3) == build(3), name
    # the smallest case: a 1 x 1 matrix was a density matrix on no qubits
    with pytest.raises(ValueError, match="takes 1 to 3 qubits, got 0"):
        states.DensityMatrix(0, [[1.0]])
    with pytest.raises(ValueError, match="power-of-two dimension, got 6"):
        pauli.to_pauli(np.eye(6))


def test_coefficients_are_frozen():
    # reassigning a field or writing into the tensor used to skip the shape
    # and finiteness checks, so a NaN tensor reached the search and the
    # certificate; the caller's own array stays writable
    coeffs = np.zeros((4, 4, 4))
    c = pauli.PauliCoefficients(3, coeffs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.coeffs = np.full((4, 4, 4), np.nan)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.n_qubits = 2
    with pytest.raises(ValueError):
        c.coeffs[0, 0, 0] = np.nan
    coeffs[0, 0, 0] = 1.0
    assert c.coeffs[0, 0, 0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda c: settings.decomposition_search(c, 2, restarts=1),
    lambda c: certify.slice_span_dimension(c, "AB|C"),
    lambda c: settings.group_pauli_terms(c, [[settings.AXES["z"]]] * 3),
], ids=["decomposition_search", "slice_span_dimension", "group_pauli_terms"])
def test_non_finite_coefficients_are_rejected(bad, call):
    # the search used to run its whole budget to residual inf, the span
    # dimension to raise LinAlgError and the cover to find empty support
    coeffs = np.zeros((4, 4, 4))
    coeffs[0, 0, 0], coeffs[3, 3, 1] = 0.5, bad
    with pytest.raises(ValueError, match="must be finite"):
        call(pauli.PauliCoefficients(3, coeffs))
