import dataclasses
import importlib

import numpy as np
import pytest

from witkit import linalg, pauli, settings, witnesses
from witkit.states import schmidt_state, singlet_state, white_noise_mix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_kron_definition():
    assert linalg.kron_all([SX, I2])[0, 2] == 1
    assert np.array_equal(linalg.kron_all([I2, I2]), np.eye(4))
    assert abs(np.trace(linalg.kron_all([SZ, SZ]))) == 0


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = np.trace(linalg.kron_all([a, b]))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) < 1e-12


def test_partial_transpose_product_operator():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pt = linalg.partial_transpose(np.kron(a, b), 1, [2, 2])
    assert np.abs(pt - np.kron(a, b.T)).max() < 1e-14


def test_partial_transpose_involution_exact():
    proj = singlet_state().projector()
    twice = linalg.partial_transpose(
        linalg.partial_transpose(proj, 1, [2, 2]), 1, [2, 2])
    assert np.array_equal(twice, proj)
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 8)
    for party in range(3):
        twice = linalg.partial_transpose(
            linalg.partial_transpose(m, party, [2, 2, 2]), party, [2, 2, 2])
        assert np.array_equal(twice, m)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 8)
    pt = linalg.partial_transpose(m, 2, [2, 2, 2])
    assert abs(np.trace(pt) - np.trace(m)) < 1e-12
    assert linalg.is_hermitian(pt)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(4), 0, [2, 3])
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.eye(4), 2, [2, 2])


def test_partial_transpose_refuses_fractional_or_negative_arguments():
    # [2.9, 2.1] was truncated to [2, 2] and accepted, [-2, -2] raised
    # numpy's reshape message and party 0.5 numpy's TypeError
    for party, dims in ((0, [2.9, 2.1]), (0, [-2, -2]), (0, [4, 1.0, 0]),
                        (0.5, [2, 2]), (-1, [2, 2]), (1.5, [2, 2]), ("1", [2, 2])):
        with pytest.raises(ValueError, match="party|local dimension"):
            linalg.partial_transpose(np.eye(4), party, dims)
    # integral values of any numeric type still pass
    m = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(linalg.partial_transpose(m, np.int64(1), [2.0, np.int64(2)]),
                          linalg.partial_transpose(m, 1, [2, 2]))


def test_psi_minus_partial_transpose_min_eigenvalue():
    # oracle: independent dense eigensolver on the 4x4 matrix
    pt = linalg.partial_transpose(singlet_state().projector(), 1, [2, 2])
    oracle = float(np.linalg.eigvalsh(pt)[0])
    assert abs(oracle + 0.5) < 1e-12
    assert abs(linalg.hermitian_eigenvalues(pt)[0] + 0.5) < 1e-12


def test_eigenvalues_simple_cases():
    assert np.allclose(linalg.hermitian_eigenvalues(SZ), [-1.0, 1.0], atol=1e-13)
    assert np.allclose(linalg.hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4,
                       atol=1e-13)


def test_eigenvalues_noisy_schmidt_partial_transpose():
    # at a = b = 1/sqrt(2), p = 1/2 the minimum is (1-p)/4 - a*b*p = -1/8
    rho = white_noise_mix(schmidt_state(2 ** -0.5, 2 ** -0.5), 0.5)
    pt = linalg.partial_transpose(rho.matrix, 1, [2, 2])
    vals = linalg.hermitian_eigenvalues(pt)
    assert abs(vals[0] + 0.125) < 1e-12


def test_eigenvalues_match_reference_solver():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 4, 5, 8):
        for _ in range(10):
            m = random_hermitian(rng, dim)
            ours = linalg.hermitian_eigenvalues(m)
            ref = np.linalg.eigvalsh(m)
            assert np.abs(ours - ref).max() < 1e-9
            assert abs(ours.sum() - np.real(np.trace(m))) < 1e-10


def test_eigenvalues_recover_known_spectrum():
    rng = np.random.default_rng(12)
    diag = np.array([-3.0, -1.0, 0.0, 0.25, 1.0, 2.0, 5.0, 9.0])
    q = random_unitary(rng, 8)
    m = q @ np.diag(diag) @ q.conj().T
    vals = linalg.hermitian_eigenvalues(m)
    assert np.abs(vals - diag).max() < 1e-9


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nan_matrices_are_not_hermitian():
    # a NaN defect used to pass the eigenvalue check and give NaN
    # eigenvalues; an infinite entry used to raise numpy's RuntimeWarning
    # from inf - inf, an error under this suite's warning filter
    for m in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0]),
              np.diag([np.inf, 1.0]), np.full((2, 2), -np.inf)):
        assert not linalg.is_hermitian(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eigenvalues(m)
        with pytest.raises(ValueError, match="must be Hermitian"):
            witnesses.Witness("x", m, 1, ())


def test_hermiticity_tolerance_is_fixed():
    # the tolerance is a module constant, not an option that can loosen it
    m = np.array([[0.0, 3.0 * linalg.HERMITICITY_TOL], [0.0, 0.0]])
    assert not linalg.is_hermitian(m)
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(m)
    with pytest.raises(TypeError):
        linalg.hermitian_eigenvalues(m, tol=1.0)


def test_numerical_rank_elementary():
    e = [np.zeros((3, 3)) for _ in range(3)]
    for i in range(3):
        e[i][i, i] = 1.0
    assert linalg.numerical_rank([e[0]]) == 1
    assert linalg.numerical_rank(e) == 3


def test_numerical_rank_reduced_witness_block():
    # the reduced block of the two-qubit witness at alpha = -beta = 1/sqrt(2)
    block = np.diag([-0.25, -0.25, 0.25])
    assert linalg.numerical_rank(list(block)) == 3


def test_numerical_rank_empty_and_mismatched():
    with pytest.raises(ValueError):
        linalg.numerical_rank([])
    with pytest.raises(ValueError):
        linalg.numerical_rank([np.zeros((3, 3)), np.zeros(9)])


def test_numerical_rank_refuses_non_finite_entries_and_tolerances():
    # an infinite entry and a NaN tol gave rank 0, and a NaN entry raised
    # numpy's LinAlgError from the SVD
    family = [np.eye(3), np.ones((3, 3))]
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="entries must be finite"):
            linalg.numerical_rank(family + [np.full((3, 3), bad)])
    for tol in (np.nan, np.inf, -1e-8):
        with pytest.raises(ValueError, match="tol must be a finite real number of at least 0"):
            linalg.numerical_rank(family, tol=tol)
    assert linalg.numerical_rank(family, tol=0.0) == 2


def test_numerical_rank_invariant_under_invertible_maps():
    rng = np.random.default_rng(3)
    base = [rng.standard_normal((3, 3)) for _ in range(2)]
    base.append(0.5 * base[0] - 2.0 * base[1])  # dependent third element
    assert linalg.numerical_rank(base) == 2
    for _ in range(5):
        t = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        assert abs(np.linalg.det(t)) > 1e-3
        assert linalg.numerical_rank([m @ t for m in base]) == 2
        assert linalg.numerical_rank([t @ m for m in base]) == 2


MODULES = ("certify", "cli", "linalg", "pauli", "rng", "settings", "simulate", "states",
           "witnesses")


def _held_arrays(value, where):
    """(where, array) for every ndarray in ``value``, itself or inside tuples,
    lists, dict values and dataclass instances, at any depth."""
    if isinstance(value, np.ndarray):
        yield where, value
        return
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (tuple, list)):
        items = enumerate(value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    else:
        return
    for key, item in items:
        yield from _held_arrays(item, f"{where}[{key!r}]")


def test_no_module_level_array_is_writable():
    # a writable shared array was a shared mutable default: after
    # pauli.product_basis(3)[:] *= 2 every later to_pauli was wrong, and
    # writing settings.AXES["x"] moved the search's directions; SIGMA, the
    # bases, the search plans, AXES and certify's index tables were writable
    pauli.to_pauli(witnesses.witness_ghz().operator)
    settings.decomposition_search(pauli.to_pauli(witnesses.witness_w0().operator), 3, restarts=1)
    held = [found for name in MODULES
            for key, value in vars(importlib.import_module(f"witkit.{name}")).items()
            if not key.startswith("__") for found in _held_arrays(value, f"{name}.{key}")]
    assert len(held) > 20
    assert [where for where, a in held if a.flags.writeable] == []
