"""The catalog's setting counts proved in exact rational arithmetic.

Every catalog witness has rational Pauli coefficients, so the kernel and
pencil test of :mod:`witkit.certify` can be run over Q with the standard
library's ``fractions``: no kernel cut, no pencil gap.  For a pairing
whose slices span d dimensions, let K be the kernel of the minor map on
symmetric d x d matrices.  d independent real rank-one elements t_i of
the span would make K = span{t_i t_i^T}, and then A^-1 B, for A, B in K
and A invertible, would be diagonalizable with real eigenvalues.  So a
characteristic polynomial with a non-real root (Sturm's theorem) or a
square-free part q with q(A^-1 B) != 0 proves that d settings do not
suffice.  These proofs must agree with the floating-point certificates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from witkit import certify, pauli, witnesses

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
# sigma_0..3 = i^m R with R real: Y = i [[0, -1], [1, 0]]
REAL_PAULI = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1), (1, 0)), ((1, 0), (0, -1)))


def exact_operator(name):
    """The catalog witness as a real symmetric matrix of Fractions."""
    if name == "w0":  # phi at alpha = -beta = 1/sqrt(2)
        op = [[Fraction(0)] * 4 for _ in range(4)]
        op[0][0] = op[3][3] = HALF
        op[1][2] = op[2][1] = -HALF
        return op
    identity, support, amp = {"ghz": (Fraction(3, 4), (0, 7), HALF),
                              "w2": (HALF, (0, 7), HALF),
                              "w1": (Fraction(2, 3), (1, 2, 4), THIRD)}[name]
    op = [[identity * (i == j) for j in range(8)] for i in range(8)]
    for i, j in itertools.product(support, repeat=2):
        op[i][j] -= amp
    return op


def exact_coefficients(op):
    """Pauli coefficients {(i, j, ...): Fraction}, Tr(sigma op) / 2^n.

    A real symmetric op has Tr(R op) = 0 for the antisymmetric R of an
    odd number of Y factors, and i^m = (-1)^(m/2) otherwise."""
    n = len(op).bit_length() - 1
    coeffs = {}
    for idx in itertools.product(range(4), repeat=n):
        m = idx.count(2)
        total = Fraction(0)
        for row, col in itertools.product(itertools.product(range(2), repeat=n), repeat=2):
            r = 1
            for p in range(n):
                r *= REAL_PAULI[idx[p]][row[p]][col[p]]
            if r:
                total += r * op[int("".join(map(str, col)), 2)][int("".join(map(str, row)), 2)]
        coeffs[idx] = 0 if m % 2 else (-1) ** (m // 2) * total / 2 ** n
    return coeffs


def nullspace(rows, n_cols):
    """A basis of {x : rows x = 0} over Q, by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(n_cols):
        pick = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[len(pivots)], rows[pick] = rows[pick], rows[len(pivots)]
        top = rows[len(pivots)]
        top[:] = [x / top[col] for x in top]
        for i, r in enumerate(rows):
            if i != len(pivots) and r[col]:
                rows[i] = [a - r[col] * b for a, b in zip(r, top)]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -rows[i][free]
        basis.append(x)
    return basis


def rank(rows, n_cols):
    return n_cols - len(nullspace(rows, n_cols))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def inverse(a):
    """a^-1 by Gauss-Jordan elimination of [a | I]; a must be invertible."""
    n = len(a)
    rows = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pick = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pick] = rows[pick], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def charpoly(m):
    """det(x I - m), coefficients from the leading one (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs, acc = [Fraction(1)], [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        acc = matmul(m, [[acc[i][j] + coeffs[-1] * (i == j) for j in range(n)]
                         for i in range(n)])
        coeffs.append(-sum(acc[i][i] for i in range(n)) / k)
    return coeffs


def poly_rem(p, q):
    p = list(p)
    while len(p) >= len(q) and any(p):
        f = p[0] / q[0]
        p = [a - f * b for a, b in zip(p, q + [0] * (len(p) - len(q)))][1:]
    while p and p[0] == 0:
        p = p[1:]
    return p


def poly_gcd(p, q):
    while q:
        p, q = q, poly_rem(p, q)
    return [c / p[0] for c in p]


def derivative(p):
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def real_root_count(p):
    """Distinct real roots of p, by the sign changes of its Sturm chain at -inf and +inf."""
    chain = [p, derivative(p)]
    while len(chain[-1]) > 1:
        rem = poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_minus = [(1 if c[0] > 0 else -1) * (-1) ** (len(c) - 1) for c in chain]
    at_plus = [1 if c[0] > 0 else -1 for c in chain]
    return changes(at_minus) - changes(at_plus)


def square_free(p):
    g = poly_gcd(p, derivative(p))
    out, rest = [], list(p)
    while len(rest) >= len(g):  # long division p / g
        f = rest[0] / g[0]
        out.append(f)
        rest = [a - f * b for a, b in zip(rest, g + [0] * (len(rest) - len(g)))][1:]
    return out


def poly_at_matrix(p, m):
    n = len(m)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in p:  # Horner
        out = matmul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def slices(coeffs, n, pairing):
    """The pairing's four 3 x 3 slice matrices; for two qubits, its one 3 x 3 block."""
    if n == 2:
        return [[[coeffs[i, j] for j in (1, 2, 3)] for i in (1, 2, 3)]]
    axes = {"AB|C": (0, 1, 2), "AC|B": (0, 2, 1), "BC|A": (1, 2, 0)}[pairing]
    out = []
    for k in range(4):
        mat = []
        for i in (1, 2, 3):
            row = []
            for j in (1, 2, 3):
                idx = [0] * 3
                idx[axes[0]], idx[axes[1]], idx[axes[2]] = i, j, k
                row.append(coeffs[tuple(idx)])
            mat.append(row)
        out.append(mat)
    return out


def span_basis(mats):
    """The slice matrices ``mats``, flattened and kept while independent."""
    basis = []
    for f in (sum(m, []) for m in mats):
        if rank(basis + [f], 9) > len(basis):
            basis.append(f)
    return basis


def pencil(mats):
    """(d, dim K, A^-1 B or None) for the span of the slice matrices ``mats``.

    The slices themselves, kept while independent, are the span's basis
    (:func:`span_basis`); A is the first invertible combination of K's
    basis with weights in {1, 2, 3} and B = sum_j j K_j.  A^-1 B is None
    unless dim K = d."""
    basis = span_basis(mats)
    d = len(basis)
    pairs = list(itertools.combinations_with_replacement(range(d), 2))

    def minor_form(i, j, r1, r2, c1, c2):  # one minor, basis i against basis j
        bi, bj = basis[i], basis[j]
        return bi[3 * r1 + c1] * bj[3 * r2 + c2] - bi[3 * r1 + c2] * bj[3 * r2 + c1]

    # <Q_k, S> on the upper triangle of a symmetric S, off-diagonals both ways
    rows = [[minor_form(i, j, *r, *c) + (minor_form(j, i, *r, *c) if i != j else 0)
             for i, j in pairs]
            for r, c in itertools.product(itertools.combinations(range(3), 2), repeat=2)]
    kernel = []
    for v in nullspace(rows, len(pairs)):
        s = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), x in zip(pairs, v):
            s[i][j] = s[j][i] = x
        kernel.append(s)
    if len(kernel) != d:
        return d, len(kernel), None

    def combination(weights):
        return [[sum(w * k[i][j] for w, k in zip(weights, kernel)) for j in range(d)]
                for i in range(d)]

    a = next(m for m in map(combination, itertools.product(range(1, 4), repeat=d))
             if rank(m, d) == d)
    return d, d, matmul(inverse(a), combination(range(d)))


def exact_bound(mats):
    """The setting count that the exact pencil proves for one pairing."""
    d, kernel_dim, m = pencil(mats)
    if m is None:  # a kernel larger than the span proves nothing
        return d + (kernel_dim < d)
    q = square_free(charpoly(m))
    non_real = real_root_count(q) < len(q) - 1
    defective = any(any(row) for row in poly_at_matrix(q, m))
    assert non_real or defective, "a real diagonalizable pencil needs its eigenvectors checked"
    return d + 1


CATALOG = ("w0", "ghz", "w1", "w2")


def test_sturm_counts_distinct_real_roots():
    assert real_root_count([1, -6, 11, -6]) == 3  # (x - 1)(x - 2)(x - 3)
    assert real_root_count([1, 0, 1]) == 0
    assert real_root_count([1, -2, 1]) == 1  # (x - 1)^2
    assert real_root_count([1, 0, -2, 0]) == 3  # x (x^2 - 2)
    assert square_free([1, -4, 6, -4, 1]) == [1, -1]


@pytest.mark.parametrize("name", CATALOG)
def test_exact_coefficients_match_to_pauli(name):
    exact = exact_coefficients(exact_operator(name))
    c = pauli.to_pauli(witnesses.catalog(name).operator)
    assert c.n_qubits == len(next(iter(exact)))
    for idx, value in exact.items():
        assert abs(float(value) - c.coeffs[idx]) < 1e-15, (name, idx)
    # multiples of 1/8 (w0, ghz, w2) or 1/24 (w1)
    assert all((24 * value).denominator == 1 for value in exact.values())


@pytest.mark.parametrize("name", ["ghz", "w2"])
@pytest.mark.parametrize("pairing", pauli.PAIRINGS_3)
def test_ghz_pencils_have_one_real_root_of_three(name, pairing):
    d, kernel_dim, m = pencil(slices(exact_coefficients(exact_operator(name)), 3, pairing))
    assert (d, kernel_dim) == (3, 3)
    p = charpoly(m)
    # x (x^2 - 3x + 5/2): the quadratic's discriminant 9 - 10 is negative
    assert p == [1, -3, Fraction(5, 2), 0]
    assert real_root_count(p) == 1 and square_free(p) == p


@pytest.mark.parametrize("pairing", pauli.PAIRINGS_3)
def test_w1_pencil_is_one_defective_root(pairing):
    d, kernel_dim, m = pencil(slices(exact_coefficients(exact_operator("w1")), 3, pairing))
    assert (d, kernel_dim) == (4, 4)
    assert charpoly(m) == [1, -4, 6, -4, 1]  # (x - 1)^4
    q = square_free(charpoly(m))
    assert q == [1, -1] and real_root_count(q) == 1
    # m - 1 != 0: a single eigenvalue but not a multiple of the identity,
    # so A^-1 B is not diagonalizable
    assert any(any(row) for row in poly_at_matrix(q, m))


@pytest.mark.parametrize("name", CATALOG)
def test_exact_bounds_match_the_certificates(name):
    wit = witnesses.catalog(name)
    exact = exact_coefficients(exact_operator(name))
    cert = certify.lower_bound(wit)
    if wit.n_qubits == 2:
        mat = slices(exact, 2, pauli.PAIRING_2)[0]
        assert cert.bound == rank(mat, 3) == 3
        return
    c = pauli.to_pauli(wit.operator)
    bounds = []
    for idx, pairing in enumerate(pauli.PAIRINGS_3):
        mats = slices(exact, 3, pairing)
        # lower_bound's pairing idx draws from seed idx at its default seed 0
        search = certify.rank_one_elements_in_span(
            pauli.slice_family(c, pairing).matrices, seed=idx)
        d = search.span_dimension
        assert pencil(mats)[0] == d, pairing
        bounds.append(exact_bound(mats))
        assert bounds[-1] == d + (search.exhausted and len(search.elements) < d), pairing
    assert cert.bound == max(bounds) == {"ghz": 4, "w2": 4, "w1": 5}[name]
