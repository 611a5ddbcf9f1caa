"""Local von Neumann measurement settings and witness decompositions.

One measurement setting is a choice of a Bloch direction per party plus
a real weight for each outcome bitstring; its operator is the weighted
sum of the product eigenprojectors and is exactly what one collective
setting of local measurement devices can estimate.  A decomposition is a
list of settings whose operators sum to a target witness; the number of
settings is the quantity the catalog entries and the randomized search
minimize.  The curated decompositions are reached by witness name
through :data:`REGISTRY`, the package's one witness registry.

Directions are canonicalized so that n and -n describe the same setting
(the weight tensor absorbs the outcome relabeling).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg, pauli, witnesses
from .rng import stream

VERIFY_TOL = 1e-10
SEARCH_TOL = 1e-8
INV_ROOT2 = 1.0 / math.sqrt(2.0)
W0_ANGLES = (INV_ROOT2, -INV_ROOT2)

AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}
_AXIS_VECTORS = (AXES["x"], AXES["y"], AXES["z"])


def _normalized(vec):
    """A finite nonzero real 3-vector divided by its norm, and the norm."""
    v = np.asarray(vec, dtype=float).ravel()
    if v.size != 3:
        raise ValueError("a direction is a real 3-vector")
    if not np.isfinite(v).all():
        raise ValueError("direction components must be finite")
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("direction vector must be nonzero")
    return v / norm, norm


def _needs_flip(unit) -> bool:
    """Whether the first nonzero component of a unit vector is negative."""
    for comp in unit:
        if abs(comp) > 1e-12:
            return comp < 0.0
    return False


def canonical_direction(vec):
    """Unit vector with the first nonzero component positive, plus a flip flag."""
    v, _ = _normalized(vec)
    flip = _needs_flip(v)
    return (-v if flip else v), flip


def _eigenvector_entries(unit):
    """Entries (plus0, plus1, minus0, minus1) of the n . sigma eigenvectors."""
    nx, ny, nz = unit.tolist()
    theta = math.acos(min(1.0, max(-1.0, nz)))
    st = math.sin(theta)
    phase = complex(nx, ny) / st if st > 1e-12 else 1.0
    cos_half, sin_half = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return cos_half, phase * sin_half, sin_half, -phase * cos_half


def eigenbasis(vec):
    """(plus, minus) eigenvectors of n . sigma for a Bloch direction n."""
    v = np.asarray(vec, dtype=float).ravel()
    plus0, plus1, minus0, minus1 = _eigenvector_entries(v / np.linalg.norm(v))
    return np.array([plus0, plus1]), np.array([minus0, minus1])


@dataclass(frozen=True)
class Direction:
    """Unit Bloch 3-vector in canonical sign convention.

    ``basis`` is the direction's local eigenbasis, the 2 x 2 complex
    matrix ``column_stack(eigenbasis(components))`` whose column b is the
    eigenvector of outcome bit b (0 for +1, 1 for -1).  It is built once,
    here, and is read-only, so it cannot go stale on a frozen direction;
    it takes no part in equality, hashing or repr.
    """

    components: tuple
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one normalization serves the unit check, the sign check and the basis
        v = np.asarray(self.components, dtype=float).ravel()
        unit, norm = _normalized(v)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("Direction needs a unit 3-vector")
        if _needs_flip(unit):
            raise ValueError("Direction components must be in canonical sign")
        object.__setattr__(self, "components", tuple(float(c) for c in v))
        plus0, plus1, minus0, minus1 = _eigenvector_entries(unit)
        basis = np.array([[plus0, minus0], [plus1, minus1]], dtype=complex)
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.components)


def direction(vec) -> Direction:
    """Canonicalize an arbitrary nonzero 3-vector into a Direction."""
    canon, _ = canonical_direction(vec)
    return Direction(tuple(canon))


# the fixed directions of the catalog decompositions, built (and their
# bases computed) once; each is what setting() makes of the raw vector
_X = direction(AXES["x"])
_Y = direction(AXES["y"])
_Z = direction(AXES["z"])
_D_PLUS = direction(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
_D_MINUS = direction(np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0))
_Z_PLUS_X = direction((AXES["z"] + AXES["x"]) / math.sqrt(2.0))
_Z_PLUS_Y = direction((AXES["z"] + AXES["y"]) / math.sqrt(2.0))


@dataclass
class MeasurementSetting:
    """One Bloch direction per party plus per-outcome weights.

    ``weights`` has shape (2,)*n_parties; entry [r, s, ...] weighs the
    outcome where each party sees its +1 (bit 0) or -1 (bit 1) projector.
    Build instances through :func:`setting`, which canonicalizes the
    directions and relabels outcomes consistently.
    """

    directions: tuple
    weights: np.ndarray

    def __post_init__(self):
        n = len(self.directions)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (2,) * n:
            raise ValueError(f"weights must have shape {(2,) * n}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        self.directions = tuple(self.directions)
        self.weights = w

    @property
    def n_parties(self) -> int:
        return len(self.directions)


def setting(direction_vectors, weights) -> MeasurementSetting:
    """Build a MeasurementSetting from raw direction vectors and weights."""
    vecs = list(direction_vectors)
    w = np.asarray(weights, dtype=float).reshape((2,) * len(vecs)).copy()
    dirs = []
    for p, vec in enumerate(vecs):
        if isinstance(vec, Direction):
            dirs.append(vec)
            continue
        canon, flip = canonical_direction(vec)
        if flip:
            w = np.flip(w, axis=p)
        dirs.append(Direction(tuple(canon)))
    return MeasurementSetting(tuple(dirs), w)


def setting_basis(s: MeasurementSetting) -> np.ndarray:
    """Product eigenbasis of a setting as a 2^n x 2^n unitary.

    Column j is the eigenvector of outcome bitstring j, party A most
    significant, so ``weights.ravel()[j]`` weighs column j.  The product
    of the local bases held by the directions is built by broadcasting,
    one party at a time, in the Kronecker order of ``linalg.kron_all``:
    every entry is the same product of the same factors, so the result
    equals the Kronecker chain bit for bit.  For one party it is that
    direction's own read-only basis.
    """
    u, *rest = (d.basis for d in s.directions)
    for b in rest:
        m = u.shape[0]
        u = (u[:, None, :, None] * b[None, :, None, :]).reshape(2 * m, 2 * m)
    return u


def setting_operator(s: MeasurementSetting) -> np.ndarray:
    """Weighted sum of product eigenprojectors; commutes with every n . sigma."""
    u = setting_basis(s)
    return (u * s.weights.ravel()) @ u.conj().T


def weights_from_masks(n_parties: int, mask_terms: dict) -> np.ndarray:
    """Outcome weights realizing ``sum_m g_m * prod_{p in m} (n_p . sigma)``.

    ``mask_terms`` maps 0/1 tuples (which parties carry the direction
    operator rather than identity) to real coefficients.
    """
    w = np.zeros((2,) * n_parties)
    for bits in np.ndindex(w.shape):
        total = 0.0
        for mask, coeff in mask_terms.items():
            parity = sum(b & m for b, m in zip(bits, mask))
            total += coeff * (-1.0 if parity % 2 else 1.0)
        w[bits] = total
    return w


@dataclass
class LocalDecomposition:
    """A list of settings reconstructing a target operator."""

    target_label: str
    settings: list
    residual: float = math.nan

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def n_projectors(self) -> int:
        """Number of weighted product projectors across all settings."""
        return int(sum(np.count_nonzero(np.abs(s.weights) > 1e-12)
                       for s in self.settings))

    def operator(self) -> np.ndarray:
        if not self.settings:
            raise ValueError("decomposition has no settings")
        if len({s.n_parties for s in self.settings}) > 1:
            raise ValueError("settings act on different numbers of parties")
        return sum(setting_operator(s) for s in self.settings)

    @property
    def verified(self) -> bool:
        return self.residual == self.residual and self.residual < VERIFY_TOL


def verify_decomposition(dec: LocalDecomposition, target) -> float:
    """Frobenius distance between the summed settings and the target."""
    t = linalg.as_matrix(getattr(target, "operator", target))
    op = dec.operator()
    if op.shape != t.shape:
        raise ValueError(f"decomposition acts on dimension {op.shape[0]}, "
                         f"target on {t.shape[0]}")
    residual = float(np.linalg.norm(op - t))
    dec.residual = residual
    return residual


# --- catalog decompositions -------------------------------------------------

def _drop_empty(setts):
    return [s for s in setts if np.abs(s.weights).max() > 1e-15]


def _anton(alpha: float | None = None,
           beta: float | None = None) -> LocalDecomposition:
    # three paired axis settings: zz carries the diagonal part, xx and yy
    # together reproduce the |01><10| + |10><01| coherence; defaults to w0
    alpha = W0_ANGLES[0] if alpha is None else alpha
    beta = W0_ANGLES[1] if beta is None else beta
    target = witnesses.witness_phi(alpha, beta)  # checks finite and unit
    at_w0 = max(abs(alpha - W0_ANGLES[0]), abs(beta - W0_ANGLES[1])) < 1e-12
    label = "w0" if at_w0 else f"phi({alpha:g},{beta:g})"
    ab = alpha * beta
    zz = np.zeros((2, 2))
    zz[0, 0] = alpha ** 2
    zz[1, 1] = beta ** 2
    xx = np.zeros((2, 2))
    xx[0, 0] = xx[1, 1] = ab
    yy = np.zeros((2, 2))
    yy[0, 1] = yy[1, 0] = -ab
    setts = [
        setting([_Z, _Z], zz),
        setting([_X, _X], xx),
        setting([_Y, _Y], yy),
    ]
    dec = LocalDecomposition(label, _drop_empty(setts))
    verify_decomposition(dec, target)
    return dec


def _ghz_settings(identity_weight: float):
    zzz = weights_from_masks(3, {
        (0, 0, 0): identity_weight,
        (0, 1, 1): -1.0 / 8.0,
        (1, 0, 1): -1.0 / 8.0,
        (1, 1, 0): -1.0 / 8.0,
    })
    xxx = weights_from_masks(3, {(1, 1, 1): -2.0 / 8.0})
    diag = weights_from_masks(3, {(1, 1, 1): math.sqrt(2.0) / 8.0})
    return [
        setting([_Z] * 3, zzz),
        setting([_X] * 3, xxx),
        setting([_D_PLUS] * 3, diag),
        setting([_D_MINUS] * 3, diag),
    ]


def _ghz() -> LocalDecomposition:
    dec = LocalDecomposition("ghz", _ghz_settings(5.0 / 8.0))
    verify_decomposition(dec, witnesses.witness_ghz())
    return dec


def _w2() -> LocalDecomposition:
    # same four settings, identity weight lowered by 1/4
    dec = LocalDecomposition("w2", _ghz_settings(5.0 / 8.0 - 0.25))
    verify_decomposition(dec, witnesses.witness_w2())
    return dec


def _w1() -> LocalDecomposition:
    zzz = weights_from_masks(3, {
        (0, 0, 0): 17.0 / 24.0,
        (1, 1, 1): 7.0 / 24.0,
        (1, 0, 0): 3.0 / 24.0,
        (0, 1, 0): 3.0 / 24.0,
        (0, 0, 1): 3.0 / 24.0,
        (1, 1, 0): 5.0 / 24.0,
        (1, 0, 1): 5.0 / 24.0,
        (0, 1, 1): 5.0 / 24.0,
    })
    setts = [setting([_Z] * 3, zzz)]
    root2 = math.sqrt(2.0)
    w = np.zeros((2, 2, 2))
    for bits in np.ndindex(w.shape):
        factors = [1.0 + root2 * (-1.0 if b else 1.0) for b in bits]
        w[bits] = -(1.0 / 24.0) * factors[0] * factors[1] * factors[2]
    # (z - x)/sqrt2 and (z - y)/sqrt2 are not in canonical sign: setting()
    # flips them and relabels the outcomes of each party
    for tilted in (_Z_PLUS_X, (AXES["z"] - AXES["x"]) / root2,
                   _Z_PLUS_Y, (AXES["z"] - AXES["y"]) / root2):
        setts.append(setting([tilted] * 3, w))
    dec = LocalDecomposition("w1", setts)
    verify_decomposition(dec, witnesses.witness_w1())
    return dec


def _sanpera5(alpha: float | None = None,
              beta: float | None = None) -> LocalDecomposition:
    """Five product projectors grouped into four settings.

    Valid for strictly positive Schmidt coefficients only; the
    construction degenerates when alpha * beta <= 0.  Defaults to
    alpha = beta = 1/sqrt(2).
    """
    alpha = INV_ROOT2 if alpha is None else alpha
    beta = INV_ROOT2 if beta is None else beta
    target = witnesses.witness_phi(alpha, beta)  # checks finite and unit
    if alpha * beta <= 0.0:
        raise ValueError(
            "the five-projector decomposition requires alpha, beta > 0 "
            "(nonnegative Schmidt coefficient convention)")
    c = math.sqrt(alpha / (alpha + beta))
    s = math.sqrt(beta / (alpha + beta))
    cs = c * s
    cz = c * c - s * s
    root3 = math.sqrt(3.0)
    bloch = [
        np.array([-cs, -root3 * cs, cz]),
        np.array([-cs, root3 * cs, cz]),
        np.array([2.0 * cs, 0.0, cz]),
    ]
    weight = (alpha + beta) ** 2 / 3.0
    setts = []
    for vec in bloch:
        w = np.zeros((2, 2))
        w[0, 0] = weight
        setts.append(setting([vec, vec], w))
    zz = np.zeros((2, 2))
    zz[0, 1] = zz[1, 0] = -alpha * beta
    setts.append(setting([_Z, _Z], zz))
    dec = LocalDecomposition(f"phi({alpha:g},{beta:g})", setts)
    verify_decomposition(dec, target)
    return dec


def _witness_phi(alpha, beta) -> witnesses.Witness:
    if alpha is None or beta is None:
        raise ValueError("witness phi requires alpha and beta")
    return witnesses.witness_phi(alpha, beta)


@dataclass(frozen=True)
class CatalogEntry:
    """One named catalog witness with its decompositions and target state.

    ``witness`` and each ``decompositions`` value take ``(alpha, beta)``,
    which witnesses without parameters ignore.  The decomposition keys
    are the names :func:`catalog_decomposition` accepts, the first being
    the default.  ``angles``, when set, are the Schmidt parameters the
    witness fixes.  ``psi`` also takes ``(alpha, beta)`` and returns the
    ``threshold --psi`` token (a key of ``states.NAMED_STATES``) of the
    pure state whose white-noise family the witness is built to detect.
    """

    witness: Callable
    decompositions: dict
    psi: Callable
    angles: tuple | None = None


def _phi_psi(alpha, beta) -> str:
    # the alpha beta (|01><10| + |10><01|) block has eigenvalue -|alpha beta|
    # on (|01> - sign(alpha beta) |10>)/sqrt(2)
    return "schmidt" if alpha * beta < 0.0 else "singlet"


_TWO_QUBIT = {"anton": _anton, "sanpera5": _sanpera5}

# the witness registry: every lookup by witness name goes through here
REGISTRY = {
    "w0": CatalogEntry(lambda a, b: witnesses.witness_w0(), _TWO_QUBIT,
                       _phi_psi, angles=W0_ANGLES),
    "phi": CatalogEntry(_witness_phi, _TWO_QUBIT, _phi_psi),
    "ghz": CatalogEntry(lambda a, b: witnesses.witness_ghz(),
                        {"ghz": lambda a, b: _ghz()}, lambda a, b: "ghz"),
    "w1": CatalogEntry(lambda a, b: witnesses.witness_w1(),
                       {"w1": lambda a, b: _w1()}, lambda a, b: "w"),
    "w2": CatalogEntry(lambda a, b: witnesses.witness_w2(),
                       {"w2": lambda a, b: _w2()}, lambda a, b: "ghz"),
}


def catalog_decomposition(name: str, alpha: float | None = None,
                          beta: float | None = None) -> LocalDecomposition:
    """Curated decompositions by name: anton, ghz, w1, w2, sanpera5.

    The names are the decomposition keys of :data:`REGISTRY`.  ``anton``
    (three axis settings) and ``sanpera5`` (five product projectors in
    four settings) take Schmidt parameters and default to the w0 witness
    angles ``alpha = -beta = 1/sqrt(2)`` and to ``alpha = beta =
    1/sqrt(2)`` respectively.
    """
    for entry in REGISTRY.values():
        if name in entry.decompositions:
            return entry.decompositions[name](alpha, beta)
    names = sorted({n for entry in REGISTRY.values() for n in entry.decompositions})
    raise KeyError(f"unknown decomposition {name!r}; pick one of {names}")


# --- grouping fixed Pauli terms into settings --------------------------------

def _covered_axis(d: Direction) -> int | None:
    """Axis index 1..3 the direction is parallel to, if any."""
    for a, axis_vec in enumerate(_AXIS_VECTORS, start=1):
        if abs(float(np.dot(d.vector, axis_vec))) > 1.0 - 1e-9:
            return a
    return None


def _greedy_cover(cover_sets, universe):
    chosen = []
    covered = set()
    while covered != universe:
        best = max(range(len(cover_sets)),
                   key=lambda j: len(cover_sets[j] - covered))
        if not cover_sets[best] - covered:
            raise ValueError("cover is infeasible")
        chosen.append(best)
        covered |= cover_sets[best]
    return sorted(chosen)


def _exact_min_cover(cover_sets, universe):
    # branch and bound; instances here have tiny universes, so exactness
    # is affordable and the counts quoted by callers stay trustworthy
    best = _greedy_cover(cover_sets, universe)
    best_size = len(best)

    def covering(elem):
        return [j for j in range(len(cover_sets)) if elem in cover_sets[j]]

    def dfs(covered, chosen):
        nonlocal best, best_size
        if covered == universe:
            if len(chosen) < best_size:
                best = sorted(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        rem = universe - covered
        maxcov = max(len(s & rem) for s in cover_sets)
        if maxcov == 0:
            return
        if len(chosen) + math.ceil(len(rem) / maxcov) >= best_size:
            return
        elem = min(sorted(rem), key=lambda e: len(covering(e)))
        options = covering(elem)
        options.sort(key=lambda j: -len(cover_sets[j] & rem))
        for j in options:
            dfs(covered | cover_sets[j], chosen + [j])

    dfs(frozenset(), [])
    return best


def group_pauli_terms(c: pauli.PauliCoefficients, candidates,
                      exact: bool = True) -> LocalDecomposition:
    """Cover the fixed Pauli support of an operator with candidate settings.

    ``candidates`` lists, per party, the admissible measurement
    directions.  A term is covered by a candidate setting when each of
    its non-identity factors is parallel to that party's direction; the
    minimum-cardinality cover is found exactly (set ``exact=False`` for
    the greedy heuristic).  Because coefficients cannot be recombined
    across directions, the result upper-bounds the true minimal setting
    count without necessarily reaching it.
    """
    n = c.n_qubits
    if len(candidates) != n:
        raise ValueError(f"need one candidate list per party ({n} parties)")
    cand_dirs = []
    for party_cands in candidates:
        dirs = []
        for vec in party_cands:
            d = vec if isinstance(vec, Direction) else direction(vec)
            if all(d != prev for prev in dirs):
                dirs.append(d)
        cand_dirs.append(dirs)

    support = c.support()
    if not support:
        raise ValueError("operator has empty Pauli support")

    axis_of = [{id(d): _covered_axis(d) for d in dirs} for dirs in cand_dirs]
    cand_settings = list(itertools.product(*cand_dirs))
    cover_sets = []
    for combo in cand_settings:
        covered = frozenset(
            term for term in support
            if all(i == 0 or axis_of[p][id(combo[p])] == i
                   for p, i in enumerate(term)))
        cover_sets.append(covered)

    universe = frozenset(support)
    missing = universe - frozenset().union(*cover_sets)
    if missing:
        term = sorted(missing)[0]
        raise ValueError(
            f"term {pauli.index_string(term)} is not coverable by the "
            f"candidate directions")

    keep = [j for j in range(len(cand_settings)) if cover_sets[j]]
    cand_settings = [cand_settings[j] for j in keep]
    cover_sets = [cover_sets[j] for j in keep]

    solver = _exact_min_cover if exact else _greedy_cover
    chosen = solver(cover_sets, universe)

    assigned = {j: [] for j in chosen}
    for term in support:
        for j in chosen:
            if term in cover_sets[j]:
                assigned[j].append(term)
                break

    setts = []
    for j in chosen:
        combo = cand_settings[j]
        mask_terms: dict = {}
        for term in assigned[j]:
            mask = tuple(1 if i else 0 for i in term)
            sign = 1.0
            for p, i in enumerate(term):
                if i:
                    sign *= round(float(np.dot(combo[p].vector,
                                               _AXIS_VECTORS[i - 1])))
            key = mask
            mask_terms[key] = mask_terms.get(key, 0.0) + sign * float(c.coeffs[term])
        setts.append(MeasurementSetting(combo, weights_from_masks(n, mask_terms)))

    dec = LocalDecomposition("cover", setts)
    verify_decomposition(dec, pauli.from_pauli(c))
    return dec


# --- randomized search for few-setting decompositions ------------------------

@dataclass
class SearchResult:
    success: bool
    decomposition: LocalDecomposition | None
    residual: float
    restarts_used: int


def _als_restart(target, n, k, rng, tol, max_iter):
    """One ALS restart on the Pauli-coefficient tensor ``target``, shape (4,)*n.

    Setting s is a weight core ``core[s]`` of shape (2,)*n, entry m
    weighing the product of the direction operators of the parties set in
    mask m, plus one lift ``lift[s, p]`` (4 x 2) per party with columns e0
    and (0, d_sp).  Its Pauli tensor ``models[s]`` is ``core[s]``
    multiplied by ``lift[s, p]`` along every axis p, and ``resid`` keeps
    ``target`` minus the sum of the models.  Returns the final residual,
    the directions (k, n, 3) and the cores (k, 2, ..., 2).
    """
    target = np.asarray(target, dtype=float)
    scale = math.sqrt(2.0 ** n)
    ridge = 1e-14 * np.eye(k)
    masks = np.array(list(np.ndindex((2,) * n)), dtype=bool)
    # einsum letters: Pauli index a, b, ... and mask bit i, j, ... per party
    pauli_idx = "abcdefgh"[:n]
    bit_idx = "ijklmnop"[:n]
    lift_idx = [a + b for a, b in zip(pauli_idx, bit_idx)]
    all_lifts = ",".join("s" + x for x in lift_idx)
    rhs_expr = f"{pauli_idx},{all_lifts}->s{bit_idx}"
    models_expr = f"s{bit_idx},{all_lifts}->s{pauli_idx}"
    model_expr = f"{bit_idx},{','.join(lift_idx)}->{pauli_idx}"
    # per party p: the other parties, the contraction of a residual with
    # their lifts, and the index of the weights whose mask contains p
    others = []
    for p in range(n):
        q = [i for i in range(n) if i != p]
        operands = "".join("," + lift_idx[i] for i in q)
        out = pauli_idx[p] + "".join(bit_idx[i] for i in q)
        others.append((q, f"{pauli_idx}{operands}->{out}",
                       (slice(None),) * p + (1,)))

    lift = np.zeros((k, n, 4, 2))
    lift[:, :, 0, 0] = 1.0
    dirs = lift[:, :, 1:, 1]  # a view: writing a direction updates its lift
    for s_i in range(k):
        for p in range(n):
            if rng.random() < 0.5:
                dirs[s_i, p] = _AXIS_VECTORS[rng.integers(3)]
            else:
                v = rng.standard_normal(3)
                dirs[s_i, p] = v / np.linalg.norm(v)
    lifts_of = [list(lift[s_i]) for s_i in range(k)]
    party_lifts = list(lift.transpose(1, 0, 2, 3))
    core = np.zeros((k,) + (2,) * n)
    resid = target.copy()

    def residual():
        r = resid.ravel()
        return scale * math.sqrt(float(r @ r))

    history: list = []
    for it in range(max_iter):
        # weights: exact least squares for every mask in one batched
        # solve; a mask's Gram matrix is the Hadamard product of the
        # direction Grams of its parties
        party_gram = np.einsum("spi,tpi->pst", dirs, dirs)
        gram = np.where(masks[:, :, None, None], party_gram, 1.0).prod(axis=1)
        rhs = np.einsum(rhs_expr, target, *party_lifts)
        sol = np.linalg.solve(gram + ridge, rhs.reshape(k, -1).T[..., None])
        core = sol[..., 0].T.reshape(core.shape)
        models = np.einsum(models_expr, core, *party_lifts)
        resid = target - models.sum(axis=0)
        # directions: closed-form update per (setting, party), norm folded
        # back into the weights
        for s_i in range(k):
            rest = resid + models[s_i]
            lifts = lifts_of[s_i]
            for p in range(n):
                q, expr, on = others[p]
                y = np.einsum(expr, rest, *[lifts[i] for i in q])
                g_on = core[(s_i,) + on].ravel()
                den = float(g_on @ g_on)
                if den < 1e-30:
                    continue
                v = y[1:].reshape(3, -1) @ g_on / den
                norm_v = math.sqrt(float(v @ v))
                if norm_v < 1e-14:
                    continue
                dirs[s_i, p] = v / norm_v
                core[(s_i,) + on] *= norm_v
            models[s_i] = np.einsum(model_expr, core[s_i], *lifts)
            resid = rest - models[s_i]
        res = residual()
        if res < tol:
            break
        # abandon the restart once even the recent linear trend could not
        # reach the tolerance within the remaining iterations
        history.append(res)
        if len(history) >= 13:
            gain = history[-13] - res
            remaining = max_iter - it - 1
            if gain * (remaining / 12.0) < res - tol:
                break
    return residual(), dirs.copy(), core


def decomposition_search(c: pauli.PauliCoefficients, max_settings: int,
                         restarts: int = 200, seed: int = 0,
                         tol: float = SEARCH_TOL,
                         max_iter: int = 300) -> SearchResult:
    """Randomized alternating least squares over directions and weights.

    Each restart draws fresh directions (axes or random unit vectors) and
    works on the whole Pauli-coefficient tensor (see :func:`_als_restart`):
    an iteration solves the weights of every identity/direction mask
    exactly in one batched least-squares solve, then updates each
    (setting, party) direction in closed form from one contraction of the
    residual, in Gauss-Seidel order.  Success means the operator Frobenius residual dropped below ``tol``;
    failure is reported, not raised.  Deterministic given the seed, and
    restart ``i`` uses substream ``(seed, i)`` so parallel evaluation
    merged by (residual, restart index) matches a sequential run.
    """
    if max_settings < 1:
        raise ValueError("max_settings must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = c.n_qubits
    target = c.coeffs
    res, dirs, g, used = math.inf, None, None, restarts
    for r in range(restarts):
        trial_res, trial_dirs, trial_g = _als_restart(
            target, n, max_settings, stream(seed, r), tol, max_iter)
        if trial_res < res:
            res, dirs, g = trial_res, trial_dirs, trial_g
        if res < tol:
            used = r + 1
            break
    if res >= tol or dirs is None:
        return SearchResult(False, None, float(res), restarts)

    gmax = float(np.abs(g).max())
    setts = []
    for s_i in range(max_settings):
        mask_terms = {m: float(g[s_i][m]) for m in np.ndindex(g.shape[1:])
                      if abs(g[s_i][m]) > 1e-13 * max(1.0, gmax)}
        if not mask_terms:
            continue
        setts.append(setting(list(dirs[s_i]), weights_from_masks(n, mask_terms)))
    dec = LocalDecomposition("search", setts)
    verify_decomposition(dec, pauli.from_pauli(c))
    if dec.residual >= tol:
        return SearchResult(False, None, float(dec.residual), used)
    return SearchResult(True, dec, float(dec.residual), used)


# --- JSON wire format ---------------------------------------------------------

def decomposition_to_json_dict(dec: LocalDecomposition) -> dict:
    """Schema: {target, settings: [{directions: [[dx,dy,dz], ...], weights: {bits: w}}]}."""
    out_settings = []
    for s in dec.settings:
        weights = {}
        for bits in np.ndindex(s.weights.shape):
            w = float(s.weights[bits])
            if w != 0.0:
                weights["".join(str(b) for b in bits)] = w
        out_settings.append({
            "directions": [[float(x) for x in d.vector] for d in s.directions],
            "weights": weights,
        })
    return {"target": dec.target_label, "settings": out_settings}


def decomposition_from_json_dict(data: dict) -> LocalDecomposition:
    """Parse the wire format; residual is unset until verified."""
    setts = []
    for entry in data["settings"]:
        vecs = [np.asarray(v, dtype=float) for v in entry["directions"]]
        n = len(vecs)
        w = np.zeros((2,) * n)
        for bits_str, value in entry["weights"].items():
            if len(bits_str) != n or any(ch not in "01" for ch in bits_str):
                raise ValueError(f"bad outcome bitstring {bits_str!r}")
            w[tuple(int(ch) for ch in bits_str)] = float(value)
        setts.append(setting(vecs, w))
    return LocalDecomposition(str(data.get("target", "unknown")), setts)
