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
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import certify, linalg, pauli, witnesses
from .rng import borrow, real_array, real_number, sequence, whole_number
from .witnesses import W0_ANGLES

VERIFY_TOL = 1e-10
SEARCH_TOL = 1e-8
INV_ROOT2 = 1.0 / math.sqrt(2.0)

AXES = {
    "x": linalg.read_only(np.array([1.0, 0.0, 0.0])),
    "y": linalg.read_only(np.array([0.0, 1.0, 0.0])),
    "z": linalg.read_only(np.array([0.0, 0.0, 1.0])),
}


def _normalized(vec):
    """A nonzero real 3-vector's components, read by :func:`rng.real_array`,
    and unit vector, as float lists, and its norm: the root of ``v.dot(v)``,
    as ``np.linalg.norm`` computes it, so the one numpy call keeps that
    norm's bits.  When ``v.dot(v)`` overflows, the norm is inf and the unit
    vector is that of ``v`` scaled to its largest component."""
    v = real_array(vec, "direction components").ravel()
    if v.size != 3:
        raise ValueError("a direction is a real 3-vector")
    comps = v.tolist()
    norm = math.sqrt(v.dot(v))
    if norm == math.inf:
        return comps, _normalized(v / np.abs(v).max())[1], norm
    if norm < 1e-12:
        raise ValueError("direction vector must be nonzero")
    return comps, [c / norm for c in comps], norm


def _needs_flip(unit) -> bool:
    """Whether the first nonzero component of a unit vector is negative."""
    for comp in unit:
        if abs(comp) > 1e-12:
            return comp < 0.0
    return False


def _canonical(vec):
    """The unit vector of ``vec`` with its first nonzero component positive,
    as a tuple of floats, and whether that flipped it."""
    _, unit, _ = _normalized(vec)
    flip = _needs_flip(unit)
    return tuple((-c if flip else c) + 0.0 for c in unit), flip  # + 0.0: no -0.0


def _eigenvector_entries(unit):
    """Entries (plus0, plus1, minus0, minus1) of the n . sigma eigenvectors.

    The polar angle is atan2(s, n_z) and the phase (n_x + i n_y) / s, with
    s = hypot(n_x, n_y), because near the poles acos(n_z) and
    sin(acos(n_z)) lose the digits of s: at 1e-7 off z their basis is
    non-unitary by 2.4e-2."""
    nx, ny, nz = unit
    st = math.hypot(nx, ny)
    theta = math.atan2(st, nz)
    phase = complex(nx, ny) / st if st > 0.0 else 1.0
    cos_half, sin_half = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return cos_half, phase * sin_half, sin_half, -phase * cos_half


@dataclass(frozen=True)
class Direction:
    """Unit Bloch 3-vector in canonical sign convention.

    ``basis`` is the direction's local eigenbasis, the 2 x 2 complex
    matrix whose column b is the n . sigma eigenvector of outcome bit b (0
    for +1, 1 for -1).  It is built once, here, and is read-only, so it
    cannot go stale on a frozen direction; it takes no part in equality,
    hashing or repr.  The components are normalized once, for the unit
    check, the sign check and the basis.
    """

    components: tuple
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps, unit, norm = _normalized(self.components)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("Direction needs a unit 3-vector")
        if _needs_flip(unit):
            raise ValueError("Direction components must be in canonical sign")
        object.__setattr__(self, "components", tuple(comps))
        plus0, plus1, minus0, minus1 = _eigenvector_entries(unit)
        object.__setattr__(self, "basis", linalg.read_only(
            np.array([[plus0, minus0], [plus1, minus1]], dtype=complex)))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.components)


_FIXED_DIRECTIONS = {}  # the catalog's fixed directions by components, filled below


def _direction(vec):
    """A raw 3-vector's Direction, a fixed one when its canonical components
    match, and whether canonicalizing flipped it; a Direction passes as is."""
    if isinstance(vec, Direction):
        return vec, False
    canon, flip = _canonical(vec)
    return _FIXED_DIRECTIONS.get(canon) or Direction(canon), flip


def direction(vec) -> Direction:
    """Canonicalize an arbitrary nonzero 3-vector into a Direction (a fixed
    catalog direction is returned as that shared object)."""
    return _direction(vec)[0]


# the fixed directions of the catalog decompositions, built (and their
# bases computed) once; each is what setting() makes of the raw vector
_X = direction(AXES["x"])
_Y = direction(AXES["y"])
_Z = direction(AXES["z"])
_D_PLUS = direction(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
_D_MINUS = direction(np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0))
_Z_PLUS_X = direction((AXES["z"] + AXES["x"]) / math.sqrt(2.0))
_Z_PLUS_Y = direction((AXES["z"] + AXES["y"]) / math.sqrt(2.0))
# w1's other two tilts, (z - x)/sqrt2 and (z - y)/sqrt2, are not in
# canonical sign; these are their flips, (x - z)/sqrt2 and (y - z)/sqrt2
_Z_MINUS_X = direction((AXES["z"] - AXES["x"]) / math.sqrt(2.0))
_Z_MINUS_Y = direction((AXES["z"] - AXES["y"]) / math.sqrt(2.0))
_FIXED_DIRECTIONS.update((d.components, d) for d in (_X, _Y, _Z, _D_PLUS, _D_MINUS, _Z_PLUS_X,
                                                     _Z_PLUS_Y, _Z_MINUS_X, _Z_MINUS_Y))


def _product_basis(directions) -> np.ndarray:
    """Product of the local bases held by the directions, by broadcasting one
    party at a time in ``linalg.kron_all``'s order, so it equals the
    Kronecker chain bit for bit; for one party, that direction's basis."""
    u, *rest = (d.basis for d in directions)
    for b in rest:
        m = u.shape[0]
        u = (u[:, None, :, None] * b[None, :, None, :]).reshape(2 * m, 2 * m)
    return u


def _entries(items, kind, what) -> tuple:
    """``items`` as a tuple of ``kind`` values, else ``ValueError`` naming the type met."""
    held = sequence(items, what)
    bad = [x for x in held if not isinstance(x, kind)]
    if bad:
        raise ValueError(f"{what} must be {kind.__name__} values, got {type(bad[0]).__name__}")
    return held


@dataclass(frozen=True, eq=False)
class MeasurementSetting(linalg.FrozenValue):
    """One Bloch direction per party plus per-outcome weights: an immutable value.

    ``weights`` (:func:`rng.real_array`) has shape (2,)*n_parties; entry [r, s, ...]
    weighs the outcome where each party sees its +1 (bit 0) or -1 (bit 1) projector.
    Each direction must be a :class:`Direction`, and the party count is
    checked by ``pauli.qubit_count``, before any basis is built (else
    ``ValueError``).  Build instances through :func:`setting`, which
    canonicalizes the directions and relabels outcomes consistently.

    ``basis`` is the product eigenbasis: column j is the eigenvector of
    outcome bitstring j (party A most significant), which
    ``weights.ravel()[j]`` weighs.  ``rows`` is its transpose, contiguous,
    and ``rows_conj`` that array's conjugate: the rows the Born kernel of
    ``simulate`` reads.  All three are built once, here.  A frozen value
    (``linalg.FrozenValue``): every array it holds is read-only, and it
    compares and hashes by its directions and weight bytes, not its bases.
    The weights are copied here and nowhere else, so the setting holds its
    own copy of any array, a read-only view included.
    """

    directions: tuple
    weights: np.ndarray
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    rows_conj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dirs = _entries(self.directions, Direction, "a setting's directions")
        n = pauli.qubit_count(len(dirs), "a setting")
        w = real_array(self.weights, "weights").copy()
        if w.shape != (2,) * n:
            raise ValueError(f"weights must have shape {(2,) * n}")
        u = _product_basis(dirs)
        rows = np.ascontiguousarray(u.T)
        for name, held in (("directions", dirs), ("weights", w), ("basis", u),
                           ("rows", rows), ("rows_conj", rows.conj())):
            self._hold(name, held)

    @property
    def n_parties(self) -> int:
        return len(self.directions)


def setting(direction_vectors, weights) -> MeasurementSetting:
    """Build a MeasurementSetting from raw direction vectors and weights.

    A raw vector is canonicalized once, as :func:`direction` does (a flip
    relabels its party's outcomes); a Direction is taken as is, and
    ``direction_vectors`` that is no sequence raises ``ValueError``.  The
    weights, read by :func:`rng.real_array` and reshaped to one entry per
    outcome, go on as a flipped view, and the setting makes their one copy."""
    vecs = sequence(direction_vectors, "a setting's direction vectors")
    w = real_array(weights, "weights").reshape((2,) * len(vecs))
    made = [_direction(vec) for vec in vecs]
    flipped = tuple(p for p, (_, flip) in enumerate(made) if flip)
    return MeasurementSetting(tuple(d for d, _ in made),
                              np.flip(w, axis=flipped) if flipped else w)


def setting_operator(s: MeasurementSetting) -> np.ndarray:
    """Weighted sum of product eigenprojectors; commutes with every n . sigma."""
    u = s.basis
    return (u * s.weights.ravel()) @ u.conj().T


def _masks(n):
    """The 2^n identity/direction masks as rows of booleans, party A first."""
    return (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(bool)


def _mask_signs(masks) -> np.ndarray:
    """Signed-mask table of 0/1 masks (r, n): row j holds (-1)^|m_j & b| for
    every outcome bitstring b of n parties, party A most significant."""
    masks = np.asarray(masks, dtype=np.int64)
    return np.where(masks @ _masks(masks.shape[1]).T & 1, -1.0, 1.0)


def _mask_sums(coeffs, signs) -> np.ndarray:
    """Rows ``sum_j coeffs[s, j] * signs[j]``, the terms added to 0.0 one mask
    at a time, in order, as a loop over bitstrings adds them, so each weight
    keeps that loop's bits (a zero coefficient adds a signed zero, which
    changes no sum; a Hadamard matmul would reorder the sums)."""
    w = np.zeros((len(coeffs), signs.shape[1]))
    for j, row in enumerate(signs):
        w += coeffs[:, j, None] * row
    return w


def weights_from_masks(n_parties: int, mask_terms: dict) -> np.ndarray:
    """Outcome weights realizing ``sum_m g_m * prod_{p in m} (n_p . sigma)``.

    ``mask_terms`` is a dict mapping 0/1 tuples of length ``n_parties``
    (which parties carry the direction operator rather than identity) to
    real coefficients (:func:`rng.real_array`); anything else raises ``ValueError``.
    """
    if not isinstance(mask_terms, dict):
        raise ValueError(f"mask terms must be a dict, got {type(mask_terms).__name__}")
    masks = list(mask_terms)
    for m in masks:
        if not isinstance(m, tuple) or len(m) != n_parties or any(b not in (0, 1) for b in m):
            raise ValueError(f"a mask is {n_parties} entries of 0 or 1, got {m!r}")
    signs = _mask_signs(np.reshape(masks, (len(masks), n_parties)))
    coeffs = real_array(list(mask_terms.values()), "mask coefficients")
    if coeffs.shape != (len(masks),):  # an array given as one coefficient
        raise ValueError(f"a mask coefficient is a real number, got shape {coeffs.shape}")
    return _mask_sums(coeffs[None], signs).reshape((2,) * n_parties)


@dataclass(frozen=True, eq=False)
class LocalDecomposition(linalg.FrozenValue):
    """A nonempty tuple of ``MeasurementSetting`` values on one party count
    (else ``ValueError``), reconstructing a target operator: a frozen value
    (``linalg.FrozenValue``).  ``residual`` is computed here, never passed:
    :func:`verify_decomposition` against ``target`` when one is given, NaN
    without, and it is ``verified`` below ``tol``: ``VERIFY_TOL``, or a
    search's own tolerance (see :func:`decomposition_from_json_dict`)."""

    target_label: str
    settings: tuple
    tol: float = VERIFY_TOL
    target: InitVar[object] = None
    residual: float = field(init=False)

    def __post_init__(self, target):
        setts = _entries(self.settings, MeasurementSetting, "a decomposition's settings")
        if not setts:
            raise ValueError("a decomposition needs at least one setting")
        if len({s.n_parties for s in setts}) > 1:
            raise ValueError("settings act on different numbers of parties")
        self._hold("settings", setts)
        self._hold("residual", math.nan if target is None else verify_decomposition(self, target))

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def n_projectors(self) -> int:
        """Number of weighted product projectors across all settings."""
        return int(sum(np.count_nonzero(np.abs(s.weights) > 1e-12)
                       for s in self.settings))

    def operator(self) -> np.ndarray:
        return sum(setting_operator(s) for s in self.settings)

    @property
    def verified(self) -> bool:
        return self.residual < self.tol  # False for a NaN residual


def _as_decomposition(dec) -> LocalDecomposition:
    """``dec`` itself if it is a ``LocalDecomposition``, else ``ValueError``."""
    if not isinstance(dec, LocalDecomposition):
        raise ValueError(f"expected a LocalDecomposition, got {type(dec).__name__}")
    return dec


def verify_decomposition(dec: LocalDecomposition, target) -> float:
    """Frobenius distance between the summed settings and the target, read
    through ``witnesses.as_operator``; the decomposition, a
    ``LocalDecomposition`` (else ``ValueError``), is only read."""
    op = _as_decomposition(dec).operator()
    t = witnesses.as_operator(target)
    if op.shape != t.shape:
        raise ValueError(f"decomposition acts on dimension {op.shape[0]}, "
                         f"target on {t.shape[0]}")
    return float(np.linalg.norm(op - t))


# --- catalog decompositions -------------------------------------------------

def _anton(alpha: float | None = None,
           beta: float | None = None) -> LocalDecomposition:
    # at exactly W0_ANGLES, the default, the decomposition built at import
    alpha = W0_ANGLES[0] if alpha is None else real_number(alpha, "alpha")
    beta = W0_ANGLES[1] if beta is None else real_number(beta, "beta")
    if (alpha, beta) == W0_ANGLES:
        return _W0
    return _anton_at(alpha, beta)


def _anton_at(alpha: float, beta: float) -> LocalDecomposition:
    # three paired axis settings: zz carries the diagonal part, xx and yy
    # together reproduce the |01><10| + |10><01| coherence
    target = witnesses.witness_phi(alpha, beta)  # checks finite and unit
    at_w0 = max(abs(alpha - W0_ANGLES[0]), abs(beta - W0_ANGLES[1])) < 1e-12
    label = "w0" if at_w0 else f"phi({alpha:g},{beta:g})"
    ab = alpha * beta
    setts = [setting([_Z, _Z], np.diag([alpha ** 2, beta ** 2])),
             setting([_X, _X], np.diag([ab, ab])),
             setting([_Y, _Y], np.array([[0.0, -ab], [-ab, 0.0]]))]
    return LocalDecomposition(label, [s for s in setts if np.abs(s.weights).max() > 1e-15],
                              target=target)


def _ghz_settings(identity_weight: float):
    """ghz's four settings, with ``identity_weight`` on the zzz setting's identity."""
    diag = weights_from_masks(3, {(1, 1, 1): math.sqrt(2.0) / 8.0})
    return [setting([_Z] * 3, weights_from_masks(3, {
                (0, 0, 0): identity_weight,
                (0, 1, 1): -1.0 / 8.0, (1, 0, 1): -1.0 / 8.0, (1, 1, 0): -1.0 / 8.0})),
            setting([_X] * 3, weights_from_masks(3, {(1, 1, 1): -2.0 / 8.0})),
            setting([_D_PLUS] * 3, diag), setting([_D_MINUS] * 3, diag)]


def _w1_settings():
    """w1's zzz setting and its tilts (z + x, z - x, z + y, z - y)/sqrt2, each
    weighing -(1 + sqrt2 s_A)(1 + sqrt2 s_B)(1 + sqrt2 s_C) / 24 for outcome
    signs s (setting() relabels the outcomes of a tilt it flips)."""
    t = 1.0 + math.sqrt(2.0) * np.array([1.0, -1.0])
    tilt = -(1.0 / 24.0) * t[:, None, None] * t[:, None] * t
    x, y, z = AXES.values()
    return [setting([_Z] * 3, weights_from_masks(3, {
                (0, 0, 0): 17.0 / 24.0, (1, 1, 1): 7.0 / 24.0,
                (1, 0, 0): 3.0 / 24.0, (0, 1, 0): 3.0 / 24.0, (0, 0, 1): 3.0 / 24.0,
                (1, 1, 0): 5.0 / 24.0, (1, 0, 1): 5.0 / 24.0, (0, 1, 1): 5.0 / 24.0})),
            *(setting([v / math.sqrt(2.0)] * 3, tilt) for v in (z + x, z - x, z + y, z - y))]


# the parameter-free decompositions, each built and verified once
_W0 = _anton_at(*W0_ANGLES)
_GHZ = LocalDecomposition("ghz", _ghz_settings(5.0 / 8.0), target=witnesses.witness_ghz())
# w2: ghz's four settings with the identity weight lowered by 1/4
_W2 = LocalDecomposition("w2", _ghz_settings(5.0 / 8.0 - 0.25), target=witnesses.witness_w2())
_W1 = LocalDecomposition("w1", _w1_settings(), target=witnesses.witness_w1())


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
    weight = (alpha + beta) ** 2 / 3.0
    setts = []
    for vec in ([-cs, -root3 * cs, cz], [-cs, root3 * cs, cz], [2.0 * cs, 0.0, cz]):
        # one canonical direction for both parties; a flip relabels each
        # party's + outcome as -, which moves the weight to outcome (1, 1)
        d, flip = _direction(vec)
        w = np.zeros((2, 2))
        w[(1, 1) if flip else (0, 0)] = weight
        setts.append(setting([d, d], w))
    setts.append(setting([_Z, _Z], [[0.0, -alpha * beta], [-alpha * beta, 0.0]]))
    return LocalDecomposition(f"phi({alpha:g},{beta:g})", setts, target=target)


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
    "ghz": CatalogEntry(lambda a, b: witnesses.witness_ghz(), {"ghz": lambda a, b: _GHZ},
                        lambda a, b: "ghz"),
    "w1": CatalogEntry(lambda a, b: witnesses.witness_w1(), {"w1": lambda a, b: _W1},
                       lambda a, b: "w"),
    "w2": CatalogEntry(lambda a, b: witnesses.witness_w2(), {"w2": lambda a, b: _W2},
                       lambda a, b: "ghz"),
}


def catalog_decomposition(name: str, alpha: float | None = None,
                          beta: float | None = None) -> LocalDecomposition:
    """Curated decompositions by name: anton, ghz, w1, w2, sanpera5.

    The names are the decomposition keys of :data:`REGISTRY`.  ``anton``
    (three axis settings) and ``sanpera5`` (five product projectors in
    four settings) take Schmidt parameters and default to the w0 witness
    angles ``alpha = -beta = 1/sqrt(2)`` and to ``alpha = beta =
    1/sqrt(2)`` respectively; each call builds and verifies them, except
    ``anton`` at exactly ``W0_ANGLES`` (given or defaulted), which is w0's
    decomposition.  It, ghz, w1 and w2 take no parameters: each is one
    decomposition, built and verified once, at import, and every call
    returns that same object.  Angles merely within 1e-12 of w0's are
    built per call, though labelled ``"w0"`` too.  A decomposition is an
    immutable value (:class:`LocalDecomposition`), so sharing it is safe.
    An unknown name, or one that is not a ``str``, raises ``KeyError``.
    """
    for entry in REGISTRY.values():
        if isinstance(name, str) and name in entry.decompositions:
            return entry.decompositions[name](alpha, beta)
    names = sorted({n for entry in REGISTRY.values() for n in entry.decompositions})
    raise KeyError(f"unknown decomposition {name!r}; pick one of {names}")


# --- grouping fixed Pauli terms into settings --------------------------------

def _axis_index(d: Direction) -> int:
    """1, 2 or 3 for the axis x, y or z a direction lies on, else 0."""
    big = [i for i, x in enumerate(d.components, start=1) if abs(x) > 1e-12]
    return big[0] if len(big) == 1 else 0


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
    # each element's covering sets, in index order, found once
    covers = {e: [j for j, s in enumerate(cover_sets) if e in s] for e in universe}

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
        elem = min(sorted(rem), key=lambda e: len(covers[e]))
        options = list(covers[elem])
        options.sort(key=lambda j: -len(cover_sets[j] & rem))
        for j in options:
            dfs(covered | cover_sets[j], chosen + [j])

    dfs(frozenset(), [])
    return best


def group_pauli_terms(c, candidates, exact: bool = True) -> LocalDecomposition:
    """Cover the fixed Pauli support of a target operator, read through
    ``witnesses.as_coefficients``, with candidate settings.

    ``candidates`` lists, per party, the admissible measurement
    directions, raw vectors or Directions (a sequence of sequences, else
    ``ValueError``); a raw vector becomes its
    Direction as in :func:`direction`, and a party's equal Directions count
    once, first listed first.  A candidate lies on axis x, y or z when its
    other two canonical components are at most 1e-12 in size (the axis
    component is then +1), else on none.  A setting covers a term when each
    factor is the identity or that party's axis, so a near-axis candidate
    covers only terms with the identity on its party.  The minimum cover is
    found exactly (``exact=False``: greedily).  Coefficients cannot be
    recombined across directions, so the count upper-bounds the true
    minimal setting count without necessarily reaching it.
    """
    c = witnesses.as_coefficients(c)
    n = c.n_qubits
    candidates = [sequence(cands, "a party's candidates")
                  for cands in sequence(candidates, "candidates")]
    if len(candidates) != n:
        raise ValueError(f"need one candidate list per party ({n} parties)")
    # per party: each distinct candidate Direction and its axis index
    axis_of = [{d: _axis_index(d) for d, _ in map(_direction, cands)} for cands in candidates]
    support = c.support()
    if not support:
        raise ValueError("operator has empty Pauli support")
    # per party and axis index, the terms with the identity or that axis there
    fits = [{a: frozenset(t for t in support if t[p] in (0, a)) for a in set(dirs.values())}
            for p, dirs in enumerate(axis_of)]
    combos, cover_sets = [], []
    for combo in itertools.product(*(dirs.items() for dirs in axis_of)):
        covered = frozenset.intersection(*(fits[p][a] for p, (_, a) in enumerate(combo)))
        if covered:
            combos.append(tuple(d for d, _ in combo))
            cover_sets.append(covered)
    universe = frozenset(support)
    missing = universe.difference(*cover_sets)
    if missing:
        raise ValueError(f"term {pauli.index_string(min(missing))} is not "
                         f"coverable by the candidate directions")
    setts, left = [], universe
    for j in (_exact_min_cover if exact else _greedy_cover)(cover_sets, universe):
        # a term goes to the first chosen setting that covers it; there its
        # mask is unique and its factors are +e_i, so its weight is c[t]
        mine, left = left & cover_sets[j], left - cover_sets[j]
        weights = {tuple(int(i > 0) for i in t): float(c.coeffs[t])
                   for t in support if t in mine}
        setts.append(MeasurementSetting(combos[j], weights_from_masks(n, weights)))
    return LocalDecomposition("cover", setts, target=c)


# --- randomized search for few-setting decompositions ------------------------

# The weight solve drops a mask Gram's eigenvalues below WEIGHT_RCOND of
# its largest: rounding in the Gram (~1e-16 of the largest) then moves the
# weights by at most ~1e-8, so summation order cannot steer a restart.
WEIGHT_RCOND = 1e-8
GN_MAX_STEPS = 292  # Gauss-Newton steps after the weight solve, at most
# The finish stops once GN_STALL_STEPS accepted steps cut the residual by
# less than GN_STALL_FACTOR: a swamp gives way faster, a plateau does not.
# A patient rule wins what only drawn directions find: 40 sums of five
# generic settings (no algebraic start) at k = 5 and 4 restarts solved 20
# with it, and 5 with 3 steps at factor 1.2.
GN_STALL_STEPS = 4
GN_STALL_FACTOR = 1.05
# The finish also stops once the settings' spread, the sum of their models'
# norms, exceeds GN_SPREAD times the target's norm: the residual of an
# infeasible budget then falls only as the settings grow and cancel (a
# border-rank limit), and settings that cancel are useless to measure with,
# their shot noise growing with their size.  No decomposition found on the
# benchmark's design blocks 0-127 spreads beyond 15 times its target.
GN_SPREAD = 50.0
# Marquardt damping: start, shrink and growth factors, floor, and the
# runaway level at which no step can lower the residual any more
LM_DAMPING = 1e-2
LM_SHRINK = 3.0
LM_GROW = 4.0
LM_FLOOR = 1e-10
LM_RUNAWAY = 1e2


@dataclass(frozen=True)
class SearchResult:
    decomposition: LocalDecomposition | None
    residual: float
    restarts_used: int

    @property
    def success(self) -> bool:
        return self.decomposition is not None


def _min_norm_solve(gram, rhs):
    """Minimum-norm solutions of a stack of PSD systems ``gram[m] x = rhs[m]``.

    Eigenvalues below ``WEIGHT_RCOND`` times a Gram's largest count as
    zero, so weights in a singular Gram's null space are zero instead of
    rounding amplified by a ridge.
    """
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > WEIGHT_RCOND * vals[..., -1:]
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
    coef = inv * np.einsum("mts,mt->ms", vecs, rhs)
    return np.einsum("mst,mt->ms", vecs, coef)


def _algebraic_start(c: pauli.PauliCoefficients, max_settings: int):
    """Directions (m, 3, 3) of m settings of a three-qubit target, read off
    its AB|C slice span of dimension d, or None.

    Setting s adds a_s b_s^T times (g_s, g'_s c_s) to the four AB|C slices,
    g_s and g'_s its AB and ABC weights.  The rank-one elements E_s are
    those of :func:`certify.first_draw_elements`, which states when there
    are none: the SVD factors of a real one, three settings for a complex
    one (:func:`_real_rank_block`) and, when one real element is all a
    four-dimensional span holds, four more from its tangent space
    (:func:`_tangent_block`).  One least-squares solve then
    fits every slice k as the sum of gamma[s, k] E_s, so that c_s is
    gamma[s, 1:] normalized.  A setting without an ABC term (gamma[s, 1:]
    = 0) takes the dominant direction of a_s and b_s contracted with the
    AC and BC terms instead, and NaN when these are zero too; the restart
    keeps its own draw for NaN entries.  None also when the pair's or the
    tangent's block has no settings, the slices are below ``certify``'s
    resolution (zero, as ``lower_bound`` counts them) or the target is not
    three-qubit.
    """
    if c.n_qubits != 3:
        return None
    fam = certify._slices(c, "AB|C")
    drawn = certify.first_draw_elements(fam, max_settings)
    if drawn is None:
        return None
    elements, rest = drawn
    u, _, vt = np.linalg.svd(elements)
    a_dirs, b_dirs = u[:, :, 0], vt[:, 0]
    if rest is not None:
        if np.iscomplexobj(rest):
            block = _real_rank_block(rest)
        else:  # the block holds the lone element's factors too, sharpened
            block = _tangent_block(a_dirs[0], b_dirs[0], rest)
            a_dirs, b_dirs = a_dirs[:0], b_dirs[:0]
        if block is None:
            return None
        a_dirs = np.concatenate([a_dirs, block[0]])
        b_dirs = np.concatenate([b_dirs, block[1]])
        elements = a_dirs[:, :, None] * b_dirs[:, None, :]
    gamma = np.linalg.lstsq(elements.reshape(len(a_dirs), 9).T,
                            fam.reshape(4, 9).T, rcond=None)[0]
    c_norm = np.linalg.norm(gamma[:, 1:], axis=1, keepdims=True)
    seen = c_norm > 1e-8 * np.linalg.norm(gamma, axis=1, keepdims=True)
    c_dirs = np.divide(gamma[:, 1:], c_norm, out=np.full((len(gamma), 3), np.nan),
                       where=seen)
    for s in np.flatnonzero(~seen[:, 0]):
        # no ABC term: c_s shows only in the AC and BC terms, along a_s and b_s
        _, sv, rows = np.linalg.svd(np.stack([a_dirs[s] @ c.coeffs[1:, 0, 1:],
                                              b_dirs[s] @ c.coeffs[0, 1:, 1:]]))
        if sv[0] > 1e-8 * np.linalg.norm(c.coeffs):
            c_dirs[s] = rows[0]
    return np.stack([a_dirs, b_dirs, c_dirs], axis=1)


def _real_rank_block(e: np.ndarray):
    """A and B directions (3, 3) each of three real rank-one matrices whose
    span holds the real and imaginary parts of the unit-norm complex
    rank-one 3x3 matrix ``e`` = a b^T, or None if the matrix N below is
    singular.

    Re e and Im e lie in the 2x2 block P M Q^T, P and Q orthonormal bases
    of span{Re a, Im a} and span{Re b, Im b}.  Inside it they are
    orthogonal to some 2x2 matrix N, and so is x y^T whenever x^T N y = 0;
    x = e1, e2 and (e1 + e2)/sqrt(2) give three such matrices, independent
    when N is invertible.
    """
    p = np.linalg.svd(np.hstack([e.real, e.imag]))[0][:, :2]
    q = np.linalg.svd(np.vstack([e.real, e.imag]))[2][:2].T
    parts = np.stack([p.T @ e.real @ q, p.T @ e.imag @ q]).reshape(2, 4)
    n = np.linalg.svd(parts)[2][-1].reshape(2, 2)
    if abs(np.linalg.det(n)) < 1e-8:
        return None
    xs = np.array([[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    ys = (xs @ n)[:, ::-1] * [-1.0, 1.0]
    b_dirs = ys @ q.T
    return xs @ p.T, b_dirs / np.linalg.norm(b_dirs, axis=1, keepdims=True)


def _tangent_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tangent map (u, v) -> u b^T + a v^T at e = a b^T, flattened: 9 x 6."""
    return np.hstack([np.kron(np.eye(3), b[:, None]), np.kron(a[:, None], np.eye(3))])


# the tangent map is linear in (a, b): its values at the unit vectors of R^6
_TANGENT_LIFT = linalg.read_only(np.stack([_tangent_map(x[:3], x[3:]) for x in np.eye(6)]))


def _tangent_block(a: np.ndarray, b: np.ndarray, span: np.ndarray):
    """A and B directions (5, 3) each of e = a b^T and four more real
    rank-one matrices, spanning a five-dimensional space that holds the
    orthonormal ``span`` (4, 3, 3) whose one rank-one element is about e,
    or None.

    The span meets e's tangent space in e and two more elements t_j = u_j
    b^T + a v_j^T exactly when the tangent map's image in the span's
    complement has rank 2; two Gauss-Newton steps on that condition,
    linear in (a, b), sharpen e from its polish to rounding.  Modulo e and
    the t_j, from one null-space SVD, the span's rest f must be sum_jk
    sigma_jk u_j v_k^T, sigma symmetric and definite (f's sign is free):
    the second-order terms of the curves (a + eps u)(b + eps v)^T.  Along
    the eigenvectors s_i of sigma, u^(i) = sum_j s_ij u_j and v^(i)
    likewise, the matrices (a +- eps_i u^(i))(b +- eps_i v^(i))^T, eps_i =
    1/|u^(i)|, and e span e, the t_j and the u^(i) v^(i)^T, so the span.
    None when the meet is not three-dimensional at a gap of 1e-4, or when
    sigma misses f by 1e-4 or is indefinite.
    """
    flat = span.reshape(4, 9)
    lift = np.linalg.svd(flat)[2][4:] @ _TANGENT_LIFT  # (6, 5, 6)
    x = np.concatenate([a, b])
    for _ in range(2):
        left, _, right = np.linalg.svd(np.tensordot(x, lift, axes=1))
        jac = (left[:, 2:].T @ lift @ right[2:].T).reshape(6, 12)
        x = x - np.linalg.lstsq(jac.T, jac.T @ x, rcond=None)[0]
    p, _, q = np.linalg.svd(np.outer(x[:3], x[3:]))
    a, b = p[:, 0], q[0]
    tangent = _tangent_map(a, b)  # columns: e, u along p[:, 1:], v along q[1:]
    _, sv, null = np.linalg.svd(np.hstack([flat.T, tangent[:, :3] @ p, tangent[:, 3:] @ q[1:].T]))
    if not sv[6] < 1e-4 < sv[5]:
        return None
    null = null[6:]
    f = np.linalg.svd(null[:, :4])[2][3] @ flat
    coords = np.linalg.svd(null[:, 5:])[2][:2]
    u, v = coords[:, :2] @ p[:, 1:].T, coords[:, 2:] @ q[1:]
    uv = (u[:, None, :, None] * v[None, :, None, :]).reshape(2, 2, 9)  # the u_j v_k^T
    cols = np.concatenate([[uv[0, 0], uv[0, 1] + uv[1, 0], uv[1, 1]], null[:, :4] @ flat])
    fit = np.linalg.lstsq(cols.T, f, rcond=None)[0]  # sigma's entries, then e's and t_j's
    lam, s = np.linalg.eigh([[fit[0], fit[1]], [fit[1], fit[2]]])
    if np.linalg.norm(fit @ cols - f) > 1e-4 or lam[0] * lam[1] < 0.0:
        return None
    ui, vi = s.T @ u, s.T @ v
    eps = 1.0 / np.linalg.norm(ui, axis=1, keepdims=True)
    a_dirs = np.concatenate([[a], a + eps * ui, a - eps * ui])
    b_dirs = np.concatenate([[b], b + eps * vi, b - eps * vi])
    return (a_dirs / np.linalg.norm(a_dirs, axis=1, keepdims=True),
            b_dirs / np.linalg.norm(b_dirs, axis=1, keepdims=True))


def _lift_tables(n):
    """Per flat Pauli index P of n parties: the flat index of bits(P) and,
    counting parties p from 0, the slot 3 p + P_p - 1 of d_sp[P_p - 1] in
    a setting's direction block, -1 where P_p = 0 (shapes (4^n,) and (n,
    4^n))."""
    digits = np.array(np.unravel_index(np.arange(4 ** n), (4,) * n))
    mask_of = np.ravel_multi_index(np.minimum(digits, 1), (2,) * n)
    parties = np.arange(n)[:, None]
    return mask_of, np.where(digits > 0, 3 * parties + digits - 1, -1)


def _search_plan(n):
    """What every restart on n qubits reads: the masks (2^n, n), their
    signed-mask table (2^n, 2^n), the einsum of the weight solve's
    right-hand sides and :func:`_lift_tables`, every array read-only."""
    pauli_idx, bit_idx = "abcdefgh"[:n], "ijklmnop"[:n]  # einsum letters per party
    lifts = ",".join(f"s{a}{b}" for a, b in zip(pauli_idx, bit_idx))
    masks = _masks(n)
    return (linalg.read_only(masks), linalg.read_only(_mask_signs(masks)),
            f"{pauli_idx},{lifts}->s{bit_idx}",
            tuple(linalg.read_only(t) for t in _lift_tables(n)))


# the plan of every qubit count the search takes, built at import and shared
_SEARCH_PLANS = {n: _search_plan(n) for n in range(1, pauli.MAX_QUBITS + 1)}


def _als_restart(target, n, k, rng, tol, start=None):
    """One whole restart on the Pauli-coefficient tensor ``target``, shape (4,)*n.

    Draws k settings' directions from ``rng`` as one Gaussian block (k, n,
    3), each party's vector normalized; a ``start`` of shape (d, n, 3), d <=
    k, then replaces the first d of them wherever it is not NaN.  Setting s
    is a weight core ``core[s]`` of shape (2,)*n, entry m weighing the
    product of the direction operators of the parties set in mask m.  One
    batched minimum-norm least-squares solve gives every mask's weights for
    these directions, its right-hand sides an einsum of ``target`` with each
    party's lift (4 x 2, columns e0 and (0, d_sp)); masks and subscripts
    come from the plan (``_SEARCH_PLANS``).  The directions and weights
    then go to :func:`_gn_finish`, which evaluates them once and hands them
    back untouched when their residual is already below ``tol``.  Returns
    the residual, the directions (k, n, 3) and the cores (k, 2, ..., 2).
    """
    target = np.asarray(target, dtype=float)
    masks, _, rhs_expr, _ = _SEARCH_PLANS[n]
    lift = np.zeros((k, n, 4, 2))
    lift[:, :, 0, 0] = 1.0
    dirs = lift[:, :, 1:, 1]  # a view: writing a direction updates its lift
    drawn = rng.standard_normal((k, n, 3))
    dirs[...] = drawn / np.linalg.norm(drawn, axis=-1, keepdims=True)
    if start is not None:
        np.copyto(dirs[:len(start)], start, where=~np.isnan(start))
    # a mask's Gram matrix is the Hadamard product of its parties' direction Grams
    party_gram = np.einsum("spi,tpi->pst", dirs, dirs)
    gram = np.where(masks[:, :, None, None], party_gram, 1.0).prod(axis=1)
    rhs = np.einsum(rhs_expr, target, *lift.transpose(1, 0, 2, 3))
    core = _min_norm_solve(gram, rhs.reshape(k, -1).T).T.reshape((k,) + (2,) * n)
    return _gn_finish(target, n, dirs, core, tol)


def _factor_index(tables, k):
    """The row table (n + 2, k, 4^n) of where the factors of k settings'
    product terms sit in the finish's flat vector, which also places their
    derivatives in its Jacobian buffer.

    The vector holds the directions (k, n, 3), then the cores (k, 2^n),
    then a constant 1 at m = k (3 n + 2^n).  For term P of setting s,
    row 0 and row n + 1 hold the place of core entry bits(P), and row
    p = 1, ..., n that of party p's factor v_sp[P_p]: d_sp[P_p - 1], or
    the constant where P_p = 0.  The first n + 1 rows are ``index``, which
    :func:`_products` reads the factors by.  The table comes from the
    plan's ``tables`` (:func:`_lift_tables`) and is built per restart,
    since it depends on k.  A parameter's place is also its row in the
    Jacobian, and the constant's is the buffer's scratch row, so ``at``,
    the last n + 1 rows (row n the core entry's) times 4^n plus P, is the
    flat place of each derivative that :func:`_setting_jacobian` computes.
    """
    mask_of, slot = tables
    n, size = slot.shape
    m = k * (3 * n + 2 ** n)
    s = np.arange(k)[:, None]
    rows = np.empty((n + 2, k, size), dtype=np.intp)  # the core entry's row twice
    rows[0] = rows[-1] = 3 * n * k + 2 ** n * s + mask_of
    rows[1:-1] = np.where(slot[:, None] < 0, m, slot[:, None] + 3 * n * s)
    return rows


def _products(x, index):
    """The factors (n + 1, k, 4^n) that ``index`` (the first n + 1 rows of
    :func:`_factor_index`) reads from the flat vector ``x``, core entry
    first, and their prefix products: row p the core entry times the
    factors of parties 1, ..., p, so that row n holds the models,
    multiplied core entry first, then the parties, in the order of the
    lift/core einsums they replace."""
    factors = x.take(index)
    products = factors.copy()
    for p in range(1, len(index)):
        products[p] *= products[p - 1]
    return factors, products


def _setting_jacobian(factors, products, at, out):
    """Scatter the Jacobian of the summed models into the buffer ``out``,
    rows the parameters of the flat vector (and a last, scratch row for
    the constant 1), columns the flat Pauli indices; every other entry of
    ``out`` stays as it was, zero in the finish's buffer.

    The derivative of a product term in one of its factors is the product
    of the others, in the models' order, computed from :func:`_products`'
    arrays in place of ``products``: row p - 1 holds the derivative in
    party p's factor, the prefix product of the core entry and parties
    1, ..., p - 1 times the factors of parties p + 1, ..., n, and row n
    the derivative in the core entry, the product of the party factors.
    ``at`` (from :func:`_factor_index`) holds each value's flat place in
    ``out``: the row of the factor it leaves out, whose parameter shows in
    that term alone, and the column of its term; the constant's go to the
    scratch row.  As in the finish's models, + 0.0 turns -0.0 into +0.0,
    as an einsum's sum does.
    """
    n = len(factors) - 1
    for q in range(1, n):
        products[:q] *= factors[q + 1]  # derivatives in parties 1..q take factor q + 1
    np.multiply.reduce(factors[1:], out=products[n])
    products += 0.0
    np.put(out, at, products)


def _gn_finish(target, n, dirs, core, tol):
    """Damped Gauss-Newton (Levenberg-Marquardt) finish of one restart, and
    the one evaluation of its weight solve.

    Fits the unnormalized directions (k, n, 3) and the weight cores (k, 2,
    ..., 2) together, from the drawn directions and solved weights of
    :func:`_als_restart`.  When their residual is already below ``tol``,
    this returns it with ``dirs`` and ``core`` themselves, before any step
    or Jacobian buffer.  Entry P of setting s's model is the single term
    ``core[s, bits(P)] * prod_p v_sp[P_p]``, ``bits(P)_p = [P_p > 0]`` and
    ``v_sp = (1, d_sp)``, multiplied core first, then the parties, in the
    order of the lift/core einsums this kernel replaces, so with their
    bytes.  The parameters stay one flat vector for the whole finish,
    directions then cores, ending in a constant 1, and a trial is that
    vector plus the step, written into a second one.  The restart's row
    table (:func:`_factor_index`) reads every term's factors out of it in
    one take (:func:`_products`), and, once the weight solve misses
    ``tol``, places their derivatives in one Jacobian buffer per restart
    (:func:`_setting_jacobian`), whose zeros are written once.  Each step
    solves the normal equations, damped on their diagonal in one reused
    buffer, with Marquardt's damping, which shrinks after an accepted step
    and grows after a rejected one.  Stops below ``tol``, after ``GN_MAX_STEPS`` steps (accepted or not), when the
    damping runs away, when ``GN_STALL_STEPS`` accepted steps cut the
    residual by less than ``GN_STALL_FACTOR``, or when an accepted step
    spreads the settings (the sum of the norms of their flat Pauli models)
    beyond ``GN_SPREAD`` times the target's norm.  Returns the residual,
    the unit directions (a zero direction stays zero) and the cores with
    the direction norms folded in.
    """
    target = np.asarray(target, dtype=float).ravel()
    k, n_dir, size = len(dirs), dirs.size, target.size
    m = n_dir + core.size
    masks, _, _, tables = _SEARCH_PLANS[n]
    rows = _factor_index(tables, k)
    index = rows[:-1]
    x, trial = np.ones((2, m + 1))  # the accepted point and the trial
    x[:n_dir], x[n_dir:m] = dirs.ravel(), core.ravel()

    def evaluate(x):
        factors, products = _products(x, index)
        models = products[n] + 0.0  # an einsum's sum turns -0.0 into +0.0
        r = target - models.sum(axis=0)
        return models, factors, products, r, float(r @ r)

    _, factors, products, r, cost = evaluate(x)
    res = math.sqrt(2.0 ** n * cost)  # the operator's Frobenius norm
    if res < tol:  # the weight solve already fits
        return res, dirs, core
    at = rows[1:] * size + np.arange(size)
    jac_rows = np.zeros((m + 1, size))
    jac = jac_rows[:m]
    lhs = np.empty((m, m))
    lhs_diag = lhs.reshape(-1)[::m + 1]  # a writable view of the diagonal
    tol_cost = tol * tol / 2.0 ** n
    max_spread = GN_SPREAD * math.sqrt(target @ target)
    damping = LM_DAMPING
    accepted = [cost]
    fresh = True
    for _ in range(GN_MAX_STEPS):
        if cost < tol_cost:
            break
        if fresh:
            _setting_jacobian(factors, products, at, jac_rows)
            np.matmul(jac, jac.T, out=lhs)
            grad = jac @ r
            hess_diag = lhs_diag.copy()
            diag = np.maximum(hess_diag, LM_FLOOR * hess_diag.max())
        np.add(hess_diag, damping * diag, out=lhs_diag)
        np.add(x[:m], np.linalg.solve(lhs, grad), out=trial[:m])
        models, trial_factors, trial_products, trial_r, trial_cost = evaluate(trial)
        fresh = trial_cost < cost
        if not fresh:
            damping *= LM_GROW
            if damping > LM_RUNAWAY:
                break
            continue
        x, trial = trial, x
        factors, products, r, cost = trial_factors, trial_products, trial_r, trial_cost
        damping = max(damping / LM_SHRINK, LM_FLOOR)
        accepted.append(cost)
        if (len(accepted) > GN_STALL_STEPS
                and accepted[-1 - GN_STALL_STEPS] < GN_STALL_FACTOR ** 2 * cost):
            break
        if sum(map(math.sqrt, (models * models).sum(axis=1).tolist())) > max_spread:
            break
    d, g = x[:n_dir].reshape(dirs.shape), x[n_dir:m].reshape(core.shape)
    norms = np.sqrt((d * d).sum(axis=-1))
    # a zero direction adds nothing on the masks with its party, whatever
    # their weights, so a norm of 1 keeps it zero and the model unchanged
    norms[norms == 0.0] = 1.0
    fold = np.where(masks[None], norms[:, None, :], 1.0).prod(axis=-1)
    d = d / norms[..., None]
    g = g * fold.reshape(g.shape)
    x[:n_dir], x[n_dir:m] = d.ravel(), g.ravel()
    return math.sqrt(2.0 ** n * evaluate(x)[-1]), d, g


def _assemble(n, dirs, core):
    """The settings of a search result, dropping weights at rounding level:
    one pass over the plan's signed-mask table turns every setting's kept
    core entries into weights, in :func:`weights_from_masks`'s order."""
    g = core.reshape(len(core), -1)
    kept = np.where(np.abs(g) > 1e-13 * max(1.0, float(np.abs(g).max())), g, 0.0)
    weights = _mask_sums(kept, _SEARCH_PLANS[n][1])
    return [setting(d, w) for d, w, used in zip(dirs, weights, kept.any(axis=1)) if used]


def decomposition_search(c, max_settings: int, restarts: int = 200, seed: int = 0,
                         tol: float = SEARCH_TOL) -> SearchResult:
    """Randomized search: minimum-norm weights for drawn directions, then a
    damped Gauss-Newton finish over directions and weights together, for a
    target operator read through ``witnesses.as_coefficients``.

    Restart r draws its directions, one Gaussian unit vector per setting and
    party, from substream ``(seed, r)``; for three qubits restart 0 first
    takes those read off the AB|C slice span (:func:`_algebraic_start`: d
    settings for a real pencil, d + 1 with a complex pair, five from the
    tangent space of a four-dimensional span's one element) when they exist.
    A restart (:func:`_als_restart`) solves every mask's weights for these
    directions in one batched minimum-norm solve and hands them to the
    Levenberg-Marquardt finish :func:`_gn_finish`, which, when their
    residual is still at or above ``tol``, runs at most ``GN_MAX_STEPS`` =
    292 steps that fit both together and stops once ``GN_STALL_STEPS`` = 4
    accepted steps cut the residual by less than ``GN_STALL_FACTOR`` =
    1.05, or once the settings' models add up to more than ``GN_SPREAD`` =
    50 times the target's norm: settings that large cancel, which costs
    shots, and a failing budget's best residual is then the one at that
    spread.  Both read the plan of the qubit count, built at import
    (``_SEARCH_PLANS``), and one kernel (:func:`_products`) evaluates every
    point of a restart, the weight solve's included, core entry first; a
    restart that gets below ``tol`` builds its settings in one pass
    (:func:`_assemble`), each Direction normalized once.

    Success means the assembled decomposition's operator Frobenius residual
    is below ``tol``, which the decomposition carries, so it reads
    ``verified``; a restart whose assembly misses it does not end the
    search, so a failure has always used every restart.  Failure is reported
    with the best residual, not raised; a zero target raises ``ValueError``
    before any restart.  ``max_settings`` and ``restarts`` must be integers
    of at least 1, ``seed`` an integer in [0, 2**64) and ``tol`` a real
    number above 0 (:func:`rng.real_number`); a fractional, non-real,
    infinite, NaN or out-of-range value raises ``ValueError``, as does a
    ``max_settings`` above 3**n, the count of axis settings, which measure
    any n-qubit operator.  Restarts can be evaluated in any order or in
    parallel; a run over them matches this loop only if it returns the
    lowest-index restart that verifies, which need not be the one with the
    lowest residual.
    """
    c = witnesses.as_coefficients(c)
    max_settings = whole_number(max_settings, "max_settings", 1)
    if max_settings > 3 ** c.n_qubits:
        raise ValueError(f"max_settings must be at most 3**{c.n_qubits}, got {max_settings}")
    restarts = whole_number(restarts, "restarts", 1)
    tol = real_number(tol, "tol", positive=True)
    if not c.coeffs.any():
        raise ValueError("target is the zero operator: nothing to decompose")
    n = c.n_qubits
    start = _algebraic_start(c, max_settings)
    best = math.inf
    for r in range(restarts):
        res, dirs, core = _als_restart(c.coeffs, n, max_settings, borrow(seed, r), tol,
                                       start=start if r == 0 else None)
        if res < tol:
            dec = LocalDecomposition("search", _assemble(n, dirs, core), tol, target=c)
            if dec.verified:
                return SearchResult(dec, dec.residual, r + 1)
            res = dec.residual
        best = min(best, res)
    return SearchResult(None, float(best), restarts)


# --- JSON wire format ---------------------------------------------------------

# the outcome bitstrings of 1 to MAX_QUBITS parties, party A first, in the
# order of a flat weight tensor
OUTCOME_BITS = tuple(tuple(format(j, f"0{n}b") for j in range(2 ** n))
                     for n in range(1, pauli.MAX_QUBITS + 1))


def decomposition_to_json_dict(dec: LocalDecomposition) -> dict:
    """Schema: {target, settings: [{directions: [[dx,dy,dz], ...], weights: {bits: w}}]},
    where a zero weight (0.0 or -0.0) is left out; anything but a
    ``LocalDecomposition`` raises ``ValueError``."""
    dec = _as_decomposition(dec)
    return {"target": dec.target_label, "settings": [{
        "directions": [list(d.components) for d in s.directions],
        "weights": {bits: w for bits, w in zip(OUTCOME_BITS[s.n_parties - 1],
                                               s.weights.ravel().tolist()) if w != 0.0},
    } for s in dec.settings]}


def _field(doc, key: str, kind, what: str):
    """``doc[key]`` when ``doc`` is a dict holding a ``kind`` there, else ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a dict, got {type(doc).__name__}")
    value = doc.get(key)
    if not isinstance(value, kind):
        raise ValueError(f"{what} must hold {key!r} as a {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def decomposition_from_json_dict(data: dict) -> LocalDecomposition:
    """Parse the wire format into an unverified decomposition (residual
    NaN) whose ``tol`` is ``SEARCH_TOL`` for target ``"search"`` and else
    ``VERIFY_TOL``.

    A malformed document raises ``ValueError`` and nothing else: the
    document and each setting entry are dicts, ``"settings"`` and each
    ``"directions"`` lists, each ``"weights"`` a dict from outcome
    bitstrings to real numbers (:func:`rng.real_number`, so the string
    ``"1"`` is refused).  A setting's weights take 2^n entries, so its
    direction count is checked by ``pauli.qubit_count`` before they are
    allocated."""
    setts = []
    for entry in _field(data, "settings", list, "a decomposition"):
        dirs = _field(entry, "directions", list, "a setting entry")
        weights = _field(entry, "weights", dict, "a setting entry")
        n = pauli.qubit_count(len(dirs), "a setting")
        w = np.zeros((2,) * n)
        for bits_str, value in weights.items():
            if not isinstance(bits_str, str) or len(bits_str) != n or \
                    any(ch not in "01" for ch in bits_str):
                raise ValueError(f"bad outcome bitstring {bits_str!r}")
            w[tuple(int(ch) for ch in bits_str)] = real_number(
                value, f"the weight of outcome {bits_str}")
        setts.append(setting(dirs, w))
    label = str(data.get("target", "unknown"))
    return LocalDecomposition(label, setts, tol=SEARCH_TOL if label == "search" else VERIFY_TOL)
