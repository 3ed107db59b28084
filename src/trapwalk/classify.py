"""Trapping detection, family classification, escaping states, trapped weight.

Every public entry here reads one flat-band decision, ``laurent._flat_bands``,
memoized per coin: the constant eigenvalues of the momentum-space walk
operator U(k) = S(k) C, each chiral pair confirmed by the 2x2 cell solved at
its seed eigenphase (or, when that fails, at its partner).  Families follow
from the rank of that cell's stationary amplitude matrix A (4, 3, 2 for
Types I, IIa, IIb), decided once in ``laurent`` where the cell is solved and
kept with it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import coins as _coins
from .errors import NotTrappingError
from .laurent import _band_cells, _flat_bands
from .linalg import _integer, _unit_state, fix_vector_phase, require_unitary

__all__ = [
    "ClassificationResult",
    "detect_point_spectrum",
    "classify_coin",
    "escaping_subspace",
    "trapped_weight",
    "trapped_weight_operator",
    "recover_parameters",
    "classification_to_json",
]


def detect_point_spectrum(coin) -> list[tuple[complex, int]]:
    """Constant eigenvalues of the momentum walk operator, each with its 2x2 cell.

    Parameters
    ----------
    coin : array_like
        Unitary 4x4 coin.

    Returns
    -------
    list of (eigenphase, multiplicity)
        Sorted by principal angle; empty for non-trapping coins.
    """
    return list(_flat_bands(require_unitary(coin).tobytes())[0])


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of :func:`classify_coin`.

    ``family`` is one of NotTrapping, TypeI, TypeIIa, TypeIIb,
    DirectSumDegenerate.  ``variant`` distinguishes the two rank-2
    arrangements.  ``fully_trapped`` marks coins with four constant
    eigenvalues (no state can leave the 3x3 neighborhood of its start).
    ``marginal`` flags a closed-form decision (mixed-minor size, edge size,
    root residual or double-root split) within a factor ten of its threshold
    on either side, a pair whose seed failed the kernel solve or the cell
    check (kept if its partner passed them, else left out), or a rank of A
    with a singular value within a factor ten of ``linalg.RANK_TOL`` times the
    largest, on either side (``linalg._marginal``).  ``rank_a``, its margin and
    ``escaping_dim`` come from the one rank decision of the first cell at the
    first reported eigenphase, made in ``laurent`` where that cell's pair was
    solved and kept by ``laurent._flat_bands``.
    """

    trapping: bool
    eigenphases: tuple[tuple[complex, int], ...]
    family: str
    rank_a: int | None = None
    escaping_dim: int | None = None
    variant: int | None = None
    params: _coins.FamilyParams | None = None
    fully_trapped: bool = False
    marginal: bool = False


def escaping_subspace(coin) -> np.ndarray:
    """Orthonormal basis of the coin states orthogonal to every localized state.

    Returns a (4, k) array whose columns span the escaping subspace; k = 0
    for strong trapping, 1 for Type IIa, 2 for Type IIb, 0 again when the
    dynamics is fully trapped.

    Raises
    ------
    NotTrappingError
        If the coin has no constant eigenvalue.
    """
    spectrum, _, solved = _flat_bands(require_unitary(coin).tobytes())
    if not spectrum:
        raise NotTrappingError("coin is not trapping; every coin state escapes")
    # the kernel of A† at the first reported eigenphase; when all bands are
    # flat their projectors sum to I, and no state escapes
    kernel = _band_cells(solved, spectrum[0][0])[1][1]
    return (kernel if sum(m for _, m in spectrum) < 4 else kernel[:, :0]).copy()


# Below this fraction of a = |A|^2 + |B|^2 the row formula for |v|^2 has
# lost more than ~3 digits to cancellation, so the point is evaluated directly.
_ROW_FORMULA_FLOOR = 1e-3


def _band_projector(cell, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Midpoint average of v v† / |v|^2 over the grid x × y, |v| <= 1e-12 dropped.

    With v = A(y) + x B(y), |v|^2 = a + 2 Re(beta x) for a = |A|^2 + |B|^2 and
    beta = A†B, and v v† = AA† + BB† + x BA† + conj(x) AB†.  So the kx sum
    reduces to the row sums I0 = sum_x w and I1 = sum_x x w of w = 1/|v|^2,
    and the 4x4 average to one matmul over the ky nodes.  Points where the
    formula cancels take the direct ansatz vector instead.
    """
    xi = cell.local_states()
    rows_a = xi[0, 0] + y[:, None] * xi[0, 1]
    rows_b = xi[1, 0] + y[:, None] * xi[1, 1]
    a = np.sum(np.abs(rows_a) ** 2 + np.abs(rows_b) ** 2, axis=1)
    beta = np.sum(rows_a.conj() * rows_b, axis=1)
    sq = np.column_stack([x.real, x.imag, np.ones(x.size)]) @ np.vstack(
        [2.0 * beta.real, -2.0 * beta.imag, a])
    ix, iy = np.nonzero(sq <= _ROW_FORMULA_FLOOR * a)
    sq[ix, iy] = np.inf
    # 1/inf = 0: the direct nodes are added one by one below
    i0, i1_re, i1_im = np.vstack([np.ones(x.size), x.real, x.imag]) @ (1.0 / sq)
    i1 = i1_re + 1j * i1_im
    stack = np.vstack([rows_a, rows_b])
    weighted = np.vstack([i0[:, None] * rows_a.conj() + i1.conj()[:, None] * rows_b.conj(),
                          i1[:, None] * rows_a.conj() + i0[:, None] * rows_b.conj()])
    band = stack.T @ weighted
    if ix.size:
        vec = _coins._ansatz_vectors(cell, x[ix], y[iy])
        norms = np.linalg.norm(vec, axis=1)
        keep = norms > 1e-12
        unit = vec[keep] / norms[keep, None]
        band += unit.T @ unit.conj()
    return band / (x.size * y.size)


def trapped_weight_operator(coin, grid_n: int = 256) -> np.ndarray:
    """The 4x4 Hermitian PSD operator W with trapped weight psi† W psi.

    W = sum over constant eigenphases of M_b^2, where M_b is the midpoint
    average over a ``grid_n`` x ``grid_n`` Brillouin-zone grid of the
    projector onto the normalized bounded-support eigenvector of band b
    (points where the eigenvector vanishes to 1e-12 are dropped).  The kx
    direction is summed as scalar row sums of 1/|v|^2, so a call costs
    O(grid_n^2) real operations and no per-point outer products.

    Raises
    ------
    ValueError
        If ``grid_n`` is not an integer >= 1.
    NotTrappingError
        If the coin has no constant eigenvalue.
    """
    c = require_unitary(coin)
    # a copy, so that a caller who writes to W leaves the cached one intact
    return _weight_operator(c.tobytes(), _integer(grid_n, "grid_n", 1)).copy()


@functools.lru_cache(maxsize=8)
def _weight_operator(coin_bytes: bytes, grid_n: int) -> np.ndarray:
    """``trapped_weight_operator`` of the checked coin with these bytes.

    A coin's W is asked for once per initial state, so the last few are
    kept; an exception (a coin that does not trap) is not cached.
    """
    spectrum, _, solved = _flat_bands(coin_bytes)
    if not spectrum:
        raise NotTrappingError("coin is not trapping")
    k = -np.pi + 2.0 * np.pi * (np.arange(grid_n) + 0.5) / grid_n
    z = np.exp(1j * k)
    op = np.zeros((4, 4), dtype=np.complex128)
    for lam, _ in spectrum:
        # Distinct cells of a direct sum live in orthogonal sectors, so
        # their projectors add without re-orthonormalization.
        band = sum(_band_projector(cell, z, z) for cell in _band_cells(solved, lam)[0])
        op += band.conj().T @ band
    return (op + op.conj().T) / 2


def trapped_weight(coin, initial_coin_state, grid_n: int = 256) -> float:
    """Long-time average probability of finding the walker at the origin.

    The sum over constant eigenphases of the squared norm of the origin
    component of each flat-band projection, that is ``psi† W psi`` with
    W from :func:`trapped_weight_operator` at the same grid.  Zero exactly
    when the initial coin state is escaping.
    """
    psi = _unit_state(initial_coin_state)
    return float(np.vdot(psi, trapped_weight_operator(coin, grid_n) @ psi).real)


_FAMILY_BY_RANK = {4: "TypeI", 3: "TypeIIa", 2: "TypeIIb"}


def classify_coin(coin) -> ClassificationResult:
    """Full classification of an arbitrary unitary coin.

    Detects the point spectrum, extracts a localized eigenstate, forms the
    amplitude matrix A and maps rank 4/3/2 to Type I/IIa/IIb.  Coins whose
    constant eigenvalues carry multiplicity two or more are direct sums of
    one-dimensional trapping coins and are reported as DirectSumDegenerate.
    Unless the coin is fully trapped, ``params`` is what
    :func:`recover_parameters` returns for the cell at the first reported
    eigenphase lam, so ``lam * coin_for(params)`` rebuilds the coin to 1e-9;
    it stays None when recovery raises.  A coin too near a trapping coin for the
    kernel solve or the cell check at both members of its pair is
    NotTrapping and ``marginal``.
    """
    c = require_unitary(coin)
    spectrum, marginal, solved = _flat_bands(c.tobytes())
    if not spectrum:
        return ClassificationResult(
            trapping=False, eigenphases=(), family="NotTrapping", marginal=marginal,
        )
    fully = sum(m for _, m in spectrum) >= 4
    cells, (rank, escaping, rank_marginal) = _band_cells(solved, spectrum[0][0])
    esc_dim = 0 if fully else escaping.shape[1]
    marginal |= rank_marginal

    if any(m >= 2 for _, m in spectrum):
        return ClassificationResult(
            trapping=True, eigenphases=spectrum, family="DirectSumDegenerate",
            escaping_dim=esc_dim, fully_trapped=fully, marginal=marginal,
        )

    family = _FAMILY_BY_RANK.get(rank)
    if family is None:
        raise NotTrappingError(f"amplitude matrix has unexpected rank {rank}")

    variant = _coins._iib_variant(c) if family == "TypeIIb" else None
    params = None
    if not fully:
        try:
            params = recover_parameters(cells[0], family, c)
        except (ValueError, ArithmeticError):
            pass
    return ClassificationResult(
        trapping=True, eigenphases=spectrum, family=family, rank_a=rank,
        escaping_dim=esc_dim, variant=variant, params=params,
        fully_trapped=fully, marginal=marginal,
    )


def _phase_of(z: complex, mag: float) -> float | None:
    return float(np.angle(z)) % (2 * np.pi) if mag > 1e-9 else None


def _recover_phases(amps, guards) -> tuple[float, float, float, float, float]:
    """Phases (phi_d, phi_e, phi_f, phi_g, phi_h) of a gauge-fixed cell.

    ``guards`` holds, for each amplitude a..h, the magnitude that multiplies
    its phase.  A phase whose guard vanishes is read off its partners through
    arg c = phi_h - phi_f and arg b = phi_d + phi_e - phi_g, or set to zero.
    """
    _, b, c, d, e, f, g, h = amps
    _, gb, gc, gd, ge, gf, gg, gh = guards
    phi_f, phi_h = _phase_of(f, gf), _phase_of(h, gh)
    if phi_f is None or phi_h is None:
        arg_c = _phase_of(c, gc)
        if phi_f is None:
            phi_f = phi_h - arg_c if phi_h is not None and arg_c is not None else 0.0
        if phi_h is None:
            phi_h = phi_f + arg_c if arg_c is not None else 0.0
    phi_g = _phase_of(g, gg) or 0.0
    phi_d, phi_e = _phase_of(d, gd), _phase_of(e, ge)
    if phi_d is None or phi_e is None:
        arg_b = _phase_of(b, gb)
        if phi_e is None:
            phi_e = arg_b - phi_d + phi_g if arg_b is not None and phi_d is not None else 0.0
        if phi_d is None:
            phi_d = arg_b - phi_e + phi_g if arg_b is not None else 0.0
    return phi_d, phi_e, phi_f, phi_g, phi_h


# Recovered parameters stand only if they rebuild the coin this closely.
_REBUILD_TOL = 1e-9


def recover_parameters(cell: _coins.AmplitudeCell, family: str, coin) -> _coins.FamilyParams:
    """Family parameters of a trapping coin, read off its cell and the coin.

    The families are built with flat eigenvalues +-1, so the coin is read
    as ``conj(lam) * coin`` with lam the cell's eigenphase.  The parameters
    are returned only if ``lam * coin_for(params)`` rebuilds the coin to
    1e-9 in every entry; this is the one rule by which recovered parameters
    stand.  The gauge (``linalg.fix_vector_phase``) makes the first
    amplitude above 1e-8 of the largest one real and nonnegative.  For the
    rank-3 family the cell does not determine the extra rotation angle
    ``eta``, which is read off the structured product form of the coin by a
    Frobenius projection.  The rank-2 family is read off the coin's unitary
    2x2 block and trapping swap.

    Raises
    ------
    ValueError
        If the coin is not 4x4, if ``family`` is not TypeI, TypeIIa or
        TypeIIb, if the parameters cannot be read (a rank-2 coin in neither
        sector arrangement, angles outside the family's domain), or if they
        miss the coin by more than 1e-9.
    """
    lam = complex(cell.eigenphase)
    coin = np.asarray(coin, dtype=np.complex128)
    if coin.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coin, got shape {coin.shape}")
    params = _read_parameters(cell, family, np.conj(lam) * coin)
    miss = np.max(np.abs(lam * _coins.coin_for(params) - coin))
    if not miss <= _REBUILD_TOL:
        raise ValueError(f"recovered {family} parameters miss the coin by {miss:.1e} "
                         f"(tolerance {_REBUILD_TOL:.0e})")
    return params


def _read_parameters(cell: _coins.AmplitudeCell, family: str, coin) -> _coins.FamilyParams:
    """The parameters ``recover_parameters`` checks, read off the cell and ``conj(lam) * coin``."""
    if family == "TypeIIb":
        return _recover_iib(coin)
    amps = fix_vector_phase(cell.amplitudes)
    a, b, c, d, e = amps[:5]

    if family == "TypeI":
        delta1 = math.atan2(abs(a), abs(b))
        delta2 = math.atan2(abs(c), abs(d))
        phases = _recover_phases(amps, _coins._cell_magnitudes(delta1, delta2))
        return _coins.TypeIParams(delta1, delta2, *phases)

    if family == "TypeIIa":
        delta1 = math.atan2(math.hypot(abs(a), abs(c)), math.hypot(abs(b), abs(e)))
        delta3 = math.atan2(abs(a), abs(c))
        delta2 = math.atan2(abs(b), abs(e))
        phases = _recover_phases(amps, np.abs(amps))
        eta = _recover_eta(coin, delta1, delta2, delta3, *phases)
        return _coins.TypeIIaParams(delta1, delta2, delta3, eta, *phases)

    raise ValueError(f"parameter recovery supports TypeI, TypeIIa and TypeIIb, not {family!r}")


def _recover_iib(c: np.ndarray) -> _coins.TypeIIbParams:
    """Rank-2 parameters from the coin's unitary 2x2 block and trapping swap.

    The block e^{i phi} [[e^{i alpha} cos delta, e^{-i beta} sin delta],
    [-e^{i beta} sin delta, e^{-i alpha} cos delta]] has determinant
    e^{2i phi}, which fixes phi in [0, pi); the family's double cover
    (phi - pi, alpha + pi, beta + pi) makes that choice free.  Phases
    multiplying a vanishing cos or sin are set to zero.
    """
    variant = _coins._iib_variant(c)
    if variant is None:
        raise ValueError("rank-2 coin is in neither sector arrangement")
    sector = _coins._IIB_SECTORS[variant]
    lo, hi = sector.trapping
    block = c[np.ix_(sector.unitary, sector.unitary)]
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    phi = (float(np.angle(det)) / 2.0) % math.pi
    cos_delta = min(abs(block[0, 0]), 1.0)
    delta = math.acos(cos_delta)
    unphase = np.exp(-1j * phi)
    alpha = float(np.angle(block[0, 0] * unphase)) if cos_delta > 1e-9 else 0.0
    beta = float(np.angle(-block[1, 0] * unphase)) if math.sin(delta) > 1e-9 else 0.0
    return _coins.TypeIIbParams(variant=variant, delta=delta, phi=phi, alpha=alpha, beta=beta,
                                **{sector.phase: float(np.angle(c[hi, lo]))})


def _recover_eta(coin, delta1, delta2, delta3, phi_d, phi_e, phi_f, phi_g, phi_h) -> float:
    """Read eta off the structured form C = C0 (I + xi |k><k|).

    The coin is linear in xi with matrix coefficient C0 |k><k| of unit
    Frobenius norm, so xi is a plain inner product; eta = arg(1 + xi).
    """
    # the kernel state does not depend on eta; pi is only a placeholder
    probe = _coins.TypeIIaParams(delta1, delta2, delta3, math.pi,
                                 phi_d, phi_e, phi_f, phi_g, phi_h)
    k = _coins.escaping_state(probe)
    swap = _coins._structured_swap(phi_e, phi_f, phi_g)
    direction = swap @ np.outer(k, k.conj())
    xi = complex(np.vdot(direction, coin - swap) / np.vdot(direction, direction))
    eta = float(np.angle(1.0 + xi))
    if eta == 0.0:
        raise ValueError("recovered eta is zero; coin is not a rank-3 family member")
    return eta


def classification_to_json(result: ClassificationResult) -> str:
    """Serialize a classification result to the JSON wire format."""
    doc = {
        "trapping": result.trapping,
        "eigenphases": _coins._complex_pairs(
            [lam for lam, mult in result.eigenphases for _ in range(mult)]),
        "family": result.family,
        "rankA": result.rank_a,
        "escaping_dim": result.escaping_dim,
        "params": _coins.params_to_dict(result.params) if result.params else None,
        "variant": result.variant,
        "fully_trapped": result.fully_trapped,
    }
    if result.marginal:
        doc["marginal"] = True
    return json.dumps(doc, indent=2)
