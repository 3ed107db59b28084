"""Trapping-coin families for the four-state walk on the square lattice.

The coin acts on the direction basis ordered L, D, U, R (rows and columns).
Three families of trapping coins exist, distinguished by the rank of the
matrix ``A`` stacking the local states of a 2x2-supported stationary
eigenstate:

* Type I (rank 4): strong trapping, every initial coin state keeps a
  trapped component.
* Type IIa (rank 3): a unique escaping coin state exists.
* Type IIb (rank 2): the coin is a direct sum of two one-dimensional
  coins, at least one of them trapping; dynamics is quasi one-dimensional.

Constructors return the family matrices exactly as parameterized, with no
extra global phase.  Stationary amplitude cells use norm 2 (Type I) or
norm sqrt(2) (Type IIa/IIb); the convention is recorded on the cell rather
than silently renormalized because the per-site probability formulas
assume it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .errors import ParameterDomainError
from .linalg import as_complex_matrix

__all__ = [
    "COIN_BASIS",
    "DISPLACEMENTS",
    "NORM_FULL_RANK",
    "NORM_RANK_DEFICIENT",
    "TypeIParams",
    "TypeIIaParams",
    "TypeIIbParams",
    "AmplitudeCell",
    "BalanceMatrices",
    "coin_type_i",
    "coin_type_iia",
    "coin_type_iib",
    "type_iia_structured",
    "escaping_state",
    "stationary_cell",
    "balance_matrices",
    "site_probabilities",
    "coin_for",
    "grover_coin",
    "params_to_dict",
    "params_from_dict",
    "coin_to_json",
    "complex_from_pairs",
    "coin_from_json",
    "write_coin_json",
    "read_coin_json",
]

COIN_BASIS = ("L", "D", "U", "R")
_L, _D, _U, _R = 0, 1, 2, 3
# The lattice step (dx, dy) of each coin direction, in COIN_BASIS order.
DISPLACEMENTS = ((-1, 0), (0, -1), (0, 1), (1, 0))

# Squared-norm conventions for stationary cells.
NORM_FULL_RANK = 2.0
NORM_RANK_DEFICIENT = math.sqrt(2.0)

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi


def _wrap_phase(x: float) -> float:
    """Reduce a phase to [0, 2*pi); non-finite input is a domain error."""
    x = float(x)
    if not math.isfinite(x):
        raise ParameterDomainError(f"angles must be finite, got {x!r}")
    return x % _TWO_PI


def _wrap_signed(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    y = _wrap_phase(x)
    if y > math.pi:
        y -= _TWO_PI
    return y


def _check_quarter_range(name: str, value: float) -> float:
    value = float(value)
    if not (0.0 <= value <= _HALF_PI) or not math.isfinite(value):
        raise ParameterDomainError(f"{name} must lie in [0, pi/2], got {value!r}")
    return value


@dataclass(frozen=True)
class TypeIParams:
    """Parameters of the full-rank (strong-trapping) family.

    Angles ``delta1 != delta2`` in [0, pi/2]; the two endpoints are accepted
    (they give the degenerate permutation coins).  The five phases are
    reduced to [0, 2*pi).
    """

    family: ClassVar[str] = "TypeI"

    delta1: float
    delta2: float
    phi_d: float = 0.0
    phi_e: float = 0.0
    phi_f: float = 0.0
    phi_g: float = 0.0
    phi_h: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta1", _check_quarter_range("delta1", self.delta1))
        object.__setattr__(self, "delta2", _check_quarter_range("delta2", self.delta2))
        if self.delta1 == self.delta2:
            raise ParameterDomainError(
                "delta1 == delta2 is excluded for the full-rank family "
                "(such coins belong to Type IIa/IIb)"
            )
        for name in ("phi_d", "phi_e", "phi_f", "phi_g", "phi_h"):
            object.__setattr__(self, name, _wrap_phase(getattr(self, name)))


@dataclass(frozen=True)
class TypeIIaParams:
    """Parameters of the rank-3 family.

    ``delta1`` must be interior to (0, pi/2); at the endpoints the rank drops
    to 2 and the coin belongs to Type IIb.  ``eta`` is reduced to (-pi, pi]
    and must be nonzero (eta = 0 would again be a Type IIb coin).
    """

    family: ClassVar[str] = "TypeIIa"

    delta1: float
    delta2: float
    delta3: float
    eta: float
    phi_d: float = 0.0
    phi_e: float = 0.0
    phi_f: float = 0.0
    phi_g: float = 0.0
    phi_h: float = 0.0

    def __post_init__(self):
        d1 = float(self.delta1)
        if not (0.0 < d1 < _HALF_PI):
            raise ParameterDomainError(
                f"delta1 must lie strictly inside (0, pi/2), got {d1!r} "
                "(at the endpoints the amplitude matrix has rank 2)"
            )
        object.__setattr__(self, "delta1", d1)
        object.__setattr__(self, "delta2", _check_quarter_range("delta2", self.delta2))
        object.__setattr__(self, "delta3", _check_quarter_range("delta3", self.delta3))
        eta = _wrap_signed(self.eta)
        if eta == 0.0:
            raise ParameterDomainError("eta must be nonzero for Type IIa coins")
        object.__setattr__(self, "eta", eta)
        for name in ("phi_d", "phi_e", "phi_f", "phi_g", "phi_h"):
            object.__setattr__(self, name, _wrap_phase(getattr(self, name)))

    @property
    def xi(self) -> complex:
        """The modification amplitude exp(i*eta) - 1."""
        return complex(np.exp(1j * self.eta) - 1.0)


@dataclass(frozen=True)
class TypeIIbParams:
    """Parameters of the rank-2 (quasi one-dimensional) family.

    ``variant`` 1 keeps the {L, R} sector unitary and traps the vertical
    {D, U} sector; variant 2 swaps the roles.  ``delta`` in [0, pi/2] sets
    the spreading speed of the non-trapping sector, ``phi`` in [0, pi) its
    overall phase.  ``gamma`` is used by variant 1, ``phi_f`` by variant 2.
    """

    family: ClassVar[str] = "TypeIIb"

    variant: int
    delta: float
    phi: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    phi_f: float = 0.0

    def __post_init__(self):
        v = self.variant
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v not in (1, 2):
            raise ParameterDomainError(f"variant must be the integer 1 or 2, got {v!r}")
        object.__setattr__(self, "variant", int(v))
        object.__setattr__(self, "delta", _check_quarter_range("delta", self.delta))
        # The family double-covers: (phi - pi, alpha + pi, beta + pi) is the
        # same coin, so folding phi into [0, pi) must shift alpha and beta.
        phi = _wrap_phase(self.phi)
        alpha, beta = self.alpha, self.beta
        if phi >= math.pi:
            phi -= math.pi
            alpha += math.pi
            beta += math.pi
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "alpha", _wrap_phase(alpha))
        object.__setattr__(self, "beta", _wrap_phase(beta))
        for name in ("gamma", "phi_f"):
            object.__setattr__(self, name, _wrap_phase(getattr(self, name)))


FamilyParams = TypeIParams | TypeIIaParams | TypeIIbParams


@dataclass(frozen=True)
class _IIbSector:
    unitary: tuple[int, int]    # basis pair of the unitary 2x2 block
    trapping: tuple[int, int]   # basis pair (lo, hi) exchanged by the trapping swap
    phase: str                  # TypeIIbParams field holding the swap phase
    slots: tuple[str, str]      # AmplitudeCell fields of the trapped two-site pair


# The two Type IIb arrangements.  The swap maps |lo> to e^{i phase}|hi>; the
# trapped pair puts |lo> on the cell origin and e^{i phase}|hi> on the
# neighbouring cell site.
_IIB_SECTORS = {
    1: _IIbSector(unitary=(_L, _R), trapping=(_D, _U), phase="gamma", slots=("b", "d")),
    2: _IIbSector(unitary=(_D, _U), trapping=(_L, _R), phase="phi_f", slots=("a", "f")),
}


def _iib_swaps(c, variant: int, tol: float = 1e-8) -> bool:
    """Whether ``c`` swaps the variant's trapping pair (zero diagonal, unit off-diagonal)."""
    lo, hi = _IIB_SECTORS[variant].trapping
    return abs(c[lo, lo]) < tol and abs(c[hi, hi]) < tol and abs(abs(c[lo, hi]) - 1.0) < tol


def _iib_variant(c, tol: float = 1e-8) -> int | None:
    """The first Type IIb variant whose trapping pair ``c`` swaps, or None."""
    return next((v for v in _IIB_SECTORS if _iib_swaps(c, v, tol)), None)


def _iib_is_direct_sum(c, tol: float = 1e-8) -> bool:
    """Whether ``c`` never mixes the two sectors (all eight cross entries below ``tol``)."""
    u, t = _IIB_SECTORS[1].unitary, _IIB_SECTORS[1].trapping
    return max(max(abs(c[i, j]), abs(c[j, i])) for i in u for j in t) < tol


def _iib_pair_cell(variant: int, swap_entry: complex, eigenphase: complex) -> AmplitudeCell:
    """The trapped two-site pair of a variant; ``swap_entry`` is the coin's C[hi, lo]."""
    first, second = _IIB_SECTORS[variant].slots
    amps = dict.fromkeys("abcdefgh", 0.0 + 0.0j) | {first: 1.0 + 0.0j, second: swap_entry}
    return AmplitudeCell(**amps, eigenphase=eigenphase, norm=NORM_RANK_DEFICIENT)


# _LANDING[s, j]: where a step in direction j takes cell site s (sites in C order).
_LANDING = np.array(list(np.ndindex(2, 2)))[:, None, :] + np.array(DISPLACEMENTS)
# Where the amplitudes a..h sit in a cell's [dx, dy, direction] array, in C
# order: on the directions whose step leaves the cell.  The other eight
# entries are structurally zero.
_CELL_SUPPORT = ((_LANDING < 0) | (_LANDING > 1)).any(axis=2).reshape(2, 2, 4)


@dataclass(frozen=True)
class AmplitudeCell:
    """The eight amplitudes of a 2x2-supported stationary eigenstate.

    The local coin states on the four cell sites are

        site (0,0): a|L> + b|D>        site (0,1): c|L> + d|U>
        site (1,0): e|D> + f|R>        site (1,1): g|U> + h|R>

    ``eigenphase`` is the walk eigenvalue of the state, ``norm`` the
    recorded normalization (2 for the full-rank convention, sqrt(2) for
    the rank-deficient one).
    """

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    g: complex
    h: complex
    eigenphase: complex = 1.0 + 0.0j
    norm: float = NORM_FULL_RANK

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e, self.f, self.g, self.h])

    def local_states(self) -> np.ndarray:
        """Local coin states as an array indexed [dx, dy, direction]."""
        xi = np.zeros((2, 2, 4), dtype=np.complex128)
        xi[_CELL_SUPPORT] = self.amplitudes
        return xi

    def chiral_partner(self) -> "AmplitudeCell":
        """Sign-flip the odd sublattice sites; negates the eigenphase."""
        return replace(
            self,
            c=-self.c, d=-self.d, e=-self.e, f=-self.f,
            eigenphase=-complex(self.eigenphase),
        )

    def balance_det(self) -> complex:
        """det A = b c f g - a d e h; zero exactly for the rank-deficient case."""
        return self.b * self.c * self.f * self.g - self.a * self.d * self.e * self.h

    def _magnitude_case(self, pairs, tol: float) -> bool:
        scale = max(float(np.max(np.abs(self.amplitudes))), 1e-300)
        return all(abs(abs(p) - abs(q)) <= tol * scale for p, q in pairs)

    def is_full_rank_case(self, tol: float = 1e-8) -> bool:
        """Magnitude pattern |a|=|h|, |c|=|f|, |g|=|b|, |d|=|e|."""
        return self._magnitude_case(
            [(self.a, self.h), (self.c, self.f), (self.g, self.b), (self.d, self.e)], tol
        )

    def is_rank_deficient_case(self, tol: float = 1e-8) -> bool:
        """Magnitude pattern |a|=|f|, |c|=|h|, |b|=|d|, |g|=|e|."""
        return self._magnitude_case(
            [(self.a, self.f), (self.c, self.h), (self.b, self.d), (self.g, self.e)], tol
        )

    def validate(self, tol: float = 1e-10) -> None:
        """Check the detailed-balance amplitude constraints and the norm tag.

        Raises ValueError on violation; the zero cell is always rejected.
        """
        amps = self.amplitudes
        if not np.isfinite(amps).all():
            raise ValueError("cell has non-finite amplitudes")
        total = float(np.sum(np.abs(amps) ** 2))
        if total < 1e-12:
            raise ValueError("zero cell is not a valid stationary state")
        if abs(total - self.norm**2) > tol * max(total, 1.0):
            raise ValueError(
                f"recorded norm {self.norm!r} disagrees with amplitudes "
                f"(sum of squares {total!r})"
            )
        scale = max(total, 1.0)
        checks = {
            "|a|^2+|b|^2 = |d|^2+|f|^2":
                abs(self.a) ** 2 + abs(self.b) ** 2 - abs(self.d) ** 2 - abs(self.f) ** 2,
            "|g|^2+|h|^2 = |c|^2+|e|^2":
                abs(self.g) ** 2 + abs(self.h) ** 2 - abs(self.c) ** 2 - abs(self.e) ** 2,
            "|c|^2+|d|^2 = |b|^2+|h|^2":
                abs(self.c) ** 2 + abs(self.d) ** 2 - abs(self.b) ** 2 - abs(self.h) ** 2,
            "a c* = f h*": self.a * np.conj(self.c) - self.f * np.conj(self.h),
            "b e* = d g*": self.b * np.conj(self.e) - self.d * np.conj(self.g),
        }
        for label, residual in checks.items():
            if abs(residual) > tol * scale:
                raise ValueError(f"amplitude constraint {label} violated by {abs(residual):.3e}")


def _ansatz_vectors(cell: AmplitudeCell, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ansatz xi00 + x xi10 + y xi01 + xy xi11 at flat arrays x, y; shape (m, 4)."""
    xi = cell.local_states()
    return (xi[0, 0][None, :] + x[:, None] * xi[1, 0][None, :]
            + y[:, None] * xi[0, 1][None, :] + (x * y)[:, None] * xi[1, 1][None, :])


@dataclass(frozen=True)
class BalanceMatrices:
    """The pair A, B of local-state stacks satisfying C A = B.

    Columns of ``a`` are the four local coin states of the cell; columns of
    ``b`` are their images under one walk step, shifted back onto the cell.
    Both carry exactly eight structural zeros.
    """

    a: np.ndarray
    b: np.ndarray

    def residual(self, coin) -> float:
        """Max-norm of C A - B for a candidate coin."""
        c = as_complex_matrix(coin, (4, 4))
        return float(np.max(np.abs(c @ self.a - self.b)))


def _cell_matrix(cell: AmplitudeCell) -> np.ndarray:
    """The matrix A: column s is the local coin state of cell site s, sites in C order."""
    return cell.local_states().reshape(4, 4).T


def balance_matrices(cell: AmplitudeCell) -> BalanceMatrices:
    """Build the detailed-balance pair from a validated amplitude cell."""
    cell.validate()
    # B[j, s] is component j of the state on site s + d_j, zero off the cell.
    ring = np.pad(cell.local_states(), ((1, 1), (1, 1), (0, 0)))
    x, y = np.moveaxis(_LANDING + 1, 2, 0)
    return BalanceMatrices(a=_cell_matrix(cell), b=ring[x, y, np.arange(4)].T)


def _exp(t: float) -> complex:
    return complex(np.exp(1j * t))


def coin_type_i(p: TypeIParams) -> np.ndarray:
    """Full-rank trapping coin.

    Parameters
    ----------
    p : TypeIParams

    Returns
    -------
    numpy.ndarray
        4x4 complex unitary in the L, D, U, R basis.  At ``delta1 = pi/2,
        delta2 = 0`` (or the mirrored choice) it degenerates to a phase
        permutation cycling L -> U -> R -> D -> L.
    """
    s1, c1 = math.sin(p.delta1), math.cos(p.delta1)
    s2, c2 = math.sin(p.delta2), math.cos(p.delta2)
    pd, pe, pf, pg, ph = p.phi_d, p.phi_e, p.phi_f, p.phi_g, p.phi_h
    return np.array([
        [-_exp(pd - pg) * c1 * c2,
         _exp(-pe) * s1 * c2,
         _exp(ph - pf - pg) * c1 * s2,
         _exp(-pf) * s1 * s2],
        [_exp(pd + pe + pf - pg - ph) * c1 * s2,
         -_exp(pf - ph) * s1 * s2,
         _exp(pe - pg) * c1 * c2,
         _exp(pe - ph) * s1 * c2],
        [_exp(pd) * s1 * c2,
         _exp(pg - pe) * c1 * c2,
         -_exp(ph - pf) * s1 * s2,
         _exp(pg - pf) * c1 * s2],
        [_exp(pf) * s1 * s2,
         _exp(pf + pg - pd - pe) * c1 * s2,
         _exp(ph - pd) * s1 * c2,
         -_exp(pg - pd) * c1 * c2],
    ], dtype=np.complex128)


def _type_iia_matrix(d1, d2, d3, eta, pd, pe, pf, pg, ph) -> np.ndarray:
    # Raw family formula without domain validation; the boundary values
    # d1 in {0, pi/2} reproduce the rank-2 coins.
    s1, c1 = math.sin(d1), math.cos(d1)
    s2, c2 = math.sin(d2), math.cos(d2)
    s3, c3 = math.sin(d3), math.cos(d3)
    x = complex(np.exp(1j * eta) - 1.0)
    return np.array([
        [_exp(pd - pg) * x * c1 * c1 * c2 * s2,
         -_exp(-pe) * x * c1 * c2 * s1 * s3,
         -_exp(ph - pf - pg) * x * c1 * c2 * c3 * s1,
         _exp(-pf) * (1.0 + x * c1 * c1 * c2 * c2)],
        [-_exp(pd + pe + pf - pg - ph) * x * c1 * c3 * s1 * s2,
         _exp(pf - ph) * x * c3 * s1 * s1 * s3,
         _exp(pe - pg) * (1.0 + x * c3 * c3 * s1 * s1),
         -_exp(pe - ph) * x * c1 * c2 * c3 * s1],
        [-_exp(pd) * x * c1 * s1 * s2 * s3,
         _exp(pg - pe) * (1.0 + x * s1 * s1 * s3 * s3),
         _exp(ph - pf) * x * c3 * s1 * s1 * s3,
         -_exp(pg - pf) * x * c1 * c2 * s1 * s3],
        [_exp(pf) * (1.0 + x * c1 * c1 * s2 * s2),
         -_exp(pf + pg - pd - pe) * x * c1 * s1 * s2 * s3,
         -_exp(ph - pd) * x * c1 * c3 * s1 * s2,
         _exp(pg - pd) * x * c1 * c1 * c2 * s2],
    ], dtype=np.complex128)


def coin_type_iia(p: TypeIIaParams) -> np.ndarray:
    """Rank-3 trapping coin.

    Parameters
    ----------
    p : TypeIIaParams

    Returns
    -------
    numpy.ndarray
        4x4 complex unitary.  At ``delta1 = delta2 = delta3 = pi/4`` and
        ``eta = pi`` with zero phases this is the Grover coin.

    Notes
    -----
    The same matrix factors as ``(C_H + C_V)(I + (e^{i eta}-1) |k><k|)``
    with 1D swap coins C_H, C_V and the kernel state ``|k>`` returned by
    :func:`escaping_state`; see :func:`type_iia_structured`.
    """
    return _type_iia_matrix(
        p.delta1, p.delta2, p.delta3, p.eta, p.phi_d, p.phi_e, p.phi_f, p.phi_g, p.phi_h
    )


def escaping_state(p: TypeIIaParams) -> np.ndarray:
    """Unit coin state annihilated by the adjoint of the amplitude matrix A.

    For a rank-3 coin this is the unique escaping initial state: a walker
    started on it leaves no trapped component at the origin.
    """
    s1, c1 = math.sin(p.delta1), math.cos(p.delta1)
    s2, c2 = math.sin(p.delta2), math.cos(p.delta2)
    s3, c3 = math.sin(p.delta3), math.cos(p.delta3)
    pd, pe, pf, pg, ph = p.phi_d, p.phi_e, p.phi_f, p.phi_g, p.phi_h
    return np.array([
        c1 * s2,
        -_exp(pd + pe - pg) * s1 * s3,
        -_exp(pd + pf - ph) * s1 * c3,
        _exp(pd + pf - pg) * c1 * c2,
    ], dtype=np.complex128)


def _structured_swap(phi_e: float, phi_f: float, phi_g: float) -> np.ndarray:
    """C_H + C_V: L <-> R with phases exp(+-i phi_f), D <-> U with exp(+-i(phi_g - phi_e))."""
    swap = np.zeros((4, 4), dtype=np.complex128)
    swap[_R, _L] = _exp(phi_f)
    swap[_L, _R] = _exp(-phi_f)
    swap[_U, _D] = _exp(phi_g - phi_e)
    swap[_D, _U] = _exp(phi_e - phi_g)
    return swap


def type_iia_structured(p: TypeIIaParams) -> np.ndarray:
    """Structured product form of the rank-3 coin.

    Builds ``(C_H + C_V)(I + xi |k><k|)`` with the swap of
    :func:`_structured_swap` and ``|k>`` from :func:`escaping_state`.  Agrees with :func:`coin_type_iia` entrywise.
    """
    k = escaping_state(p)
    swap = _structured_swap(p.phi_e, p.phi_f, p.phi_g)
    return swap @ (np.eye(4) + p.xi * np.outer(k, k.conj()))


def coin_type_iib(p: TypeIIbParams) -> np.ndarray:
    """Rank-2 trapping coin: a direct sum of two one-dimensional coins.

    Variant 1 leaves {L, R} unitary (2x2 block with angle ``delta``) and
    traps the vertical sector through the antidiagonal phases
    exp(+-i gamma); variant 2 is the transpose arrangement using ``phi_f``.
    The horizontal and vertical sectors never mix.
    """
    cd, sd = math.cos(p.delta), math.sin(p.delta)
    block = np.array([
        [_exp(p.phi + p.alpha) * cd, _exp(p.phi - p.beta) * sd],
        [-_exp(p.phi + p.beta) * sd, _exp(p.phi - p.alpha) * cd],
    ], dtype=np.complex128)
    sector = _IIB_SECTORS[p.variant]
    lo, hi = sector.trapping
    phase = getattr(p, sector.phase)
    out = np.zeros((4, 4), dtype=np.complex128)
    out[np.ix_(sector.unitary, sector.unitary)] = block
    out[hi, lo] = _exp(phase)
    out[lo, hi] = _exp(-phase)
    return out


def stationary_cell(p: FamilyParams) -> tuple[AmplitudeCell, AmplitudeCell]:
    """Stationary amplitude cell of a family coin and its chiral partner.

    The first cell has eigenphase +1, the partner -1.  Type I cells carry
    norm 2 and uniform per-site probability 1/4; Type IIa cells carry norm
    sqrt(2) with generally non-uniform site probabilities; Type IIb cells
    are the quasi one-dimensional two-site pairs.
    """
    if isinstance(p, TypeIParams):
        s1, c1 = math.sin(p.delta1), math.cos(p.delta1)
        s2, c2 = math.sin(p.delta2), math.cos(p.delta2)
        cell = AmplitudeCell(
            a=s1,
            b=c1 * _exp(p.phi_d + p.phi_e - p.phi_g),
            c=s2 * _exp(p.phi_h - p.phi_f),
            d=c2 * _exp(p.phi_d),
            e=c2 * _exp(p.phi_e),
            f=s2 * _exp(p.phi_f),
            g=c1 * _exp(p.phi_g),
            h=s1 * _exp(p.phi_h),
            eigenphase=1.0 + 0.0j,
            norm=NORM_FULL_RANK,
        )
    elif isinstance(p, TypeIIaParams):
        s1, c1 = math.sin(p.delta1), math.cos(p.delta1)
        s2, c2 = math.sin(p.delta2), math.cos(p.delta2)
        s3, c3 = math.sin(p.delta3), math.cos(p.delta3)
        cell = AmplitudeCell(
            a=s1 * s3,
            b=c1 * s2 * _exp(p.phi_d + p.phi_e - p.phi_g),
            c=s1 * c3 * _exp(p.phi_h - p.phi_f),
            d=c1 * s2 * _exp(p.phi_d),
            e=c1 * c2 * _exp(p.phi_e),
            f=s1 * s3 * _exp(p.phi_f),
            g=c1 * c2 * _exp(p.phi_g),
            h=s1 * c3 * _exp(p.phi_h),
            eigenphase=1.0 + 0.0j,
            norm=NORM_RANK_DEFICIENT,
        )
    elif isinstance(p, TypeIIbParams):
        # Variant 1: |0,0>|D> + e^{i gamma}|0,1>|U>; variant 2:
        # |0,0>|L> + e^{i phi_f}|1,0>|R>; both scaled to norm sqrt(2).
        phase = getattr(p, _IIB_SECTORS[p.variant].phase)
        cell = _iib_pair_cell(p.variant, _exp(phase), 1.0 + 0.0j)
    else:
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    return cell, cell.chiral_partner()


def site_probabilities(cell: AmplitudeCell) -> np.ndarray:
    """Per-site probabilities of the normalized stationary state, indexed [dx, dy]."""
    xi = cell.local_states()
    return np.sum(np.abs(xi) ** 2, axis=2) / cell.norm**2


def coin_for(p: FamilyParams) -> np.ndarray:
    """Dispatch to the family constructor matching the parameter type."""
    if isinstance(p, TypeIParams):
        return coin_type_i(p)
    if isinstance(p, TypeIIaParams):
        return coin_type_iia(p)
    if isinstance(p, TypeIIbParams):
        return coin_type_iib(p)
    raise TypeError(f"unsupported parameter type {type(p).__name__}")


def grover_coin() -> np.ndarray:
    """The 4x4 Grover coin: -1/2 on the diagonal, +1/2 elsewhere."""
    return 0.5 * np.ones((4, 4), dtype=np.complex128) - np.eye(4, dtype=np.complex128)


def params_to_dict(p: FamilyParams) -> dict:
    """Family tag plus parameter values, for JSON echoing."""
    return {f.name: getattr(p, f.name) for f in fields(p)} | {"family": p.family}


def params_from_dict(d: dict) -> FamilyParams:
    d = dict(d)
    family = d.pop("family")
    cls = {c.family: c for c in (TypeIParams, TypeIIaParams, TypeIIbParams)}.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}")
    return cls(**d)


def coin_to_json(coin, family: str | None = None, params: FamilyParams | None = None) -> str:
    """Serialize a coin to the JSON wire format.

    Complex entries are written as [re, im] pairs; Python's float repr
    guarantees a bit-exact decimal round trip.
    """
    c = as_complex_matrix(coin, (4, 4))
    doc: dict = {
        "basis": list(COIN_BASIS),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in c],
    }
    if family is not None:
        doc["family"] = family
    if params is not None:
        doc["params"] = params_to_dict(params)
    return json.dumps(doc, indent=2)


def complex_from_pairs(pairs, n: int, what: str) -> np.ndarray:
    """Complex vector from a parsed JSON list of ``n`` [re, im] number pairs.

    Raises ValueError for any other shape, a non-numeric entry, or an
    integer too large for a float.
    """
    def is_number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if not isinstance(pairs, list) or len(pairs) != n:
        raise ValueError(f"{what} needs exactly {n} [re, im] pairs")
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(map(is_number, p))):
            raise ValueError(f"{what}: expected an [re, im] pair of numbers, got {p!r}")
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except OverflowError:
        raise ValueError(f"{what}: number too large for a float") from None


def coin_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("coin JSON must be an object with a 'matrix' field")
    basis = doc.get("basis")
    if basis is not None and (not isinstance(basis, list) or tuple(basis) != COIN_BASIS):
        raise ValueError(f"unsupported basis order {basis!r}; expected {list(COIN_BASIS)}")
    mat = doc["matrix"]
    if not isinstance(mat, list) or len(mat) != 4:
        raise ValueError("coin matrix must be a list of four rows")
    return np.array([complex_from_pairs(row, 4, "coin matrix row") for row in mat])


def write_coin_json(path, coin, family: str | None = None, params: FamilyParams | None = None):
    text = coin_to_json(coin, family=family, params=params)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_coin_json(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return coin_from_json(fh.read())
