"""Momentum-space operator, dispersion relations, and spreading geometry.

The momentum walk operator is ``S(k) C`` with the shift ``S(k) = diag(e^{i k.d})``
over the steps ``d`` of ``coins.DISPLACEMENTS``.  For trapping coins its
non-constant eigenvalues are ``exp(i(beta +- omega(k)))`` with

    omega = -arccos(-rho_x cos(kx + phi_x) - rho_y cos(ky + phi_y)),

taking values in [-pi, 0].  The parameters beta, rho and phi are read off
the coin (``_coin_dispersion``).  The gradient of omega is the group velocity;
its attainable range is the intersection of two centered ellipses whose
boundaries are the caustics (zeros of the Hessian determinant).  The
covered lattice area after t steps grows as (intersection area) * t^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import coins as _coins
from .linalg import _integer, require_unitary

__all__ = [
    "DispersionSpec",
    "SpreadRegion",
    "momentum_operator",
    "dispersion_spec",
    "omega",
    "group_velocity",
    "hessian_det",
    "spread_region",
    "region_contains",
    "area_sweep",
    "region_to_json",
]

_EDGE_TOL = 1e-12
# rho_x + rho_y carries a few ulp of rounding from the coin parameters.
_BOUNDARY_TOL = 8.0 * np.finfo(float).eps
_STEPS = np.array(_coins.DISPLACEMENTS, dtype=float)


def momentum_operator(coin, kx, ky) -> np.ndarray:
    """The momentum-space walk operator S(kx, ky) C, shape (..., 4, 4).

    Array momenta broadcast against each other; scalars give one 4x4 matrix.
    """
    return _momentum_operator(require_unitary(coin), kx, ky)


def _momentum_operator(c: np.ndarray, kx, ky) -> np.ndarray:
    kx, ky = np.broadcast_arrays(kx, ky)
    phases = np.exp(1j * (np.stack([kx, ky], axis=-1) @ _STEPS.T))
    return phases[..., :, None] * c


@dataclass(frozen=True)
class DispersionSpec:
    """Parameters fully determining the spreading bands of a trapping coin.

    ``kind`` is "2d" for Types I and IIa, "1d_x" or "1d_y" for the two
    Type IIb variants (which disperse along a single axis; the quiet axis
    has zero amplitude).  ``beta`` is the constant phase of the band pair.
    """

    kind: str
    beta: float
    rho_x: float
    rho_y: float
    phi_x: float = 0.0
    phi_y: float = 0.0

    def __post_init__(self):
        if self.kind not in ("2d", "1d_x", "1d_y"):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if not all(map(math.isfinite, (self.beta, self.rho_x, self.rho_y,
                                       self.phi_x, self.phi_y))):
            raise ValueError("dispersion parameters must be finite")
        if self.rho_x < 0 or self.rho_y < 0:
            raise ValueError("band amplitudes must be nonnegative")
        if self.rho_x + self.rho_y > 1.0 + 1e-12:
            raise ValueError("band amplitudes must satisfy rho_x + rho_y <= 1")


def dispersion_spec(p: _coins.FamilyParams) -> DispersionSpec:
    """Dispersion parameters of a family coin, read off the coin (flat pair +-1)."""
    return _coin_dispersion(_coins.coin_for(p), 1.0, p.family)


def _coin_dispersion(c, lam: complex, family: str) -> DispersionSpec:
    """Dispersion of a coin with one flat pair +-lam, read off u = C / lam.

    The band pair factors out of det(z S^-1 - u) as
    z^2 - 2 e^{i beta} z cos(omega) + e^{2i beta}, so the constant term gives
    e^{2i beta} = -det u and the z^3 terms 2 e^{i beta} cos(omega(k)) =
    sum_j e^{i k.d_j} u_jj: rho_x = |u_RR| and phi_x = arg(-e^{-i beta} u_RR),
    the same for y with u_UU.  beta lies in (-pi, 0] for Types I and IIa and
    in [0, pi) for Type IIb, up to ``coins._FLAT_TOL`` past the cut: a coin the
    flat decision accepts lies up to that scale from an exactly flat one.  The
    quiet axis of a Type IIb coin has zero amplitude.  A coin near a trapping one can read
    rho_x + rho_y above 1 by its distance from it; the amplitudes are then
    scaled back onto rho_x + rho_y = 1.
    """
    u = np.asarray(c) / lam
    two_beta = float(np.angle(-np.linalg.det(u)))
    side = 1.0 if family == "TypeIIb" else -1.0
    beta = two_beta / 2.0 + (0.0 if side * two_beta >= -_coins._FLAT_TOL else side * math.pi)
    unphase = -complex(np.exp(-1j * beta))
    (rho_x, phi_x), (rho_y, phi_y) = (
        (float(abs(z)), float(np.angle(unphase * z))) for z in (u[3, 3], u[2, 2]))
    if family != "TypeIIb":
        scale = max(rho_x + rho_y, 1.0)
        return DispersionSpec("2d", beta, rho_x / scale, rho_y / scale, phi_x, phi_y)
    if _coins._iib_variant(u) == 1:
        return DispersionSpec("1d_x", beta, rho_x, 0.0, phi_x, 0.0)
    return DispersionSpec("1d_y", beta, 0.0, rho_y, 0.0, phi_y)


def _band_argument(spec: DispersionSpec, kx, ky):
    return -spec.rho_x * np.cos(np.asarray(kx) + spec.phi_x) \
        - spec.rho_y * np.cos(np.asarray(ky) + spec.phi_y)


def omega(spec: DispersionSpec, kx, ky):
    """Dispersion angle in [-pi, 0]; broadcasts over array momenta.

    One-dimensional specs ignore the quiet-axis momentum through their zero
    amplitude.
    """
    return -np.arccos(np.clip(_band_argument(spec, kx, ky), -1.0, 1.0))


def _edge_gap(u):
    """1 - u^2, NaN at band edges where the derivatives of omega diverge."""
    return np.where(np.abs(u) >= 1.0 - _EDGE_TOL, np.nan, 1.0 - u * u)


def group_velocity(spec: DispersionSpec, kx, ky):
    """Gradient (vx, vy) of omega; broadcasts over array momenta.

    Both components are NaN at band edges, where the arccos argument
    reaches +-1 and the derivative diverges.
    """
    den = np.sqrt(_edge_gap(_band_argument(spec, kx, ky)))
    vx = spec.rho_x * np.sin(np.asarray(kx) + spec.phi_x) / den
    vy = spec.rho_y * np.sin(np.asarray(ky) + spec.phi_y) / den
    return vx, vy


def hessian_det(spec: DispersionSpec, kx, ky):
    """Determinant of the Hessian of omega; zero on the caustics, NaN at band edges.

    Broadcasts over array momenta.
    """
    gap = _edge_gap(_band_argument(spec, kx, ky))
    rx, ry = spec.rho_x, spec.rho_y
    cx = np.cos(np.asarray(kx) + spec.phi_x)
    cy = np.cos(np.asarray(ky) + spec.phi_y)
    num = (rx * rx * ry * ry * (cx * cx + cy * cy)
           + rx * ry * (rx * rx + ry * ry - 1.0) * cx * cy)
    # float_power squares through C pow, exactly as scalar ``** 2`` does.
    return -num / np.float_power(gap, 2)


@dataclass(frozen=True)
class SpreadRegion:
    """Intersection of the two group-velocity ellipses.

    ``a1 >= a2`` and ``b1 <= b2`` always hold: the first ellipse is the
    wide-and-flat one.  ``vx_int`` is the abscissa of the boundary
    intersection points, ``theta1``/``theta2`` the sector angles of the
    decomposition, and ``area`` the covered velocity-space area (the
    lattice area covered after t steps is area * t^2).
    """

    a1: float
    b1: float
    a2: float
    b2: float
    vx_int: float
    theta1: float
    theta2: float
    area: float


def spread_region(spec: DispersionSpec) -> SpreadRegion:
    """Spreading region of a trapping coin's dispersion.

    Fully trapped specs (both amplitudes zero) give the degenerate empty
    region.  One-dimensional specs give the segment |v| <= rho on the
    spreading axis, encoded with zero minor semi-axes.
    """
    rx, ry = spec.rho_x, spec.rho_y
    if rx == 0.0 and ry == 0.0:
        return SpreadRegion(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if spec.kind == "1d_x":
        # Segment |vx| <= rho on the x axis, written as a pair of coincident
        # degenerate ellipses.
        return SpreadRegion(rx, 0.0, rx, 0.0, rx, math.pi, 0.0, 0.0)
    if spec.kind == "1d_y":
        return SpreadRegion(0.0, ry, 0.0, ry, 0.0, math.pi, 0.0, 0.0)

    su = 1.0 + rx * rx - ry * ry
    sv = 1.0 - rx * rx + ry * ry
    # Both discriminants carry the factor 1 - rx - ry.  On the boundary
    # rx + ry = 1 (Grover) their square roots would blow its rounding up to
    # ~1e-8 in the region, so a spec within rounding of it sits on it.
    on_boundary = rx + ry >= 1.0 - _BOUNDARY_TOL
    disc_a = 0.0 if on_boundary else max(su * su - 4.0 * rx * rx, 0.0)
    disc_b = 0.0 if on_boundary else max(sv * sv - 4.0 * ry * ry, 0.0)
    a1 = math.sqrt((su + math.sqrt(disc_a)) / 2.0)
    b1_sq = (sv - math.sqrt(disc_b)) / 2.0
    b1 = math.sqrt(max(b1_sq, 0.0))
    # Partner semi-axes via the product relations a1 a2 = rho_x, b1 b2 = rho_y,
    # falling back to the root-sum relations at vanishing denominators.
    a2 = rx / a1 if a1 > 1e-150 else math.sqrt(max(su - a1 * a1, 0.0))
    b2 = ry / b1 if b1 > 1e-150 else math.sqrt(max(sv - b1_sq, 0.0))

    num = b1 * b1 - b2 * b2
    den = a2 * a2 * b1 * b1 - a1 * a1 * b2 * b2
    if abs(den) < 1e-14:
        # Coincident ellipses: the boundaries touch everywhere and the
        # overlap is the full ellipse.
        vx_int = min(a1, a2)
        return SpreadRegion(a1, b1, a2, b2, vx_int, math.pi, 0.0, math.pi * a1 * b1)
    vx_int = min(a1 * a2 * math.sqrt(abs(num / den)), a1, a2)
    theta1 = 2.0 * math.asin(min(vx_int / a1, 1.0)) if a1 > 0 else 0.0
    theta2 = 2.0 * math.acos(min(vx_int / a2, 1.0)) if a2 > 0 else 0.0
    area = theta1 * a1 * b1 + theta2 * a2 * b2
    return SpreadRegion(a1, b1, a2, b2, vx_int, theta1, theta2, area)


def region_contains(region: SpreadRegion, vx, vy, inflation: float = 1.0):
    """Membership of velocity points in the inflated ellipse intersection.

    Broadcasts over arrays.  Zero semi-axes confine the matching coordinate
    to the axis itself.
    """
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)

    def axis_term(v, semi):
        if semi > 0.0:
            return (v / semi) ** 2
        return np.where(v == 0.0, 0.0, np.inf)

    inside = np.ones(np.broadcast(vx, vy).shape, dtype=bool)
    for a, b in ((region.a1, region.b1), (region.a2, region.b2)):
        inside &= axis_term(vx, a * inflation) + axis_term(vy, b * inflation) <= 1.0
    return inside


def area_sweep(n: int = 50):
    """Covered-area table of the full-rank family over an angle grid.

    Returns (grid, table) where ``grid`` holds the n cell-centered angles in
    (0, pi/2) used for both axes and ``table[i, j]`` the area at
    (delta1, delta2) = (grid[i], grid[j]).  The family excludes the
    diagonal delta1 = delta2, so those entries are NaN.
    """
    n = _integer(n, "n", 2)
    grid = (np.arange(n) + 0.5) * (math.pi / 2.0) / n
    table = np.full((n, n), np.nan)
    for i, d1 in enumerate(grid):
        for j, d2 in enumerate(grid):
            if i != j:
                # Type I amplitudes, with no coin built per point (3-4x faster)
                spec = DispersionSpec("2d", 0.0, math.cos(d1) * math.cos(d2),
                                      math.sin(d1) * math.sin(d2))
                table[i, j] = spread_region(spec).area
    return grid, table


def region_to_json(region: SpreadRegion) -> str:
    return json.dumps({
        "a1": region.a1, "b1": region.b1,
        "a2": region.a2, "b2": region.b2,
        "vx_int": region.vx_int,
        "theta1": region.theta1, "theta2": region.theta2,
        "S": region.area,
    }, indent=2)
