"""Exact family coins over the Gaussian rationals, standard library only.

An angle whose cosine and sine are both rational is a Pythagorean angle:
cos = (p^2 - q^2) / (p^2 + q^2) and sin = 2 p q / (p^2 + q^2) for integers
p > q > 0.  A unit phase is ((p^2 - q^2) + 2 p q i) / (p^2 + q^2) times a
power of i.  The Type I and Type IIa coins of ``trapwalk.coins`` are
polynomials in the cosines, sines and phases of their parameters, so with
such parameters every entry is a Gaussian rational, computed here without
rounding.  ``draw_type_i`` and ``draw_type_iia`` give an exact coin with the
float parameters that ``coins.coin_for`` takes, read off by ``atan2``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from trapwalk import coins


class Gaussian:
    """A Gaussian rational re + im i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(value) -> "Gaussian":
        return value if isinstance(value, Gaussian) else Gaussian(value)

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gaussian.of(other)

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = Gaussian.of(other)
        return self.re == other.re and self.im == other.im

    def conj(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)

    def __complex__(self):
        # int / int in a Fraction's float is correctly rounded
        return complex(float(self.re), float(self.im))


class Angle:
    """A Pythagorean angle in (0, pi/2), exactly by its cosine and sine."""

    def __init__(self, p: int, q: int):
        assert p > q > 0
        self.cos = Fraction(p * p - q * q, p * p + q * q)
        self.sin = Fraction(2 * p * q, p * p + q * q)
        self.value = math.atan2(self.sin, self.cos)


class Phase:
    """A unit phase exactly (``unit``, a Gaussian rational), with its angle as
    ``coins`` reads it."""

    def __init__(self, p: int, q: int, quarter_turns: int):
        angle = Angle(p, q)
        unit = Gaussian(angle.cos, angle.sin)
        for _ in range(quarter_turns % 4):
            unit = unit * Gaussian(0, 1)
        self.unit = unit
        self.value = math.atan2(unit.im, unit.re)


def _e(plus=(), minus=()) -> Gaussian:
    """exp(i (sum of the ``plus`` angles - sum of the ``minus`` angles)), exactly."""
    out = Gaussian(1)
    for phase in plus:
        out = out * phase.unit
    for phase in minus:
        out = out * phase.unit.conj()
    return out


def type_i_coin(d1: Angle, d2: Angle, pd, pe, pf, pg, ph) -> list[list[Gaussian]]:
    """``coins.coin_type_i`` in exact arithmetic."""
    s1, c1, s2, c2 = d1.sin, d1.cos, d2.sin, d2.cos
    return [
        [-_e([pd], [pg]) * (c1 * c2), _e([], [pe]) * (s1 * c2),
         _e([ph], [pf, pg]) * (c1 * s2), _e([], [pf]) * (s1 * s2)],
        [_e([pd, pe, pf], [pg, ph]) * (c1 * s2), -_e([pf], [ph]) * (s1 * s2),
         _e([pe], [pg]) * (c1 * c2), _e([pe], [ph]) * (s1 * c2)],
        [_e([pd]) * (s1 * c2), _e([pg], [pe]) * (c1 * c2),
         -_e([ph], [pf]) * (s1 * s2), _e([pg], [pf]) * (c1 * s2)],
        [_e([pf]) * (s1 * s2), _e([pf, pg], [pd, pe]) * (c1 * s2),
         _e([ph], [pd]) * (s1 * c2), -_e([pg], [pd]) * (c1 * c2)],
    ]


def type_iia_coin(d1: Angle, d2: Angle, d3: Angle, eta: Phase,
                  pd, pe, pf, pg, ph) -> list[list[Gaussian]]:
    """``coins._type_iia_matrix`` in exact arithmetic."""
    s1, c1, s2, c2, s3, c3 = d1.sin, d1.cos, d2.sin, d2.cos, d3.sin, d3.cos
    x = eta.unit - 1
    return [
        [_e([pd], [pg]) * x * (c1 * c1 * c2 * s2), -_e([], [pe]) * x * (c1 * c2 * s1 * s3),
         -_e([ph], [pf, pg]) * x * (c1 * c2 * c3 * s1),
         _e([], [pf]) * (1 + x * (c1 * c1 * c2 * c2))],
        [-_e([pd, pe, pf], [pg, ph]) * x * (c1 * c3 * s1 * s2),
         _e([pf], [ph]) * x * (c3 * s1 * s1 * s3),
         _e([pe], [pg]) * (1 + x * (c3 * c3 * s1 * s1)), -_e([pe], [ph]) * x * (c1 * c2 * c3 * s1)],
        [-_e([pd]) * x * (c1 * s1 * s2 * s3), _e([pg], [pe]) * (1 + x * (s1 * s1 * s3 * s3)),
         _e([ph], [pf]) * x * (c3 * s1 * s1 * s3), -_e([pg], [pf]) * x * (c1 * c2 * s1 * s3)],
        [_e([pf]) * (1 + x * (c1 * c1 * s2 * s2)), -_e([pf, pg], [pd, pe]) * x * (c1 * s1 * s2 * s3),
         -_e([ph], [pd]) * x * (c1 * c3 * s1 * s2), _e([pg], [pd]) * x * (c1 * c1 * c2 * s2)],
    ]


def _angle(rnd: random.Random) -> Angle:
    q = rnd.randint(1, 11)
    return Angle(rnd.randint(q + 1, 12), q)


def _phase(rnd: random.Random) -> Phase:
    q = rnd.randint(1, 11)
    return Phase(rnd.randint(q + 1, 12), q, rnd.randint(0, 3))


def draw_type_i(rnd: random.Random):
    """An exact Type I coin and its ``coins.TypeIParams``."""
    d1, d2 = _angle(rnd), _angle(rnd)
    while d2.value == d1.value:   # the family excludes delta1 == delta2
        d2 = _angle(rnd)
    phases = [_phase(rnd) for _ in range(5)]
    params = coins.TypeIParams(d1.value, d2.value, *(p.value for p in phases))
    return type_i_coin(d1, d2, *phases), params


def draw_type_iia(rnd: random.Random):
    """An exact Type IIa coin and its ``coins.TypeIIaParams``."""
    d1, d2, d3, eta = _angle(rnd), _angle(rnd), _angle(rnd), _phase(rnd)
    phases = [_phase(rnd) for _ in range(5)]
    params = coins.TypeIIaParams(d1.value, d2.value, d3.value, eta.value,
                                 *(p.value for p in phases))
    return type_iia_coin(d1, d2, d3, eta, *phases), params


def rounded(coin: list[list[Gaussian]]):
    """The exact coin rounded entry by entry to complex floats, as nested lists."""
    return [[complex(entry) for entry in row] for row in coin]
