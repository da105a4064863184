"""Dickman's rho on a fixed grid, driven by the delay integral equation
u*rho(u) = integral of rho over [u-1, u].

The table is advanced one grid step at a time with an endpoint-corrected
trapezoid rule.  The correction needs rho' at panel endpoints, which the
delay ODE supplies exactly as rho'(v) = -rho(v-1)/v, so every quantity in
the update is a known, delayed grid value and each unit block vectorizes
into a cumulative sum.  Grid steps divide 1 exactly, hence the delayed
argument always lands on the grid; interpolation only happens at lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from friabilis.errors import ConfigError, DomainError

DEFAULT_H = 1e-4
DEFAULT_U_MAX = 50.0


def _advance_block(rho: np.ndarray, u: np.ndarray, j0: int, jend: int, m: int, h: float) -> None:
    js = np.arange(j0, jend)

    def d_left(idx):  # right-limit derivative at the left endpoint of a panel
        safe = np.maximum(idx, 1)
        return np.where(idx >= m, -rho[np.maximum(idx - m, 0)] / u[safe], 0.0)

    def d_right(idx):  # left-limit derivative at the right endpoint of a panel
        safe = np.maximum(idx, 1)
        return np.where(idx > m, -rho[np.maximum(idx - m, 0)] / u[safe], 0.0)

    lower = js - m  # delayed panel [u_j - 1, u_j - 1 + h]
    i_low = (h / 2.0) * (rho[lower] + rho[lower + 1]) - (h * h / 12.0) * (
        d_right(lower + 1) - d_left(lower)
    )
    upper_corr = (h * h / 12.0) * (d_right(js + 1) - d_left(js))
    delta = (upper_corr + i_low) / (u[js] + h / 2.0)
    rho[j0 + 1 : jend + 1] = rho[j0] - np.cumsum(delta)


@dataclass(frozen=True)
class RhoTable:
    """Precomputed rho values on the uniform grid u = j*h, 0 <= j <= u_max/h."""

    h: float
    u_max: float
    values: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, h: float = DEFAULT_H, u_max: float = DEFAULT_U_MAX) -> "RhoTable":
        if not 0 < h <= 0.5:
            raise ConfigError("h must lie in (0, 0.5]")
        if u_max < 1:
            raise ConfigError("u_max must be >= 1")
        m = round(1.0 / h)
        if m < 4:
            raise ConfigError("1/h must be at least 4")
        h = 1.0 / m  # snap so the delay is exactly m grid steps
        blocks = int(np.ceil(u_max - 1e-12))
        size = blocks * m
        u = np.arange(size + 1, dtype=np.float64) * h
        rho = np.empty(size + 1, dtype=np.float64)
        rho[: m + 1] = 1.0
        for k in range(1, blocks):
            _advance_block(rho, u, k * m, (k + 1) * m, m, h)
        return cls(h=h, u_max=float(blocks), values=rho)

    def interpolate(self, u: float) -> float:
        """Cubic 4-point interpolation, stencil clamped inside the unit block
        containing u so it never straddles a derivative kink at integer u."""
        values = self.values
        m = round(1.0 / self.h)
        x = u / self.h
        j = int(np.floor(x))
        if j >= len(values) - 1:
            return float(values[-1])
        block = j // m
        i0 = min(max(j - 1, block * m), min((block + 1) * m, len(values) - 1) - 3)
        i0 = max(i0, 0)
        t = x - i0
        w0 = -(t - 1) * (t - 2) * (t - 3) / 6.0
        w1 = t * (t - 2) * (t - 3) / 2.0
        w2 = -t * (t - 1) * (t - 3) / 2.0
        w3 = t * (t - 1) * (t - 2) / 6.0
        window = values[i0 : i0 + 4]
        return float(w0 * window[0] + w1 * window[1] + w2 * window[2] + w3 * window[3])


_default_table: RhoTable | None = None


def default_table() -> RhoTable:
    global _default_table
    if _default_table is None:
        _default_table = RhoTable.build()
    return _default_table


def dickman_rho(u, table: RhoTable | None = None) -> float:
    """rho(u): 0 for u < 0, 1 on [0, 1], table interpolation beyond.

    Raises DomainError above the table's u_max.
    """
    u = float(u)
    if u < 0.0:
        return 0.0
    if u <= 1.0:
        return 1.0
    if table is None:
        table = default_table()
    if u > table.u_max:
        raise DomainError(f"u = {u} exceeds the table range {table.u_max}")
    # the march's absolute noise floor is ~1e-16; rho itself is nonnegative
    return max(table.interpolate(u), 0.0)


def psi_dickman_estimate(x, y, table: RhoTable | None = None) -> float:
    """Dickman leading-order estimate x * rho(log x / log y) of |S(x, y)|."""
    x = float(x)
    y = float(y)
    if x < 1:
        raise DomainError("x must be >= 1")
    if y < 2:
        raise DomainError("y must be >= 2")
    u = log(x) / log(y)
    return x * dickman_rho(u, table)
