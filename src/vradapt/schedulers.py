"""Step-size rules: theoretical constants, the parameter-free adaptive
schedule, and an Adam baseline.

The theoretical rules take a method's recursion constants, through
their coupling ratio (``VRConstants.coupling``), and the smoothness
bound L, and return one safe step size.  The adaptive rule needs no L:
it divides a fixed numerator by a growing power of the accumulated
squared estimate norms, so it starts large and decays as fast as the
observed gradient energy dictates.

A run steps with a rule object, ``FixedStep``, ``AdaptiveAccumulator``
or ``AdamState``: ``advance(g_t)`` returns ``(gamma_t, update)``, the
update additive (x <- x + update), and ``stationary`` is true once the
iterate can no longer move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import check_positive


def nu_of(constants):
    """Coupling ratio nu = max{(B*rho2 + A*C) / (rho1*rho2), 1}."""
    return max(constants.coupling, 1.0)


def theoretical_gamma_nonconvex(constants, L):
    """Safe constant step size for smooth nonconvex problems:
    gamma = 1 / (L * (1 + sqrt((B*rho2 + A*C) / (rho1*rho2)))).
    """
    return 1.0 / (check_positive("L", L) * (1.0 + math.sqrt(constants.coupling)))


def theoretical_gamma_pl(constants, L, mu):
    """Safe constant step size under a gradient-dominance constant mu:
    the nonconvex formula with the A*C term counted four times (A
    scaled by 4), capped at min{rho1, rho2} / (2*mu).
    """
    smooth_branch = theoretical_gamma_nonconvex(constants.scaled({"A": 4.0}), L)
    memory_branch = min(constants.rho1, constants.rho2) / (2.0 * check_positive("mu", mu))
    return min(smooth_branch, memory_branch)


def tuned_gamma(constants, L, multiplier):
    """Theoretical nonconvex step size scaled by a grid-searched factor."""
    return check_positive("multiplier", multiplier) * theoretical_gamma_nonconvex(constants, L)


def adaptive_step_size(nu, alpha, total):
    """Pure arithmetic of the adaptive rule:
    gamma = nu^(-(1-alpha)/2) * total^(-alpha), where total is the
    accumulated sum of squared estimate norms INCLUDING the current one.
    Returns 0 when the accumulator is still zero (a stationary start).
    """
    if total < 0.0:
        raise ValueError("accumulated energy cannot be negative")
    if total == 0.0:
        return 0.0
    return nu ** (-(1.0 - alpha) / 2.0) * total ** (-alpha)


@dataclass(frozen=True)
class FixedStep:
    """The same gamma at every step (theoretical, tuned, pl, constant)."""

    gamma: float
    stationary = False

    def advance(self, g_t):
        return self.gamma, -self.gamma * g_t


@dataclass
class AdaptiveAccumulator:
    """Running state of the parameter-free schedule.

    alpha must lie strictly inside (0, 1/3); the analysis breaks on the
    closed boundary.  nu comes from nu_of(constants) (it is clamped to
    >= 1, which makes the numerator a pure decrease).  The accumulator
    adds ||g_t||^2 BEFORE producing gamma_t, so the first step already
    divides by a positive quantity whenever g_0 is nonzero.
    """

    nu: float
    alpha: float = 0.33
    total: float = field(default=0.0, init=False)
    steps: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0 / 3.0:
            raise ValueError(
                f"alpha must lie strictly in (0, 1/3), got {self.alpha}"
            )
        if self.nu < 1.0:
            raise ValueError(f"nu must be >= 1 (it is clamped upstream), got {self.nu}")
        if not self.nu < math.inf:
            raise ValueError(f"nu must be finite, got {self.nu}")

    @property
    def stationary(self):
        """True when every estimate so far was exactly zero, in which
        case the iterate never moves and the run can stop."""
        return self.steps > 0 and self.total == 0.0

    def gamma(self, g_t):
        """Absorb the next estimate and return gamma_t."""
        g_t = np.asarray(g_t, dtype=float)
        self.total += float(g_t @ g_t)
        self.steps += 1
        return adaptive_step_size(self.nu, self.alpha, self.total)

    def advance(self, g_t):
        gamma_t = self.gamma(g_t)
        return gamma_t, -gamma_t * g_t


# (B*rho2 + A*C) / (rho1*rho2) per method in its hyperparameters, derived
# by plugging the registered tuple into the ratio and simplifying by hand;
# tests hold it to the generic nu_of route at floating-point accuracy.
_COROLLARY_RATIOS = {
    "lsvrg": lambda b, p, **_: 2.0 / b + 4.0 / (b * p) + 8.0 / (b * p * p),
    "saga": lambda b, n, **_: 4.0 * n * n / b**3 + 6.0 * n / b**2 + 2.0 / b,
    "page": lambda b, p, **_: (1.0 - p) / (b * p),
    "zerosarah": lambda b, n, **_: 4.0 * n * (n + 1.0) / (b * b),
    "ef21": lambda delta, **_: 4.0 * delta**3 / (delta + 1.0),
    "diana": lambda omega, n_clients, **_: (
        2.0 * omega * (2.0 * omega + 3.0) * (omega + 1.0) / n_clients
    ),
    "dasha": lambda omega, n_clients, **_: 2.0 * omega * (4.0 * omega + 1.0) / n_clients,
    "sega": lambda b, d, **_: d * d / (b * b) + 6.0 * d**3 / b**3,
    "jaguar": lambda b, d, **_: 6.0 * d * d / (b * b),
}


def corollary_step_size(method, alpha, total, **hp):
    """Adaptive step size written directly in method hyperparameters,
    bypassing the constants table: ``adaptive_step_size`` at
    nu = max(r, 1), r the hand-substituted coupling ratio, which is
    nu_of(constants(...)) up to rounding.
    """
    ratio = _COROLLARY_RATIOS.get(method)
    if ratio is None:
        raise ValueError(f"unknown method {method!r}")
    return adaptive_step_size(max(ratio(**hp), 1.0), alpha, total)


# Adam's moment decay rates and denominator offset
_M_DECAY, _V_DECAY, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment memory for the Adam baseline."""

    dim: int
    lr: float = 0.001
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    t: int = field(default=0, init=False)
    stationary = False

    def __post_init__(self):
        self.lr = check_positive("lr", self.lr)
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)

    def advance(self, g_t):
        """One bias-corrected Adam update: ``(lr, update)``; the first is
        about -lr * sign(g), as m_hat / sqrt(v_hat) starts at g / |g|."""
        g_t = np.asarray(g_t, dtype=float)
        self.t += 1
        self.m = _M_DECAY * self.m + (1.0 - _M_DECAY) * g_t
        self.v = _V_DECAY * self.v + (1.0 - _V_DECAY) * g_t * g_t
        m_hat = self.m / (1.0 - _M_DECAY**self.t)
        v_hat = self.v / (1.0 - _V_DECAY**self.t)
        return self.lr, -self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
