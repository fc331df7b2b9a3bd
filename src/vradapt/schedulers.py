"""Step-size rules: theoretical constants, the parameter-free adaptive
schedule, and an Adam baseline.

The theoretical rules take a method's recursion constants and the
smoothness bound L and return a single safe step size.  The adaptive
rule needs no L at all: it divides a fixed numerator by a growing power
of the accumulated squared estimate norms, so it starts large and decays
exactly as fast as the observed gradient energy dictates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def nu_of(constants):
    """Coupling ratio nu = max{(B*rho2 + A*C) / (rho1*rho2), 1}.

    This is the one number through which the recursion constants enter
    every step-size rule below.
    """
    c = constants
    return max((c.B * c.rho2 + c.A * c.C) / (c.rho1 * c.rho2), 1.0)


def theoretical_gamma_nonconvex(constants, L):
    """Safe constant step size for smooth nonconvex problems:
    gamma = 1 / (L * (1 + sqrt((B*rho2 + A*C) / (rho1*rho2)))).
    """
    if L <= 0.0:
        raise ValueError(f"L must be positive, got {L}")
    c = constants
    ratio = (c.B * c.rho2 + c.A * c.C) / (c.rho1 * c.rho2)
    return 1.0 / (L * (1.0 + math.sqrt(ratio)))


def theoretical_gamma_pl(constants, L, mu):
    """Safe constant step size under a gradient-dominance constant mu:
    the nonconvex formula with the A*C term counted four times, capped
    at min{rho1, rho2} / (2*mu).
    """
    if L <= 0.0:
        raise ValueError(f"L must be positive, got {L}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    c = constants
    ratio = (c.B * c.rho2 + 4.0 * c.A * c.C) / (c.rho1 * c.rho2)
    smooth_branch = 1.0 / (L * (1.0 + math.sqrt(ratio)))
    memory_branch = min(c.rho1, c.rho2) / (2.0 * mu)
    return min(smooth_branch, memory_branch)


def tuned_gamma(constants, L, multiplier):
    """Theoretical nonconvex step size scaled by a grid-searched factor."""
    if multiplier <= 0.0:
        raise ValueError(f"multiplier must be positive, got {multiplier}")
    return multiplier * theoretical_gamma_nonconvex(constants, L)


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


def _corollary_ratio(method, **hp):
    """Hand-substituted (B*rho2 + A*C) / (rho1*rho2) per method.

    Each expression was derived by plugging the registered constant
    tuple into the ratio and simplifying by hand; the generic nu_of
    route must agree to floating-point accuracy, and the identity is
    enforced by tests.
    """
    method = method.lower()
    if method == "lsvrg":
        b, p = hp["b"], hp["p"]
        return 2.0 / b + 4.0 / (b * p) + 8.0 / (b * p * p)
    if method == "saga":
        b, n = hp["b"], hp["n"]
        return 4.0 * n * n / b**3 + 6.0 * n / b**2 + 2.0 / b
    if method == "page":
        b, p = hp["b"], hp["p"]
        return (1.0 - p) / (b * p)
    if method == "zerosarah":
        b, n = hp["b"], hp["n"]
        return 4.0 * n * (n + 1.0) / (b * b)
    if method == "ef21":
        delta = hp["delta"]
        return 4.0 * delta**3 / (delta + 1.0)
    if method == "diana":
        omega, n = hp["omega"], hp["n_clients"]
        return 2.0 * omega * (2.0 * omega + 3.0) * (omega + 1.0) / n
    if method == "dasha":
        omega, n = hp["omega"], hp["n_clients"]
        return 2.0 * omega * (4.0 * omega + 1.0) / n
    if method == "sega":
        b, d = hp["b"], hp["d"]
        return d * d / (b * b) + 6.0 * d**3 / b**3
    if method == "jaguar":
        b, d = hp["b"], hp["d"]
        return 6.0 * d * d / (b * b)
    raise ValueError(f"unknown method {method!r}")


def corollary_step_size(method, alpha, total, **hp):
    """Adaptive step size written directly in method hyperparameters,
    bypassing the constants table.  gamma = max(sqrt(r), 1)^-(1-alpha)
    * total^-alpha with r the hand-substituted coupling ratio; agrees
    with adaptive_step_size(nu_of(constants(...)), ...) because
    max(sqrt(r), 1)^(1-alpha) = max(r, 1)^((1-alpha)/2).
    """
    if total < 0.0:
        raise ValueError("accumulated energy cannot be negative")
    if total == 0.0:
        return 0.0
    r = _corollary_ratio(method, **hp)
    return max(math.sqrt(r), 1.0) ** (-(1.0 - alpha)) * total ** (-alpha)


@dataclass
class AdamState:
    """First/second moment memory for the Adam baseline."""

    dim: int
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    t: int = field(default=0, init=False)

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)


def adam_baseline_step(moments, g_t):
    """One bias-corrected Adam update; returns the ADDITIVE update
    vector, i.e. the caller applies x <- x + update.

    With g = (1.0,) and lr = 0.1 the first update is about -0.1 (the
    bias-corrected ratio m_hat/sqrt(v_hat) is g/|g| up to eps).
    """
    g_t = np.asarray(g_t, dtype=float)
    moments.t += 1
    moments.m = moments.beta1 * moments.m + (1.0 - moments.beta1) * g_t
    moments.v = moments.beta2 * moments.v + (1.0 - moments.beta2) * g_t * g_t
    m_hat = moments.m / (1.0 - moments.beta1**moments.t)
    v_hat = moments.v / (1.0 - moments.beta2**moments.t)
    return -moments.lr * m_hat / (np.sqrt(v_hat) + moments.eps)
