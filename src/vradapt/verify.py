"""Empirical validation of the estimator error recursions and the
convergence behavior the step-size rules promise.

The margin checker freezes estimator states along a short trajectory,
then Monte-Carlo-estimates the conditional expectations in the two
recursions at each state, comparing against the registered constants and
the problem's exact smoothness bound.  Quadratic fixtures only: the
right-hand sides need an L that is exact, not estimated.

The samples at a state are drawn in vectorised blocks of SAMPLE_BLOCK
transitions through the estimator's ``step_batch``, which leaves the
frozen state untouched.  Versions that stepped a clone once per sample
froze the same states and computed the same right-hand sides from them,
but drew a different Monte Carlo sample stream, so their sampled means
and margins differ slightly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import opened
from .estimators import VRConstants, estimator_class, make_estimator
from .problems import make_quadratic
from .schedulers import theoretical_gamma_nonconvex

# Each estimator class's ``alignment`` names which sigma^2 snapshot the
# first inequality's A-term couples to.
#   prev  - sigma^2 at the frozen state (most methods)
#   next  - sigma^2 after the sampled step (error feedback: the server
#           error is bounded by the CURRENT mean client error, Jensen)
#   cross - client-gradient-to-shift mismatch at the candidate point
#           with the frozen shifts (shift-compensated compression)
#   none  - the method has no auxiliary sequence; skip inequality 2

# A class's ``probe_state`` is the state at which the candidate point is
# chosen adversarially (along the current compression error) instead of
# the natural next iterate.  Error feedback needs this: on a benign
# trajectory the movement term dominates and a halved C would still look
# safe, so the checker would have no power against mutated constants.
PROBE_SCALE = 0.1

# Monte Carlo transitions per ``step_batch`` call: large enough to leave
# the interpreter out of the per-sample cost, small enough to keep the
# (block, n, d) temporaries small.
SAMPLE_BLOCK = 256


@dataclass(frozen=True)
class MarginRow:
    method: str
    inequality: int
    state_point: int
    lhs: float
    rhs: float
    margin: float
    stderr: float
    passed: bool


@dataclass
class MarginReport:
    method: str
    alignment: str
    constants: VRConstants
    gamma: float
    rows: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def worst(self):
        return max(self.rows, key=lambda r: r.margin - 3.0 * r.stderr)


def _pass_margin(mean, stderr, lhs, rhs):
    # 3 standard errors of Monte-Carlo slack plus a relative floor for
    # the deterministic-equality cases (stderr exactly 0, margin ~ 1 ulp)
    slack = 3.0 * stderr + 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return mean <= slack


def assumption_margin(
    method,
    hyperparams,
    problem,
    state_points=10,
    samples_per_point=20000,
    seed=0,
    constants_override=None,
):
    """Check both error recursions at frozen states.

    States are the estimator's own trajectory under the registered
    constant step size; at each state, fresh sampling randomness drives
    ``samples_per_point`` one-step transitions to a fixed candidate
    point, drawn SAMPLE_BLOCK at a time by ``step_batch``, and the
    empirical means are compared with the right-hand sides.
    The registered tuple is the one the estimator built from
    ``hyperparams`` reports (``constants()``).  ``constants_override``
    evaluates the inequalities with a different tuple (the trajectory
    and step size stay registered), which is how the mutation test
    works.
    """
    if samples_per_point < 1000:
        raise ValueError("need at least 1000 samples per state point")
    if state_points < 1:
        raise ValueError("need at least one state point")

    L = problem.smoothness
    L2 = L * L
    x0 = problem.x_opt + np.ones(problem.dim) / max(L, 1.0)
    est = make_estimator(method, problem, x0, dict(hyperparams))
    alignment = est.alignment
    reg = est.constants()
    cons = constants_override if constants_override is not None else reg
    gamma = theoretical_gamma_nonconvex(reg, L)
    traj_rng = np.random.default_rng([seed, 0x7E57])

    report = MarginReport(method=method, alignment=alignment, constants=cons, gamma=gamma)
    for sp in range(state_points):
        x_prev = est.x
        g_prev = est.estimate
        prev_err = float(np.sum((g_prev - problem.full_grad(x_prev)) ** 2))
        sigma_prev = est.sigma_sq()

        if est.probe_state == sp:
            x_cand = x_prev + (PROBE_SCALE / L) * (problem.full_grad(x_prev) - g_prev)
        else:
            x_cand = x_prev - gamma * g_prev
        dx2 = float(np.sum((x_cand - x_prev) ** 2))
        grad_cand = problem.full_grad(x_cand)

        if alignment == "cross":
            sigma_for_ineq1 = est.shift_mismatch(x_cand)
        else:
            sigma_for_ineq1 = sigma_prev

        rng = np.random.default_rng([seed, 1 + sp])
        err_new = np.empty(samples_per_point)
        sigma_new = np.empty(samples_per_point)
        for start in range(0, samples_per_point, SAMPLE_BLOCK):
            block = slice(start, min(start + SAMPLE_BLOCK, samples_per_point))
            G, sigma_new[block] = est.step_batch(x_cand, rng, block.stop - start)
            err_new[block] = ((G - grad_cand) ** 2).sum(axis=1)

        base1 = (1.0 - cons.rho1) * prev_err + cons.B * L2 * dx2
        if alignment == "next":
            margins1 = err_new - (base1 + cons.A * sigma_new)
            rhs1 = base1 + cons.A * float(sigma_new.mean())
        else:
            margins1 = err_new - (base1 + cons.A * sigma_for_ineq1)
            rhs1 = base1 + cons.A * sigma_for_ineq1
        report.rows.append(
            _row(method, 1, sp, float(err_new.mean()), rhs1, margins1)
        )

        if alignment != "none":
            rhs2 = (1.0 - cons.rho2) * sigma_prev + cons.C * L2 * dx2
            margins2 = sigma_new - rhs2
            report.rows.append(
                _row(method, 2, sp, float(sigma_new.mean()), rhs2, margins2)
            )

        # advance the trajectory by one natural step
        est.step(x_prev - gamma * g_prev, traj_rng)
    return report


def _row(method, inequality, sp, lhs, rhs, margins):
    mean = float(margins.mean())
    stderr = float(margins.std(ddof=1) / math.sqrt(len(margins))) if len(margins) > 1 else 0.0
    return MarginRow(
        method=method,
        inequality=inequality,
        state_point=sp,
        lhs=lhs,
        rhs=rhs,
        margin=mean,
        stderr=stderr,
        passed=_pass_margin(mean, stderr, lhs, rhs),
    )


def standard_margin_setup(method):
    """The (problem, hyperparams) fixture the margin suite runs on: a
    20-component, 10-dimensional quadratic with the component spectrum
    the method's class declares (``fixture_eigs``; random curvature
    unless the class says otherwise) and its ``fixture``
    hyperparameters."""
    cls = estimator_class(method)
    return make_quadratic(20, 10, seed=0, eig_range=cls.fixture_eigs), dict(cls.fixture)


MARGIN_CSV_HEADER = "method,inequality,state_point,lhs,rhs,margin,stderr,pass"


def margins_to_csv(reports, sink):
    """Write one or more margin reports as CSV (pass column is 1/0)."""
    if isinstance(reports, MarginReport):
        reports = [reports]
    with opened(sink, "w") as handle:
        handle.write(MARGIN_CSV_HEADER + "\n")
        for report in reports:
            for r in report.rows:
                handle.write(
                    f"{r.method},{r.inequality},{r.state_point},"
                    f"{r.lhs:.17g},{r.rhs:.17g},{r.margin:.17g},{r.stderr:.17g},"
                    f"{1 if r.passed else 0}\n"
                )


def rate_slope(trace, burn_in_fraction=0.2):
    """Least-squares slope of log(running-min exact gradient norm)
    against log t, after discarding the first burn_in_fraction of the
    recorded rows (and any t=0 row, whose log is undefined)."""
    if not 0.0 <= burn_in_fraction < 1.0:
        raise ValueError("burn_in_fraction must lie in [0, 1)")
    rows = list(trace)
    if len(rows) < 50:
        raise ValueError("need at least 50 recorded points for a slope fit")
    norms = np.array([r.grad_norm for r in rows])
    running_min = np.minimum.accumulate(np.clip(norms, 1e-300, None))
    ts = np.array([r.t for r in rows], dtype=float)
    start = int(len(rows) * burn_in_fraction)
    keep = ts[start:] >= 1.0
    log_t = np.log(ts[start:][keep])
    log_norm = np.log(running_min[start:][keep])
    if len(log_t) < 2:
        raise ValueError("not enough points after burn-in")
    slope, _ = np.polyfit(log_t, log_norm, 1)
    return float(slope)


def pl_decay_check(trace, gamma, mu, f_star=None):
    """Fit the geometric decay factor of the function gap and compare
    with the guaranteed per-step factor 1 - gamma*mu (plus 0.05 slack).

    Needs the problem's exact optimal value; traces from problems
    without a known one are rejected.  Rows where the gap has collapsed
    below 1e-14 of the initial gap are excluded from the fit (they sit
    at rounding noise).
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if f_star is None:
        raise ValueError("f_star is required (use a fixture whose optimum is known)")
    rows = list(trace)
    if len(rows) < 3:
        raise ValueError("need at least 3 recorded points")
    ts = np.array([r.t for r in rows], dtype=float)
    gaps = np.array([r.loss - f_star for r in rows])
    if gaps[0] <= 0.0:
        raise ValueError("initial gap is not positive; wrong f_star?")
    cutoff = gaps[0] * 1e-14
    keep = gaps > cutoff
    # keep only the leading run: once the gap hits rounding, stop
    if not keep.all():
        first_bad = int(np.argmin(keep))
        keep[first_bad:] = False
    if keep.sum() < 3:
        raise ValueError("gap collapsed too quickly to fit a decay factor")
    slope, _ = np.polyfit(ts[keep], np.log(gaps[keep]), 1)
    factor = float(np.exp(slope))
    bound = 1.0 - gamma * mu
    return {
        "factor": factor,
        "bound": bound,
        "slack": 0.05,
        "passed": factor <= bound + 0.05,
        "points_used": int(keep.sum()),
    }


def grad_fd_check(problem, points=3, h=1e-6, seed=0):
    """Max over random points and coordinates of the relative gap between
    the analytic gradient and a central finite difference:
    |analytic - fd| / (|analytic| + h)."""
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if points < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        x = rng.standard_normal(problem.dim)
        analytic = problem.full_grad(x)
        for j in range(problem.dim):
            e = np.zeros(problem.dim)
            e[j] = h
            fd = (problem.loss(x + e) - problem.loss(x - e)) / (2.0 * h)
            rel = abs(analytic[j] - fd) / (abs(analytic[j]) + h)
            worst = max(worst, rel)
    return worst
