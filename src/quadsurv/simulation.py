"""Synthetic survival data generators with analytic ground truth.

Each family is one ``Family`` entry of ``TABLE``: a covariate link to its
parameters, hazard and cumulative hazard in closed form, an exact event-time
draw, and where needed a survival closed form or a fixed censoring mechanism.
``GroundTruth`` and the samplers only read that entry.

Six parametric families share a one-dimensional covariate x ~ Uniform(-1, 1)
whose effect enters each distribution parameter through a cubic polynomial
and an exponential link (the log-normal location is the one parameter taken
from the polynomial directly).  Two scenario generators use a binary
covariate: crossing hazards (constant vs. linearly increasing) and
anti-phase sinusoidal hazards.

Censoring for the parametric families is uniform on (0, b) with b calibrated
by bisection against a Monte-Carlo sample so the realized censoring rate hits
the target; scenario censoring mechanisms are fixed (Uniform(0, 2) and
Exponential(rate 1/3) respectively) and independent of the covariate.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaln, ndtr

from .data import SurvivalData
from .errors import CalibrationError, ContractError, UsageError

_SQRT2PI = math.sqrt(2.0 * math.pi)

# cubic-link coefficients per family parameter, in the order of the params
COEFFICIENTS = {
    "exponential": {"rate": [-1.0, 0.5, -0.3, 0.15]},
    "weibull": {"shape": [0.3, 0.2, -0.1, 0.05], "scale": [2.0, 0.3, -0.2, 0.1]},
    "gamma": {"shape": [1.8, 0.3, -0.1, 0.05], "rate": [0.3, -0.4, 0.15, -0.05]},
    "gompertz": {"base": [-2.0, 0.4, -0.2, 0.1]},
    "lognormal": {"mu": [1.5, 0.8, -0.4, 0.2], "sigma": [-0.1, 0.25, -0.10, 0.03]},
    "loglogistic": {"alpha": [1.2, 0.4, -0.15, 0.08], "beta": [1.0, 0.3, -0.1, 0.05]},
}
GOMPERTZ_C = 0.05
SCENARIO2_CENSOR_RATE = 1.0 / 3.0
CALIBRATION_DRAWS = 100_000
CALIBRATION_TOL = 0.01


def poly_link(x, w):
    """w0 + w1 x + w2 x^2 + w3 x^3."""
    x = np.asarray(x, dtype=np.float64)
    return w[0] + w[1] * x + w[2] * x ** 2 + w[3] * x ** 3


def _poly_min_on_unit_interval(w):
    """Exact minimum of the cubic link over [-1, 1] (endpoints + stationary)."""
    candidates = [-1.0, 1.0]
    a, b, c = 3 * w[3], 2 * w[2], w[1]
    if a == 0:
        if b != 0:
            candidates.append(-c / b)
    else:
        disc = b * b - 4 * a * c
        if disc >= 0:
            root = math.sqrt(disc)
            candidates.extend([(-b - root) / (2 * a), (-b + root) / (2 * a)])
    vals = [poly_link(t, w) for t in candidates if -1.0 <= t <= 1.0]
    return float(min(vals))


def _safe_pow(t, p):
    """t ** p with the t = 0, p = 0 corner pinned to 1 (x = 0 group)."""
    t = np.asarray(t, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore"):
        out = np.where((t == 0) & (p == 0), 1.0,
                       np.where(t == 0, 0.0, t ** p))
    return out


# --- the family table -----------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One simulation family; ``params`` below is the tuple ``link(x)`` returns."""

    link: Callable            # x -> params
    hazard: Callable          # (t, *params) -> lambda(t | x)
    cumhaz: Callable          # (t, *params) -> Lambda(t | x)
    draw: Callable            # (rng, *params) -> one event time per x
    surv: Callable | None = None    # (t, *params), where exp(-Lambda) loses accuracy
    censor: Callable | None = None  # (rng, n), a scenario's fixed mechanism

    def survival(self, t, *params):
        if self.surv is not None:
            return self.surv(t, *params)
        return np.exp(-self.cumhaz(t, *params))


def _exp_link(family):
    """Every parameter is exp of its cubic link."""
    coeffs = list(COEFFICIENTS[family].values())
    return lambda x: tuple(np.exp(poly_link(x, w)) for w in coeffs)


def _gamma_surv(t, k, beta):
    return gammaincc(k, beta * np.asarray(t, float))


def _gamma_hazard(t, k, beta):
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_pdf = np.where(
            t > 0,
            k * np.log(beta) + (k - 1.0) * np.log(np.maximum(t, 1e-300))
            - beta * t - gammaln(k),
            -np.inf)
    return np.exp(log_pdf) / _gamma_surv(t, k, beta)


def _lognormal_surv(t, mu, sigma):
    t = np.asarray(t, dtype=np.float64)
    z = (np.log(np.maximum(t, 1e-300)) - mu) / sigma
    return np.where(t > 0, ndtr(-z), 1.0)


def _lognormal_hazard(t, mu, sigma):
    t = np.asarray(t, dtype=np.float64)
    z = (np.log(np.maximum(t, 1e-300)) - mu) / sigma
    pdf = np.where(
        t > 0,
        np.exp(-0.5 * z * z) / (np.maximum(t, 1e-300) * sigma * _SQRT2PI),
        0.0)
    return pdf / _lognormal_surv(t, mu, sigma)


def _loglogistic_hazard(t, alpha, beta):
    t = np.asarray(t, dtype=np.float64)
    u = _safe_pow(t / alpha, beta)
    return (beta / alpha) * _safe_pow(t / alpha, beta - 1.0) / (1.0 + u)


def _scenario2_cumhaz(t, sign):
    t = np.asarray(t, float)
    return t + 0.2 * sign * (1.0 - np.cos(4.0 * t))


def _scenario2_draw(rng, sign, tol: float = 1e-10):
    """Solve Lambda(t | x) = E by bisection; Lambda is strictly increasing
    because the hazard stays >= 0.2."""
    e = rng.exponential(1.0, size=np.shape(sign))
    lo = np.zeros_like(e)
    hi = e + 1.4  # Lambda(t) >= t - 0.4, so Lambda(e + 1.4) > e everywhere
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        too_low = _scenario2_cumhaz(mid, sign) < e
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


def _neg_log(surv):
    return lambda t, *params: -np.log(surv(t, *params))


TABLE = {
    "exponential": Family(
        link=_exp_link("exponential"),
        hazard=lambda t, rate: np.broadcast_to(
            rate, np.broadcast_shapes(np.shape(t), np.shape(rate))).copy(),
        cumhaz=lambda t, rate: rate * np.asarray(t, float),
        draw=lambda rng, rate: rng.exponential(1.0, size=np.shape(rate)) / rate),
    "weibull": Family(
        link=_exp_link("weibull"),
        hazard=lambda t, k, scale: (k / scale) * _safe_pow(
            np.asarray(t, float) / scale, k - 1.0),
        cumhaz=lambda t, k, scale: _safe_pow(np.asarray(t, float) / scale, k),
        draw=lambda rng, k, scale:
            scale * rng.exponential(1.0, size=np.shape(k)) ** (1.0 / k)),
    "gamma": Family(
        link=_exp_link("gamma"),
        hazard=_gamma_hazard,
        cumhaz=_neg_log(_gamma_surv),
        surv=_gamma_surv,
        draw=lambda rng, k, beta: rng.gamma(shape=k) / beta),
    "gompertz": Family(
        link=_exp_link("gompertz"),
        hazard=lambda t, b: b * np.exp(GOMPERTZ_C * np.asarray(t, float)),
        cumhaz=lambda t, b: (b / GOMPERTZ_C) * np.expm1(GOMPERTZ_C * np.asarray(t, float)),
        draw=lambda rng, b: np.log1p(
            GOMPERTZ_C * rng.exponential(1.0, size=np.shape(b)) / b) / GOMPERTZ_C),
    "lognormal": Family(
        link=lambda x: (poly_link(x, COEFFICIENTS["lognormal"]["mu"]),
                        np.exp(poly_link(x, COEFFICIENTS["lognormal"]["sigma"]))),
        hazard=_lognormal_hazard,
        cumhaz=_neg_log(_lognormal_surv),
        surv=_lognormal_surv,
        draw=lambda rng, mu, sigma:
            np.exp(mu + sigma * rng.standard_normal(np.shape(mu)))),
    "loglogistic": Family(
        link=_exp_link("loglogistic"),
        hazard=_loglogistic_hazard,
        cumhaz=lambda t, alpha, beta: np.log1p(
            _safe_pow(np.asarray(t, float) / alpha, beta)),
        draw=lambda rng, alpha, beta:
            alpha * (1.0 / rng.random(np.shape(alpha)) - 1.0) ** (-1.0 / beta)),
    "scenario1": Family(
        link=lambda x: (x,),
        hazard=lambda t, x: (1.0 + x) * _safe_pow(t, x),
        cumhaz=lambda t, x: _safe_pow(t, 1.0 + x),
        draw=lambda rng, x: rng.exponential(1.0, size=np.shape(x)) ** (1.0 / (1.0 + x)),
        censor=lambda rng, n: rng.uniform(0.0, 2.0, size=n)),
    "scenario2": Family(
        link=lambda x: (1.0 - 2.0 * x,),
        hazard=lambda t, sign: 1.0 + 0.8 * sign * np.sin(4.0 * np.asarray(t, float)),
        cumhaz=_scenario2_cumhaz,
        draw=_scenario2_draw,
        censor=lambda rng, n: rng.exponential(1.0 / SCENARIO2_CENSOR_RATE, size=n)),
}
FAMILIES = tuple(TABLE)
# the scenarios are the families with a fixed censoring mechanism
SCENARIO_FAMILIES = tuple(name for name, f in TABLE.items() if f.censor is not None)
PARAMETRIC_FAMILIES = tuple(name for name in TABLE if name not in SCENARIO_FAMILIES)


@dataclass(frozen=True)
class GroundTruth:
    """Closed-form hazard, cumulative hazard and survival of one family.

    ``lam``, ``cumhaz`` and ``surv`` take covariate values that broadcast
    against ``t``.  ``curves_matrix`` takes (n,) or (n, d) covariates and
    returns three (n, G) matrices; the one-covariate families read column 0.
    """

    family: str
    entry: Family = field(repr=False)

    def lam(self, t, x):
        return self.entry.hazard(t, *self.entry.link(x))

    def cumhaz(self, t, x):
        return self.entry.cumhaz(t, *self.entry.link(x))

    def surv(self, t, x):
        return self.entry.survival(t, *self.entry.link(x))

    def curves_matrix(self, xs, grid):
        f = self.entry
        xs = np.asarray(xs, dtype=np.float64)
        params = f.link((xs[:, 0] if xs.ndim == 2 else xs.reshape(-1))[:, None])
        tt = np.asarray(grid, dtype=np.float64)[None, :]
        return f.hazard(tt, *params), f.cumhaz(tt, *params), f.survival(tt, *params)

    def survival_matrix(self, xs, grid):
        return self.curves_matrix(xs, grid)[2]


def make_truth(family: str) -> GroundTruth:
    """Closed-form conditional functions for any supported family."""
    if family not in TABLE:
        raise UsageError(f"unknown family {family!r}; choose from {FAMILIES}")
    return GroundTruth(family, TABLE[family])


@dataclass
class GeneratorSpec:
    family: str
    n_train: int = 2000
    n_test: int = 2000
    censoring_target: float = 0.2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.family == "gamma":
            # the rejection sampler assumes shape >= 1 on the covariate range
            if math.exp(_poly_min_on_unit_interval(COEFFICIENTS["gamma"]["shape"])) < 1.0:
                raise UsageError("gamma shape drops below 1 on [-1, 1]")
        if min(self.n_train, self.n_test) < 1:
            raise UsageError(
                f"n_train and n_test must be >= 1, got {self.n_train}, {self.n_test}")
        if not 0.0 <= self.censoring_target < 1.0:
            raise UsageError("censoring target must be in [0, 1)")

    @property
    def is_scenario(self):
        return self.family in SCENARIO_FAMILIES


# --- samplers -----------------------------------------------------------------

def sample_covariates(spec: GeneratorSpec, n: int, rng) -> np.ndarray:
    if spec.is_scenario:
        return rng.integers(0, 2, size=n).astype(np.float64)
    return rng.uniform(-1.0, 1.0, size=n)


def sample_event_times(spec: GeneratorSpec, xs, rng) -> np.ndarray:
    """Conditional event-time draws, one per covariate value."""
    f = TABLE[spec.family]
    return f.draw(rng, *f.link(np.asarray(xs, dtype=np.float64)))


# --- censoring -----------------------------------------------------------------

def calibrate_censoring(spec: GeneratorSpec, target_rate: float, rng) -> float:
    """Upper bound b of Uniform(0, b) censoring hitting the target rate.

    With C ~ Uniform(0, b), P(censored | T) = min(T / b, 1), so the rate is
    estimated from one Monte-Carlo sample of event times and bisected in b.
    Returns ``inf`` when the target is zero (no-censoring mode).
    """
    if target_rate == 0.0:
        return math.inf
    if not 0.0 < target_rate < 1.0:
        raise ContractError(f"target rate must be in [0, 1), got {target_rate}")
    xs = sample_covariates(spec, CALIBRATION_DRAWS, rng)
    ts = sample_event_times(spec, xs, rng)
    if not np.all(ts > 0) or ts.max() == 0:
        raise CalibrationError("event-time sample degenerate at zero")

    def rate(b):
        return float(np.mean(np.minimum(ts / b, 1.0)))

    lo = float(np.quantile(ts, 0.001)) * 1e-3 or 1e-12
    hi = float(ts.max())
    for _ in range(200):
        if rate(hi) < target_rate:
            break
        hi *= 2.0
    else:
        raise CalibrationError(f"censoring rate {target_rate} unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        if abs(r - target_rate) <= CALIBRATION_TOL:
            return mid
        if r > target_rate:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection failed to reach censoring rate {target_rate}")


def sample_censoring_times(spec: GeneratorSpec, n: int, bound: float, rng):
    """Censoring draws, independent of the covariates by construction."""
    censor = TABLE[spec.family].censor
    if censor is not None:
        return censor(rng, n)
    if math.isinf(bound):
        return np.full(n, np.inf)
    return rng.uniform(0.0, bound, size=n)


# --- dataset assembly -------------------------------------------------------------

@dataclass
class SimulatedData:
    spec: GeneratorSpec
    train: SurvivalData
    test: SurvivalData
    truth: GroundTruth
    censor_bound: float
    realized_censoring: float


def generate(spec: GeneratorSpec, seed: int) -> SimulatedData:
    """Train/test datasets plus ground truth, reproducible from the seed."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if spec.is_scenario:
        bound = math.nan  # fixed mechanism, no calibration
    else:
        bound = calibrate_censoring(spec, spec.censoring_target, rng)

    def draw(n):
        xs = sample_covariates(spec, n, rng)
        ts = sample_event_times(spec, xs, rng)
        cs = sample_censoring_times(spec, n, bound, rng)
        observed = np.minimum(ts, cs)
        event = (ts <= cs).astype(np.int64)
        return SurvivalData(xs[:, None], observed, event, ("x",))

    train = draw(spec.n_train)
    test = draw(spec.n_test)
    realized = 1.0 - train.event.mean()
    return SimulatedData(spec=spec, train=train, test=test,
                         truth=make_truth(spec.family), censor_bound=bound,
                         realized_censoring=float(realized))


# --- evaluation helpers --------------------------------------------------------------

def evaluation_grid(train_times, n_points: int = 200) -> np.ndarray:
    """Equally spaced positive grid up to the 99th percentile of training times.

    The left endpoint is one spacing above zero; several true hazards are
    singular at t = 0 and the integrated errors must stay finite.
    """
    hi = float(np.quantile(np.asarray(train_times, dtype=np.float64), 0.99))
    if hi <= 0:
        raise ContractError("training times are all zero")
    return np.linspace(0.0, hi, n_points + 1)[1:]


def marginalized_curves(curve_source, xs, grid):
    """Population-average hazard, cumulative hazard and survival curves.

    ``curve_source`` is anything exposing ``curves_matrix`` (a fitted model
    or a ground-truth object); the marginal curve is the mean over subjects.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ContractError("marginalization needs a nonempty covariate sample")
    lam, cumhaz, surv = curve_source.curves_matrix(xs, grid)
    return lam.mean(axis=0), cumhaz.mean(axis=0), surv.mean(axis=0)


def l1_error(predicted, truth: GroundTruth, xs, grid):
    """Mean trapezoid L1 distance between conditional curves, per function.

    For each test subject the absolute difference is integrated over the
    grid and normalized by the grid span; results are averaged over
    subjects and returned as (survival, cumulative hazard, hazard).
    """
    grid = np.asarray(grid, dtype=np.float64)
    lam_p, ch_p, s_p = predicted.curves_matrix(xs, grid)
    lam_t, ch_t, s_t = truth.curves_matrix(xs, grid)
    span = grid[-1] - grid[0]

    def norm_l1(a, b):
        return float(np.mean(np.trapezoid(np.abs(a - b), grid, axis=1) / span))

    return norm_l1(s_p, s_t), norm_l1(ch_p, ch_t), norm_l1(lam_p, lam_t)
