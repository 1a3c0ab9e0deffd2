"""Synthetic survival data generators with analytic ground truth.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammaln, ndtr

from .data import SurvivalData
from .errors import CalibrationError, ContractError, UsageError

_SQRT2PI = math.sqrt(2.0 * math.pi)

PARAMETRIC_FAMILIES = ("exponential", "weibull", "gamma", "gompertz",
                       "lognormal", "loglogistic")
SCENARIO_FAMILIES = ("scenario1", "scenario2")
FAMILIES = PARAMETRIC_FAMILIES + SCENARIO_FAMILIES

# cubic-link coefficients per family parameter
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


@dataclass(frozen=True)
class GroundTruth:
    """Closed-form hazard, cumulative hazard and survival, vectorized in t, x."""

    family: str
    lam: callable = field(repr=False)
    cumhaz: callable = field(repr=False)
    surv: callable = field(repr=False)

    def curves_matrix(self, xs, grid):
        xs = np.asarray(xs, dtype=np.float64).reshape(-1)
        grid = np.asarray(grid, dtype=np.float64)
        xx = xs[:, None]
        tt = grid[None, :]
        return self.lam(tt, xx), self.cumhaz(tt, xx), self.surv(tt, xx)

    def survival_matrix(self, xs, grid):
        return self.curves_matrix(xs, grid)[2]


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
        if not 0.0 <= self.censoring_target < 1.0:
            raise UsageError("censoring target must be in [0, 1)")

    @property
    def is_scenario(self):
        return self.family in SCENARIO_FAMILIES


# --- closed forms -------------------------------------------------------------

def scenario_truth(family: str) -> GroundTruth:
    """Ground truth for the two node-study scenarios."""
    if family == "scenario1":
        return GroundTruth(
            family="scenario1",
            lam=lambda t, x: (1.0 + x) * _safe_pow(t, x),
            cumhaz=lambda t, x: _safe_pow(t, 1.0 + x),
            surv=lambda t, x: np.exp(-_safe_pow(t, 1.0 + x)),
        )
    if family == "scenario2":
        return GroundTruth(
            family="scenario2",
            lam=lambda t, x: 1.0 + 0.8 * (1.0 - 2.0 * x) * np.sin(4.0 * np.asarray(t, float)),
            cumhaz=lambda t, x: np.asarray(t, float)
            + 0.2 * (1.0 - 2.0 * x) * (1.0 - np.cos(4.0 * np.asarray(t, float))),
            surv=lambda t, x: np.exp(
                -(np.asarray(t, float)
                  + 0.2 * (1.0 - 2.0 * x) * (1.0 - np.cos(4.0 * np.asarray(t, float))))),
        )
    raise UsageError(f"not a scenario family: {family!r}")


def _safe_pow(t, p):
    """t ** p with the t = 0, p = 0 corner pinned to 1 (x = 0 group)."""
    t = np.asarray(t, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore"):
        out = np.where((t == 0) & (p == 0), 1.0,
                       np.where(t == 0, 0.0, t ** p))
    return out


def make_truth(family: str) -> GroundTruth:
    """Closed-form conditional functions for any supported family."""
    if family in SCENARIO_FAMILIES:
        return scenario_truth(family)
    co = COEFFICIENTS[family]
    if family == "exponential":
        def lam(t, x):
            return np.broadcast_to(np.exp(poly_link(x, co["rate"])),
                                   np.broadcast_shapes(np.shape(t), np.shape(x))).copy()

        def cumhaz(t, x):
            return np.exp(poly_link(x, co["rate"])) * np.asarray(t, float)
    elif family == "weibull":
        def _params(x):
            return np.exp(poly_link(x, co["shape"])), np.exp(poly_link(x, co["scale"]))

        def lam(t, x):
            k, lam_ = _params(x)
            return (k / lam_) * _safe_pow(np.asarray(t, float) / lam_, k - 1.0)

        def cumhaz(t, x):
            k, lam_ = _params(x)
            return _safe_pow(np.asarray(t, float) / lam_, k)
    elif family == "gamma":
        def _params(x):
            return np.exp(poly_link(x, co["shape"])), np.exp(poly_link(x, co["rate"]))

        def surv_g(t, x):
            k, beta = _params(x)
            return gammaincc(k, beta * np.asarray(t, float))

        def lam(t, x):
            k, beta = _params(x)
            t = np.asarray(t, dtype=np.float64)
            with np.errstate(divide="ignore"):
                log_pdf = np.where(
                    t > 0,
                    k * np.log(beta) + (k - 1.0) * np.log(np.maximum(t, 1e-300))
                    - beta * t - gammaln(k),
                    -np.inf)
            return np.exp(log_pdf) / surv_g(t, x)

        def cumhaz(t, x):
            return -np.log(surv_g(t, x))

        return GroundTruth(family=family, lam=lam, cumhaz=cumhaz, surv=surv_g)
    elif family == "gompertz":
        def lam(t, x):
            b = np.exp(poly_link(x, co["base"]))
            return b * np.exp(GOMPERTZ_C * np.asarray(t, float))

        def cumhaz(t, x):
            b = np.exp(poly_link(x, co["base"]))
            return (b / GOMPERTZ_C) * np.expm1(GOMPERTZ_C * np.asarray(t, float))
    elif family == "lognormal":
        def _params(x):
            return poly_link(x, co["mu"]), np.exp(poly_link(x, co["sigma"]))

        def surv_ln(t, x):
            mu, sigma = _params(x)
            t = np.asarray(t, dtype=np.float64)
            z = (np.log(np.maximum(t, 1e-300)) - mu) / sigma
            return np.where(t > 0, ndtr(-z), 1.0)

        def lam(t, x):
            mu, sigma = _params(x)
            t = np.asarray(t, dtype=np.float64)
            z = (np.log(np.maximum(t, 1e-300)) - mu) / sigma
            pdf = np.where(
                t > 0,
                np.exp(-0.5 * z * z) / (np.maximum(t, 1e-300) * sigma * _SQRT2PI),
                0.0)
            return pdf / surv_ln(t, x)

        def cumhaz(t, x):
            return -np.log(surv_ln(t, x))

        return GroundTruth(family=family, lam=lam, cumhaz=cumhaz, surv=surv_ln)
    elif family == "loglogistic":
        def _params(x):
            return np.exp(poly_link(x, co["alpha"])), np.exp(poly_link(x, co["beta"]))

        def lam(t, x):
            alpha, beta = _params(x)
            t = np.asarray(t, dtype=np.float64)
            u = _safe_pow(t / alpha, beta)
            return (beta / alpha) * _safe_pow(t / alpha, beta - 1.0) / (1.0 + u)

        def cumhaz(t, x):
            alpha, beta = _params(x)
            return np.log1p(_safe_pow(np.asarray(t, float) / alpha, beta))
    else:  # pragma: no cover
        raise UsageError(f"unknown family {family!r}")

    def surv(t, x, _ch=cumhaz):
        return np.exp(-_ch(t, x))

    return GroundTruth(family=family, lam=lam, cumhaz=cumhaz, surv=surv)


# --- samplers -----------------------------------------------------------------

def sample_covariates(spec: GeneratorSpec, n: int, rng) -> np.ndarray:
    if spec.is_scenario:
        return rng.integers(0, 2, size=n).astype(np.float64)
    return rng.uniform(-1.0, 1.0, size=n)


def sample_event_times(spec: GeneratorSpec, xs, rng) -> np.ndarray:
    """Conditional event-time draws, one per covariate value."""
    xs = np.asarray(xs, dtype=np.float64)
    family = spec.family
    n = len(xs)
    if family == "exponential":
        rate = np.exp(poly_link(xs, COEFFICIENTS[family]["rate"]))
        return rng.exponential(1.0, size=n) / rate
    if family == "weibull":
        k = np.exp(poly_link(xs, COEFFICIENTS[family]["shape"]))
        lam = np.exp(poly_link(xs, COEFFICIENTS[family]["scale"]))
        return lam * rng.exponential(1.0, size=n) ** (1.0 / k)
    if family == "gamma":
        k = np.exp(poly_link(xs, COEFFICIENTS[family]["shape"]))
        beta = np.exp(poly_link(xs, COEFFICIENTS[family]["rate"]))
        return rng.gamma(shape=k) / beta
    if family == "gompertz":
        b = np.exp(poly_link(xs, COEFFICIENTS[family]["base"]))
        e = rng.exponential(1.0, size=n)
        return np.log1p(GOMPERTZ_C * e / b) / GOMPERTZ_C
    if family == "lognormal":
        mu = poly_link(xs, COEFFICIENTS[family]["mu"])
        sigma = np.exp(poly_link(xs, COEFFICIENTS[family]["sigma"]))
        return np.exp(mu + sigma * rng.standard_normal(n))
    if family == "loglogistic":
        alpha = np.exp(poly_link(xs, COEFFICIENTS[family]["alpha"]))
        beta = np.exp(poly_link(xs, COEFFICIENTS[family]["beta"]))
        u = rng.random(n)
        return alpha * (1.0 / u - 1.0) ** (-1.0 / beta)
    if family == "scenario1":
        e = rng.exponential(1.0, size=n)
        return e ** (1.0 / (1.0 + xs))
    if family == "scenario2":
        e = rng.exponential(1.0, size=n)
        return _invert_scenario2(e, xs)
    raise UsageError(f"unknown family {family!r}")


def sample_event_time(spec: GeneratorSpec, x: float, rng) -> float:
    return float(sample_event_times(spec, np.array([x]), rng)[0])


def _invert_scenario2(e, xs, tol: float = 1e-10):
    """Solve Lambda(t | x) = e by bisection; Lambda is strictly increasing
    because the hazard stays >= 0.2."""
    sign = 1.0 - 2.0 * xs

    def cumhaz(t):
        return t + 0.2 * sign * (1.0 - np.cos(4.0 * t))

    lo = np.zeros_like(e)
    hi = e + 1.4  # Lambda(t) >= t - 0.4, so Lambda(e + 1.4) > e everywhere
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        too_low = cumhaz(mid) < e
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


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
    if spec.family == "scenario1":
        return rng.uniform(0.0, 2.0, size=n)
    if spec.family == "scenario2":
        return rng.exponential(1.0 / SCENARIO2_CENSOR_RATE, size=n)
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
    xs = np.asarray(xs, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    lam_p, ch_p, s_p = predicted.curves_matrix(xs, grid)
    lam_t, ch_t, s_t = truth.curves_matrix(xs, grid)
    span = grid[-1] - grid[0]

    def norm_l1(a, b):
        return float(np.mean(np.trapezoid(np.abs(a - b), grid, axis=1) / span))

    return norm_l1(s_p, s_t), norm_l1(ch_p, ch_t), norm_l1(lam_p, lam_t)
