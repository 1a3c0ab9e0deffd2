"""Censoring-aware evaluation metrics.

The censoring survival function G is estimated by Kaplan-Meier on the
training split with the event indicator flipped.  All inverse-probability
weights are capped at 10.  G is evaluated at its left limit for
event-subject weights, the standard convention that keeps a subject from
weighting itself through its own censoring mass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaincc

from .errors import ContractError, HorizonError, UndefinedMetricError

IPCW_CAP = 10.0
SURVIVAL_CLAMP = 1e-7
CTD_BLOCK_CELLS = 1 << 19  # (subject, event) cells c_index_td compares at once
DCAL_BINS = 10
# the full horizon is the last training time with censoring survival at least this
HORIZON_SUPPORT = 1e-3
# points of an integrated metric's grid; a report predicts on these grids
INTEGRATION_POINTS = 100


# --- step functions and Kaplan-Meier -----------------------------------------

@dataclass
class StepFunction:
    """Right-continuous step function; value before the first jump is 1."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(np.diff(self.times) <= 0):
            raise ContractError("step function times must be strictly increasing")

    def __call__(self, t, side: str = "right"):
        """Value at t; ``side='left'`` gives the left limit."""
        t = np.asarray(t, dtype=np.float64)
        where = "right" if side == "right" else "left"
        idx = np.searchsorted(self.times, t, side=where) - 1
        out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)], 1.0)
        return out if out.ndim else float(out)


def kaplan_meier(times, events) -> StepFunction:
    """Product-limit estimator of the survival function of the indicated event."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events)
    if len(times) == 0:
        raise ContractError("kaplan_meier requires a nonempty sample")
    if np.any(times < 0):
        raise ContractError("times must be nonnegative")
    order = np.argsort(times, kind="mergesort")
    t_sorted = times[order]
    e_sorted = events[order].astype(np.int64)
    uniq, start = np.unique(t_sorted, return_index=True)
    counts = np.diff(np.append(start, len(t_sorted)))
    deaths = np.add.reduceat(e_sorted, start)
    at_risk = len(t_sorted) - np.append(0, np.cumsum(counts))[:-1]
    surv = np.cumprod(1.0 - deaths / at_risk)
    jumps = deaths > 0
    if not np.any(jumps):
        return StepFunction(uniq[-1:], np.array([1.0]))
    return StepFunction(uniq[jumps], surv[jumps])


def censoring_survival(times, events) -> StepFunction:
    """Kaplan-Meier estimate of the censoring distribution (flipped indicator)."""
    events = np.asarray(events)
    return kaplan_meier(times, 1 - events)


# --- prediction container -----------------------------------------------------

class SurvivalCurves:
    """Per-subject survival probabilities over a shared ascending grid.

    Linear between grid points, anchored at S(0) = 1, constant past the end.
    """

    def __init__(self, grid, values):
        self.grid = np.asarray(grid, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.grid.ndim != 1 or not len(self.grid) or np.any(np.diff(self.grid) <= 0):
            raise ContractError("prediction grid must be nonempty and strictly ascending")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.grid):
            raise ContractError(
                f"prediction matrix {self.values.shape} does not match grid "
                f"length {len(self.grid)}")
        pad = int(self.grid[0] > 0)  # prepend the S(0) = 1 anchor unless the grid has it
        self._grid = np.pad(self.grid, (pad, 0))
        self._values = np.pad(self.values, ((0, 0), (pad, 0)), constant_values=1.0)

    @property
    def n_subjects(self):
        return self.values.shape[0]

    def _interpolate(self, ts, rows):
        """Values at ``ts`` of all subjects (``rows`` a slice) or of one per time."""
        grid = self._grid
        idx = np.clip(np.searchsorted(grid, ts, side="right") - 1, 0, len(grid) - 2)
        t0, t1 = grid[idx], grid[idx + 1]
        frac = np.clip(np.where(t1 > t0, (ts - t0) / (t1 - t0), 0.0), 0.0, 1.0)
        return self._values[rows, idx] * (1.0 - frac) + self._values[rows, idx + 1] * frac

    def at_times(self, ts):
        """Values at arbitrary times, shape (n_subjects, len(ts))."""
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        return self._interpolate(ts, slice(None))

    def at_own_times(self, ts):
        """S_i(t_i) for one time per subject, gathered one cell per row."""
        ts = np.asarray(ts, dtype=np.float64)
        if len(ts) != self.n_subjects:
            raise ContractError("need exactly one time per subject")
        return self._interpolate(ts, np.arange(len(ts)))


# --- IPCW weights --------------------------------------------------------------

def _capped_inverse(g_values):
    """Weights min(1 / g, cap) and the mask of those the cap clipped."""
    g = np.asarray(g_values, dtype=np.float64)
    inv = np.divide(1.0, g, out=np.full_like(g, np.inf), where=g > 0)
    return np.minimum(inv, IPCW_CAP), inv > IPCW_CAP


# --- time-dependent concordance -------------------------------------------------

@dataclass
class CIndexResult:
    value: float
    n_comparable_pairs: int
    n_tied_predictions: int
    n_clipped_weights: int


def c_index_td(curves: SurvivalCurves, times, events, ghat: StepFunction,
               horizon: float) -> CIndexResult:
    """IPCW time-dependent concordance.

    Comparable pairs take an event subject i with o_i < horizon against any
    subject j with o_i < o_j; the pair is concordant when S_i(o_i) < S_j(o_i)
    strictly.  Event-subject weights are min(1 / G(o_i-)^2, 10).
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events).astype(bool)
    if curves.n_subjects != len(times):
        raise ContractError("curves and test set sizes differ")
    ev = np.flatnonzero(events & (times < horizon))
    if len(ev) == 0:
        raise UndefinedMetricError("no event subject before the horizon")
    w_sq, clipped = _capped_inverse(ghat(times[ev], side="left") ** 2)

    counts = np.empty((3, len(ev)), dtype=np.int64)  # later, concordant, tied
    width = max(1, CTD_BLOCK_CELLS // len(times))
    for lo in range(0, len(ev), width):
        cols = ev[lo:lo + width]
        s = curves.at_times(times[cols])  # S_j(o_i), one column per event i
        s_own = s[cols, np.arange(len(cols))]
        later = times[:, None] > times[cols]
        counts[:, lo:lo + width] = [np.count_nonzero(m, axis=0) for m in
                                    (later, later & (s > s_own), later & (s == s_own))]
    later, concordant, tied = counts
    numer = np.cumsum(w_sq * concordant)[-1]  # sequential, so blocking cannot change it
    denom = np.cumsum(w_sq * later)[-1]
    comparable = int(later.sum())
    if comparable == 0 or denom == 0.0:
        raise UndefinedMetricError("no comparable pairs before the horizon")
    return CIndexResult(value=float(numer / denom), n_comparable_pairs=comparable,
                        n_tied_predictions=int(tied.sum()),
                        n_clipped_weights=int(clipped.sum()))


# --- Brier score and binomial log-likelihood -------------------------------------

def _ipcw_scores(curves: SurvivalCurves, times, events, ghat: StepFunction, ts):
    """Brier score, binomial log-likelihood and clipped weights at each of ``ts``.

    Arrays are (time, subject) and row-major: each mean sums like a 1-D one.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events).astype(bool)
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    g_t = ghat(ts)
    if np.any(g_t <= 0.0):
        raise HorizonError(f"time {ts[g_t <= 0.0][0]} is beyond the censoring support")
    s = np.ascontiguousarray(curves.at_times(ts).T)
    s_bll = np.clip(s, SURVIVAL_CLAMP, 1.0 - SURVIVAL_CLAMP)
    died = (times < ts[:, None]) & events
    alive = times > ts[:, None]
    w_died, _ = _capped_inverse(ghat(times, side="left"))
    w_alive, clip_alive = _capped_inverse(g_t[:, None])

    def mean(if_died, if_alive):
        terms = np.where(died, if_died * w_died, np.where(alive, if_alive * w_alive, 0.0))
        return terms.mean(axis=1)

    clipped = np.count_nonzero(died & (w_died >= IPCW_CAP), axis=1) + (
        clip_alive[:, 0] & alive.any(axis=1))
    return mean(s ** 2, (1.0 - s) ** 2), mean(np.log(1.0 - s_bll), np.log(s_bll)), clipped


def _integration_grid(times, horizon, n_points=INTEGRATION_POINTS):
    times = np.asarray(times, dtype=np.float64)
    positive = times[times > 0]
    if len(positive) == 0:
        raise ContractError("no positive observed times")
    start = float(positive.min())
    if horizon <= start:
        return np.array([start])
    return np.linspace(start, horizon, n_points)


def _integrated(curves, times, events, ghat, horizon, n_points, score):
    """Trapezoid integral of one ``_ipcw_scores`` score, normalized by the window."""
    grid = _integration_grid(times, horizon, n_points)
    values = _ipcw_scores(curves, times, events, ghat, grid)[score]
    if len(grid) == 1:
        return float(values[0])
    return float(np.trapezoid(values, grid) / (grid[-1] - grid[0]))


def integrated_brier_score(curves, times, events, ghat, horizon,
                           n_points: int = INTEGRATION_POINTS):
    """Trapezoid integral of BS(t) over the evaluation window, normalized."""
    return _integrated(curves, times, events, ghat, horizon, n_points, 0)


def integrated_binomial_ll(curves, times, events, ghat, horizon,
                           n_points: int = INTEGRATION_POINTS):
    """Trapezoid integral of the IPCW binomial log-likelihood over the
    evaluation window, normalized by its width.

    At each time t the score averages log(1 - S_i(t)) over subjects with an
    event before t and log S_i(t) over those still at risk after t, each
    weighted by the inverse censoring survival.  S is clamped to
    [``SURVIVAL_CLAMP``, 1 - ``SURVIVAL_CLAMP``] so the logs stay finite.
    The value is at most 0; higher is better.
    """
    return _integrated(curves, times, events, ghat, horizon, n_points, 1)


# --- D-calibration ---------------------------------------------------------------

@dataclass
class DCalResult:
    statistic: float
    p_value: float
    bin_mass: np.ndarray


def d_calibration(s_at_obs, events) -> DCalResult:
    """Chi-square uniformity test of S_i(o_i) over ``DCAL_BINS`` equal-width bins.

    An uncensored subject puts mass 1 in the bin containing S_i(o_i); a
    censored subject spreads its mass uniformly over [0, S_i(o_i)].
    """
    s = np.asarray(s_at_obs, dtype=np.float64)
    events = np.asarray(events).astype(bool)
    if len(s) == 0:
        raise ContractError("d_calibration requires a nonempty sample")
    if np.any(s < 0) or np.any(s > 1):
        raise ContractError("survival probabilities must lie in [0, 1]")
    n, bins = len(s), DCAL_BINS
    mass = np.zeros(bins)
    edges = np.linspace(0.0, 1.0, bins + 1)

    s_event = s[events]
    idx = np.minimum((s_event * bins).astype(int), bins - 1)
    np.add.at(mass, idx, 1.0)

    s_cens = np.maximum(s[~events], SURVIVAL_CLAMP)
    if len(s_cens):
        lower = np.minimum(edges[:-1][None, :], s_cens[:, None])
        upper = np.minimum(edges[1:][None, :], s_cens[:, None])
        mass += ((upper - lower) / s_cens[:, None]).sum(axis=0)

    expected = n / bins
    stat = float(np.sum((mass - expected) ** 2) / expected)
    # chi-square survival function with bins - 1 degrees of freedom
    p = gammaincc((bins - 1) / 2.0, stat / 2.0)
    return DCalResult(statistic=stat, p_value=float(p), bin_mass=mass)


# --- evaluation horizons -----------------------------------------------------------

@dataclass
class EvaluationHorizons:
    full: float
    q1: float
    q2: float
    q2_ties_full: bool


def select_horizons(train_times, train_events, test_times) -> EvaluationHorizons:
    """Full horizon from the training censoring support, quantiles from test.

    The full horizon is the largest training time point where the
    Kaplan-Meier censoring survival stays at or above ``HORIZON_SUPPORT``; Q1/Q2
    are the lower quartile and median of the test observed times, capped at
    the full horizon.  Horizons are reporting-only.
    """
    train_times = np.asarray(train_times, dtype=np.float64)
    test_times = np.asarray(test_times, dtype=np.float64)
    ghat = censoring_survival(train_times, train_events)
    candidates = np.unique(train_times)
    supported = candidates[ghat(candidates) >= HORIZON_SUPPORT]
    if len(supported) == 0:
        raise HorizonError(
            "censoring survival drops below the support threshold immediately")
    full = float(supported.max())
    q1 = float(min(np.quantile(test_times, 0.25), full))
    q2_raw = float(np.quantile(test_times, 0.5))
    q2 = min(q2_raw, full)
    return EvaluationHorizons(full=full, q1=q1, q2=float(q2),
                              q2_ties_full=bool(q2 >= full))


# --- full report --------------------------------------------------------------------

def evaluation_report(curves_fn, train_times, train_events, test_times,
                      test_events) -> dict:
    """Metrics at the three standard horizons plus D-calibration.

    ``curves_fn(grid) -> survival matrix`` supplies predictions on demand so
    each integrated metric can use its own horizon-specific grid.
    """
    horizons = select_horizons(train_times, train_events, test_times)
    ghat = censoring_survival(train_times, train_events)

    report = {"horizons": {}, "horizon_taus": asdict(horizons)}
    clip_events = 0
    n_comparable = None
    for name, tau in (("full", horizons.full), ("q1", horizons.q1),
                      ("q2", horizons.q2)):
        grid = _integration_grid(test_times, tau)
        curves = SurvivalCurves(grid, curves_fn(grid))
        if name == "full":
            full_curves = curves
        try:
            cres = c_index_td(full_curves, test_times, test_events, ghat, tau)
            ctd = cres.value
            clip_events += cres.n_clipped_weights
            if name == "full":
                n_comparable = cres.n_comparable_pairs
        except UndefinedMetricError:
            ctd = None
        report["horizons"][name] = {
            "tau": float(tau),
            "ctd": ctd,
            "ibs": integrated_brier_score(curves, test_times, test_events, ghat, tau),
            "ibll": integrated_binomial_ll(curves, test_times, test_events, ghat, tau),
        }

    s_at_obs = np.clip(full_curves.at_own_times(test_times), 0.0, 1.0)
    dcal = d_calibration(s_at_obs, test_events)
    report["dcal_stat"] = dcal.statistic
    report["dcal_p"] = dcal.p_value
    report["n_comparable_pairs"] = n_comparable
    report["clip_events"] = clip_events
    return report
