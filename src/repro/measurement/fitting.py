"""Fitting demand models to measured baseline grids.

The paper establishes "the relationship between application parameters
and application resource demand" by sweeping scale-down runs and
observing linear / quadratic / logarithmic shapes (Figure 2).  This
module automates that step: each one-dimensional slice of the measured
grid is fitted against the candidate term family and the best shape is
selected by AICc, then the separable product model is rescaled against
the full grid by least squares.

Every candidate is fitted with NumPy alone.  The linear, affine,
quadratic and power shapes are linear least squares.  The logarithmic
shape ``b·log1p(x/τ)`` (sand's accuracy demand) is fitted by *variable
projection*: for a fixed ``τ`` the basis ``φ = log1p(x/τ)`` is known and
the best ``b = Σyφ / Σφ²`` is closed form, so the fit reduces to the
one-dimensional residual profile ``RSS(τ)``.  That profile is minimized
over ``ln τ`` on a vectorized grid spanning ``[ln min(x>0) − 20,
ln max(x) + 20]`` (past which the term is flat or linear to 2e-9), and
the grid is shrunk around its best point until ``τ`` is pinned to 1e-9
relative.  The first pass covers the whole bracket in steps of about
0.35 in ``ln τ``, so no starting point is needed.

Why this matches scipy's bounded ``curve_fit`` (the previous method):
both minimize the same residual, ``curve_fit`` by a local trust-region
search that stops within its 1e-8 tolerances, this fit by locating the
same minimum to 1e-9 in ``ln τ``.  On the applications' slices (three
apps, seeds 0–9) the AICc choice of shape is unchanged, the residual is
never more than rounding (1e-13 relative) above ``curve_fit``'s, and
where log wins on sand ``(b, τ)`` agree within 2e-8 relative.  Only
where the profile is nearly flat do the two part by more (1.3e-6 on
x264's size slice at seed 9, where this fit's residual is 7e-11 lower).
A fit takes about 0.3 ms instead of 2–13 ms.  The log term still counts
``k = 2`` parameters in AICc.

The fitted object is what CELIA's time model consumes — ground truth
never leaks into predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.apps.demand import (
    AffineTerm,
    ConstantTerm,
    DemandTerm,
    LinearTerm,
    LogTerm,
    PowerTerm,
    QuadraticTerm,
    SeparableDemand,
)
from repro.errors import FittingError
from repro.measurement.baseline import DemandSamples

__all__ = ["TermFit", "FittedDemand", "fit_term", "fit_separable_demand",
           "DEFAULT_TERM_KINDS"]

#: Candidate shapes considered by default, in report order.
DEFAULT_TERM_KINDS: tuple[str, ...] = (
    "linear", "affine", "quadratic", "power", "log",
)

#: The log fit's search bracket reaches this far (in ln τ) past the
#: samples: below ``min(x>0)·e⁻²⁰`` the term is flat to 2e-9 of its
#: value and above ``max(x)·e²⁰`` it is linear to 2e-9.
_LOG_TAU_MARGIN = 20.0
#: Points per grid pass over ln τ; each pass shrinks the bracket to two
#: steps around the best point, 64× narrower.
_LOG_TAU_GRID = 129
#: Stop once a grid step in ln τ is this small (τ known to 1e-9 relative).
_LOG_TAU_TOL = 1e-9


@dataclass(frozen=True)
class TermFit:
    """A fitted one-dimensional term plus goodness-of-fit diagnostics."""

    term: DemandTerm
    kind: str
    r2: float
    aicc: float
    n_samples: int

    def describe(self) -> str:
        """Readable summary, e.g. ``quadratic: 314 + 0.574*x^2 (R2=1.000)``."""
        return f"{self.kind}: {self.term.describe()} (R2={self.r2:.4f})"


def _metrics(y: np.ndarray, pred: np.ndarray, k_params: int) -> tuple[float, float]:
    """(R², AICc) of a fit with ``k_params`` free parameters."""
    n = y.size
    rss = float(np.sum((y - pred) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    # Guard log(0) when the fit is exact: floor RSS at a tiny relative value.
    rss = max(rss, 1e-12 * max(tss, 1.0))
    aic = n * math.log(rss / n) + 2 * k_params
    denom = n - k_params - 1
    aicc = aic + (2 * k_params * (k_params + 1) / denom) if denom > 0 else math.inf
    return r2, aicc


def _try_linear(x: np.ndarray, y: np.ndarray) -> tuple[DemandTerm, np.ndarray, int] | None:
    denom = float(np.sum(x * x))
    if denom == 0:
        return None
    slope = float(np.sum(x * y) / denom)
    if slope <= 0:
        return None
    term = LinearTerm(slope=slope)
    return term, slope * x, 1


def _try_affine(x: np.ndarray, y: np.ndarray) -> tuple[DemandTerm, np.ndarray, int] | None:
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    if intercept < 0 or slope < 0 or (intercept == 0 and slope == 0):
        return None
    term = AffineTerm(intercept=intercept, slope=slope)
    return term, design @ coef, 2


def _try_quadratic(x: np.ndarray, y: np.ndarray) -> tuple[DemandTerm, np.ndarray, int] | None:
    # Full a + b x + c x^2, falling back to a + c x^2 when b < 0.
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    a, b, c = (float(v) for v in coef)
    if b < 0 or a < 0:
        design = np.column_stack([np.ones_like(x), x * x])
        coef2, *_ = np.linalg.lstsq(design, y, rcond=None)
        a, b, c = float(coef2[0]), 0.0, float(coef2[1])
        if a < 0 or c <= 0:
            return None
        return QuadraticTerm(a=a, b=b, c=c), design @ coef2, 2
    if c <= 0:
        return None
    return QuadraticTerm(a=a, b=b, c=c), design @ coef, 3


def _try_power(x: np.ndarray, y: np.ndarray) -> tuple[DemandTerm, np.ndarray, int] | None:
    if np.any(x <= 0) or np.any(y <= 0):
        return None
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    coefficient = float(np.exp(coef[0]))
    exponent = float(coef[1])
    term = PowerTerm(coefficient=coefficient, exponent=exponent)
    return term, coefficient * np.power(x, exponent), 2


def _try_log(x: np.ndarray, y: np.ndarray) -> tuple[DemandTerm, np.ndarray, int] | None:
    if np.any(x < 0) or np.any(y <= 0):
        return None
    positive = x[x > 0]
    if positive.size == 0:
        return None  # every basis value is log1p(0) = 0
    lo = math.log(float(positive.min())) - _LOG_TAU_MARGIN
    hi = math.log(float(x.max())) + _LOG_TAU_MARGIN
    while True:
        log_tau = np.linspace(lo, hi, _LOG_TAU_GRID)
        phi = np.log1p(x / np.exp(log_tau)[:, None])
        # For each τ the best b is closed-form least squares, positive
        # since y > 0 and φ >= 0 (the check after the loop catches a row
        # whose φ all underflowed to 0).
        b = (phi * y).sum(axis=1) / (phi * phi).sum(axis=1)
        rss = ((y - b[:, None] * phi) ** 2).sum(axis=1)
        k = int(np.argmin(rss))
        step = (hi - lo) / (_LOG_TAU_GRID - 1)
        if step <= _LOG_TAU_TOL:
            break
        lo, hi = max(lo, log_tau[k] - step), min(hi, log_tau[k] + step)
    if not (np.isfinite(rss[k]) and b[k] > 0):
        return None
    term = LogTerm(coefficient=float(b[k]), tau=float(np.exp(log_tau[k])))
    return term, b[k] * phi[k], 2


_FITTERS = {
    "linear": _try_linear,
    "affine": _try_affine,
    "quadratic": _try_quadratic,
    "power": _try_power,
    "log": _try_log,
}


def fit_term(x: np.ndarray, y: np.ndarray,
             kinds: tuple[str, ...] = DEFAULT_TERM_KINDS) -> TermFit:
    """Fit the best one-dimensional term to (x, y) by AICc.

    Raises :class:`FittingError` when no candidate shape admits a valid
    (positivity-respecting) fit, or when fewer than three samples are
    provided.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise FittingError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise FittingError(f"need at least 3 samples to fit a term, got {x.size}")
    ordered = np.sort(x)  # (np.unique would import numpy.ma on first use)
    if np.any(ordered[1:] == ordered[:-1]):
        raise FittingError("x values must be distinct")

    # Near-constant response: the parameter does not drive demand.
    if float(y.max() - y.min()) <= 1e-9 * float(abs(y).max() or 1.0):
        term = ConstantTerm(value=float(y.mean()))
        r2, aicc = _metrics(y, np.full_like(y, float(y.mean())), 1)
        return TermFit(term=term, kind="constant", r2=r2, aicc=aicc,
                       n_samples=x.size)

    best: TermFit | None = None
    for kind in kinds:
        fitter = _FITTERS.get(kind)
        if fitter is None:
            raise FittingError(f"unknown term kind {kind!r}")
        result = fitter(x, y)
        if result is None:
            continue
        term, pred, k = result
        if np.any(pred <= 0):
            continue  # demand factors must stay positive over the samples
        r2, aicc = _metrics(y, pred, k)
        candidate = TermFit(term=term, kind=kind, r2=r2, aicc=aicc,
                            n_samples=x.size)
        if best is None or candidate.aicc < best.aicc:
            best = candidate
    if best is None:
        raise FittingError("no candidate term family fits the samples")
    return best


@dataclass(frozen=True)
class FittedDemand:
    """A separable demand model fitted from measurements.

    Behaves like :class:`~repro.apps.demand.SeparableDemand` (callable,
    ``gi``) and carries the per-dimension fits and global goodness of fit.
    """

    model: SeparableDemand
    size_fit: TermFit
    accuracy_fit: TermFit
    grid_r2: float
    app_name: str

    def __call__(self, n, a):
        """Predicted demand in GI (broadcasts like the underlying model)."""
        return self.model(n, a)

    def gi(self, n: float, a: float) -> float:
        """Scalar predicted demand in GI."""
        return self.model.gi(n, a)

    def describe(self) -> str:
        """Multi-line fit report."""
        return "\n".join([
            f"{self.app_name}: {self.model.describe()}",
            f"  size      ~ {self.size_fit.describe()}",
            f"  accuracy  ~ {self.accuracy_fit.describe()}",
            f"  grid R2 = {self.grid_r2:.5f}",
        ])


def fit_separable_demand(samples: DemandSamples,
                         kinds: tuple[str, ...] = DEFAULT_TERM_KINDS) -> FittedDemand:
    """Fit ``D(n, a) = scale · g(n) · h(a)`` to a measured grid.

    Fits ``g`` on the size slice at the median accuracy and ``h`` on the
    accuracy slice at the median size, then solves the single scale by
    least squares over the whole grid.  Reports grid-wide R² so callers
    can detect non-separable demand surfaces.
    """
    i_mid = samples.sizes.size // 2
    j_mid = samples.accuracies.size // 2

    sizes, d_sizes = samples.size_slice(j_mid)
    accs, d_accs = samples.accuracy_slice(i_mid)
    size_fit = fit_term(sizes, d_sizes, kinds)
    accuracy_fit = fit_term(accs, d_accs, kinds)

    g = np.asarray(size_fit.term(samples.sizes), dtype=float)
    h = np.asarray(accuracy_fit.term(samples.accuracies), dtype=float)
    gh = np.outer(g, h)
    denom = float(np.sum(gh * gh))
    if denom == 0:
        raise FittingError("degenerate separable design (zero basis)")
    scale = float(np.sum(samples.demand_gi * gh) / denom)
    if scale <= 0:
        raise FittingError("fitted demand scale is not positive")

    pred = scale * gh
    rss = float(np.sum((samples.demand_gi - pred) ** 2))
    tss = float(np.sum((samples.demand_gi - samples.demand_gi.mean()) ** 2))
    grid_r2 = 1.0 - rss / tss if tss > 0 else 1.0

    model = SeparableDemand(
        size_term=size_fit.term,
        accuracy_term=accuracy_fit.term,
        scale=scale,
    )
    return FittedDemand(
        model=model,
        size_fit=size_fit,
        accuracy_fit=accuracy_fit,
        grid_r2=grid_r2,
        app_name=samples.app_name,
    )
