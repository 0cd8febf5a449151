"""Exponent fits: growth degree, low-energy IDS slopes, and the two-sided
envelope of the IDS above its mass at zero.

Every fit reports its range; no extrapolated limit is ever printed as "the"
exponent, because the defining limits live at E -> 0 where desk-scale data
runs out of resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import GrowthProfile


@dataclass
class ExponentFit:
    kind: str
    slope: float
    intercept: float
    stderr: float
    r2: float
    fit_range: tuple
    n_points: int
    flags: tuple = ()


def least_squares(x, y) -> tuple:
    """``(slope, intercept, r, stderr)`` of the least-squares line through
    (x, y), n >= 2 points, by ``scipy.stats.linregress``'s own formulas, so
    bit for bit its values (scipy 1.17), without importing ``scipy.stats``.

    r is NaN when a variance and the covariance are 0 (a constant y), 0 when
    only a variance is, and is clipped to [-1, 1]; the slope's stderr is
    0 at n = 2.  Raises ``ValueError`` when every x is equal.
    """
    x, y = np.asarray(x), np.asarray(y)
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    df = len(x) - 2
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / df) if df else 0.0
    return slope, intercept, r, stderr


def _linear_fit(kind: str, x: np.ndarray, y: np.ndarray, fit_range,
                flags=()) -> ExponentFit:
    if len(x) < 3:
        raise ValueError(f"{kind}: need at least 3 points, got {len(x)}")
    slope, intercept, r, stderr = least_squares(x, y)
    return ExponentFit(kind=kind, slope=float(slope), intercept=float(intercept),
                       stderr=float(stderr), r2=float(r ** 2),
                       fit_range=tuple(fit_range), n_points=len(x),
                       flags=tuple(flags))


def _curvature(x: np.ndarray, y: np.ndarray) -> float:
    """Quadratic coefficient of the best-fit parabola; the residual trend."""
    return float(np.polyfit(x, y, 2)[0])


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------

@dataclass
class GrowthClassification:
    label: str
    loglog: ExponentFit
    semilog: ExponentFit
    loglog_curvature: float
    semilog_curvature: float


def fit_growth(profile: GrowthProfile, n_min: int = 4,
               n_max: int | None = None) -> GrowthClassification:
    """Classify ball growth as polynomial or superpolynomial.

    Polynomial growth shows up as a straight log V vs log n line (high r2,
    negligible curvature); exponential growth bends that line upward but is
    straight in log V vs n.  Ambiguous data is labelled "undetermined" with
    both fits reported rather than guessed.
    """
    n_max = profile.n_max if n_max is None else int(n_max)
    if n_max - n_min + 1 < 5:
        raise ValueError("need at least 5 radii in the fit range")
    ns = np.arange(max(n_min, 1), n_max + 1)
    vols = profile.volumes[ns].astype(np.float64)
    x_log, y = np.log(ns), np.log(vols)
    loglog = _linear_fit("growth-loglog", x_log, y, (int(ns[0]), int(ns[-1])))
    semilog = _linear_fit("growth-semilog", ns.astype(float), y,
                          (int(ns[0]), int(ns[-1])))
    c_log = _curvature(x_log, y)
    c_semi = _curvature(ns.astype(float), y)
    poly_ok = loglog.r2 >= 0.99 and abs(c_log) <= 0.05 * max(loglog.slope, 1.0)
    super_ok = semilog.r2 >= 0.99 and semilog.slope > 0 and \
        semilog.r2 > loglog.r2
    if poly_ok and not super_ok:
        label = "polynomial"
    elif super_ok and not poly_ok:
        label = "superpolynomial"
    else:
        label = "undetermined"
    return GrowthClassification(label=label, loglog=loglog, semilog=semilog,
                                loglog_curvature=c_log, semilog_curvature=c_semi)


# ---------------------------------------------------------------------------
# IDS slopes
# ---------------------------------------------------------------------------

def fit_van_hove(energies, values, e_range=(1e-3, 1e-1)) -> ExponentFit:
    """Slope of log N_0(E) against log E over the given energy range.

    Only points with 0 < N_0 < 1 enter: outside the spectrum the IDS clamps
    to 0 or 1, which says nothing about the slope.  Dropped points are
    flagged, and fewer than 3 usable points raise.
    """
    e = np.asarray(energies, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    in_range = (e >= e_range[0]) & (e <= e_range[1])
    flags = []
    if np.any(in_range & (v <= 0)):
        flags.append("range-shrunk-nonpositive-values")
    if np.any(in_range & (v >= 1)):
        flags.append("range-shrunk-values-at-one")
    mask = in_range & (v > 0) & (v < 1)
    if mask.sum() < 3:
        raise ValueError(f"van-hove: need at least 3 points with 0 < N < 1, "
                         f"got {mask.sum()}")
    return _linear_fit("van-hove", np.log(e[mask]), np.log(v[mask]),
                       (float(e[mask].min()), float(e[mask].max())), flags)


def fit_lifshitz(energies, values, shift, e_range=(0.005, 0.2)) -> ExponentFit:
    """Double-log slope: log |log (N(E) - shift)| against |log E|.

    Points where the shifted IDS is not in (0, 1) are excluded; fewer than
    3 usable points raise, which is the expected desk-scale outcome for the
    sparse-edge operators.
    """
    e = np.asarray(energies, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    delta = v - shift
    mask = (e >= e_range[0]) & (e <= e_range[1]) & (delta > 0) & (delta < 1)
    if mask.sum() < 3:
        raise ValueError("insufficient low-energy resolution for a double-log fit")
    x = np.abs(np.log(e[mask]))
    y = np.log(-np.log(delta[mask]))
    return _linear_fit("lifshitz", x, y,
                       (float(e[mask].min()), float(e[mask].max())))


# ---------------------------------------------------------------------------
# two-sided envelope
# ---------------------------------------------------------------------------

@dataclass
class SandwichReport:
    a: float | None
    b: float | None
    e_range: tuple
    upper_violations: int
    lower_violations: int
    envelope_ok: bool
    empty_measure: bool


def sandwich_check(energies, values, shift, f_inverse, inputs,
                   e_range=(0.005, 0.2)) -> SandwichReport:
    """Fit the tightest constants a, b with
    exp(-a f^{-1}(E)) >= N(E) - N(0) >= exp(-b |G'_{n(E)}|) on the range.

    ``f_inverse`` maps an energy to the volume scale of the eigenvalue lower
    bound; ``inputs`` supplies the verified thresholds c_n and sizes of the
    comparison subgraphs.  With the fitted constants both inequalities hold
    with zero violations by construction; the report re-checks them and the
    consistency of the two envelopes.
    """
    e = np.asarray(energies, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    delta = v - shift
    mask = (e >= e_range[0]) & (e <= e_range[1]) & (delta > 0) & (delta < 1)
    if not np.any(mask):
        return SandwichReport(a=None, b=None, e_range=tuple(e_range),
                              upper_violations=0, lower_violations=0,
                              envelope_ok=True, empty_measure=True)
    es, ds = e[mask], delta[mask]
    finv = np.array([float(f_inverse(x)) for x in es])
    if np.any(finv <= 0):
        raise ValueError("f_inverse must be positive on the fit range")
    sizes = np.array([inputs.size_at(x) for x in es], dtype=np.float64)
    neglog = -np.log(ds)
    a = float(np.min(neglog / finv))
    b = float(np.max(neglog / sizes))
    upper = np.exp(-a * finv)
    lower = np.exp(-b * sizes)
    upper_violations = int(np.sum(ds > upper * (1 + 1e-12)))
    lower_violations = int(np.sum(ds < lower * (1 - 1e-12)))
    envelope_ok = bool(np.all(upper >= lower * (1 - 1e-12)))
    return SandwichReport(a=a, b=b,
                          e_range=(float(es.min()), float(es.max())),
                          upper_violations=upper_violations,
                          lower_violations=lower_violations,
                          envelope_ok=envelope_ok, empty_measure=False)
