"""Gaussian kernel density estimation.

The paper's density estimator is ``sklearn.neighbors.KernelDensity``; this
module is a from-scratch replacement with two properties that matter for
AQP workloads:

* an **analytic CDF**: for a Gaussian mixture the integral over ``[lb, ub]``
  is a difference of normal CDFs, so plain density integrals (COUNT) need
  no quadrature at all;
* a **binned fast path**: above a size threshold the training points are
  compressed into a weighted histogram (the standard "binned KDE"
  approximation), making both fitting and evaluation O(bins) instead of
  O(n) with negligible accuracy loss for the smooth columns AQP targets.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorised

from repro.errors import InvalidParameterError, ModelTrainingError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class MixtureState(NamedTuple):
    """Flat, immutable view of a fitted 1-D KDE for batch evaluators.

    ``centres`` / ``weights`` define the Gaussian mixture, ``h`` its
    common bandwidth; a fit stores ``centres`` ascending (an older
    pickle may not, so consumers check).  ``support`` is the interval
    outside which the density is treated as zero (``reflect``) or
    negligible.  When ``point_mass`` is not None the column was constant
    and the whole distribution is a unit mass at that value.
    """

    centres: np.ndarray
    weights: np.ndarray
    h: float
    support: tuple[float, float]
    reflect: bool
    point_mass: float | None
    n_train: int


class ProductMixtureState(NamedTuple):
    """Flat view of a fitted product-kernel KDE for batch evaluators.

    The d-dimensional analogue of :class:`MixtureState`: ``centres`` is
    ``(m, d)``, ``h`` the per-dimension bandwidth vector, and
    ``domain_low`` / ``domain_high`` the observed domain box whose raw
    mixture mass ``norm`` renormalises every public density/integral.
    """

    centres: np.ndarray
    weights: np.ndarray
    h: np.ndarray
    domain_low: np.ndarray
    domain_high: np.ndarray
    norm: float
    n_train: int


def scott_bandwidth(x: np.ndarray) -> float:
    """Scott's rule bandwidth: ``sigma * n^(-1/5)`` for 1-D data."""
    n = x.shape[0]
    sigma = float(np.std(x))
    if sigma == 0.0:
        sigma = max(abs(float(x[0])), 1.0) * 1e-3
    return sigma * n ** (-1.0 / 5.0)


def silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's rule of thumb, robust to outliers via the IQR."""
    n = x.shape[0]
    sigma = float(np.std(x))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sigma, iqr / 1.349) if iqr > 0 else sigma
    if spread == 0.0:
        spread = max(abs(float(x[0])), 1.0) * 1e-3
    return 0.9 * spread * n ** (-1.0 / 5.0)


_BANDWIDTH_RULES = {"scott": scott_bandwidth, "silverman": silverman_bandwidth}


class KernelDensityEstimator:
    """1-D Gaussian KDE with analytic CDF and optional binned compression.

    Parameters
    ----------
    bandwidth:
        ``"scott"`` (default), ``"silverman"``, or a positive float.
    binned:
        Compress the training data into ``n_bins`` weighted centres when
        the sample exceeds ``bin_threshold`` points.  The PDF/CDF are then
        mixtures over bin centres with bin-count weights.
    n_bins, bin_threshold:
        Histogram resolution and the sample size above which binning kicks
        in.
    """

    def __init__(
        self,
        bandwidth: str | float = "scott",
        binned: bool = True,
        n_bins: int = 2048,
        bin_threshold: int = 5000,
        boundary: str = "reflect",
    ) -> None:
        if isinstance(bandwidth, str) and bandwidth not in _BANDWIDTH_RULES:
            raise InvalidParameterError(
                f"unknown bandwidth rule {bandwidth!r}; "
                f"expected one of {sorted(_BANDWIDTH_RULES)} or a float"
            )
        if not isinstance(bandwidth, str) and bandwidth <= 0:
            raise InvalidParameterError(f"bandwidth must be positive, got {bandwidth}")
        if n_bins < 2:
            raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
        if boundary not in ("reflect", "none"):
            raise InvalidParameterError(
                f"boundary must be 'reflect' or 'none', got {boundary!r}"
            )
        self.bandwidth = bandwidth
        self.binned = binned
        self.n_bins = n_bins
        self.bin_threshold = bin_threshold
        self.boundary = boundary
        self._centres: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._h: float | None = None
        self._support: tuple[float, float] | None = None
        self.n_train: int = 0

    # -- fitting -------------------------------------------------------

    def fit(self, x: np.ndarray) -> "KernelDensityEstimator":
        """Fit the estimator to a 1-D array of training points."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.size == 0:
            raise ModelTrainingError("cannot fit a KDE to an empty sample")
        if not np.all(np.isfinite(x)):
            raise ModelTrainingError("KDE training data contains non-finite values")
        self.n_train = int(x.size)

        if isinstance(self.bandwidth, str):
            self._h = _BANDWIDTH_RULES[self.bandwidth](x)
        else:
            self._h = float(self.bandwidth)

        if self.binned and x.size > self.bin_threshold:
            counts, edges = np.histogram(x, bins=self.n_bins)
            centres = 0.5 * (edges[:-1] + edges[1:])
            keep = counts > 0
            self._centres = centres[keep]
            self._weights = counts[keep].astype(np.float64) / x.size
        else:
            self._centres = np.sort(x)
            self._weights = np.full(x.size, 1.0 / x.size)

        lo, hi = float(x.min()), float(x.max())
        degenerate = (hi - lo) <= 1e-12 * max(1.0, abs(lo), abs(hi))
        # Constant columns (e.g. a per-group dimension attribute) are a
        # point mass: any range containing the point holds all the mass.
        self._point_mass = lo if degenerate else None
        self._reflect = self.boundary == "reflect" and not degenerate
        if self._reflect:
            # Kernels are reflected at the data boundaries, so the density
            # is supported exactly on the observed domain — this removes
            # the boundary bias that would otherwise leak ~h of mass out
            # of every range query touching the domain edges (and bias
            # COUNT low).
            self._support = (lo, hi)
        else:
            # Constant columns (e.g. a per-group dimension attribute) have
            # no usable reflection boundary; keep the padded mixture
            # support so ranges containing the point still carry mass 1.
            pad = 4.0 * self._h
            self._support = (lo - pad, hi + pad)
        return self

    @classmethod
    def from_fit_state(
        cls,
        centres: np.ndarray,
        weights: np.ndarray,
        h: float,
        support: tuple[float, float],
        reflect: bool,
        point_mass: float | None,
        n_train: int,
        bandwidth: str | float = "scott",
        binned: bool = True,
        n_bins: int = 2048,
        bin_threshold: int = 5000,
    ) -> "KernelDensityEstimator":
        """Construct a fitted estimator from precomputed mixture state.

        The batched trainer (:mod:`repro.core.batched_train`) computes
        every group's centres, weights and bandwidth in shared vectorised
        passes and assembles estimators through this constructor; the
        result is indistinguishable from :meth:`fit` on the same data.
        Constructor arguments are validated exactly as in ``__init__``;
        the state arrays are adopted as-is (pass copies if the caller
        keeps mutable references).
        """
        boundary = "reflect" if reflect or point_mass is not None else "none"
        est = cls(
            bandwidth=bandwidth,
            binned=binned,
            n_bins=n_bins,
            bin_threshold=bin_threshold,
            boundary=boundary,
        )
        est._centres = np.asarray(centres, dtype=np.float64)
        est._weights = np.asarray(weights, dtype=np.float64)
        est._h = float(h)
        est._support = (float(support[0]), float(support[1]))
        est._reflect = bool(reflect)
        est._point_mass = None if point_mass is None else float(point_mass)
        est.n_train = int(n_train)
        return est

    @property
    def is_fitted(self) -> bool:
        return self._centres is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelTrainingError("KDE used before fit()")

    @property
    def h(self) -> float:
        """Fitted bandwidth."""
        self._require_fitted()
        return float(self._h)

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside which the density is numerically negligible."""
        self._require_fitted()
        return self._support

    # -- evaluation ------------------------------------------------------

    def _mixture_pdf(self, x: np.ndarray) -> np.ndarray:
        """Unreflected Gaussian-mixture density (chunked over centres)."""
        out = np.zeros_like(x)
        h = self._h
        # Chunk over centres to bound the (points x centres) matrix size.
        chunk = max(1, int(4_000_000 // max(x.size, 1)))
        for start in range(0, self._centres.size, chunk):
            c = self._centres[start : start + chunk]
            w = self._weights[start : start + chunk]
            z = (x[:, None] - c[None, :]) / h
            out += np.exp(-0.5 * z * z) @ w
        return out / (h * _SQRT_2PI)

    def _mixture_cdf(self, x: np.ndarray) -> np.ndarray:
        """Unreflected Gaussian-mixture CDF (chunked over centres)."""
        out = np.zeros_like(x)
        h = self._h
        chunk = max(1, int(4_000_000 // max(x.size, 1)))
        for start in range(0, self._centres.size, chunk):
            c = self._centres[start : start + chunk]
            w = self._weights[start : start + chunk]
            out += ndtr((x[:, None] - c[None, :]) / h) @ w
        return out

    def _reflection_active(self) -> bool:
        return getattr(self, "_reflect", False)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        """Density at the given points.

        With boundary reflection (the default) kernels are mirrored at the
        data minimum and maximum, so the density is zero outside the
        observed domain and range queries at the edges see no mass leak.
        """
        self._require_fitted()
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if not self._reflection_active():
            return self._mixture_pdf(x)
        lo, hi = self._support
        inside = (x >= lo) & (x <= hi)
        out = np.zeros_like(x)
        xi = x[inside]
        out[inside] = (
            self._mixture_pdf(xi)
            + self._mixture_pdf(2.0 * lo - xi)
            + self._mixture_pdf(2.0 * hi - xi)
        )
        return out

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        """Cumulative distribution at the given points (analytic)."""
        self._require_fitted()
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if getattr(self, "_point_mass", None) is not None:
            return np.where(x >= self._point_mass, 1.0, 0.0)
        if not self._reflection_active():
            return self._mixture_cdf(x)
        lo, hi = self._support
        t = np.clip(x, lo, hi)
        # Integrating the reflected density from lo to t:
        #   [F(t) - F(lo)] + [F(lo) - F(2lo - t)] + [F(2hi - lo) - F(2hi - t)]
        return (
            self._mixture_cdf(t)
            - self._mixture_cdf(2.0 * lo - t)
            + self._mixture_cdf(np.full_like(t, 2.0 * hi - lo))
            - self._mixture_cdf(2.0 * hi - t)
        )

    def integrate(self, lb: float, ub: float) -> float:
        """``∫_lb^ub D(x) dx`` — exact via the Gaussian-mixture CDF."""
        if ub < lb:
            raise InvalidParameterError(f"integration bounds reversed: [{lb}, {ub}]")
        self._require_fitted()
        if getattr(self, "_point_mass", None) is not None:
            # BETWEEN is inclusive on both ends, so a range touching the
            # point mass captures all of it.
            return 1.0 if lb <= self._point_mass <= ub else 0.0
        values = self.cdf(np.asarray([lb, ub]))
        return float(values[1] - values[0])

    def export_mixture(self) -> MixtureState:
        """Flat mixture parameters for stacking into batched evaluators.

        The arrays are the estimator's own (not copies); treat them as
        read-only.
        """
        self._require_fitted()
        return MixtureState(
            centres=self._centres,
            weights=self._weights,
            h=float(self._h),
            support=self._support,
            reflect=self._reflection_active(),
            point_mass=getattr(self, "_point_mass", None),
            n_train=self.n_train,
        )

    def sample(self, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``k`` points from the fitted mixture (for synthetic data/tests)."""
        self._require_fitted()
        rng = rng or np.random.default_rng()
        idx = rng.choice(self._centres.size, size=k, p=self._weights)
        draws = self._centres[idx] + rng.normal(0.0, self._h, size=k)
        if self._reflection_active():
            lo, hi = self._support
            for _ in range(4):  # repeated reflection handles deep overshoots
                below = draws < lo
                draws[below] = 2.0 * lo - draws[below]
                above = draws > hi
                draws[above] = 2.0 * hi - draws[above]
            draws = np.clip(draws, lo, hi)
        return draws


class MultivariateKDE:
    """Product-kernel Gaussian KDE in d dimensions.

    Supports the multivariate selection operators of paper §2.3: rectangle
    integrals factorise per training point into products of 1-D normal CDF
    differences, so :meth:`integrate_box` stays analytic in any dimension.
    A d-dimensional histogram compresses large samples, mirroring the 1-D
    fast path (bins per dimension shrink as d grows).
    """

    def __init__(
        self,
        bandwidth: str = "scott",
        binned: bool = True,
        bins_per_dim: int = 64,
        bin_threshold: int = 5000,
    ) -> None:
        if bandwidth not in _BANDWIDTH_RULES:
            raise InvalidParameterError(
                f"unknown bandwidth rule {bandwidth!r}; "
                f"expected one of {sorted(_BANDWIDTH_RULES)}"
            )
        if bins_per_dim < 2:
            raise InvalidParameterError(
                f"bins_per_dim must be >= 2, got {bins_per_dim}"
            )
        self.bandwidth = bandwidth
        self.binned = binned
        self.bins_per_dim = bins_per_dim
        self.bin_threshold = bin_threshold
        self._centres: np.ndarray | None = None  # (m, d)
        self._weights: np.ndarray | None = None  # (m,)
        self._h: np.ndarray | None = None  # (d,)
        self.n_train = 0
        self.n_dims = 0

    def fit(self, x: np.ndarray) -> "MultivariateKDE":
        """Fit to an (n, d) array of training points."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ModelTrainingError(
                f"multivariate KDE expects a non-empty (n, d) array, got {x.shape}"
            )
        n, d = x.shape
        self.n_train, self.n_dims = n, d
        rule = _BANDWIDTH_RULES[self.bandwidth]
        h = np.empty(d)
        for j in range(d):
            col = x[:, j]
            if col.min() == col.max():
                # Constant columns: np.std can round to a tiny nonzero
                # value depending on summation order, so detect
                # degeneracy from the range and apply the rules' own
                # degenerate-spread fallback deterministically.
                spread = max(abs(float(col[0])), 1.0) * 1e-3
                factor = 0.9 if self.bandwidth == "silverman" else 1.0
                h[j] = factor * spread * n ** (-1.0 / 5.0)
            else:
                h[j] = rule(col)
        self._h = np.maximum(h, 1e-12)

        if self.binned and n > self.bin_threshold:
            counts, edges = np.histogramdd(x, bins=self.bins_per_dim)
            centres_1d = [0.5 * (e[:-1] + e[1:]) for e in edges]
            mesh = np.meshgrid(*centres_1d, indexing="ij")
            flat_counts = counts.ravel()
            keep = flat_counts > 0
            self._centres = np.stack([m.ravel()[keep] for m in mesh], axis=1)
            self._weights = flat_counts[keep] / n
        else:
            self._centres = x.copy()
            self._weights = np.full(n, 1.0 / n)

        # Mass the raw mixture puts inside the observed domain box.  All
        # public densities/integrals are renormalised by it, which removes
        # the boundary leak (the d-dimensional analogue of the 1-D
        # reflection correction — reflection itself needs 3^d terms).
        self._domain_low = x.min(axis=0)
        self._domain_high = x.max(axis=0)
        self._norm = max(
            self._raw_box_mass(self._domain_low, self._domain_high), 1e-12
        )
        return self

    @classmethod
    def from_fit_state(
        cls,
        centres: np.ndarray,
        weights: np.ndarray,
        h: np.ndarray,
        domain_low: np.ndarray,
        domain_high: np.ndarray,
        n_train: int,
        bandwidth: str = "scott",
        binned: bool = True,
        bins_per_dim: int = 64,
        bin_threshold: int = 5000,
    ) -> "MultivariateKDE":
        """Construct a fitted estimator from precomputed mixture state.

        The multivariate analogue of
        :meth:`KernelDensityEstimator.from_fit_state`: the batched trainer
        computes every group's centres, weights and per-dimension
        bandwidths in shared vectorised passes and assembles estimators
        here.  The domain normaliser ``_norm`` is recomputed through
        :meth:`_raw_box_mass` — the exact code path :meth:`fit` runs — so
        the result is bit-identical to fitting the same data directly.
        """
        est = cls(
            bandwidth=bandwidth,
            binned=binned,
            bins_per_dim=bins_per_dim,
            bin_threshold=bin_threshold,
        )
        est._centres = np.atleast_2d(np.asarray(centres, dtype=np.float64))
        est._weights = np.asarray(weights, dtype=np.float64)
        est._h = np.asarray(h, dtype=np.float64)
        est.n_train = int(n_train)
        est.n_dims = int(est._centres.shape[1])
        est._domain_low = np.asarray(domain_low, dtype=np.float64)
        est._domain_high = np.asarray(domain_high, dtype=np.float64)
        est._norm = max(
            est._raw_box_mass(est._domain_low, est._domain_high), 1e-12
        )
        return est

    @property
    def is_fitted(self) -> bool:
        return self._centres is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelTrainingError("multivariate KDE used before fit()")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at an (m, d) array of points (domain-renormalised)."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h = self._h
        norm = float(np.prod(h)) * _SQRT_2PI ** self.n_dims
        out = np.zeros(x.shape[0])
        # The (points, chunk, d) difference tensor holds points*chunk*d
        # elements, so the element budget must be divided by d as well —
        # budgeting on points alone made the temporary d times larger
        # than intended and could exhaust memory for high-d queries.
        chunk = max(
            1, int(2_000_000 // (max(x.shape[0], 1) * max(self.n_dims, 1)))
        )
        for start in range(0, self._centres.shape[0], chunk):
            c = self._centres[start : start + chunk]
            w = self._weights[start : start + chunk]
            z = (x[:, None, :] - c[None, :, :]) / h[None, None, :]
            out += np.exp(-0.5 * np.sum(z * z, axis=2)) @ w
        return out / (norm * self._norm)

    def _raw_box_mass(self, lows: np.ndarray, highs: np.ndarray) -> float:
        h = self._h
        upper = ndtr((highs[None, :] - self._centres) / h[None, :])
        lower = ndtr((lows[None, :] - self._centres) / h[None, :])
        per_point = np.prod(upper - lower, axis=1)
        return float(per_point @ self._weights)

    def integrate_box(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> float:
        """``∫ D(x) dx`` over the axis-aligned box ``[lows, highs]``.

        Analytic (products of 1-D normal CDF differences per training
        point), renormalised so the observed domain box carries mass 1.
        """
        self._require_fitted()
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.shape != (self.n_dims,) or highs.shape != (self.n_dims,):
            raise InvalidParameterError(
                f"box bounds must each have shape ({self.n_dims},)"
            )
        if np.any(highs < lows):
            raise InvalidParameterError("box has a dimension with high < low")
        lows = np.maximum(lows, self._domain_low)
        highs = np.minimum(highs, self._domain_high)
        if np.any(highs < lows):
            return 0.0
        return self._raw_box_mass(lows, highs) / self._norm

    def export_mixture(self) -> ProductMixtureState:
        """Flat mixture parameters for stacking into batched evaluators.

        The multivariate analogue of
        :meth:`KernelDensityEstimator.export_mixture`.  The arrays are
        the estimator's own (not copies); treat them as read-only.
        """
        self._require_fitted()
        return ProductMixtureState(
            centres=self._centres,
            weights=self._weights,
            h=self._h,
            domain_low=self._domain_low,
            domain_high=self._domain_high,
            norm=float(self._norm),
            n_train=self.n_train,
        )
