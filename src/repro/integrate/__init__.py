"""Numerical integration and root finding.

DBEst evaluates aggregates as integrals of the density estimator, weighted
by the regression model (paper §3 "Integral Evaluation").  The paper uses
SciPy's QUADPACK wrapper; here it is the oracle the engine's answers are
checked against (:mod:`repro.reference`), and the engine keeps a fixed
Simpson grid for multivariate boxes.  Integrands that are piecewise
linear (or constant, as tree ensembles are) against a 1-D Gaussian
mixture need no quadrature at all: :mod:`repro.integrate.moments` gives
them in closed form.
"""

from repro.integrate.moments import (
    affine_piece_integrals,
    cumulative_moments,
    ordered_sum,
)
from repro.integrate.quadrature import (
    integrate_product,
    simpson_integrate,
    simpson_weights,
)
from repro.integrate.roots import bracketed_roots

__all__ = [
    "affine_piece_integrals",
    "bracketed_roots",
    "cumulative_moments",
    "integrate_product",
    "ordered_sum",
    "simpson_integrate",
    "simpson_weights",
]
