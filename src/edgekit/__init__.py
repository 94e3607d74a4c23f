"""edgekit: Edgeworth expansions and transport-distance CLT diagnostics
for sums of weakly dependent random variables.

Exact distribution engines (finite-state Markov chain functionals on a
lattice, iid piecewise-polynomial convolutions) feed a cumulant pipeline
that builds higher-order corrections to the normal approximation and
measures weighted CDF errors, Wasserstein rates and Gaussian coupling
costs at desk scale.
"""

__version__ = "0.1.0"

from .special import (
    gaussian_derivative,
    hermite,
    normal_cdf,
    normal_pdf,
)

__all__ = [
    "hermite",
    "normal_cdf",
    "normal_pdf",
    "gaussian_derivative",
]
