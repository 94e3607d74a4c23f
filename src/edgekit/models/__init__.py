"""Exact distribution engines and model families."""

from .lattice import LatticeDistribution
from .markov import (
    BlockingReport,
    EllipticityReport,
    MarkovChainSpec,
    cumulant_series,
    ellipticity_check,
    exact_distribution,
    load_chain_spec,
    psi_mixing_coefficient,
    save_chain_spec,
    variance_decomposition,
    variance_profile,
)
from .piecewise import PiecewisePolyDistribution
from .families import (
    ChainModel,
    IIDContinuousModel,
    builtin_model,
    builtin_model_names,
    decaying_observable_chain,
)

__all__ = [
    "LatticeDistribution",
    "MarkovChainSpec",
    "EllipticityReport",
    "BlockingReport",
    "exact_distribution",
    "cumulant_series",
    "ellipticity_check",
    "psi_mixing_coefficient",
    "variance_profile",
    "variance_decomposition",
    "load_chain_spec",
    "save_chain_spec",
    "PiecewisePolyDistribution",
    "ChainModel",
    "IIDContinuousModel",
    "builtin_model",
    "builtin_model_names",
    "decaying_observable_chain",
]
