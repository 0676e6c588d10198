"""Tabular robust average-reward reinforcement learning toolkit."""

from .mdp import (
    GainBias,
    MultichainError,
    OffsetFn,
    Policy,
    TabularMDP,
    gain_and_bias,
    gain_vector,
    induced_chain,
    is_unichain,
    robust_bellman_residual,
    span,
    stationary_distribution,
)
from .uncertainty import (
    ChiSquare,
    Contamination,
    KLDivergence,
    TotalVariation,
    UncertaintySet,
    Wasserstein,
    support_oracle_grid,
    uncertainty_from_json,
)
from .estimators import KernelSampler, MlmcConfig, default_psi
from .learners import Constant, RobbinsMonro, RunTrace, greedy_policy, robust_rvi_q, robust_rvi_td
from .planners import (
    FiniteKernelSet,
    finite_set_enumeration,
    robust_rvi_control,
    robust_rvi_eval,
    worst_case_kernel,
)
from . import environments

__all__ = [
    "ChiSquare",
    "Constant",
    "Contamination",
    "FiniteKernelSet",
    "GainBias",
    "KLDivergence",
    "KernelSampler",
    "MlmcConfig",
    "MultichainError",
    "OffsetFn",
    "Policy",
    "RobbinsMonro",
    "RunTrace",
    "TabularMDP",
    "TotalVariation",
    "UncertaintySet",
    "Wasserstein",
    "default_psi",
    "environments",
    "finite_set_enumeration",
    "gain_and_bias",
    "gain_vector",
    "greedy_policy",
    "induced_chain",
    "is_unichain",
    "robust_bellman_residual",
    "robust_rvi_control",
    "robust_rvi_eval",
    "robust_rvi_q",
    "robust_rvi_td",
    "span",
    "stationary_distribution",
    "support_oracle_grid",
    "uncertainty_from_json",
    "worst_case_kernel",
]
