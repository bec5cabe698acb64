"""Causal graphs of cyber-physical-system design parameters.

Learn causal structure from historian time-series logs, fit and query the
resulting Bayesian networks exactly, and discover which design parameters
a cyber attack on a given target set impacts.
"""

__version__ = "0.1.0"

from .errors import CpsCausalError, DataError, ModelError, UsageError
from .estimation import BayesNet, CiResult, Cpt, chi_square_ci, counts, fit_bayes, fit_mle, \
    mutual_information, score
from .graph import CausalGraph, Edge, EdgeDiff, add_edge, break_cycles, compare, d_separated, \
    is_dag, markov_equivalent, structures, topological_order
from .impact import AttackSpec, ImpactConfig, ImpactReport, classify_attack, discover_impact, \
    load_domain_graph
from .inference import Query, posterior
from .ingest import DiscreteDataset, RawLog, VariableSpec, discretize, parse_log, project, \
    suggest_bins
from .learning import ClConfig, HcConfig, PcConfig, extend_to_dag, learn_cl, learn_hc, learn_pc
from .simgen import FixtureNet, forward_sample, sample_with_clamp

__all__ = [
    "AttackSpec", "BayesNet", "CausalGraph", "CiResult", "ClConfig", "Cpt",
    "CpsCausalError", "DataError", "DiscreteDataset", "Edge", "EdgeDiff",
    "FixtureNet", "HcConfig", "ImpactConfig", "ImpactReport", "ModelError",
    "PcConfig", "Query", "RawLog", "UsageError", "VariableSpec",
    "add_edge", "break_cycles", "chi_square_ci",
    "classify_attack", "compare", "counts", "d_separated", "discover_impact",
    "discretize", "extend_to_dag", "fit_bayes", "fit_mle", "forward_sample",
    "is_dag", "learn_cl", "learn_hc", "learn_pc",
    "load_domain_graph", "markov_equivalent", "mutual_information",
    "parse_log", "posterior", "project", "sample_with_clamp", "score",
    "structures", "suggest_bins", "topological_order",
]
