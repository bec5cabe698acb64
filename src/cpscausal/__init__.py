"""Causal graphs of cyber-physical-system design parameters.

Learn causal structure from historian time-series logs, fit and query the
resulting Bayesian networks exactly, and discover which design parameters
a cyber attack on a given target set impacts.

The version and the error classes are bound on import. Every other public
name is imported from its module on first access (PEP 562), so that
``import cpscausal`` loads no numpy, which only the sampler of
``simgen`` imports.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .errors import CpsCausalError, DataError, ModelError, UsageError

_HOMES = {
    "datafile": ("DiscreteDataset", "VariableSpec"),
    "estimation": ("CiResult", "chi_square_ci", "counts", "mutual_information", "score"),
    "graph": ("CausalGraph", "Edge", "EdgeDiff", "add_edge", "break_cycles", "compare", "d_separated",
              "extend_to_dag", "is_dag", "markov_equivalent", "structures", "topological_order"),
    "impact": ("AttackSpec", "ImpactConfig", "ImpactReport", "classify_attack", "discover_impact",
               "load_domain_graph"),
    "inference": ("BayesNet", "Cpt", "Query", "fit_bayes", "fit_mle", "posterior"),
    "ingest": ("RawLog", "discretize", "parse_log", "project"),
    "learning": ("ClConfig", "HcConfig", "PcConfig", "learn_cl", "learn_hc", "learn_pc"),
    "simgen": ("FixtureNet", "forward_sample", "sample_with_clamp"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["CpsCausalError", "DataError", "ModelError", "UsageError", *_HOME_OF]


def __getattr__(name: str):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
