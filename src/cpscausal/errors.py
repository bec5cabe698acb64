"""Exception hierarchy shared by every module.

Three families matter to callers: ``UsageError`` (an argument or config
value out of its documented range), ``DataError`` (malformed or
insufficient input data) and ``ModelError`` (a graph, net, or query that
violates a structural contract). The CLI maps them to distinct exit codes.
"""


class CpsCausalError(Exception):
    """Base class for all library errors."""


class UsageError(CpsCausalError, ValueError):
    """An argument or config value is out of range; a ``ValueError`` too."""


class DataError(CpsCausalError):
    """Input data is malformed, missing, or insufficient."""


class ModelError(CpsCausalError):
    """A model object or query violates a structural contract."""


# --- ingest -----------------------------------------------------------------

class EmptyInput(DataError):
    pass


class RaggedRow(DataError):
    pass


class NonNumericCell(DataError):
    pass


class UnknownColumn(DataError):
    pass


class MissingColumn(DataError):
    pass


class UnmappedActuatorValue(DataError):
    pass


class ParseError(DataError):
    """Malformed variable-spec, domain-graph, or attack file."""


class EmptyDataset(DataError):
    pass


class InsufficientData(DataError):
    pass


# --- graphs -----------------------------------------------------------------

class SelfLoop(ModelError):
    pass


class UnknownNode(ModelError):
    pass


class DuplicateEdge(ModelError):
    pass


class CyclicGraph(ModelError):
    pass


class NodeSetMismatch(ModelError):
    pass


class StillCyclic(ModelError):
    pass


class NoConsistentExtension(ModelError):
    pass


# --- estimation -------------------------------------------------------------

class DuplicateParent(ModelError):
    pass


class NonPositiveEss(ModelError):
    pass


class InvalidCpt(ModelError):
    """A CPT breaks its own contract or disagrees with the net around it."""


# --- inference --------------------------------------------------------------

class UnknownState(ModelError):
    pass


class UnknownVariable(ModelError):
    pass


class ZeroProbabilityEvidence(ModelError):
    pass


# --- impact -----------------------------------------------------------------

class UnknownStage(ModelError):
    pass


class TargetNotInNet(ModelError):
    pass
