"""Exception types shared across the toolkit."""


class GridstoreError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(GridstoreError):
    """A data invariant does not hold (bad ids, signs, duplicates, ...)."""


class ParseError(GridstoreError):
    """A file could not be parsed; carries location context when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
            if line is not None:
                loc = f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class UnsupportedFeature(ParseError):
    """Input uses a feature the converter deliberately does not model."""


class UnknownBusId(ParseError):
    """A series references a bus or site id not present in the network."""


class RaggedSeries(ParseError):
    """Scenario series disagree on length."""


class UnbalancedInjection(GridstoreError):
    """Injections passed to the flow solver do not sum to zero."""


class DisconnectedNetwork(GridstoreError):
    """The line graph does not span all buses."""


class InconsistentDimensions(GridstoreError):
    """Scenario and network shapes disagree."""


class InfeasibleScenario(GridstoreError):
    """The dispatch problem for one scenario admits no feasible point."""

    def __init__(self, label, detail=""):
        msg = f"scenario {label!r} is infeasible"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.label = label
        self.detail = detail

    def __reduce__(self):
        # rebuild through __init__ from the parts, not from the finished message
        return type(self), (self.label, self.detail), self.__dict__


class SolverFailure(GridstoreError):
    """The LP backend stopped without a usable status."""


class AllScenariosInfeasible(GridstoreError):
    """Too many scenarios are infeasible for the current storage set.

    ``infeasible`` holds the indices of the scenarios found infeasible
    before the sweep stopped, in increasing order.
    """

    def __init__(self, message, infeasible=()):
        super().__init__(message)
        self.infeasible = tuple(infeasible)


class ZeroLoad(GridstoreError):
    """Penetration is undefined because total load energy is zero."""


class ZeroFluctuationDenominator(GridstoreError):
    """Normalization is undefined because renewables never fluctuate."""


class UnreachablePenetration(GridstoreError):
    """Target penetration exceeds what installed nameplate can deliver."""
