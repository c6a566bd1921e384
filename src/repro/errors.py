"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-hierarchies follow
the package layout: front end, simulation, synthesis, netlist, fault
simulation, mutation, test generation and experiment configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SourceError(ReproError):
    """An error attached to a location in HDL source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """The lexer met a character sequence it cannot tokenize."""


class ParseError(SourceError):
    """The parser met a token sequence outside the supported grammar."""


class SemanticError(SourceError):
    """Name resolution or type checking failed."""


class ElaborationError(ReproError):
    """A design could not be elaborated into processes and signals."""


class SimulationError(ReproError):
    """The behavioural simulator failed."""


class OscillationError(SimulationError):
    """Delta cycles did not converge (combinational loop)."""


class MutantRuntimeError(SimulationError):
    """A mutant performed an operation that is a run-time error.

    Examples: assigning a value outside an integer range, division by
    zero.  The mutation engine interprets this as the mutant being
    trivially distinguishable, i.e. killed.
    """


class SynthesisError(ReproError):
    """Behavioural-to-gate lowering failed."""


class LatchInferenceError(SynthesisError):
    """A combinational process does not assign a signal on every path."""


class NetlistError(ReproError):
    """A structural netlist is malformed."""


class BenchFormatError(NetlistError):
    """An ISCAS ``.bench`` file could not be parsed."""


class FaultSimError(ReproError):
    """Fault list construction or fault simulation failed."""


class FaultError(ReproError):
    """A fault model is unknown or misconfigured."""


class EngineError(ReproError):
    """A netlist-simulation engine is unknown or misconfigured."""


class AtpgError(ReproError):
    """Deterministic test pattern generation failed."""


class SamplingError(ReproError):
    """A mutant sampling strategy received invalid parameters."""


class TestGenError(ReproError):
    """Stimulus generation failed."""


class SearchError(ReproError):
    """A test-vector search strategy is unknown or misconfigured."""


class ConfigError(ReproError):
    """An experiment configuration is invalid."""


class CampaignError(ConfigError):
    """A campaign run was invoked inconsistently.

    Subclasses :class:`ConfigError` so existing callers that catch
    configuration problems keep working; raised where the problem is
    the *invocation* (e.g. ``--resume`` without a ``cache_dir``)
    rather than a malformed config file.
    """


class AnalyzeError(ReproError):
    """A static-analysis request (netlist or source lint) is invalid."""


class GridError(ReproError):
    """A grid work unit, scheduler or job store is misconfigured."""


class NetError(ReproError):
    """A repro.net coordinator, worker or client protocol failure."""
