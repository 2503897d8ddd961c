"""Float references of the exact suite layers.

``statespace``, ``grouprep``, ``purity`` and ``composite`` hold the numpy
descriptors, conjugation superoperators, Grams, Pauli maps and witnesses
that ``verify pauli-identities``, ``gram-invariance`` and
``classical-subsystem`` once ran.  The tests tie the exact data of the
package's layers of the same names to them.  The errors that only these
references and the test states raise are defined here.
"""

from gptpurity.errors import GptPurityError


class NormalizationError(GptPurityError, ValueError):
    """A vector expected to be a normalized state is not."""


class DegenerateDirectionError(GptPurityError, ValueError):
    """A direction vector is (numerically) zero."""


class InvalidProbeError(GptPurityError, ValueError):
    """A probe matrix violates its trace normalization conditions."""


class InconsistencyError(GptPurityError):
    """Two routes to the same quantity disagree beyond tolerance."""
