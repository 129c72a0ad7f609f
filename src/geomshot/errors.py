"""Exception taxonomy shared across the package.

Every domain error derives from GeomshotError so the CLI can map any
expected failure to a nonzero exit code with a clean message.
"""


class GeomshotError(Exception):
    """Base class for all expected failures."""


class InvalidKeypoints(GeomshotError):
    """Keypoint array is malformed (wrong shape, non-finite entries)."""


class DegenerateHand(GeomshotError):
    """All keypoints (near-)coincident; scale normalization undefined.

    ``rows`` lists the offending hands' indices when a stack was given.
    """

    def __init__(self, message: str, rows: list[int] | None = None):
        self.rows = list(rows or [])
        super().__init__(message)


class FormatError(GeomshotError):
    """A file does not match the expected on-disk format.

    The message names the offending field (e.g. "shape", "dtype", "magic").
    """

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(f"{field}: {detail}")


class InvalidSplit(GeomshotError):
    """Split file violates disjointness or coverage against the catalog."""


class InsufficientClasses(GeomshotError):
    """Fewer eligible classes than the episode requires."""


class InsufficientSamples(GeomshotError):
    """A class in the episode pool has fewer than K+Q samples."""


class ShapeError(GeomshotError):
    """Array arguments have inconsistent or unexpected shapes."""


class BatchTooSmall(GeomshotError):
    """Train-mode forward with batch statistics needs at least 2 rows."""


class CacheError(GeomshotError):
    """backward() called without a matching train-mode forward(), or with no gradient bound to write into."""


class NonFiniteGradient(GeomshotError):
    """A gradient contains NaN/Inf; the optimizer step was aborted."""


class CorruptCheckpoint(GeomshotError):
    """Checkpoint header and payload disagree."""


class ConfigMismatch(GeomshotError):
    """Checkpoint and data configuration disagree (e.g. input dimension)."""


class NoPositivesError(GeomshotError):
    """No anchor in the contrastive batch has a same-label positive."""


class DegenerateProblem(GeomshotError):
    """Classifier fitting is ill-posed (e.g. a single class present)."""


class InvalidConfig(GeomshotError, ValueError):
    """A config is malformed: an unknown key, or a value of the wrong type or range."""
