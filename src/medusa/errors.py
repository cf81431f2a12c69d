"""Exception hierarchy shared by all medusa modules."""

import numpy as np


class ValidationError(Exception):
    """Bad arguments or unusable input files (exit code 2)."""


class MedusaError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCorners(MedusaError):
    """The four tank-corner correspondences are rank deficient."""


class NoConfidentView(MedusaError):
    """A marker's depth is never observed with sufficient confidence."""


class NoOnsetsFound(MedusaError):
    """An LED trace never crosses the stimulus threshold."""


class DegenerateRing(MedusaError):
    """Ring markers are collinear (or coincident); no body frame exists."""


class ZeroVariance(MedusaError):
    """A channel is constant and cannot be standardized."""


class TooShort(MedusaError):
    """A series is too short for the requested operation."""


class InsufficientBins(MedusaError):
    """Too few occupied log-log bins to fit a power law."""


class InsufficientEvents(MedusaError):
    """Too few pulse events to fit a distribution."""


class TooFewOnsets(MedusaError):
    """Phase-response segmentation needs at least two onsets."""


class DegenerateGroups(MedusaError):
    """Group comparison is undefined (zero within-group variance)."""


class MisalignedTrials(MedusaError):
    """Repeated trials do not share one stimulus schedule / shape."""


class SeedCollapse(MedusaError):
    """Random reservoir draws repeatedly produced a degenerate matrix."""


class RankDeficient(MedusaError):
    """Readout normal equations are singular beyond the ridge rescue."""


class UntrainedHorizon(MedusaError):
    """A prediction horizon outside the trained grid was requested."""


class ConfigMismatch(MedusaError):
    """Datasets in a cross-prediction do not share one feature layout."""


class ConstantTarget(MedusaError):
    """R-squared is undefined for a constant target."""


class DegenerateTask(MedusaError):
    """A sensor-search task target is constant."""


class PeriodTooShort(MedusaError):
    """Stimulus period does not exceed the burst duration."""


class BlobCorrupt(MedusaError):
    """A compact model blob failed magic/dimension validation."""


class InvalidFrames(MedusaError):
    """Sensor or target rows hold NaN/inf (invalid frames) where a stage needs every row."""


def require_finite(values: np.ndarray, what: str, first_row: int = 0) -> None:
    """Raise InvalidFrames naming the count and first index of non-finite rows.

    ``first_row`` is the index of ``values[0]`` in the caller's table, so a
    check on a slice still names the table row.
    """
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise InvalidFrames(
            f"{what} has {int(bad.sum())} non-finite rows of {bad.size} "
            f"(first at row {first_row + int(bad.argmax())})"
        )
