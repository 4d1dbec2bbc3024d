"""Exception types shared across the package."""


class SliceKitError(Exception):
    """Base class for all slicekit errors."""


# --- file ingestion ---------------------------------------------------------


class MagicMismatch(SliceKitError):
    """Binary embedding file does not start with the expected header."""


class TruncatedFile(SliceKitError):
    """Binary payload size disagrees with the declared matrix shape."""


class NonFiniteValue(SliceKitError):
    """NaN or infinity encountered where finite values are required."""


class RowCountMismatch(SliceKitError):
    """Companion files declare different numbers of examples."""


class SchemaError(SliceKitError):
    """An input file is malformed or violates its format's contract."""


class ArgmaxInconsistent(SchemaError):
    """Hard predictions disagree with the argmax of the provided probabilities."""


class LabelOutOfRange(SliceKitError):
    """A class index lies outside {0..C-1}."""


class IoError(SliceKitError):
    """Underlying file read or write failed."""


# --- setting generation -----------------------------------------------------


class InfeasibleCounts(SliceKitError):
    """Requested correlation/marginals imply a negative or over-full cell."""


class InsufficientBase(SliceKitError):
    """Base table lacks enough rows in some (target, attribute) cell."""


class AlphaOutOfRange(SliceKitError):
    """Slice strength outside the legal range for the slice type."""


class NotBinary(SliceKitError):
    """Operation requires a binary classification split."""


class DegenerateSpec(SliceKitError):
    """Synthetic layout declares an empty group."""


class NoConvergence(SliceKitError):
    """Iterative solver failed to reach its tolerance within the step budget."""


# --- mixture model ----------------------------------------------------------


class TooFewSlices(SliceKitError):
    """Modeled slice count is below the number of confusion cells."""


class NumericalUnderflow(SliceKitError):
    """A responsibility row lost all mass in log space."""


class DimensionMismatch(SliceKitError):
    """Embedding dimensionality disagrees with the fitted model."""


# --- baselines --------------------------------------------------------------


class TooFewPoints(SliceKitError):
    """A class has fewer members than the requested cluster count."""


class DegenerateLoss(UserWarning):
    """All per-example losses are identical; the loss surface is flat."""


class ProbOnBoundary(UserWarning):
    """Prediction probabilities hit {0, 1} exactly and were clamped."""


# --- evaluation -------------------------------------------------------------


class KTooLarge(SliceKitError):
    """Requested k exceeds the number of scored examples."""


class EmptyGroup(SliceKitError):
    """A group required to be non-empty has no members."""


# --- description ------------------------------------------------------------


class ZeroMass(SliceKitError):
    """Slice score column carries no mass; no prototype can be formed."""


class EmptyClass(SliceKitError):
    """Requested class has no members."""


class EmptyCorpus(SliceKitError):
    """Phrase corpus contains no phrases."""
