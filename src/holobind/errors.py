"""Exception hierarchy shared across the toolkit.

Every domain failure derives from HolobindError so the CLI can map it to a
single exit code; usage errors are left to argparse.
"""


class HolobindError(Exception):
    """Base class for all domain errors raised by holobind."""


class ShapeError(HolobindError):
    """Operands have incompatible or unsupported dimensions."""


class ParameterError(HolobindError):
    """A scalar argument is outside its valid range."""


class DegenerateSpectrumError(HolobindError):
    """A spectral coefficient is too close to zero to project or invert."""


class NearSingularInverseError(DegenerateSpectrumError):
    """Reciprocal spectral inverse would divide by a near-zero magnitude."""


class FormatError(HolobindError):
    """Malformed tensor container or model file.

    ``offset`` is the byte position where parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


class ProtocolError(HolobindError):
    """Malformed protocol message or unexpected wire state."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset


class TransportError(HolobindError):
    """Transport-level failure (connect, send, receive); retriable."""


class RemoteFailureError(HolobindError):
    """Worker answered with a non-ok status."""

    def __init__(self, message: str, status: int):
        super().__init__(f"{message} (status {status})")
        self.status = status


class SpecError(HolobindError):
    """Backbone spec fails validation or violates an operation contract."""


class TrainingDivergedError(HolobindError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int, batch: int, param_norm: float):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch} "
            f"(parameter norm {param_norm:.6g})"
        )
        self.epoch = epoch
        self.batch = batch
        self.param_norm = param_norm
