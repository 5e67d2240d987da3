"""holobind: holographic binding as a pseudo one-time pad, with the
one-round split-inference protocol, toy adversarial trainer, and the
attack suite that audits the obfuscation."""

from .errors import HolobindError
from .tensor import RngStream, read_tensor, write_tensor
from .vsa import (
    Secret,
    bind,
    bundle_add,
    cosine,
    inverse,
    presence_probe,
    project,
    sample_secret,
    unbind,
)

__all__ = [
    "HolobindError",
    "RngStream",
    "read_tensor",
    "write_tensor",
    "Secret",
    "bind",
    "unbind",
    "inverse",
    "project",
    "sample_secret",
    "cosine",
    "bundle_add",
    "presence_probe",
]

__version__ = "0.1.0"
