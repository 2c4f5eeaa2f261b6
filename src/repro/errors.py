"""Shared exception hierarchy for the BcWAN reproduction.

Subsystem-specific errors (e.g. :class:`repro.crypto.rsa.RSAError`) derive
from built-in ``Exception``; protocol-level failures that cross module
boundaries derive from :class:`BcWANError` so applications can catch one
family.
"""

from __future__ import annotations

__all__ = [
    "BcWANError",
    "ProtocolError",
    "ValidationError",
    "ConfigurationError",
    "DaemonDown",
]


class BcWANError(Exception):
    """Base class for protocol-level BcWAN failures."""


class ProtocolError(BcWANError):
    """A peer violated the BcWAN exchange protocol."""


class ValidationError(BcWANError):
    """A transaction, block, or message failed validation rules.

    ``code`` is the stable ``REJECT_*`` code of the refusal where the
    raising stage has one (:mod:`repro.blockchain.engine`), else empty.
    """

    def __init__(self, message: str = "", code: str = "") -> None:
        super().__init__(message)
        self.code = code


class ConfigurationError(BcWANError):
    """Inconsistent or out-of-range configuration."""


class DaemonDown(BcWANError):
    """A daemon will not serve a job: offline, or a crash dropped it."""
