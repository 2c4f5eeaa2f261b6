"""Named, seeded random streams.

Every source of randomness in a simulation draws from its own named
stream, all derived from one master seed.  This keeps runs reproducible
*and* decoupled: adding draws to the "lora" stream cannot perturb the
"network" stream.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of independent ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use)."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream
