"""Fixture: what the per-file bans catch and the taint pass cannot.

Taint follows values through locals, arguments and returns — not through
object attributes, and ``hasher.update(...)`` is not a sink.  Each shape
below hashes a nondeterministic value along exactly such a path.
"""

import hashlib
import time


class Stamper:
    def arm(self):
        self.stamp = time.time()

    def seal(self):
        return hashlib.sha256(str(self.stamp).encode()).digest()


class Ratio:
    def arm(self):
        self.ratio = 1.5

    def seal(self):
        return hashlib.sha256(str(self.ratio).encode()).digest()


def fold(peers):
    hasher = hashlib.sha256()
    for peer in set(peers):
        hasher.update(peer)
    return hasher.digest()
