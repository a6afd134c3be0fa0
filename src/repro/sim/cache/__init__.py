"""Cache models (set-associative, LRU) and their statistics.

:class:`SetAssociativeCache` is the reference model (one geometry per
pass); :mod:`repro.sim.cache.stack` computes the same event counts for
every ``(size, associativity)`` pair sharing a block size in one pass.
"""

from repro.sim.cache.model import CacheGeometry, SetAssociativeCache, publish_stats
from repro.sim.cache.stack import StackDistanceProfile

__all__ = [
    "CacheGeometry",
    "SetAssociativeCache",
    "StackDistanceProfile",
    "publish_stats",
]
