"""Burst-buffer absorb-then-drain tier (ROADMAP item 2).

``python -m repro.gates buffer`` (``make buffer-quick``) runs the
tier's self-check gate; see :mod:`repro.gates`.
"""

from .node import BufferNode, BufferTierRuntime, Extent
from .tier import TIER_MODES, TIER_PLACEMENTS, TierSpec, load_tiers, save_tiers

__all__ = [
    "TIER_MODES",
    "TIER_PLACEMENTS",
    "TierSpec",
    "load_tiers",
    "save_tiers",
    "BufferNode",
    "BufferTierRuntime",
    "Extent",
]
