"""Priority tiers with guaranteed floors (arena policy family 2).

Sessions are statically assigned to priority *tiers* (0 = highest).  Each
tier carries a per-session *floor* — bandwidth a member is guaranteed up
to its own demand.  Allocation runs in two passes:

1. **Floors, in priority order** — every session is granted
   ``min(demand, floor)``, tier by tier from the highest priority down.
   If capacity runs out mid-tier, that tier's floor grants are split
   max-min (:func:`~repro.core.maxminfair.water_fill`) so equal claims
   within a tier are treated symmetrically; lower tiers get nothing.
   While total capacity covers every floor claim, no session is ever
   below ``min(demand, floor)`` — the tier-floor preservation invariant
   the certificate checker replays.
2. **Strict-priority residual** — the remaining capacity goes to tier 0's
   unmet demand first (again water-filled within the tier), then tier 1,
   and so on.  A lower tier sees residual capacity only after every
   higher tier is fully satisfied.

Demands use the same up-to-grid quantization as the max-min family
(:func:`~repro.core.maxminfair.quantize_up`), so the allocation is a
function of quantized demands and the change count is well-defined.
"""

from __future__ import annotations

import math

from repro.core.epoch import EpochDrivenMultiSession
from repro.core.maxminfair import quantize_up, water_fill
from repro.errors import ConfigError


def tier_allocate(
    demands: list[float],
    tiers: list[int],
    floors: list[float],
    capacity: float,
    quantum: float = 0.0,
) -> list[float]:
    """Floors-then-strict-priority allocation (see module docstring).

    Args:
        demands: per-session demands.
        tiers: per-session tier index into ``floors`` (0 = highest).
        floors: per-tier per-session guaranteed floor.
        capacity: total bandwidth to hand out.
        quantum: demand-quantization grid (0 disables).

    Guarantees:

    * ``sum(alloc) <= capacity`` and ``alloc_i <= quantize_up(d_i)``;
    * when ``capacity >= sum_i min(quantize_up(d_i), floor[tier_i])``,
      every session gets at least its floor claim;
    * residual capacity reaches tier ``n`` only with every tier ``< n``
      saturated at its quantized demand.
    """
    k = len(demands)
    if len(tiers) != k:
        raise ConfigError(f"tiers has length {len(tiers)}, expected {k}")
    if capacity < 0:
        raise ConfigError(f"capacity must be >= 0, got {capacity!r}")
    if not floors:
        raise ConfigError("floors must name at least one tier")
    for floor in floors:
        if floor < 0 or not math.isfinite(floor):
            raise ConfigError(f"floors must be finite and >= 0, got {floor!r}")
    for tier in tiers:
        if not 0 <= tier < len(floors):
            raise ConfigError(
                f"tier index {tier!r} outside the {len(floors)} floors"
            )

    quantized = [quantize_up(d, quantum) for d in demands]
    members = [
        [i for i in range(k) if tiers[i] == tier] for tier in range(len(floors))
    ]
    alloc = [0.0] * k
    remaining = capacity

    # Pass 1: floor claims, highest priority first.  ``water_fill`` grants
    # each claim in full while the remaining capacity covers the tier
    # (level = inf) and splits max-min when it does not.
    for tier, indices in enumerate(members):
        if not indices or remaining <= 0:
            continue
        claims = [min(quantized[i], floors[tier]) for i in indices]
        grants = water_fill(claims, remaining, 0.0)
        for i, grant in zip(indices, grants):
            alloc[i] = grant
        remaining = max(0.0, remaining - math.fsum(sorted(grants)))

    # Pass 2: strict-priority residual, water-filled within each tier.
    for tier, indices in enumerate(members):
        if not indices:
            continue
        if remaining <= 0:
            break
        wants = [max(0.0, quantized[i] - alloc[i]) for i in indices]
        extras = water_fill(wants, remaining, 0.0)
        for i, extra in zip(indices, extras):
            alloc[i] += extra
        remaining = max(0.0, remaining - math.fsum(sorted(extras)))

    return alloc


class PriorityTierAllocator(EpochDrivenMultiSession):
    """Epoch-driven fixed-priority-tier multi-session allocator.

    Args:
        k: number of sessions.
        capacity: total bandwidth shared across sessions.
        period: epoch length in slots.
        tiers: per-session tier index (default: sessions split evenly
            across two tiers, first half high priority).
        floors: per-tier per-session floor (default: ``capacity / (2k)``
            for every tier, so the floors are always jointly satisfiable).
        quantum: demand-quantization grid (default ``capacity / (4k)``).
        fifo: serve each session FIFO with its pooled bandwidth.
    """

    bulk_commits = True

    def __init__(
        self,
        k: int,
        capacity: float,
        period: int,
        tiers: list[int] | None = None,
        floors: list[float] | None = None,
        quantum: float | None = None,
        fifo: bool = False,
    ):
        super().__init__(k=k, capacity=capacity, period=period, fifo=fifo)
        if tiers is None:
            tiers = [0 if i < (self.k + 1) // 2 else 1 for i in range(self.k)]
        if floors is None:
            n_tiers = max(tiers) + 1 if tiers else 1
            floors = [self.capacity / (2.0 * self.k)] * n_tiers
        if quantum is None:
            quantum = self.capacity / (4.0 * self.k)
        if quantum < 0:
            raise ConfigError(f"quantum must be >= 0, got {quantum!r}")
        # tier_allocate re-validates tiers/floors; run it once on a zero
        # demand vector so bad configs fail at construction time.
        tier_allocate([0.0] * self.k, list(tiers), list(floors), self.capacity)
        self.tiers = [int(tier) for tier in tiers]
        self.floors = [float(floor) for floor in floors]
        self.quantum = float(quantum)

    def _allocations(self, demands: list[float]) -> list[float]:
        return tier_allocate(
            demands, self.tiers, self.floors, self.capacity, self.quantum
        )
