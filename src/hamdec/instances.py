"""Seeded generators for benchmark instances.

Three cycle families: uniform random permutations, pyramidal tours
(single ascent to n then descent) and cycles with exactly four peaks.
An instance is a pair of independently drawn cycles plus their union
multigraph; the two cycles get independent child streams of the
instance seed, so either cycle is reproducible on its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .multigraph import HamCycle, UnionMultigraph, build_union, peaks


class InstanceKind(str, enum.Enum):
    RANDOM_PERMUTATION = "random-permutation"
    PYRAMIDAL = "pyramidal"
    FOUR_PEAK = "four-peak"


@dataclass(frozen=True)
class InstanceSpec:
    kind: InstanceKind
    n: int
    directed: bool
    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        minimum = 8 if self.kind is InstanceKind.FOUR_PEAK else 3
        if self.n < minimum:
            raise ValueError(
                f"{self.kind.value} instances need n >= {minimum}"
            )


def fisher_yates(items: list, rng: np.random.Generator) -> None:
    """In-place uniform shuffle."""
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]


def random_permutation_cycle(
    n: int, rng: np.random.Generator, directed: bool = False
) -> HamCycle:
    rest = list(range(2, n + 1))
    fisher_yates(rest, rng)
    return HamCycle.from_order([1] + rest, directed)


def pyramidal_from_ascent(
    n: int, ascending: set[int], directed: bool = False
) -> HamCycle:
    """Pyramidal tour climbing through `ascending` to n, descending back.

    `ascending` picks which of the vertices 2..n-1 sit on the climb;
    the rest form the descent.
    """
    if not ascending <= set(range(2, n)):
        raise ValueError("ascent set must lie within 2..n-1")
    up = sorted(ascending)
    down = sorted(set(range(2, n)) - ascending, reverse=True)
    return HamCycle.from_order([1] + up + [n] + down, directed)


def pyramidal_tour(
    n: int, rng: np.random.Generator, directed: bool = False
) -> HamCycle:
    """Uniform pyramidal tour: each middle vertex climbs or descends."""
    coins = rng.integers(0, 2, size=max(n - 2, 0))
    ascending = {v for v, c in zip(range(2, n), coins) if c == 1}
    return pyramidal_from_ascent(n, ascending, directed)


_FOUR_PEAK_SEGMENTS = 8
_FOUR_PEAK_TRIES = 200_000


def four_peak_cycle(
    n: int, rng: np.random.Generator, directed: bool = False
) -> HamCycle:
    """Cycle with exactly four peaks.

    Vertices 2..n are scattered uniformly over eight alternating
    ascent/descent runs (vertex 1 opens the first ascent); draws whose
    peak count misses four are rejected and retried.
    """
    if n < 8:
        raise ValueError("four-peak cycles need n >= 8")
    for _ in range(_FOUR_PEAK_TRIES):
        runs: list[list[int]] = [[] for _ in range(_FOUR_PEAK_SEGMENTS)]
        slots = rng.integers(0, _FOUR_PEAK_SEGMENTS, size=n - 1)
        for v, s in zip(range(2, n + 1), slots):
            runs[s].append(v)
        order = [1]
        for k, run in enumerate(runs):
            run.sort(reverse=bool(k % 2))
            order.extend(run)
        cycle = HamCycle.from_order(order, directed)
        if len(peaks(cycle)) == 4:
            return cycle
    raise RuntimeError("four-peak sampling failed to converge")


_BUILDERS = {
    InstanceKind.RANDOM_PERMUTATION: random_permutation_cycle,
    InstanceKind.PYRAMIDAL: pyramidal_tour,
    InstanceKind.FOUR_PEAK: four_peak_cycle,
}


def generate_instance(
    spec: InstanceSpec,
) -> tuple[HamCycle, HamCycle, UnionMultigraph]:
    """Draw the (x, y) pair for a spec and build their union."""
    child_x, child_y = np.random.SeedSequence(spec.seed).spawn(2)
    build = _BUILDERS[spec.kind]
    x = build(spec.n, np.random.default_rng(child_x), spec.directed)
    y = build(spec.n, np.random.default_rng(child_y), spec.directed)
    return x, y, build_union(x, y)
