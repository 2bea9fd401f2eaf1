"""Seeded generators for benchmark instances.

Three cycle families: uniform random permutations, pyramidal tours
(single ascent to n then descent) and cycles with exactly four peaks.
An instance is a pair of independently drawn cycles plus their union
multigraph; the two cycles get independent child streams of the
instance seed, so either cycle is reproducible on its own.

The streams are numpy's, reproduced bit for bit in pure Python so that
no run imports numpy: `SeedSequence(seed).spawn(2)`, a `PCG64` bit
generator per child (O'Neill, 2014) and `Generator.integers`, which
bounds 32-bit draws by Lemire's rejection (ACM TOMACS 29(1), 2019).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import index

from .multigraph import HamCycle, UnionMultigraph, build_union, peaks

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy/random/bit_generator.pyx: SeedSequence's hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # pool words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list:
    """(xor, multiplier) of each of `count` successive hashes."""
    out, h = [], init
    for _ in range(count):
        nxt = h * mult & _MASK32
        out.append((h, nxt))
        h = nxt
    return out


# a seed below 2**128 fills the pool: 4 hashes fill it, 12 mix it, and
# each entropy word after the pool (here the spawn key) takes 4 more
_MIX_HASHES = _hash_constants(_INIT_A, _MULT_A, 5 * _POOL)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)
_MIX_ORDER = [(src, dst) for src in range(_POOL) for dst in range(_POOL)
              if src != dst]


def _mixed(pool: list, word: int, hashes) -> None:
    """Mix one entropy word into every pool word, one hash each."""
    for dst, (x, m) in enumerate(hashes):
        h = (word ^ x) * m & _MASK32
        r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & _MASK32
        pool[dst] = r ^ r >> 16


def _child_streams(seed: int) -> tuple[Pcg64, Pcg64]:
    """`default_rng(c)` for c in `SeedSequence(seed).spawn(2)`.

    A child's entropy is the seed's 32-bit words, padded with zeros to
    the pool size, then its spawn key (0 or 1).  The pool up to the key
    is the same for both children, so it is built once.
    """
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL - len(words))
    hashes = (_MIX_HASHES if len(words) == _POOL else
              _hash_constants(_INIT_A, _MULT_A, _POOL * (len(words) + 1)))
    pool = []
    for word, (x, m) in zip(words[:_POOL], hashes):
        h = (word ^ x) * m & _MASK32
        pool.append(h ^ h >> 16)
    for (src, dst), (x, m) in zip(_MIX_ORDER, hashes[_POOL:]):
        h = (pool[src] ^ x) * m & _MASK32
        r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & _MASK32
        pool[dst] = r ^ r >> 16
    k = _POOL * _POOL
    for word in words[_POOL:]:
        _mixed(pool, word, hashes[k:k + _POOL])
        k += _POOL
    children = []
    for key in (0, 1):
        child = pool[:]
        _mixed(child, key, hashes[k:])
        # generate_state(4, uint64): 8 words cycling the pool, read as
        # little-endian 64-bit pairs (state high, state low, inc high,
        # inc low)
        w = []
        for word, (x, m) in zip(child + child, _STATE_HASHES):
            h = (word ^ x) * m & _MASK32
            w.append(h ^ h >> 16)
        children.append(Pcg64(w[0] << 64 | w[1] << 96 | w[2] | w[3] << 32,
                              w[4] << 64 | w[5] << 96 | w[6] | w[7] << 32))
    return children[0], children[1]


class Pcg64:
    """numpy's `Generator(PCG64)`, as far as `integers` with a span of
    at most 2**32 goes.

    Each step of the 128-bit LCG gives one XSL-RR 64-bit output; a
    32-bit draw takes its low half and keeps the high half for the
    next draw.  The builders below accept this or a numpy `Generator`.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, initstate: int, initseq: int):
        # PCG's srandom: state 0, step, add the initial state, step
        self._inc = inc = (initseq << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._half = None

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << 64 - rot) & _MASK64
        self._half = x >> 32
        return x & _MASK32

    def _below(self, span: int) -> int:
        """Uniform in [0, span): Lemire's multiply and reject."""
        if span == 1:
            return 0  # numpy draws nothing for a single value
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform ints in [low, high): one, or a list of `size`."""
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError("integers needs 0 < high - low <= 2**32")
        if size is not None and size < 0:
            raise ValueError("size must be at least 0")
        if size is None:
            return low + self._below(span)
        if span & (span - 1) or span == 1:
            return [low + self._below(span) for _ in range(size)]
        # a power of two: the top bits of each 32-bit draw, never a
        # rejection; the LCG step is inline, two draws per step
        out = []
        shift, mask = 33 - span.bit_length(), span - 1
        if size and self._half is not None:
            out.append(self._half >> shift)
            self._half = None
            size -= 1
        state, inc = self._state, self._inc
        for _ in range(size + 1 >> 1):
            state = (state * _PCG_MULT + inc) & _MASK128
            # bits 0..127 hold the XSL-RR xor twice over, so shifting by
            # the rotation leaves the 64-bit output in the low bits
            w = (state ^ state >> 64 ^ state << 64) >> (state >> 122)
            out.append(w >> shift & mask)
            out.append(w >> 32 + shift & mask)
        self._state = state
        if size & 1:  # the last step's high half waits for the next draw
            self._half = w >> 32 & _MASK32
            out.pop()
        return [low + v for v in out] if low else out

    def fisher_yates(self, items: list) -> None:
        """`fisher_yates` on this stream: the draws of `integers(0, i + 1)`
        for i from len(items) - 1 down to 1, with the LCG step inline."""
        state, inc, half = self._state, self._inc, self._half
        for i in range(len(items) - 1, 0, -1):
            span = i + 1
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    # the XSL-RR output in the low 64 bits, as above
                    w = (state ^ state >> 64 ^ state << 64) >> (state >> 122)
                    m, half = (w & _MASK32) * span, w >> 32 & _MASK32
                else:
                    m, half = half * span, None
                # Lemire: reject below 2**32 % span, which is below span
                if m & _MASK32 >= span or m & _MASK32 >= (1 << 32) % span:
                    break
            j = m >> 32
            items[i], items[j] = items[j], items[i]
        self._state, self._half = state, half


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
        # every bad field is a ValueError, the CLI's usage error
        try:
            object.__setattr__(self, "kind", InstanceKind(self.kind))
        except ValueError:
            raise ValueError(f"unknown instance kind {self.kind!r}") from None
        for name in ("n", "seed"):
            value = getattr(self, name)
            try:  # not int(): that would truncate 1.5 to 1
                if isinstance(value, bool):  # index(True) is 1
                    raise TypeError
                object.__setattr__(self, name, index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if not isinstance(self.directed, bool):
            raise ValueError("directed must be True or False")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        minimum = 8 if self.kind is InstanceKind.FOUR_PEAK else 3
        if self.n < minimum:
            raise ValueError(
                f"{self.kind.value} instances need n >= {minimum}"
            )


def fisher_yates(items: list, rng: Pcg64) -> None:
    """In-place uniform shuffle."""
    if type(rng) is Pcg64:
        rng.fisher_yates(items)
        return
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]


def random_permutation_cycle(
    n: int, rng: Pcg64, directed: bool = False
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
    down = [v for v in range(n - 1, 1, -1) if v not in ascending]
    return HamCycle.from_order([1] + up + [n] + down, directed)


def pyramidal_tour(
    n: int, rng: Pcg64, directed: bool = False
) -> HamCycle:
    """Uniform pyramidal tour: each middle vertex climbs or descends."""
    coins = rng.integers(0, 2, size=max(n - 2, 0))
    ascending = {v for v, c in zip(range(2, n), coins) if c == 1}
    return pyramidal_from_ascent(n, ascending, directed)


_FOUR_PEAK_SEGMENTS = 8
_FOUR_PEAK_TRIES = 200_000


def four_peak_cycle(
    n: int, rng: Pcg64, directed: bool = False
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
        for k, run in enumerate(runs):  # each run was filled ascending
            if k % 2:
                run.reverse()
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
    rng_x, rng_y = _child_streams(spec.seed)
    build = _BUILDERS[spec.kind]
    x = build(spec.n, rng_x, spec.directed)
    y = build(spec.n, rng_y, spec.directed)
    return x, y, build_union(x, y)
