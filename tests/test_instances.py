from collections import Counter

import numpy as np
import pytest

from hamdec.instances import (
    InstanceKind,
    InstanceSpec,
    _child_streams,
    fisher_yates,
    four_peak_cycle,
    generate_instance,
    pyramidal_from_ascent,
    pyramidal_tour,
    random_permutation_cycle,
)
from hamdec.multigraph import build_union, peaks

# the property tests below hold for numpy's Generator and for the
# package's own stream alike; the builders take either
STREAMS = {
    "numpy": np.random.default_rng,
    "package": lambda seed: _child_streams(seed)[0],
}


def test_generate_instance_is_deterministic():
    spec = InstanceSpec(InstanceKind.RANDOM_PERMUTATION, 20, False, 42)
    x1, y1, g1 = generate_instance(spec)
    x2, y2, g2 = generate_instance(spec)
    assert x1.order == x2.order
    assert y1.order == y2.order
    assert (g1.tail, g1.head, g1.partner) == (g2.tail, g2.head, g2.partner)


def test_generate_instance_union_matches_cycles():
    spec = InstanceSpec(InstanceKind.PYRAMIDAL, 15, True, 5)
    x, y, g = generate_instance(spec)
    rebuilt = build_union(x, y)
    assert (g.tail, g.head) == (rebuilt.tail, rebuilt.head)


def test_fisher_yates_permutes():
    for name, stream in STREAMS.items():
        rng = stream(0)
        items = list(range(10))
        fisher_yates(items, rng)
        assert sorted(items) == list(range(10)), name


def test_random_permutation_uniform_over_n4_cycles():
    for name, stream in STREAMS.items():
        rng = stream(123)
        counts = Counter()
        draws = 10_000
        for _ in range(draws):
            c = random_permutation_cycle(4, rng)
            counts[c.edge_multiset()] += 1
        assert len(counts) == 3, name  # all undirected cycles on 4 vertices
        for got in counts.values():
            assert abs(got / draws - 1 / 3) < 0.05, name


def test_pyramidal_from_ascent_two_run_layout():
    c = pyramidal_from_ascent(8, {2, 4, 5, 7})
    assert c.order == (1, 2, 4, 5, 7, 8, 6, 3)
    assert peaks(c) == {8}


def test_pyramidal_tours_have_single_peak_at_n():
    for name, stream in STREAMS.items():
        rng = stream(9)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            assert peaks(pyramidal_tour(n, rng)) == {n}, name


def test_pyramidal_ascent_set_validation():
    with pytest.raises(ValueError):
        pyramidal_from_ascent(8, {1, 2})
    with pytest.raises(ValueError):
        pyramidal_from_ascent(8, {8})


def test_four_peak_cycles_have_exactly_four_peaks():
    for name, stream in STREAMS.items():
        rng = stream(77)
        for _ in range(1000):
            c = four_peak_cycle(16, rng)
            assert len(peaks(c)) == 4, name
        # smallest supported size still converges
        for _ in range(3):
            assert len(peaks(four_peak_cycle(8, rng))) == 4, name


def test_four_peak_rejects_small_n():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        four_peak_cycle(6, rng)
    with pytest.raises(ValueError):
        InstanceSpec(InstanceKind.FOUR_PEAK, 7, False, 0)


def test_spec_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown instance kind"):
        InstanceSpec("bogus", 10, False, 0)


def test_spec_takes_a_kind_by_its_value():
    spec = InstanceSpec("four-peak", 10, False, 0)
    assert spec.kind is InstanceKind.FOUR_PEAK
    assert spec == InstanceSpec(InstanceKind.FOUR_PEAK, 10, False, 0)


@pytest.mark.parametrize("n, seed", [(10.0, 0), (10, 1.5), ("10", 0),
                                     (10, None)])
def test_spec_rejects_non_integer_n_and_seed(n, seed):
    with pytest.raises(ValueError, match="must be an integer"):
        InstanceSpec(InstanceKind.PYRAMIDAL, n, False, seed)


@pytest.mark.parametrize("n, seed", [(True, 0), (10, True), (10, False)])
def test_spec_rejects_bool_n_and_seed(n, seed):
    # True would otherwise be taken as seed 1
    with pytest.raises(ValueError, match="must be an integer"):
        InstanceSpec(InstanceKind.PYRAMIDAL, n, False, seed)


@pytest.mark.parametrize("directed", ["yes", 1, 0, None])
def test_spec_rejects_non_bool_directed(directed):
    with pytest.raises(ValueError, match="directed"):
        InstanceSpec(InstanceKind.PYRAMIDAL, 10, directed, 0)


def test_spec_stores_integer_like_fields_as_int():
    spec = InstanceSpec(InstanceKind.PYRAMIDAL, np.int64(10), False,
                        np.uint64(3))
    assert (type(spec.n), type(spec.seed)) == (int, int)
    assert spec == InstanceSpec(InstanceKind.PYRAMIDAL, 10, False, 3)


def shared_edge_mean(kind, n, directed, seeds):
    total = 0
    for seed in seeds:
        _, _, g = generate_instance(InstanceSpec(kind, n, directed, seed))
        total += g.multi_edge_count()
    return total / len(seeds)


def test_shared_edge_counts_land_in_expected_windows():
    seeds = range(30)
    m = shared_edge_mean(InstanceKind.RANDOM_PERMUTATION, 192, False, seeds)
    assert 2 <= m <= 8
    m = shared_edge_mean(InstanceKind.PYRAMIDAL, 192, False, seeds)
    assert 110 <= m <= 155
    m = shared_edge_mean(InstanceKind.PYRAMIDAL, 192, True, seeds)
    assert 55 <= m <= 80
