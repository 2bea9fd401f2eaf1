"""The package's pure-Python stream against numpy, bit for bit.

`generate_instance` must draw exactly what numpy's
`SeedSequence(seed).spawn(2)` -> `default_rng` -> builders path draws,
so that instance files stay byte-reproducible from their seeds.
"""

import numpy as np
import pytest

from hamdec.instances import (
    InstanceKind,
    InstanceSpec,
    Pcg64,
    _PCG_MULT,
    _child_streams,
    fisher_yates,
    four_peak_cycle,
    generate_instance,
    pyramidal_tour,
    random_permutation_cycle,
)

BUILDERS = {
    InstanceKind.RANDOM_PERMUTATION: random_permutation_cycle,
    InstanceKind.PYRAMIDAL: pyramidal_tour,
    InstanceKind.FOUR_PEAK: four_peak_cycle,
}
# 2**32 - 1 and 2**32 straddle the first 32-bit word; 2**64 + 3 has
# three words; 2**128 and beyond overflow the 4-word pool
WIDE_SEEDS = [2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**128, 2**160 + 7]
# the first seeds of each bench corpus: (kind, n, directed, first seed)
CORPORA = [
    (InstanceKind.RANDOM_PERMUTATION, 96, False, 5000),
    (InstanceKind.PYRAMIDAL, 20, False, 100),
    (InstanceKind.RANDOM_PERMUTATION, 64, True, 7000),
    (InstanceKind.FOUR_PEAK, 96, False, 9000),
    (InstanceKind.PYRAMIDAL, 96, True, 9100),
]


def numpy_children(seed):
    return [np.random.default_rng(c)
            for c in np.random.SeedSequence(seed).spawn(2)]


def numpy_instance(spec):
    build = BUILDERS[spec.kind]
    return [build(spec.n, rng, spec.directed).order
            for rng in numpy_children(spec.seed)]


def package_instance(spec):
    x, y, _ = generate_instance(spec)
    return [x.order, y.order]


@pytest.mark.parametrize("kind", list(InstanceKind), ids=lambda k: k.value)
@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_instances_equal_numpys(kind, directed):
    minimum = 8 if kind is InstanceKind.FOUR_PEAK else 3
    for n in (3, 4, 8, 12, 20, 32, 96):
        if n < minimum:
            continue
        for seed in list(range(4)) + WIDE_SEEDS:
            spec = InstanceSpec(kind, n, directed, seed)
            assert package_instance(spec) == numpy_instance(spec), (n, seed)


@pytest.mark.parametrize("kind, n, directed, first", CORPORA,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_bench_corpus_instances_equal_numpys(kind, n, directed, first):
    for seed in range(first, first + 5):
        spec = InstanceSpec(kind, n, directed, seed)
        assert package_instance(spec) == numpy_instance(spec), seed


def numpy_state(rng):
    state = rng.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    return state["state"]["state"], state["state"]["inc"], half


def package_state(stream: Pcg64):
    return stream._state, stream._inc, stream._half


@pytest.mark.parametrize("seed", [0, 1, 12345] + WIDE_SEEDS)
def test_child_states_equal_numpys(seed):
    ours = _child_streams(seed)
    theirs = numpy_children(seed)
    assert [package_state(s) for s in ours] == [
        numpy_state(r) for r in theirs]
    # the two children are different streams
    assert ours[0]._state != ours[1]._state


# 3 * 2**30 and 2**31 + 1 reject a quarter and about half of their draws
SPANS = [1, 2, 3, 8, 95, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_interleaved_draws_equal_numpys(seed):
    # scalar and size= draws in turn, odd and even sizes, so that the
    # kept high half crosses every kind of call
    ours = _child_streams(seed)[1]
    theirs = numpy_children(seed)[1]
    calls = [(low, span, size) for low in (0, 5) for span in SPANS
             for size in (None, 1, 2, 7, 10, None)]
    for low, span, size in calls:
        got = ours.integers(low, low + span, size=size)
        want = theirs.integers(low, low + span, size=size)
        want = int(want) if size is None else want.tolist()
        assert got == want, (low, span, size)
        assert package_state(ours) == numpy_state(theirs), (low, span, size)


def test_a_span_of_one_draws_nothing():
    stream = _child_streams(3)[0]
    before = package_state(stream)
    assert stream.integers(4, 5) == 4
    assert stream.integers(4, 5, size=3) == [4, 4, 4]
    assert package_state(stream) == before


@pytest.mark.parametrize("low, high, size", [(0, 0, None), (3, 2, None),
                                             (0, 2**32 + 1, None),
                                             (0, 2, -1)])
def test_integers_rejects_what_it_cannot_draw(low, high, size):
    with pytest.raises(ValueError):
        _child_streams(0)[0].integers(low, high, size=size)


@pytest.mark.parametrize("pending", [False, True], ids=["whole", "half"])
@pytest.mark.parametrize("size", [1, 2, 3, 97])
def test_shuffle_on_a_stream_equals_numpys_draws(size, pending):
    # the package's stream shuffles in one inline loop; numpy's takes
    # successive integers(0, i + 1) draws, through the same function
    ours = _child_streams(11)[0]
    theirs = numpy_children(11)[0]
    if pending:  # a 32-bit draw leaves the step's high half waiting
        assert ours.integers(0, 5) == theirs.integers(0, 5)
        assert ours._half is not None
    for _ in range(3):
        got, want = list(range(size)), list(range(size))
        fisher_yates(got, ours)
        fisher_yates(want, theirs)
        assert got == want
        assert package_state(ours) == numpy_state(theirs)


@pytest.mark.parametrize("size", [3, 97])
def test_shuffle_on_a_stream_rejects_as_numpy_does(size):
    # a state whose next step outputs 0: both halves of it fall below
    # 2**32 % span, so Lemire's rule rejects two draws in a row
    inc = (7 << 1) | 1
    state = -inc * pow(_PCG_MULT, -1, 2**128) % 2**128
    ours = Pcg64(0, 7)
    ours._state, ours._inc = state, inc
    theirs = np.random.Generator(np.random.PCG64())
    theirs.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0}
    got, want = list(range(size)), list(range(size))
    fisher_yates(got, ours)
    fisher_yates(want, theirs)
    assert got == want
    assert package_state(ours) == numpy_state(theirs)
