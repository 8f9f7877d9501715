"""numpy behaviours that the oracle's byte budget (polyperm.WHOLE_FIELD_BYTES)
relies on, measured with tracemalloc on numpy 2.4.  A numpy that breaks one
fails here by name instead of quietly moving the oracle's peaks."""
import tracemalloc

import numpy as np

Q = 1 << 20


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_int32_indexed_gather_allocates_only_its_result():
    # label[jump] and the composed powers: np.take would first cast the
    # indices to intp, 12 bytes a point in all
    table = np.arange(Q, dtype=np.int32)
    idx = np.random.default_rng(0).permutation(Q).astype(np.int32)
    assert _peak(lambda: table[idx]) <= 4.25 * Q


def test_int32_indexed_scatter_allocates_nothing():
    # the bool mark of perm_from_images and the table of invert
    idx = np.random.default_rng(1).permutation(Q).astype(np.int32)
    seen = np.zeros(Q, dtype=bool)
    inv = np.empty(Q, dtype=np.int32)
    assert _peak(lambda: seen.__setitem__(idx, True)) <= 0.25 * Q
    assert _peak(lambda: inv.__setitem__(idx, idx)) <= 0.25 * Q
    assert seen.all() and np.array_equal(inv[idx], idx)


def test_in_place_int32_sort_allocates_nothing():
    # cycle_structure sorts its labels where they lie
    labels = np.random.default_rng(2).integers(0, Q, Q, dtype=np.int32)
    assert _peak(labels.sort) <= 0.25 * Q
    assert np.all(labels[1:] >= labels[:-1])
