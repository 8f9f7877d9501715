import os

# One BLAS/OpenMP thread, set before numpy is first imported: the Walsh
# engine issues thousands of small matrix products, and a BLAS pool that
# competes with a busy neighbour slows them many times over.  Child
# processes of the tests inherit the settings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest
from hypothesis import settings

from ncyclepp.field import make_field

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")
# for parser fuzzing: the same examples on every run, none stored between
# runs, and a deadline so that a parse that hangs fails instead
settings.register_profile("deterministic", max_examples=200, derandomize=True,
                          database=None, deadline=1000)

_CACHE = {}


def field(p, n):
    """Session-wide field cache; contexts are immutable so sharing is safe."""
    key = (p, n)
    if key not in _CACHE:
        _CACHE[key] = make_field(p, n)
    return _CACHE[key]


def naive_cycle_type(images):
    """Reference cycle type sharing no code with the library: follow each
    point until it returns to the start."""
    q = len(images)
    done = [False] * q
    counts = {}
    for s in range(q):
        if done[s]:
            continue
        t, length = s, 0
        while True:
            done[t] = True
            t = images[t]
            length += 1
            if t == s:
                break
        counts[length] = counts.get(length, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.fixture(scope="session")
def fields():
    return field
