import os

# One BLAS/OpenMP thread, set before numpy is first imported: the Walsh
# engine issues thousands of small matrix products, and a BLAS pool that
# competes with a busy neighbour slows them many times over.  Child
# processes of the tests inherit the settings.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
# make_field reads the field-size cap from the environment: a cap exported
# in the developer's shell would change results, so tests that need one set
# it with monkeypatch
os.environ.pop("NCYC_CAP", None)

import resource
import subprocess
import sys

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


def run_cli(argv, address_space=None, env=None, timeout=30):
    """Run the command line in a child process, its address space capped
    at address_space bytes when that is given (so that an unbounded
    allocation fails instead of taking the machine's memory), with env as
    its environment when given; the CompletedProcess, output as text."""
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run([sys.executable, "-m", "ncyclepp.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env, preexec_fn=limit)


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
