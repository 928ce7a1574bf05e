import random

import pytest

from smallcover import polytope, sampling
from smallcover.sampling import all_bott_matrices  # noqa: F401  (shared by the test modules)


def random_characteristic(P, rng):
    """Random valid facet vectors for P, or None after 500 tries."""
    return sampling.random_characteristic(P, rng, tries=500)


def new_polytope(make):
    """make(), checked to be a new object: no equal polytope was live, so
    nothing an earlier test kept on one is counted by the caller."""
    live = list(polytope._LIVE.values())
    P = make()
    assert all(P is not Q for Q in live), f"{P.family} was already live"
    return P


def random_product_dims(rng, max_vertices=256, max_m=6):
    while True:
        dims = sampling.random_dims(rng, max_m, 4)
        count = 1
        for d in dims:
            count *= d + 1
        if count <= max_vertices:
            return dims


@pytest.fixture
def rng():
    return random.Random(20260824)
