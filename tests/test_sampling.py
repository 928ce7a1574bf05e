"""The samplers' draws: random facet vectors, twistings and product dims,
each checked against a plain reference loop."""

import random
from itertools import product

import pytest

from smallcover import gf2, polytope, sampling
from smallcover.charfun import BottMatrix, validate
from smallcover.errors import InputError
from smallcover.polytope import explicit_polytope, polygon, product_of_simplices, product_vertices


def _list_sampler(P, rng, tries):
    """The sampler as it was: one choice from the list of all nonzero vectors."""
    n = P.n
    nonzero = [tuple((v >> i) & 1 for i in range(n)) for v in range(1, 1 << n)]
    first = sorted(P.vertices[0])
    for _ in range(tries):
        vectors = [rng.choice(nonzero) for _ in range(P.facet_count)]
        for i, f in enumerate(first):
            vectors[f] = tuple(1 if c == i else 0 for c in range(n))
        if validate(P, vectors).valid:
            return tuple(vectors)
    return None


def _prism(k):
    return explicit_polytope(3, k + 2, [(i, (i + 1) % k, cap)
                                        for i in range(k) for cap in (k, k + 1)])


def test_random_characteristic_draws_as_the_list_sampler():
    shapes = [polygon(k) for k in range(3, 9)] + [_prism(k) for k in range(3, 7)]
    shapes += [product_of_simplices(dims) for dims in [(1, 1), (2, 3), (1, 1, 1), (3, 4)]]
    found = 0
    for P in shapes:
        for seed in range(4):
            for tries in (1, 400):
                rng, reference = random.Random(seed), random.Random(seed)
                got = sampling.random_characteristic(P, rng, tries)
                expected = _list_sampler(P, reference, tries)
                # the draw as masks, each the one its tuple packs
                assert (got is None) == (expected is None), (P.family, seed)
                if got is not None:
                    assert got == tuple(map(gf2.mask_of, expected)) and got.n == P.n
                assert rng.getstate() == reference.getstate()
                found += got is not None
    assert found > len(shapes)


def test_product_draws_are_decided_by_the_peel(monkeypatch):
    def refuse(*args):
        raise AssertionError("eliminated")

    monkeypatch.setattr(sampling, "_dependent_vertices", refuse)
    found = 0
    for dims in [(1,), (2, 3), (1, 1, 1), (3, 4), (2, 2, 2, 2)]:
        P = product_of_simplices(dims)
        for seed in range(4):
            masks = sampling.random_characteristic(P, random.Random(seed), 400)
            if masks is not None:
                assert validate(P, masks).valid
                found += 1
    assert found > 10


def test_product_draws_start_from_the_last_listed_vertex(monkeypatch):
    """On a product, each draw makes the vectors on the last vertex that
    `product_vertices` lists a basis, without listing them: the draw and
    the random stream are those of the listing, on all 84 products with
    m <= 3 and n_j <= 4, and a product past the vertex cap is refused with
    the listing's message."""
    with pytest.raises(InputError) as listed:
        product_vertices(product_of_simplices((3,) * 9))
    with pytest.raises(InputError) as drawn:
        sampling.random_characteristic(product_of_simplices((3,) * 9), random.Random(0), 1)
    assert str(drawn.value) == str(listed.value)
    shapes = [dims for m in (1, 2, 3) for dims in product(range(1, 5), repeat=m)]
    assert len(shapes) == 84
    lists = {dims: product_vertices(product_of_simplices(dims))[-1] for dims in shapes}

    def refuse(*args):
        raise AssertionError("listed")

    monkeypatch.setattr(polytope, "product_vertices", refuse)
    # and under the name a sampler that imported it would list through
    monkeypatch.setattr(sampling, "product_vertices", refuse, raising=False)
    for dims in [(3,) * 8, (1,) * 16]:  # 65 536 vertices each
        sampling.random_characteristic(product_of_simplices(dims), random.Random(0), 3)
    monkeypatch.setattr(sampling, "_peel", lambda P, masks: True)  # every draw passes
    for seed, dims in enumerate(shapes):
        P = product_of_simplices(dims)
        rng, reference = random.Random(seed), random.Random(seed)
        masks = [reference.randrange(1, 1 << P.n) for _ in range(P.facet_count)]
        for i, f in enumerate(lists[dims]):
            masks[f] = 1 << i
        assert list(sampling.random_characteristic(P, rng, 1)) == masks, dims
        assert rng.getstate() == reference.getstate()


def _inline_bott_matrix(dims, rng):
    """The twisting draw as the CLI and the tests wrote it out."""
    m = len(dims)
    beta = {}
    for k in range(2, m + 1):
        for j in range(1, k):
            chunk = tuple(rng.randint(0, 1) for _ in range(dims[k - 1]))
            if any(chunk):
                beta[(k, j)] = chunk
    return BottMatrix.make(dims, beta), beta


def test_random_bott_matrix_draws_as_the_inline_loop():
    twisted = 0
    for seed in range(40):
        shape = random.Random(seed)
        dims = tuple(shape.randint(1, 4) for _ in range(shape.randint(1, 5)))
        rng, reference = random.Random(seed), random.Random(seed)
        B = sampling.random_bott_matrix(dims, rng)
        expected, beta = _inline_bott_matrix(dims, reference)
        assert B == expected, (seed, dims)
        assert repr(dict(B.beta)) == repr(beta)
        assert rng.getstate() == reference.getstate()
        twisted += bool(B.beta)
    assert twisted > 20


def test_random_dims_draws_as_the_inline_loop():
    shapes = set()
    for seed in range(40):
        for max_m, max_n in ((1, 1), (3, 3), (6, 4), (5, 2)):
            rng, reference = random.Random(seed), random.Random(seed)
            dims = sampling.random_dims(rng, max_m, max_n)
            m = reference.randint(1, max_m)
            assert dims == tuple(reference.randint(1, max_n) for _ in range(m))
            assert rng.getstate() == reference.getstate()
            shapes.add(dims)
    assert len(shapes) > 60
