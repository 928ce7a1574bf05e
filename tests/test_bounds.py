import pytest

from smallcover import bounds
from smallcover.bounds import (
    BoundReport,
    bott_manifold,
    cat_bounds,
    dold_bounds,
    eq_cat_bounds,
    manifold_ring,
    simplex_facet_hypotheses,
    small_cover_manifold,
    special_family_bounds,
    sphere_manifold,
    symm_tc_bounds,
    tc_bounds,
)
from smallcover.charfun import BottMatrix, parse_bits
from smallcover.errors import CharacteristicError, InputError
from smallcover.polytope import polygon, product_of_simplices

from conftest import all_bott_matrices


def klein_manifold(**kw):
    P = polygon(4)
    vectors = [parse_bits(s) for s in ["10", "01", "10", "11"]]
    return small_cover_manifold(P, vectors, **kw)


def rp_manifold(n, **kw):
    return bott_manifold((n,), BottMatrix.make((n,)), **kw)


def test_constructors_validate():
    with pytest.raises(CharacteristicError):
        small_cover_manifold(polygon(4), [parse_bits(s) for s in ["10", "01", "10", "10"]])
    with pytest.raises(InputError):
        sphere_manifold(0)


def test_cat_small_cover():
    rep = cat_bounds(klein_manifold())
    assert (rep.interval.lo, rep.interval.hi) == (3, 3)
    rep = cat_bounds(rp_manifold(4))
    assert (rep.interval.lo, rep.interval.hi) == (5, 5)
    rep = cat_bounds(sphere_manifold(6))
    assert (rep.interval.lo, rep.interval.hi) == (2, 2)


def test_tc_projective_small():
    # TC(RP^2) = 4 via the exact kernel search
    rep = tc_bounds(rp_manifold(2))
    assert rep.interval.lo == 4 and rep.interval.hi == 5
    assert any(rule == "exact kernel search" for _, rule, _ in rep.certificates)
    # RP^4: zcl = 7 so TC >= 8; dimension cap gives 9
    rep = tc_bounds(rp_manifold(4))
    assert rep.interval.lo == 8 and rep.interval.hi == 9


def test_tc_large_tower_table():
    expected = {
        (16, 8): (47, 49),
        (16, 9): (47, 50),
        (17, 8): (47, 50),
        (17, 9): (47, 51),
    }
    for dims, (lo, hi) in expected.items():
        rep = tc_bounds(bott_manifold(dims, BottMatrix.make(dims)))
        assert (rep.interval.lo, rep.interval.hi) == (lo, hi), dims


def test_tc_sphere():
    rep = tc_bounds(sphere_manifold(3))
    assert rep.interval.lo == 2 and rep.interval.hi == 3
    rep = tc_bounds(sphere_manifold(4))
    assert rep.interval.lo == 3


def test_tc_interval_contains_cat_floor():
    for dims, B in list(all_bott_matrices(2, 2))[:10]:
        M = bott_manifold(dims, B)
        rep = tc_bounds(M)
        cat = cat_bounds(M)
        assert rep.interval.lo >= cat.interval.lo
        assert rep.interval.hi <= 2 * cat.interval.hi - 1


def test_simplex_facet_hypotheses():
    M = rp_manifold(4)
    has_simplex, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
    assert has_simplex and det_ok
    M = bott_manifold((16, 8), BottMatrix.make((16, 8)))
    has_simplex, det_ok = simplex_facet_hypotheses(M.P, M.vectors)
    assert not has_simplex and not det_ok


def test_eq_cat_klein():
    rep = eq_cat_bounds(klein_manifold(involution=(1, 0)))
    assert (rep.interval.lo, rep.interval.hi) == (4, 4)
    assert rep.interval.lo_source == "fixed circle cover"


def test_eq_cat_2m_gons():
    for m in range(2, 6):
        k = 2 * m
        P = polygon(k)
        vectors = [
            parse_bits("10") if i % 2 == 0 else parse_bits("01") for i in range(k)
        ]
        M = small_cover_manifold(P, vectors, involution=(1, 0))
        rep = eq_cat_bounds(M)
        assert (rep.interval.lo, rep.interval.hi) == (2 * m, 2 * m)


def test_eq_cat_connected_fixed_set():
    rep = eq_cat_bounds(klein_manifold(involution=(1, 1), fixed_set_connected=True))
    assert (rep.interval.lo, rep.interval.hi) == (3, 3)
    assert rep.assumed_flags == ("fixed_set_connected",)


def test_eq_cat_requires_involution():
    with pytest.raises(InputError):
        eq_cat_bounds(klein_manifold())
    with pytest.raises(InputError):
        eq_cat_bounds(klein_manifold(involution=(0, 0)))


def test_symm_tc_exact_powers_of_two():
    for s in (1, 2, 3):
        n = 1 << s
        rep = symm_tc_bounds(rp_manifold(n))
        assert (rep.interval.lo, rep.interval.hi) == (2 * n + 1, 2 * n + 1)


def test_symm_tc_dominates_tc():
    for M in [klein_manifold(), rp_manifold(3), sphere_manifold(2)]:
        tc = tc_bounds(M)
        ts = symm_tc_bounds(M)
        assert ts.interval.lo >= tc.interval.lo
        assert ts.interval.lo >= 2


def test_dold_known_intervals():
    for n, p1, expected in [(2, 2, (7, 9)), (4, 2, (11, 13))]:
        cat, tc, tcs = dold_bounds(rp_manifold(n), [p1])
        assert (tc.interval.lo, tc.interval.hi) == expected
        assert cat.interval.lo == n + p1 + 1
        assert tcs.interval.lo >= tc.interval.lo - 1


def test_dold_over_sphere():
    cat, tc, tcs = dold_bounds(sphere_manifold(3), [2])
    # cl(D) = 1 + 2 + 1 - 1 = 3, so cat >= 4; invariant cover cap applies
    assert cat.interval.lo == 4
    assert cat.interval.hi == 2 + 2 + 1 - 1
    assert tc.interval.hi == 2 * (2 + 2 + 1) - 1


def test_dold_validation():
    with pytest.raises(InputError):
        dold_bounds(rp_manifold(2), [])
    with pytest.raises(InputError):
        dold_bounds(rp_manifold(2), [3, 1])


def test_special_family_bounds():
    out = {r.rule: r.interval for r in special_family_bounds((2, 2, 2))}
    assert out["power-of-two blocks"].lo == 2 * 6 - 3 + 1
    out = {r.rule: r.interval for r in special_family_bounds((3, 5))}
    assert out["power-of-two-plus-one blocks"].lo == 2 * 8 - 3 * 2 + 1
    assert out["power-of-two-plus-one blocks"].hi == 2 * 8 - 2 + 1
    assert out["odd blocks with free circle actions"].hi == 2 * 8 - 2 + 1
    assert special_family_bounds((6,)) == []
    with pytest.raises(InputError):
        special_family_bounds(())


def test_bound_report_json_round_trip():
    for rep in [
        tc_bounds(rp_manifold(2)),
        cat_bounds(klein_manifold()),
        eq_cat_bounds(klein_manifold(involution=(1, 0))),
    ]:
        data = rep.to_json()
        assert BoundReport.from_json(data) == rep


def test_dold_tc_dimension_cap():
    _, tc, _ = dold_bounds(bott_manifold((16, 8), BottMatrix.make((16, 8))), [1])
    assert tc.interval.hi <= 2 * 25 + 1
    for m in (1, 2, 3):
        for dims, B in all_bott_matrices(m, 3):
            n, dim = sum(dims), 1
            for d in dims:
                dim *= d + 1
            if dim > 12:
                continue
            _, tc, _ = dold_bounds(bott_manifold(dims, B), [1])
            assert tc.interval.lo <= tc.interval.hi <= 2 * (n + 1) + 1, dims


def test_manifold_ring_built_once():
    M = rp_manifold(3)
    ring = manifold_ring(M)
    assert manifold_ring(M) is ring
    assert ring._zcl is None
    tc_bounds(M)
    kept = ring._zcl
    assert kept is not None
    symm_tc_bounds(M)
    dold_bounds(M, [1])
    assert ring._zcl is kept
    # the ring is not part of the description's value
    assert M == rp_manifold(3) and "_ring" not in repr(M)


def test_certificate_built_once_per_tower(monkeypatch):
    calls = []
    build = bounds.zcl_certificate_bott

    def counted(dims, B):
        calls.append(dims)
        return build(dims, B)

    monkeypatch.setattr(bounds, "zcl_certificate_bott", counted)
    M = bott_manifold((3, 2), BottMatrix.make((3, 2), {(2, 1): (1, 0)}))
    tc = tc_bounds(M)
    symm_tc_bounds(M)
    assert calls == [(3, 2)]
    assert manifold_ring(M)._cert is not None
    assert tc_bounds(M) == tc and calls == [(3, 2)]
