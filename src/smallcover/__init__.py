"""Mod-2 cohomology and category-type bounds for small covers."""

from .bounds import (
    BoundReport,
    ManifoldDescription,
    bott_manifold,
    cat_bounds,
    dold_bounds,
    eq_cat_bounds,
    small_cover_manifold,
    sphere_manifold,
    symm_tc_bounds,
    tc_bounds,
)
from .charfun import BottMatrix, FacetMasks, from_bott, validate
from .cohomology import (
    BottRing,
    SmallCoverRing,
    SphereRing,
    poincare_pairing,
    projective_ring,
    verify_top_monomial,
)
from .errors import BudgetExceeded, CharacteristicError, InputError
from .invariants import (
    IntervalValue,
    ZclCertificate,
    cup_length,
    verify_certificate,
    zcl_certificate_bott,
    zcl_exact,
    zcl_rp,
)
from .polytope import (
    SimplePolytope,
    explicit_polytope,
    f_vector,
    h_vector,
    polygon,
    product_of_simplices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
