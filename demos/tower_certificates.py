"""Zero-divisor certificates for projective-bundle towers.

For a tower over a product of two large simplices the full tensor-square
search is far out of reach, but the binary-power certificate still pins the
topological complexity to a window of width two or three.
"""

from smallcover import BottMatrix, bott_manifold, tc_bounds, zcl_certificate_bott

for dims in [(16, 8), (16, 9), (17, 8), (17, 9)]:
    B = BottMatrix.make(dims)
    cert = zcl_certificate_bott(B)
    rep = tc_bounds(bott_manifold(dims, B))
    iv = rep.interval
    print(f"dims {dims}: certificate length {cert.k} -> TC in [{iv.lo}, {iv.hi}]")
    print("  surviving split terms:", ", ".join(cert.surviving_terms))
