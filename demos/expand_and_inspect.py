"""
Build a few products and look at their coefficient rows
========================================================

The main family multiplies (1 + q^{3k+1})(1 + q^{3k+2}) for k = 0..n.
Its coefficients count partitions into distinct parts that are not
multiples of 3 and are at most 3n+2. This script expands small rows,
prints them, and runs the structural checks on each. A row is held in
``int64`` planes of 56-bit digits; printing ``p.coeffs`` decodes it,
while the checks read the planes directly.
"""

from qunimodal import (
    ProductSpec,
    build_product,
    check_symmetric,
    check_unimodal,
    evaluate_at_minus_one,
    evaluate_at_one,
    main_rows,
    product_rows,
    check_almost_unimodal,
)

for n in range(4):
    p = build_product(ProductSpec.main(n))
    print(f"n={n}  degree={p.degree}  coeffs={list(p.coeffs)}")
    sym = check_symmetric(p)
    uni = check_unimodal(p)
    print(f"      symmetric={sym.passed}  unimodal={uni.passed}"
          f"  mode=[{uni.mode_lo}, {uni.mode_hi}]")
    # the masses are a cheap independent fingerprint of the expansion
    print(f"      value at 1: {evaluate_at_one(p)} (expect {4 ** (n + 1)}),"
          f" at -1: {evaluate_at_minus_one(p)}")
    print()

# The signed variant of the same product has a strict sign cycle
# +,-,- along the coefficient index. Zeros are allowed anywhere.
*_, signed = main_rows(2, sign=-1)
print("signed product, n=2:", list(signed.coeffs))

# Distinct odd parts give an almost-unimodal row: the q^2 coefficient
# is forced to zero (2 is even and 1+1 repeats a part), so the bare
# check fails right there while trimming three entries fixes it.
(odd,) = product_rows([[(1, 2 * k - 1) for k in range(1, 31)]])
print("odd-parts row head:", list(odd.coeffs[:8]), "...")
bare = check_almost_unimodal(odd, 0)
trimmed = check_almost_unimodal(odd, 3)
print(f"bare check passed={bare.passed} first_violation={bare.first_violation};"
      f" trimmed passed={trimmed.passed}")
