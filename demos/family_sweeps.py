"""
Sweep whole families through the structural checks
===================================================

Three sweeps: the main family through n = 60, the signed product through
n = 30, and the quotient family at r = 3 and 4. Each family is one row
stream (``family_rows``) of rows held in digit planes, and the checks read
those planes without decoding them to coefficient lists; nothing here
should ever fail.
"""

import time

from qunimodal import (
    ProductSpec,
    check_sign_pattern,
    check_symmetric,
    check_unimodal,
    family_rows,
    main_rows,
    replay_induction,
)

t0 = time.time()
rows = []
for n, p in family_rows(ProductSpec.main(60)):
    sym = check_symmetric(p).passed
    uni = check_unimodal(p)
    rows.append((n, p.degree, sym, uni.passed, uni.mode_lo, uni.mode_hi))
print("main family, last five rows (n, degree, symmetric, unimodal, mode):")
for row in rows[-5:]:
    print("  ", row)
print(f"swept 61 rows in {time.time() - t0:.2f}s")
print()

# the induction replay re-proves unimodality row by row from symmetry,
# carried monotonicity, and the fresh central window
rep = replay_induction(60)
print("induction replay:", rep.passed, "-", rep.details)
print()

bad = sum(not check_sign_pattern(signed, "+--").passed for signed in main_rows(30, sign=-1))
print(f"signed product keeps the +-- cycle through n=30: {bad == 0}")
print()

for r in (3, 4):
    worst = None
    for n, q in family_rows(ProductSpec.almkvist(r, 30)):
        if n >= 11 and not check_unimodal(q).passed:
            worst = n
    print(f"quotient family r={r}: unimodal for 11 <= n <= 30: {worst is None}")
