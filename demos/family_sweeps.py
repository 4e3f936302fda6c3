"""
Sweep whole families through the structural checks
===================================================

Three sweeps: the main family through n = 60 as one row stream, the
signed product through n = 30, and the quotient family at r = 3. Each
row is one line; nothing here should ever fail.
"""

import time

from qunimodal import (
    ProductSpec,
    build_product,
    check_sign_pattern,
    check_symmetric,
    check_unimodal,
    main_rows,
    replay_induction,
)

t0 = time.time()
rows = []
for n, p in enumerate(main_rows(60)):
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

bad = sum(not check_sign_pattern(signed, 3, "+--").passed for signed in main_rows(30, sign=-1))
print(f"signed product keeps the +-- cycle through n=30: {bad == 0}")
print()

for r in (3, 4):
    worst = None
    for n in range(11, 31):
        q = build_product(ProductSpec.almkvist(r, n))
        uni = check_unimodal(q)
        if not uni.passed:
            worst = n
    print(f"quotient family r={r}: unimodal for 11 <= n <= 30: {worst is None}")
