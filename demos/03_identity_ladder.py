"""The identity ladder: from unitarity (n = 2) up through the n-th order
cyclic product sums, matched against wp derivatives and against the scalar
shadow of the same sum.

Run from the repository root:  python3 demos/03_identity_ladder.py
"""

import math

import numpy as np

from rmx import (
    LatticeParams,
    RMatrixSpec,
    check_nth_order,
    check_outer_index_independence,
    check_unitarity,
)

EL = LatticeParams(kind="elliptic", tau=1j)
RA = LatticeParams(kind="rational")

EL_PTS = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j, 0.47 + 0.23j,
          0.74 + 0.37j]
RA_PTS = [0.3, 1.1 + 0.4j, 2.2 - 0.3j, 0.7 + 1.1j, 1.7 + 0.8j]


def main():
    spec = RMatrixSpec(kind="belavin", site_dim=2, lattice=EL,
                       hbar=0.17 + 0.09j)
    print("elliptic family, N = 2, tau = i")
    rep = check_unitarity(spec, EL_PTS[0] - EL_PTS[1])
    print(f"  n=2  residual {rep.residual:.2e}  "
          f"coefficient {rep.details['coefficient']:.8f}")
    for n in (3, 4, 5):
        rep = check_nth_order(spec, n, EL_PTS[:n])
        orderings = math.factorial(n - 1)
        print(f"  n={n}  residual {rep.residual:.2e}  coefficient "
              f"{rep.details['coefficient']: .8f}  expected "
              f"{rep.details['expected']: .8f}  ({orderings} orderings, "
              f"scalar shadow gap {rep.details['scalar_cross_residual']:.1e})")
    print()

    print("the sum does not depend on which site is distinguished")
    rep = check_outer_index_independence(spec, 4, EL_PTS[:4])
    coeffs = rep.details["coefficients"]
    print(f"  n=4  spread over outer sites {rep.residual:.2e}")
    print(f"       coefficients {[f'{c:.6f}' for c in coeffs]}")
    print()

    print("rational family: the ladder collapses to factorials")
    h = 0.7 + 0.3j
    yspec = RMatrixSpec(kind="yang", site_dim=2, lattice=RA, hbar=h)
    print(f"  hbar = {h}")
    for n in (3, 4, 5):
        rep = check_nth_order(yspec, n, RA_PTS[:n])
        want = math.factorial(n - 1) / h ** n
        got = rep.details["coefficient"]
        print(f"  n={n}  coefficient {got: .10f}  (n-1)!/hbar^n "
              f"{want: .10f}  gap {abs(got - want):.1e}")
    print()

    print("the same ladder at hbar = 2 gives exact dyadic values")
    yspec2 = RMatrixSpec(kind="yang", site_dim=2, lattice=RA, hbar=2.0)
    rep = check_nth_order(yspec2, 4, RA_PTS[:4])
    print(f"  n=4  coefficient {rep.details['coefficient'].real:.10f} "
          "(6/16 exactly)")


if __name__ == "__main__":
    main()
