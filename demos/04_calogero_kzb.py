"""Applications: block Lax trace powers against the scalar Lax matrix, and
the flatness identities for the connection built from the classical pair
(r, m).

Run from the repository root:  python3 demos/04_calogero_kzb.py
"""

import numpy as np

from rmx import (
    CalogeroConfig,
    LatticeParams,
    RMatrixSpec,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_trace_power_guess,
    lax_krichever,
)

EL = LatticeParams(kind="elliptic", tau=1j)
PTS = (0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j)
MOMENTA = (0.21 - 0.11j, -0.34 + 0.07j, 0.55 + 0.19j)


def main():
    spec = RMatrixSpec(kind="belavin", site_dim=2, lattice=EL,
                       hbar=0.17 + 0.09j)
    cfg = CalogeroConfig(rspec=spec, momenta=MOMENTA, positions=PTS,
                         coupling=0.8 - 0.2j)
    n = cfg.n_particles

    print("block Lax operator vs scalar Lax matrix (N = 2, n = 3)")
    print("  the checks apply L to a probe block in each slot; L is never formed")
    scal = lax_krichever(cfg)
    for k in (1, 2, 3, 4):
        rep = check_trace_power_guess(cfg, k)
        powered = np.linalg.matrix_power(scal, k)
        print(f"  k={k}  diagonal blocks scalar to "
              f"{rep.details['nonscalar_residual']:.1e}, coefficients match "
              f"scalar Lax to {rep.residual:.1e}, trace gap "
              f"{rep.details['trace_residual']:.1e}"
              + ("  (power below the particle count)"
                 if rep.details["extended_guess"] else ""))
        coeffs = rep.details["coefficients"]
        diag = [powered[a, a] for a in range(n)]
        if k == 2:
            print(f"       block coefficients  {[f'{c:.6f}' for c in coeffs]}")
            print(f"       scalar Lax diagonal {[f'{d:.6f}' for d in diag]}")
    print()

    print("more particles: N = 3, n = 5 (dimension 3**5 = 243)")
    spec3 = RMatrixSpec(kind="belavin", site_dim=3, lattice=EL,
                        hbar=0.17 + 0.09j)
    cfg5 = CalogeroConfig(rspec=spec3, momenta=MOMENTA + (-0.12 + 0.31j,
                                                        0.43 - 0.26j),
                          positions=PTS + (0.47 + 0.23j, 0.83 + 0.07j),
                          coupling=0.8 - 0.2j)
    for k in range(2, 7):
        rep = check_trace_power_guess(cfg5, k)
        print(f"  k={k}  {'pass' if rep.passed else 'FAIL'}  residual "
              f"{rep.residual:.1e}")
    print()

    print("flatness of the (r, m) connection")
    for k in (4, 8, 16, 32):
        rep = check_kzb_flatness(spec, list(PTS), quadrature_points=k)
        print(f"  quadrature with {k:>2} nodes: residual {rep.residual:.2e}")
    rep = check_kzb_flatness(spec, list(PTS), use_closed_form=True)
    print(f"  closed-form pair:        residual {rep.residual:.2e}")
    print()

    print("first-order relation tying r brackets to m sums")
    for count, pts in ((3, PTS), (4, PTS + (0.47 + 0.23j,))):
        rep = check_hbar_order_relation(spec, count, list(pts))
        print(f"  n={count}  residual {rep.residual:.2e}  "
              f"|lhs| = {rep.details['lhs_norm']:.6e}  "
              f"|rhs| = {rep.details['rhs_norm']:.6e}")
    print()

    print("the rational degeneration trivializes the relation at n = 3")
    yspec = RMatrixSpec(kind="yang", site_dim=2,
                        lattice=LatticeParams(kind="rational"), hbar=0.7 + 0.3j)
    rep = check_hbar_order_relation(yspec, 3, [0.3, 1.1 + 0.4j, 2.2 - 0.3j])
    print(f"  residual {rep.residual:.2e}  |lhs| = "
          f"{rep.details['lhs_norm']:.2e}  |rhs| = "
          f"{rep.details['rhs_norm']:.2e} (both sides cancel)")


if __name__ == "__main__":
    main()
