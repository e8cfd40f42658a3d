"""Write the Bessel reference tables that the tests read.

    python scripts/bessel_reference.py [out.json]

Uses mpmath at 40 significant digits; the default output is
tests/data/bessel_ref.json.  The tests read the file and never import
mpmath.  It holds:

* ``h``: H_nu(z) = Gamma(nu+1) (2/z)^nu J_nu(z) for nu in NUS on z in
  [0, 200] at step 1/8, plus the two neighbours of the switch at z = 20;
* ``j``: the spherical Bessel j_k(s), k = 0..11, on the s grid of
  ``test_spherical_jn_orders_match_the_reference_table``: a log grid across
  s = k, s = k itself and its two floating-point neighbours;
* ``k``: K_nu(r) at the points where the tests check the Bessel-K closed
  form of the symmetric gamma density, nu = t - dim/2.
"""

import json
import pathlib
import sys

import mpmath
import numpy as np

NUS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
J_ORDERS = 12
K_CASES = ((1, 0.75), (1, 1.45), (1, 2.0), (1, 2.5), (2, 1.45), (3, 2.0))


def h_ref(nu: float, z: float) -> float:
    if z == 0.0:
        return 1.0
    nu, z = mpmath.mpf(nu), mpmath.mpf(z)
    return float(mpmath.gamma(nu + 1) * (2 / z) ** nu * mpmath.besselj(nu, z))


def j_ref(k: int, s: float) -> float:
    if s == 0.0:
        return float(k == 0)
    s = mpmath.mpf(s)
    return float(mpmath.sqrt(mpmath.pi / (2 * s)) * mpmath.besselj(k + mpmath.mpf(0.5), s))


def s_grid() -> np.ndarray:
    k = np.arange(J_ORDERS, dtype=float)
    return np.concatenate((np.geomspace(1e-6, 1e4, 4001), k, np.nextafter(k[1:], 0.0),
                           np.nextafter(k, np.inf)))


def main() -> None:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                       pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "bessel_ref.json")
    mpmath.mp.dps = 40
    z = np.concatenate((np.linspace(0.0, 200.0, 1601), [np.nextafter(20.0, 0.0),
                                                        np.nextafter(20.0, np.inf)]))
    s = s_grid()
    r = 0.05 * np.arange(1, 241)
    table = {
        "source": f"mpmath {mpmath.__version__} at {mpmath.mp.dps} digits, "
                  "scripts/bessel_reference.py",
        "h": {"z": z.tolist(),
              "values": {repr(nu): [h_ref(nu, v) for v in z.tolist()] for nu in NUS}},
        "j": {"s": s.tolist(),
              "values": [[j_ref(k, v) for v in s.tolist()] for k in range(J_ORDERS)]},
        "k": [{"dim": dim, "t": t, "nu": t - 0.5 * dim, "r": r.tolist(),
               "values": [float(mpmath.besselk(mpmath.mpf(t) - mpmath.mpf(dim) / 2,
                                               mpmath.mpf(v))) for v in r.tolist()]}
              for dim, t in K_CASES],
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
