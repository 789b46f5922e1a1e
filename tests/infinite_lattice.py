"""The l = infinity pair resolvent of a full lower band, in closed form, with no floqex import.

On the infinite square lattice the k-sum of the undoped pair resolvent is the
lattice Green's function (Morita, J. Math. Phys. 12, 1744 (1971); Economou,
Green's Functions in Quantum Physics, ch. 5):

    R(z) = (1/(2 pi)^2) int dk / (A + B (cos kx + cos ky)) = 1 / (A AGM(1, sqrt(1 - (2B/A)^2)))

with A = eps21 + shift - z and B = 2 t21, at real z below the band edge (A > 2|B|)
and at complex z off the real axis. There the AGM starts from the principal root
and takes at each step the "right choice" of root, |a - b| <= |a + b| (Cox,
Enseign. Math. 30, 275 (1984)); at real z the principal root is always that one.
"""

import numpy as np


def resolvent(z, eps21, shift, t21):
    """R(z) at ``z`` (a scalar or an array), real below the edge eps21 + shift - 4|t21|
    or complex with Im z != 0."""
    z = np.asarray(z)
    a = eps21 + shift - (z if np.iscomplexobj(z) else z.astype(float))
    x, y = np.ones_like(a), np.sqrt(1.0 - (4.0 * t21 / a) ** 2)
    for _ in range(40):  # the arithmetic-geometric mean converges quadratically
        x, y = 0.5 * (x + y), np.sqrt(x * y)
        y = np.where(np.abs(x - y) > np.abs(x + y), -y, y)
    return 1.0 / (a * x)


def exciton_line(eps21, shift, t21, u12):
    """The root of 1 = u12 R(omega) below the edge, bisected to adjacent floats."""
    hi = eps21 + shift - 4.0 * abs(t21)
    lo = hi - u12 - 1.0  # u12 R(lo) < u12 / (1 + u12) < 1
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if u12 * resolvent(mid, eps21, shift, t21) < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)
