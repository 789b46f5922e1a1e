"""The l = infinity pair resolvent of a full or doped lower band, with no floqex import.

On the infinite square lattice the k-sum of the undoped pair resolvent is the
lattice Green's function (Morita, J. Math. Phys. 12, 1744 (1971); Economou,
Green's Functions in Quantum Physics, ch. 5):

    R(z) = (1/(2 pi)^2) int dk / (A + B (cos kx + cos ky)) = 1 / (A AGM(1, sqrt(1 - (2B/A)^2)))

with A = eps21 + shift - z and B = 2 t21, at real z below the band edge (A > 2|B|)
and at complex z off the real axis. There the AGM starts from the principal root
and takes at each step the "right choice" of root, |a - b| <= |a + b| (Cox,
Enseign. Math. 30, 275 (1984)); at real z the principal root is always that one.

A band doped by a fraction ``doping`` of holes has its highest band-1 energies
2 t1 gamma empty: gamma in [gamma_F, 2] at t1 > 0 and in [-2, -gamma_F] at
t1 < 0. Its R is the full band's minus the empty states' integral
int rho(gamma) / (A + B gamma) dgamma, with the square-lattice density of states
rho(gamma) = 1 / (2 pi AGM(1, |gamma|/2)) (Economou, ch. 5) and gamma_F found by
bisection on the hole fraction. From doping 1/2 on, gamma_F <= 0 and the holes
reach the van Hove point gamma = 0, where rho diverges logarithmically: the
integral is split there.
"""

import numpy as np

# 200-node Gauss-Legendre on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(200)


def resolvent(z, eps21, shift, t21, doping=0.0, t1=1.0):
    """R(z) at ``z`` (a scalar or an array), real below the edge eps21 + shift - 4|t21|
    or complex with Im z != 0, of a band with ``doping`` holes placed by the sign of
    ``t1`` (t1 != 0)."""
    z = np.asarray(z)
    a = eps21 + shift - (z if np.iscomplexobj(z) else z.astype(float))
    x, y = np.ones_like(a), np.sqrt(1.0 - (4.0 * t21 / a) ** 2)
    for _ in range(40):  # the arithmetic-geometric mean converges quadratically
        x, y = 0.5 * (x + y), np.sqrt(x * y)
        y = np.where(np.abs(x - y) > np.abs(x + y), -y, y)
    full = 1.0 / (a * x)
    if not doping:
        return full
    gamma, weight = states_above(fermi_level(doping))
    return full - np.sum(weight / (a[..., None] + 2.0 * t21 * np.sign(t1) * gamma), axis=-1)


def density_of_states(gamma):
    """Fraction of the square lattice's states per unit gamma = cos kx + cos ky, on
    [-2, 2]; it diverges logarithmically at the van Hove point gamma = 0."""
    x, y = np.ones_like(gamma), np.abs(gamma) / 2.0
    for _ in range(40):
        x, y = 0.5 * (x + y), np.sqrt(x * y)
    return 1.0 / (2.0 * np.pi * x)


def states_above(gamma_f):
    """Nodes gamma in [gamma_f, 2] (-2 <= gamma_f < 2) and weights that integrate the
    density of states over that interval: Gauss-Legendre in u on each side of the
    van Hove point gamma = 0 that the interval holds, with gamma = g0 + (g1 - g0) u^3
    clustered at the end g0 nearest 0, which smooths the logarithm there."""
    if gamma_f >= 0.0:
        return _cubic(gamma_f, 2.0)
    parts = _cubic(0.0, gamma_f), _cubic(0.0, 2.0)
    return tuple(np.concatenate(pair) for pair in zip(*parts))


def _cubic(g0, g1):
    """Nodes and weights of the density of states over [g0, g1] (or [g1, g0]) from
    200-node Gauss-Legendre in u, gamma = g0 + (g1 - g0) u^3."""
    u = 0.5 * (_NODES + 1.0)
    gamma = g0 + (g1 - g0) * u ** 3
    return gamma, density_of_states(gamma) * 1.5 * abs(g1 - g0) * u * u * _WEIGHTS


def fermi_level(doping):
    """gamma_F with the fraction ``doping`` of the states above it, bisected to
    adjacent floats."""
    lo, hi = -2.0, 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if states_above(mid)[1].sum() > doping else (lo, mid)
    return 0.5 * (lo + hi)


def exciton_line(eps21, shift, t21, u12, doping=0.0, t1=1.0):
    """The root of 1 = u12 R(omega) below the edge, bisected to adjacent floats."""
    hi = eps21 + shift - 4.0 * abs(t21)
    lo = hi - u12 - 1.0  # u12 R(lo) < u12 / (1 + u12) < 1
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        r = resolvent(mid, eps21, shift, t21, doping, t1)
        lo, hi = (mid, hi) if u12 * r < 1.0 else (lo, mid)
    return 0.5 * (lo + hi)
