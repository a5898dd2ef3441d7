"""Shared mpmath references for the infinite-lattice quantities.

Each is an mpmath quadrature of a 1-D reduction of the defining double
integral (cos t1 cos t2 = [cos(t1 + t2) + cos(t1 - t2)]/2 and
<ln(x + cos b)>_b = arccosh x - ln 2), at 30 digits, with breakpoints where
the integrand peaks for small beta_s; none uses the elliptic-integral forms
of the package.
"""

import mpmath

DPS = 30


def _mean_near_pi(f, width):
    """(1/pi) int_0^pi f(u) du, split at pi - k * width."""
    pts = [mpmath.mpf(0)]
    pts += [mpmath.pi - k * width for k in (64, 8, 1) if k * width < mpmath.pi / 2]
    return mpmath.quad(f, pts + [mpmath.pi]) / mpmath.pi


def mp_free_energy(beta_s):
    """F0 = (1/2)<arccosh(2 cosh 2 beta_s + cos u)> - (1/2) ln 2; at
    beta_s = 0 the closed form 2G/pi - (1/2) ln 2."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return 2 * mpmath.catalan / mpmath.pi - mpmath.log(2) / 2
        x = 2 * mpmath.cosh(2 * bs)
        mean = _mean_near_pi(lambda u: mpmath.acosh(x + mpmath.cos(u)),
                             mpmath.sqrt(x - 1))
        return mean / 2 - mpmath.log(2) / 2


def mp_derivative(beta_s):
    """dF0/d beta_s = <2 sinh 2 beta_s / sqrt((2 cosh 2 beta_s + cos u)^2 - 1)>."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return mpmath.mpf(0)
        x = 2 * mpmath.cosh(2 * bs)
        s = 2 * mpmath.sinh(2 * bs)
        return _mean_near_pi(
            lambda u: s / mpmath.sqrt((x + mpmath.cos(u)) ** 2 - 1),
            mpmath.sqrt(x - 1))


def mp_zb_ratio(beta_s):
    """Z_b/Z_0 = (1/4)[1 - (a - e^{-2 beta_s}) <(a^2 - cos^2 u)^{-1/2}>]^2,
    a = cosh 2 beta_s (the mean of 1/(a + cos t1 cos t2) over one angle)."""
    with mpmath.workdps(DPS):
        bs = mpmath.mpf(beta_s)
        if bs == 0:
            return mpmath.mpf(1) / 4
        a = mpmath.cosh(2 * bs)
        w = mpmath.sqrt(a * a - 1)
        # the integrand is symmetric about pi/2; its peak is at u = 0
        pts = [mpmath.mpf(0)] + [k * w for k in (1, 8, 64)
                                 if k * w < mpmath.pi / 4] + [mpmath.pi / 2]
        mean = mpmath.quad(lambda u: 1 / mpmath.sqrt(a * a - mpmath.cos(u) ** 2),
                           pts) * 2 / mpmath.pi
        return (1 - (a - mpmath.exp(-2 * bs)) * mean) ** 2 / 4
