"""Refit the Chebyshev tables of stasep.specfun.airy_ai from mpmath.

Each table is a Chebyshev series in w = 1/zeta, zeta = (2/3)|x|^(3/2), on
[0, hi]: the coefficients interpolate a 40-digit mpmath reference at the
NODES first-kind Chebyshev points, cut at the first one below CUTOFF, and
are rounded to float64 once.

    _CHEB_POS    Ai(x) 2 sqrt(pi) x^(1/4) e^zeta      x in [3.95, 107.47)
    _CHEB_NEG_M  sqrt(pi) z^(1/4) M(z)                  x = -z in [-40, -4.3]
    _CHEB_NEG_P  zeta (theta(z) - pi/4 + zeta)

where Ai(-z) = M(z) cos theta(z), Bi(-z) = M(z) sin theta(z) (DLMF 9.8.3)
and theta is the branch near pi/4 - zeta.  All three tend to constants as
w -> 0 (1, 1 and 5/72), and the first-kind points leave out w = 0, so no
node asks for x = +-inf.  test_specfun checks that fit_tables() equals the
committed floats bit for bit; `python tests/airy_fit.py` prints them.
"""

import mpmath as mp

from stasep import specfun

DPS = 40
NODES = 48
CUTOFF = 1e-17


def _nodes(hi: float):
    """Angles t_j and points w_j = hi (1 + cos t_j) / 2 of the first-kind
    Chebyshev points of [0, hi]."""
    t = [mp.pi * (j + mp.mpf(0.5)) / NODES for j in range(NODES)]
    return t, [mp.mpf(hi) * (1 + mp.cos(tj)) / 2 for tj in t]


def _coeffs(t, vals):
    """Coefficients of the interpolant through vals at angles t, cut at the
    first |c_k| < CUTOFF and rounded to float64."""
    c = [2 * mp.fsum(v * mp.cos(k * tj) for v, tj in zip(vals, t)) / NODES
         for k in range(NODES)]
    c[0] /= 2
    keep = next(k for k, ck in enumerate(c) if abs(ck) < CUTOFF)
    return [float(ck) for ck in c[:keep]]


def _abs_x(w):
    """|x| with (2/3)|x|^(3/2) = 1/w."""
    return (1.5 / w) ** (mp.mpf(2) / 3)


def fit_pos():
    """_CHEB_POS: the exponentially scaled Ai on the positive side."""
    with mp.workdps(DPS):
        t, ws = _nodes(specfun._POS_W_HI)
        vals = []
        for w in ws:
            x = _abs_x(w)
            vals.append(mp.airyai(x) * 2 * mp.sqrt(mp.pi) * mp.root(x, 4) * mp.exp(1 / w))
        return _coeffs(t, vals)


def fit_neg():
    """(_CHEB_NEG_M, _CHEB_NEG_P): scaled modulus and phase correction of Ai
    on the negative side."""
    with mp.workdps(DPS):
        t, ws = _nodes(specfun._NEG_W_HI)
        m, p = [], []
        for w in ws:
            z, zeta = _abs_x(w), 1 / w
            a, b = mp.airyai(-z), mp.airybi(-z)
            theta0 = mp.pi / 4 - zeta
            theta = mp.atan2(b, a)
            theta += 2 * mp.pi * mp.nint((theta0 - theta) / (2 * mp.pi))
            m.append(mp.sqrt(mp.pi) * mp.root(z, 4) * mp.hypot(a, b))
            p.append(zeta * (theta - theta0))
        return _coeffs(t, m), _coeffs(t, p)


def fit_tables():
    """The three tables as lists of floats, keyed by their specfun names."""
    neg_m, neg_p = fit_neg()
    return {"_CHEB_POS": fit_pos(), "_CHEB_NEG_M": neg_m, "_CHEB_NEG_P": neg_p}


def _format(name, c):
    rows = [", ".join(repr(v) for v in c[k:k + 3]) + "," for k in range(0, len(c), 3)]
    return "\n".join([f"{name} = np.array(["] + ["    " + r for r in rows] + ["])"])


if __name__ == "__main__":
    for name, c in fit_tables().items():
        print(_format(name, c))
        print()
