"""Two-sided two-sample Kolmogorov-Smirnov p-value without scipy.stats.

ks_2samp_pvalue(a, b) equals scipy.stats.ks_2samp(a, b, method="asymp")
.pvalue bit for bit: the statistic is taken as in ks_2samp, and the p-value
is the survival function kstwo.sf(d, n) of the one-sample statistic for
n = round(m n / (m + n)) samples.  That survival function is a port of
scipy.stats._ksstats._kolmogn(cdf=False): the Simard-L'Ecuyer branch
selection over Ruben-Gambino, the Durbin matrix (Marsaglia-Tsang-Wang),
Pomeranz and Pelz-Good, with the same floating-point operations in the same
order and the same numpy types (some rescaled intermediates are long
doubles).  Only the tail branches, where p is below 0.025 unless d >=
0.5, evaluate 2 * scipy.special.smirnov(n, d); they import it on first use.
Importing scipy.stats costs a CLI call about a second, and nothing here does.

The ported code is from SciPy (scipy/stats/_ksstats.py and _stats_py.py),
Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy Developers, under
the BSD 3-Clause License.

References: Durbin, Ann. Math. Statist. 39 (1968) 398-411; Pomeranz,
CACM 17 (1974) 703-704; Marsaglia, Tsang, Wang, J. Stat. Softw. 8(18)
(2003); Pelz, Good, JRSS B 38 (1976) 152-156; Simard, L'Ecuyer, J. Stat.
Softw. 39(11) (2011).
"""

from __future__ import annotations

import math

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8..1 (B_m: Bernoulli numbers).
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_2samp_pvalue(a, b) -> float:
    """Two-sided KS p-value of two finite samples, as ks_2samp(method="asymp")."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.shape[0], b.shape[0]
    if min(n1, n2) == 0:
        raise ValueError("KS samples must not be empty")
    both = np.concatenate([a, b])
    cddiffs = (np.searchsorted(a, both, side="right") / n1
               - np.searchsorted(b, both, side="right") / n2)
    min_s = np.clip(-cddiffs.min(), 0, 1)
    max_s = cddiffs.max()
    d = min_s if min_s > max_s else max_s
    m, n = sorted([float(n1), float(n2)], reverse=True)
    return kolmogorov_sf(d, np.round(m * n / (m + n)))


def kolmogorov_sf(x, n) -> float:
    """P(D_n >= x) for the two-sided one-sample statistic, as kstwo.sf(x, n).

    NaN unless n is a positive integer; 1 on the support's lower end x <= 0.5/n.
    """
    if not (n >= 1 and n == np.round(n)) or np.isnan(x):
        return math.nan
    if x <= 0.5 / n:
        return 1.0
    if not x < 1.0:
        return 0.0
    # a 0-d array as in scipy: its x ** 1.5 is the ufunc power, which differs
    # from the scalar one in the last bit for about 5% of x
    return float(np.float64(_kolmogn_sf(int(n), np.asarray(x, dtype=np.float64))))


def _clip(p):
    return np.clip(p, 0.0, 1.0)


def _smirnov_tail(n, x):
    from scipy.special import smirnov  # p < 0.025 here unless x >= 0.5
    return _clip(2 * smirnov(n, x))


def _kolmogn_sf(n, x):
    """_kolmogn(n, x, cdf=False) for 0 < x < 1, x a 0-d float64 array."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _smirnov_tail(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _kolmogn_dmtw(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _kolmogn_pomeranz(n, x))
        return _smirnov_tail(n, x)  # Miller approximation

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _smirnov_tail(n, x)
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw(n, x)
    else:
        cdfprob = _kolmogn_pelz_good(n, x)
    return _clip(1.0 - cdfprob)


def _log_nfactorial_div_n_pow_n(n):
    # log(n!/n**n) by Stirling's series, with n log n removed up front to
    # avoid subtractive cancellation.
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_dmtw(n, d):
    """P(D_n <= d) by the Marsaglia-Tsang-Wang form of Durbin's matrix.

    With d = (k - h)/n, the k-th diagonal entry of (n!/n**n) H**n for an
    m x m matrix H, m = 2k - 1, with intermediate powers rescaled.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v: first column (and reversed last row) of H; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n**n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the nonzero interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n, x):
    """P(D_n <= x) by the Pomeranz recursion: n! V[n-1, 2n+1].

    Each row is the previous one convolved with near-Poisson weights; only
    two rows and their nonzero windows are kept, rescaled against underflow.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!
    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _kolmogn_pelz_good(n, x):
    """Pelz-Good approximation to P(D_n <= x), 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 at z = x sqrt(n), each term rewritten through Jacobi theta
    functions into a series that converges fast for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    # Horner scheme for sum c_i q^(i^2) over odd i
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the remaining sums over all k, for K2 and K3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
