"""Spectral calculus on uniform periodic grids over [0, 2*pi).

All sampled coefficient functions in this package live on the grid
theta_j = theta0 + 2*pi*j/N of a geodesic's Clairaut angle, with N a
power of two.  Antiderivatives are computed through the FFT, so they are
exact for trigonometric polynomials and spectrally accurate for smooth
periodic data; real data take the real transform and stay real.  The
path turns them into arclength integrals by its weight ds/d(theta)
(`surface.GeodesicPath`); `normalform.compute_H` takes two, and the
identity checks take none.

The normal form engine reads the solution Q of its homological equation
only through means of products, so it never samples Q: by Parseval,
mean(x y) = sum_k xhat_k yhat_{-k} / N^2 for the DFTs xhat, yhat, and
`antiderivative_spectrum` gives the DFT of `spectral_antiderivative`'s
output from the DFT of its input, which must be mean-free: the engine
subtracts the means of its densities first, so Q is periodic, and the
spectrum takes no ramp.  `spectral_pairing` takes that sum,
and `full_spectrum` unfolds the real transform of real samples.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "antiderivative_spectrum",
    "full_spectrum",
    "grid",
    "spectral_antiderivative",
    "spectral_pairing",
]

MEAN_ZERO_TOL = 1e-10  # antiderivatives zero residual means below this times max |f|


def _check_grid(n):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")


def grid(n):
    """Sample points 2*pi*j/n."""
    _check_grid(n)
    return 2.0 * np.pi * np.arange(n) / n


@lru_cache(maxsize=16)
def _mode_factors(n):
    """Read-only (1 / (i k), grid) for an n-point grid, made once per n.

    1 / (i k) drops the zero mode, which `spectral_antiderivative` adds
    as a ramp, and the unpaired Nyquist mode, which has no primitive.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    inv_ik = np.zeros(n, dtype=complex)
    inv_ik[k != 0] = 1.0 / (1j * k[k != 0])
    s = grid(n)
    for arr in (inv_ik, s):
        arr.flags.writeable = False
    return inv_ik, s


def spectral_antiderivative(values):
    """Cumulative integral F(t) = int_0^t f, F(0) = 0.

    The mean-zero part is integrated exactly in Fourier space; a residual
    mean m contributes the explicit linear ramp m*t.  Means with |m| below
    MEAN_ZERO_TOL * max |f| are zeroed, keeping F periodic for numerically
    mean-free input at any scale of the data.  Real input takes the real
    transform, which does half the work, and returns a real array.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    _check_grid(n)
    inv_ik, s = _mode_factors(n)
    real = not np.iscomplexobj(values)
    coeffs = np.fft.rfft(values) if real else np.fft.fft(values)
    mean = coeffs[0] / n
    # the Nyquist mode is at roundoff level for smooth data; inv_ik drops it
    coeffs *= inv_ik[:coeffs.shape[-1]]
    out = np.fft.irfft(coeffs, n) if real else np.fft.ifft(coeffs)
    out -= out[0]
    if not abs(mean) < MEAN_ZERO_TOL * np.max(np.abs(values)):   # a NaN mean stays
        out += (mean.real if real else mean) * s
    return out


def antiderivative_spectrum(coeffs):
    """The DFT of the antiderivative of x - mean(x), 0 at t = 0, from
    coeffs, the DFT of x (complex, all n modes), with no inverse
    transform, written over coeffs, which is returned.

    That is coeffs / (i k), the zero and Nyquist modes dropped as
    `spectral_antiderivative` drops them, and the zero mode set to the
    offset that makes the antiderivative 0 at t = 0.  It equals the DFT
    of spectral_antiderivative(x) for mean-free x, the one input it
    takes: it adds no ramp for a mean.  The engine subtracts the mean of
    its densities before it integrates, and the first obstruction gate
    has bounded that mean (a NaN raises there).
    """
    n = coeffs.shape[-1]
    _check_grid(n)
    coeffs *= _mode_factors(n)[0]
    coeffs[0] -= np.sum(coeffs)
    return coeffs


def spectral_pairing(coeffs, other, conjugate=False):
    """mean(x y) over the grid from coeffs, the DFT of x, and other, the
    DFT of y, or with `conjugate` the DFT of conj(y): sum_k xhat_k
    yhat_{-k} / n^2, where the conjugate spectrum pairs mode by mode and
    needs no reversed copy."""
    n = coeffs.shape[-1]
    if conjugate:
        total = np.vdot(other, coeffs)
    else:
        total = coeffs[0] * other[0] + np.dot(coeffs[1:], other[:0:-1])
    return total / (n * n)


def full_spectrum(half, n):
    """The DFT of n real samples from their real transform `half`: the
    modes above n/2 are the conjugates of those below."""
    out = np.empty(n, dtype=complex)
    out[:len(half)] = half
    np.conjugate(half[n - len(half):0:-1], out=out[len(half):])
    return out
