"""Spectral calculus on uniform periodic grids over [0, 2*pi).

All sampled coefficient functions in this package live on the grid
s_j = 2*pi*j/N with N a power of two.  Derivatives, antiderivatives and
means are computed through the FFT, so they are exact for trigonometric
polynomials and spectrally accurate for smooth periodic data.  `resample`
carries periodic samples to a finer grid by their trigonometric
interpolant: the geodesic flow solves for its arclength angle on a
coarse grid and starts the full-grid solve from there (`surface.flow`).
Forced linear equations along a geodesic are solved by quadrature
(`jacobi.variation_field`).
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "grid",
    "spectral_derivative",
    "spectral_antiderivative",
    "periodic_mean",
    "resample",
]

MEAN_ZERO_TOL = 1e-10  # antiderivatives zero residual means below this times max |f|


def _check_grid(n):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")


def grid(n):
    """Sample points s_j = 2*pi*j/n."""
    _check_grid(n)
    return 2.0 * np.pi * np.arange(n) / n


@lru_cache(maxsize=16)
def _mode_factors(n):
    """Read-only (i k, 1 / (i k), grid) for an n-point grid, made once per n.

    Both drop the unpaired Nyquist mode (aliased derivative, no primitive);
    1 / (i k) drops the zero mode, which the antiderivative adds as a ramp.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    ik = 1j * k
    inv_ik = np.zeros(n, dtype=complex)
    inv_ik[k != 0] = 1.0 / ik[k != 0]
    s = grid(n)
    for arr in (ik, inv_ik, s):
        arr.flags.writeable = False
    return ik, inv_ik, s


def spectral_derivative(values):
    """d/ds of a periodic sampled function."""
    values = np.asarray(values)
    n = values.shape[-1]
    _check_grid(n)
    ik, _, _ = _mode_factors(n)
    out = np.fft.ifft(np.fft.fft(values) * ik)
    if np.isrealobj(values):
        return out.real
    return out


def resample(values, n):
    """Trigonometric interpolant of periodic samples on the n-point grid, n >= len.

    The unpaired Nyquist mode of the samples is dropped, as in the
    spectral derivative; for resolved data it is at roundoff level.
    """
    values = np.asarray(values)
    m = values.shape[-1]
    coeffs = np.fft.rfft(values)
    coeffs[..., -1] = 0.0
    return np.fft.irfft(coeffs, n) * (n / m)


def periodic_mean(values):
    """Trapezoidal mean over one period (exact = sample mean on this grid)."""
    return np.mean(np.asarray(values), axis=-1)


def spectral_antiderivative(values):
    """Cumulative integral F(s) = int_0^s f, F(0) = 0.

    The mean-zero part is integrated exactly in Fourier space; a residual
    mean m contributes the explicit linear ramp m*s.  Means with |m| below
    MEAN_ZERO_TOL * max |f| are zeroed, keeping F periodic for numerically
    mean-free input at any scale of the data.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    _check_grid(n)
    _, inv_ik, s = _mode_factors(n)
    coeffs = np.fft.fft(values)
    mean = coeffs[0] / n
    if abs(mean) < MEAN_ZERO_TOL * np.max(np.abs(values)):
        mean = 0.0
    # the Nyquist mode is at roundoff level for smooth data; inv_ik drops it
    osc = np.fft.ifft(coeffs * inv_ik)
    out = osc - osc[0] + mean * s
    if np.isrealobj(values):
        return out.real
    return out
