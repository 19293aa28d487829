"""Spectral calculus on uniform periodic grids over [0, 2*pi).

All sampled coefficient functions in this package live on the grid
s_j = 2*pi*j/N with N a power of two.  Derivatives, antiderivatives and
means are computed through the FFT, so they are exact for trigonometric
polynomials and spectrally accurate for smooth periodic data.  Nothing
here evaluates between grid points: ODE solves take their coefficients
in closed form (`surface.flow`), and forced linear equations along a
geodesic are solved by quadrature (`jacobi.variation_field`).
"""

import numpy as np

__all__ = [
    "grid",
    "spectral_derivative",
    "spectral_antiderivative",
    "periodic_mean",
]

MEAN_ZERO_TOL = 1e-10  # residual means below this are zeroed in antiderivatives


def _check_grid(n):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 2, got {n}")


def grid(n):
    """Sample points s_j = 2*pi*j/n."""
    _check_grid(n)
    return 2.0 * np.pi * np.arange(n) / n


def _wavenumbers(n):
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k


def spectral_derivative(values):
    """d/ds of a periodic sampled function."""
    values = np.asarray(values)
    n = values.shape[-1]
    _check_grid(n)
    k = _wavenumbers(n)
    # the unpaired Nyquist mode differentiates to an odd, aliased term
    k[n // 2] = 0.0
    coeffs = np.fft.fft(values) * (1j * k)
    out = np.fft.ifft(coeffs)
    if np.isrealobj(values):
        return out.real
    return out


def periodic_mean(values):
    """Trapezoidal mean over one period (exact = sample mean on this grid)."""
    return np.mean(np.asarray(values), axis=-1)


def spectral_antiderivative(values):
    """Cumulative integral F(s) = int_0^s f, F(0) = 0.

    The mean-zero part is integrated exactly in Fourier space; a residual
    mean m contributes the explicit linear ramp m*s.  Means with |m| below
    MEAN_ZERO_TOL are zeroed, keeping F periodic for numerically
    mean-free input.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    _check_grid(n)
    coeffs = np.fft.fft(values)
    mean = coeffs[..., 0] / n
    mean = np.where(np.abs(mean) < MEAN_ZERO_TOL, 0.0, mean)
    k = _wavenumbers(n)
    ik = 1j * k
    ik[0] = 1.0  # dummy, zero mode handled by the ramp
    prim = coeffs / ik
    prim[..., 0] = 0.0
    # the Nyquist mode has no well-defined primitive on the grid; for smooth
    # data its coefficient is at roundoff level, drop it
    prim[..., n // 2] = 0.0
    osc = np.fft.ifft(prim)
    osc = osc - osc[..., :1]
    s = grid(n)
    out = osc + np.multiply.outer(mean, s) if values.ndim > 1 else osc + mean * s
    if np.isrealobj(values):
        return out.real
    return out
