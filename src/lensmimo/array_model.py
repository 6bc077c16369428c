"""Lens array configuration and per-terminal array responses.

The array places M elements on the focal arc of an electromagnetic lens.
Element m sits at normalized spatial frequency theta_tilde = m / d_tilde,
and the response of element m to a plane wave arriving with spatial
frequency phi_tilde (the sine of the azimuth DOA) is

    a_m(phi_tilde) = exp(-j * phi0) * sqrt(A) * sinc(m - d_tilde * phi_tilde)

where A = d_tilde * a_z is the normalized aperture and sinc is normalized,
sin(pi x)/(pi x). Its zeros sit at the nonzero integers, so the response is
one-hot whenever d_tilde * phi_tilde hits an integer, which is what makes
the beamspace picture exact on the grid.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Inputs within this distance of an integer beam coordinate are treated as
# exactly on the grid, so grid orthogonality holds exactly in floating point.
GRID_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class LensArrayConfig:
    """Normalized lens dimensions and common phase.

    d_tilde is the azimuth lens dimension over the carrier wavelength and
    a_z the vertical one, so the aperture gain is A = d_tilde * a_z. The
    element count is always derived from d_tilde; see element_count.
    """

    d_tilde: float
    a_z: float = 1.0
    phi0: float = 0.0

    def __post_init__(self):
        for name in ("d_tilde", "a_z"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.phi0):
            raise ValueError(f"phi0 must be finite, got {self.phi0}")

    @functools.cached_property
    def element_count(self) -> int:
        """Largest odd element count M with every theta_tilde = m/d_tilde in [-1, 1].

        M = 1 + 2*floor(d_tilde), which is odd by construction and never
        places an element beyond the end-fire directions.
        """
        return 1 + 2 * math.floor(self.d_tilde)

    @property
    def aperture(self) -> float:
        """Normalized aperture A = d_tilde * a_z."""
        return self.d_tilde * self.a_z

    @property
    def max_index(self) -> int:
        return (self.element_count - 1) // 2


@functools.lru_cache(maxsize=64)
def _element_grid(max_index: int) -> np.ndarray:
    # Float element indices, built once per array size and shared read-only.
    m = np.arange(-max_index, max_index + 1, dtype=float)
    m.setflags(write=False)
    return m


def sinc(x: float) -> float:
    """Normalized cardinal sine sin(pi x)/(pi x).

    Unit at 0 and exactly zero at the nonzero integers. Any other argument
    has pi x != 0, and for tiny x sin(pi x) rounds to pi x, so the quotient
    needs no series near 0.
    """
    n = round(x)
    if x == n:
        return 1.0 if n == 0 else 0.0
    u = math.pi * x
    return math.sin(u) / u


def snap_to_grid(t):
    """Snap beam coordinates t = d_tilde * phi_tilde within GRID_SNAP_TOL of
    an integer to that integer.

    Keeps responses exactly one-hot for inputs that are grid points up to
    floating-point representation of the intended value. Python and NumPy
    float scalars take a scalar path with the same rounding (half to even)
    and the same signed zero as the array path. Non-finite values pass
    through unchanged on both paths.
    """
    if isinstance(t, float):
        t = float(t)
        if math.isfinite(t):
            n = float(round(t))
            if abs(t - n) < GRID_SNAP_TOL:
                return math.copysign(n, t)
        return t
    t = np.asarray(t, dtype=float)
    n = np.round(t)
    with np.errstate(invalid="ignore"):
        # inf - inf is NaN, which fails the test and passes t through
        snapped = np.where(np.abs(t - n) < GRID_SNAP_TOL, n, t)
    if snapped.ndim == 0:
        return float(snapped)
    return snapped


def _sinc_array(x: np.ndarray) -> np.ndarray:
    exact = x == np.rint(x)
    if exact.any():
        return np.where(exact, np.where(x == 0.0, 1.0, 0.0), np.sinc(x))
    # np.sinc without its guard for x == 0, which cannot occur here
    y = np.pi * x
    return np.sin(y) / y


def _validate_spatial_freq(phi_tilde) -> None:
    # Written so that NaN fails the test too
    if isinstance(phi_tilde, float):
        ok = abs(phi_tilde) <= 1.0
    else:
        ok = (np.abs(np.asarray(phi_tilde)) <= 1.0).all()
    if not ok:
        raise ValueError("spatial frequency must be a number of magnitude at most 1")


def _beam_coords(config: LensArrayConfig, spatial_freqs):
    """Validated beam coordinates t = d_tilde * phi_tilde snapped to the
    grid, shape preserved. A float input gives a float; anything else gives
    an array.
    """
    if not isinstance(spatial_freqs, float):
        spatial_freqs = np.asarray(spatial_freqs, dtype=float)
    _validate_spatial_freq(spatial_freqs)
    return snap_to_grid(config.d_tilde * spatial_freqs)


def _profile_matrix(config: LensArrayConfig, spatial_freqs) -> np.ndarray:
    """Real sinc profiles sinc(m - d_tilde * phi_tilde) for a batch of terminals.

    Output shape is spatial_freqs.shape + (M,). Beam coordinates are snapped
    to the grid before evaluation.
    """
    t = np.asarray(_beam_coords(config, spatial_freqs))
    m = _element_grid(config.max_index)
    return _sinc_array(m - t[..., None])


def channel_vectors(config: LensArrayConfig, spatial_freqs) -> np.ndarray:
    """Channel vectors exp(-j phi0) sqrt(A) sinc(m - d_tilde * phi_tilde) of
    a batch of terminals, shape spatial_freqs.shape + (M,) in ascending
    element index; a single spatial frequency gives shape (M,).

    Under maximum-ratio combining a terminal's channel vector also serves
    as its combiner.
    """
    scale = math.sqrt(config.aperture)
    phase = complex(math.cos(config.phi0), -math.sin(config.phi0))
    return (scale * phase) * _profile_matrix(config, spatial_freqs)
