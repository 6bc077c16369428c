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


def derive_element_count(d_tilde: float) -> int:
    """Largest odd element count M with every theta_tilde = m/d_tilde in [-1, 1].

    Returns 1 + 2*floor(d_tilde), which is odd by construction and never
    places an element beyond the end-fire directions.
    """
    if d_tilde <= 0:
        raise ValueError(f"d_tilde must be positive, got {d_tilde}")
    return 1 + 2 * math.floor(d_tilde)


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
        """M = derive_element_count(d_tilde), the largest valid odd count."""
        return derive_element_count(self.d_tilde)

    @property
    def aperture(self) -> float:
        """Normalized aperture A = d_tilde * a_z."""
        return self.d_tilde * self.a_z

    @property
    def max_index(self) -> int:
        return (self.element_count - 1) // 2


@dataclass(frozen=True)
class ChannelVector:
    """M complex element responses for one terminal, ascending element index."""

    entries: np.ndarray
    source_spatial_freq: float

    def __len__(self):
        return len(self.entries)


def element_indices(config: LensArrayConfig) -> np.ndarray:
    """Signed element indices {0, +-1, ..., +-(M-1)/2} in ascending order."""
    k = config.max_index
    return np.arange(-k, k + 1)


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


def snap_to_grid(t, tol: float = GRID_SNAP_TOL):
    """Snap beam coordinates t = d_tilde * phi_tilde to nearby integers.

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
            if abs(t - n) < tol:
                return math.copysign(n, t)
        return t
    t = np.asarray(t, dtype=float)
    n = np.round(t)
    with np.errstate(invalid="ignore"):
        # inf - inf is NaN, which fails the test and passes t through
        snapped = np.where(np.abs(t - n) < tol, n, t)
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


def array_response(config: LensArrayConfig, spatial_freq: float) -> ChannelVector:
    """Array response vector of one terminal at the given spatial frequency.

    Entry m equals exp(-j phi0) * sqrt(A) * sinc(m - d_tilde * spatial_freq).
    Under maximum-ratio combining this same vector serves as the combiner
    for the terminal it belongs to.
    """
    spatial_freq = float(spatial_freq)
    prof = _profile_matrix(config, spatial_freq)
    scale = math.sqrt(config.aperture)
    phase = complex(math.cos(config.phi0), -math.sin(config.phi0))
    entries = (scale * phase) * prof
    entries.setflags(write=False)
    return ChannelVector(entries=entries, source_spatial_freq=spatial_freq)
