"""Spatial grids, multi-component complex fields and spectral operators.

Everything here is 1D and pseudo-spectral: periodic grids carry the usual
Fourier wavenumbers, truncated-line grids reuse the periodic transform on
[-R, R) and therefore require fields that decay to machine zero at the
boundary.  All inner products are real (fields are treated as elements of a
real Hilbert space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "SingleNLS",
    "Coupled",
    "make_grid",
    "laplacian",
    "gradient",
    "inner",
    "h1_norm",
    "invariants_of",
    "boundary_decay_check",
    "check_positive",
]

BOUNDARY_DECAY_TOL = 1e-7


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid, either periodic of length L or a truncated line [-R, R)."""

    kind: str               # "periodic" or "line"
    extent: float           # L for periodic, R (half-width) for line
    n: int
    spacing: float
    nodes: np.ndarray
    wavenumbers: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.wavenumbers.setflags(write=False)

    @property
    def length(self) -> float:
        """Total period of the underlying transform: L or 2R."""
        return self.extent if self.kind == "periodic" else 2.0 * self.extent

    def deriv_wavenumbers(self) -> np.ndarray:
        """Wavenumbers for odd-order derivatives: Nyquist coefficient zeroed."""
        k = self.wavenumbers.copy()
        k[self.n // 2] = 0.0
        return k


def check_positive(name: str, value: float) -> None:
    """Raise a ValueError that names the input unless value is a finite
    positive number."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive (got {value:g})")


def make_grid(kind: str, extent: float, n_points: int) -> Grid:
    if kind not in ("periodic", "line"):
        raise ValueError(f"unknown grid kind {kind!r}")
    check_positive("extent", extent)
    if n_points < 8 or n_points % 2 != 0:
        raise ValueError("n_points must be even and at least 8")
    if kind == "periodic" and n_points & (n_points - 1):
        raise ValueError("periodic grids require a power-of-two n_points")

    length = extent if kind == "periodic" else 2.0 * extent
    spacing = length / n_points
    if kind == "periodic":
        nodes = spacing * np.arange(n_points)
    else:
        nodes = -extent + spacing * np.arange(n_points)
    # Integer mode numbers in FFT order; Nyquist stored positive.
    modes = np.fft.fftfreq(n_points, d=1.0 / n_points)
    modes[n_points // 2] = n_points // 2
    wavenumbers = (2.0 * np.pi / length) * modes
    return Grid(kind, float(extent), n_points, spacing, nodes, wavenumbers)


@dataclass(frozen=True)
class Field:
    """Complex field with 1 or 2 components sampled on a grid."""

    values: np.ndarray      # shape (components, n)
    grid: Grid

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=complex))
        if vals.ndim != 2 or vals.shape[0] not in (1, 2):
            raise ValueError("field must have 1 or 2 components")
        if vals.shape[1] != self.grid.n:
            raise ValueError("field length does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def __add__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.values + other.values, self.grid)

    def __sub__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.values - other.values, self.grid)

    def __mul__(self, scalar) -> "Field":
        return Field(self.values * scalar, self.grid)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SingleNLS:
    """Focusing power-nonlinearity Schrodinger model.

    The exponent must satisfy p > 1; d is the symbolic spatial dimension used
    by the closed-form slope criteria (grid numerics are d = 1 only).
    """

    p: float
    d: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 1):
            raise ValueError(f"nonlinearity exponent p must be finite and exceed 1 "
                             f"(got {self.p:g})")
        if self.d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")

    @property
    def model(self) -> str:
        return "single_nls"

    @property
    def components(self) -> int:
        return 1


@dataclass(frozen=True)
class Coupled:
    """Two-component cubic model with couplings (alpha, gamma, delta).

    beta and the wavenumber offset k only matter for the torus plane-wave
    analysis; the line-soliton sections have beta = 1 and k = 0.
    """

    alpha: float
    gamma: float
    delta: float
    beta: float = 1.0
    k: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "gamma", "delta", "k"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value:g})")
        check_positive("beta", self.beta)

    @property
    def model(self) -> str:
        return "coupled"

    @property
    def components(self) -> int:
        return 2

    def validate_torus_offset(self, grid: Grid) -> None:
        if grid.kind != "periodic":
            raise ValueError("wavenumber offset only meaningful on the torus")
        ratio = self.k * grid.extent / (2.0 * np.pi)
        if abs(ratio - round(ratio)) > 1e-12:
            raise ValueError("k must be an integer multiple of 2*pi/L")


def _check_compatible(f: Field, g: Field) -> None:
    if f.grid is not g.grid and (
        f.grid.kind != g.grid.kind
        or f.grid.n != g.grid.n
        or f.grid.extent != g.grid.extent
    ):
        raise ValueError("fields live on different grids")
    if f.components != g.components:
        raise ValueError("fields have different component counts")


def boundary_decay_check(f: Field) -> None:
    """Line-grid fields must vanish at the artificial boundary.

    The periodic transform silently wraps around; a field that has not decayed
    by x = +-R would be differentiated incorrectly.
    """
    if f.grid.kind != "line":
        return
    edge = max(np.max(np.abs(f.values[:, 0])), np.max(np.abs(f.values[:, -1])))
    scale = max(1.0, float(np.max(np.abs(f.values))))
    if edge > BOUNDARY_DECAY_TOL * scale:
        raise ValueError(
            f"field does not decay at the line boundary (edge value {edge:.3e})"
        )


def step_count(dt: float, t_end: float, sample_stride: int = 1) -> int:
    """Number of steps of size dt that reach t_end, for a time stepper
    sampling every sample_stride steps.

    t_end / dt must be a non-negative integer to 1e-9 relative to
    max(|t_end|, 1); anything else (including a zero or non-finite dt, or a
    stride below 1) is a ValueError.
    """
    if not (np.isfinite(dt) and np.isfinite(t_end)) or dt == 0.0:
        raise ValueError("dt must be nonzero and dt, t_end finite")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    n_steps = int(round(t_end / dt))
    if n_steps < 0:
        raise ValueError("t_end / dt must not be negative")
    if abs(n_steps * dt - t_end) > 1e-9 * max(abs(t_end), 1.0):
        raise ValueError("t_end must be an integer multiple of dt")
    return n_steps


def laplacian(f: Field) -> Field:
    k2 = f.grid.wavenumbers ** 2
    out = np.fft.ifft(-k2 * np.fft.fft(f.values, axis=1), axis=1)
    return Field(out, f.grid)


def gradient(f: Field) -> Field:
    ik = 1j * f.grid.deriv_wavenumbers()
    out = np.fft.ifft(ik * np.fft.fft(f.values, axis=1), axis=1)
    return Field(out, f.grid)


def inner(f: Field, g: Field) -> float:
    """Real L2 pairing Re sum_c int f_c^* g_c dx (rectangle rule)."""
    _check_compatible(f, g)
    return float(np.real(np.sum(np.conj(f.values) * g.values)) * f.grid.spacing)


def h1_norm(f: Field) -> float:
    df = gradient(f)
    return np.sqrt(max(inner(f, f) + inner(df, df), 0.0))


def invariants_of(f: Field, params) -> dict:
    """Energy H and the momentum-map components F of a field.

    Returns {"H": float, "F": ndarray}.  The layout of F matches the group:
    (mass, linear momentum) for the single model, (mass1, mass2, momentum) on
    the coupled line, (mass1, mass2) on the torus where the energy uses the
    covariant derivative with offset k.
    """
    from .model import model_for

    return model_for(params, f.grid).invariants(f)
