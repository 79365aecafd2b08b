"""Magnetostatic field maps of the cavity mode.

The mode field between the two bow-tie elements is modeled by a pair of
flat rectangular sheets carrying uniform, counter-propagating surface
current; the map is evaluated from the closed form of the Biot-Savart
surface integral over a rectangle.  Maps can also be ingested from CSV
exports of an external field solver.  Every map carries the total
electromagnetic energy of the mode at the stored amplitude, so it can
be rescaled to the single-photon (vacuum) level.

Units are SI throughout: meters, tesla, joules, hertz, A/m.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text, format_float, read_table, write_table
from .constants import MU_0, PLANCK_H
from .errors import DomainError, SingularityError, ValidationError

_MODULE = "fieldmap"

_CSV_HEADER = "x_m,y_m,z_m,Bx_T,By_T,Bz_T"
_META_SUFFIX = ".meta"
# The sidecar's keys in file order, each with its value type; only a
# normalized map has the last one.
_SIDECAR_KEYS = {"nx": int, "ny": int, "nz": int,
                 "origin_x_m": float, "origin_y_m": float, "origin_z_m": float,
                 "spacing_x_m": float, "spacing_y_m": float, "spacing_z_m": float,
                 "energy_J": float, "photon_frequency_Hz": float}

# Closest allowed approach of a grid node to a sheet surface [m].
_SINGULARITY_STANDOFF = 1e-9


def _vector3(value, name: str) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be a finite 3-vector", module=_MODULE)
    return v


def _axis_nodes(origin: float, spacing: float, n: int) -> np.ndarray:
    return origin + spacing * np.arange(n)


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid: node (i,j,k) sits at origin + spacing*(i,j,k)."""

    origin: np.ndarray  # m, position of node (0, 0, 0)
    spacing: np.ndarray  # m, > 0 per axis
    dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "origin", _vector3(self.origin, "origin"))
        object.__setattr__(self, "spacing", _vector3(self.spacing, "spacing"))
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 3 or any(n < 1 for n in dims):
            raise DomainError("dims must be three integers >= 1", module=_MODULE)
        if np.any(self.spacing <= 0):
            raise DomainError("grid spacing must be > 0 on every axis", module=_MODULE)

    @classmethod
    def centered(cls, extents, dims) -> "GridSpec":
        """Grid spanning an axis-aligned box centered on the origin."""
        extents = _vector3(extents, "extents")
        if np.any(extents <= 0):
            raise DomainError("extents must be > 0", module=_MODULE)
        dims = tuple(int(n) for n in dims)
        if any(n < 2 for n in dims):
            raise DomainError("centered grid needs >= 2 nodes per axis", module=_MODULE)
        spacing = extents / (np.asarray(dims) - 1)
        return cls(origin=-extents / 2.0, spacing=spacing, dims=dims)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(_axis_nodes(self.origin[i], self.spacing[i], self.dims[i])
                     for i in range(3))


@dataclass(frozen=True)
class FieldMap:
    """Vector field samples on a uniform grid, plus the mode energy.

    b holds the samples in tesla, shape (nx, ny, nz, 3); energy_j is the
    total electromagnetic energy of the mode at this amplitude.  When
    the map has been scaled to the single-photon level,
    photon_frequency_hz records the frequency used.
    """

    origin: np.ndarray  # m
    spacing: np.ndarray  # m
    b: np.ndarray  # T
    energy_j: float
    photon_frequency_hz: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "origin", _vector3(self.origin, "origin"))
        object.__setattr__(self, "spacing", _vector3(self.spacing, "spacing"))
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.ndim != 4 or b.shape[3] != 3 or any(n < 1 for n in b.shape[:3]):
            raise ValidationError(
                f"field samples must have shape (nx, ny, nz, 3), got {b.shape}",
                module=_MODULE)
        if np.any(self.spacing <= 0):
            raise ValidationError("grid spacing must be > 0 on every axis",
                                  module=_MODULE)
        if not np.all(np.isfinite(b)):
            raise ValidationError("field samples must all be finite", module=_MODULE)
        if not (math.isfinite(self.energy_j) and self.energy_j > 0):
            raise ValidationError("energy_j must be a positive finite number",
                                  module=_MODULE)
        if self.photon_frequency_hz is not None and self.photon_frequency_hz <= 0:
            raise ValidationError("photon_frequency_hz must be > 0 when set",
                                  module=_MODULE)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.b.shape[:3]

    @property
    def normalized(self) -> bool:
        return self.photon_frequency_hz is not None

    @property
    def magnitude(self) -> np.ndarray:
        """|B| at every grid node, shape (nx, ny, nz)."""
        return np.sqrt(np.sum(self.b * self.b, axis=3))

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(_axis_nodes(self.origin[i], self.spacing[i], self.dims[i])
                     for i in range(3))


@dataclass(frozen=True)
class SampleRegion:
    """Axis-aligned box over which ensemble statistics are evaluated."""

    center: np.ndarray  # m
    extents: np.ndarray  # m, full side lengths

    def __post_init__(self):
        object.__setattr__(self, "center", _vector3(self.center, "center"))
        object.__setattr__(self, "extents", _vector3(self.extents, "extents"))
        if np.any(self.extents <= 0):
            raise DomainError("region extents must be > 0", module=_MODULE)

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.extents / 2.0

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.extents / 2.0

    @property
    def volume(self) -> float:
        return float(np.prod(self.extents))


@dataclass(frozen=True)
class HomogeneityReport:
    """Volume-weighted |B| statistics over a sample region.

    Deviations are fractions of the mean; contour_histogram lists
    (upper deviation edge, volume fraction) pairs, the last edge being
    +inf, with fractions summing to 1.
    """

    mean_field_t: float
    rms_deviation: float
    max_deviation: float
    contour_histogram: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (self.mean_field_t > 0 and math.isfinite(self.mean_field_t)):
            raise ValidationError("mean_field_t must be positive and finite",
                                  module=_MODULE)
        if self.rms_deviation > self.max_deviation * (1.0 + 1e-12) + 1e-300:
            raise ValidationError("rms_deviation cannot exceed max_deviation",
                                  module=_MODULE)
        total = math.fsum(frac for _, frac in self.contour_histogram)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"contour histogram fractions sum to {total!r}, expected 1",
                module=_MODULE)

    def as_dict(self) -> dict:
        # The last histogram bin is open-ended; None marks its edge so the
        # dict stays serializable as strict JSON.
        return {
            "mean_field_T": self.mean_field_t,
            "rms_deviation": self.rms_deviation,
            "max_deviation": self.max_deviation,
            "contour_histogram": [
                [edge if math.isfinite(edge) else None, frac]
                for edge, frac in self.contour_histogram],
        }


@dataclass(frozen=True)
class CurrentSheet:
    """Flat rectangle carrying uniform surface current.

    The current flows along ``current_direction`` with line density
    ``surface_current`` [A/m]; ``length`` is the side along the current,
    ``width`` the side across it.  ``normal`` fixes the sheet plane and
    must be orthogonal to the current direction.
    """

    center: np.ndarray  # m
    current_direction: np.ndarray  # unit vector
    normal: np.ndarray  # unit vector
    length: float  # m
    width: float  # m
    surface_current: float  # A/m

    def __post_init__(self):
        object.__setattr__(self, "center", _vector3(self.center, "center"))
        u = _vector3(self.current_direction, "current_direction")
        n = _vector3(self.normal, "normal")
        for name, vec in (("current_direction", u), ("normal", n)):
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
                raise DomainError(f"{name} must be a unit vector", module=_MODULE)
        if abs(float(np.dot(u, n))) > 1e-9:
            raise DomainError("normal must be orthogonal to current_direction",
                              module=_MODULE)
        object.__setattr__(self, "current_direction", u)
        object.__setattr__(self, "normal", n)
        if not (self.length > 0 and self.width > 0
                and math.isfinite(self.length) and math.isfinite(self.width)):
            raise DomainError("sheet length and width must be positive and finite",
                              module=_MODULE)
        if not (math.isfinite(self.surface_current) and self.surface_current != 0):
            raise DomainError("surface_current must be finite and nonzero",
                              module=_MODULE)


def bowtie_sheet_pair(length: float, width: float, gap: float,
                      surface_current: float) -> tuple[CurrentSheet, CurrentSheet]:
    """Two parallel sheets with counter-propagating current.

    The sheets sit at z = -gap/2 (current along +x) and z = +gap/2
    (current along -x), so their fields add up between the sheets and
    cancel outside; midway the field points along -y and approaches
    mu0 * surface_current for sheets much larger than the gap.
    """
    if gap <= 0:
        raise DomainError("gap must be > 0", module=_MODULE)
    lower = CurrentSheet(center=np.array([0.0, 0.0, -gap / 2.0]),
                         current_direction=np.array([1.0, 0.0, 0.0]),
                         normal=np.array([0.0, 0.0, 1.0]),
                         length=length, width=width,
                         surface_current=surface_current)
    upper = CurrentSheet(center=np.array([0.0, 0.0, gap / 2.0]),
                         current_direction=np.array([-1.0, 0.0, 0.0]),
                         normal=np.array([0.0, 0.0, 1.0]),
                         length=length, width=width,
                         surface_current=surface_current)
    return lower, upper


def _canonical_frame(sheet: CurrentSheet) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Sheet frame with a sign-canonical current axis.

    Flipping the current direction together with the sign of the
    surface current leaves the physics unchanged; canonicalizing makes
    a reversed-current sheet produce the exactly negated field.
    """
    u = sheet.current_direction
    k = sheet.surface_current
    for comp in u:
        if abs(comp) > 1e-12:
            if comp < 0:
                u = -u
                k = -k
            break
    v = np.cross(sheet.normal, u)
    return u, v, sheet.normal, k


def _log_ratio(x1: np.ndarray, r1: np.ndarray, x2: np.ndarray, r2: np.ndarray,
               rho2: np.ndarray) -> np.ndarray:
    """ln((x2 + r2) / (x1 + r1)) for x1 < x2, where r = sqrt(x^2 + rho2).

    x + r cancels where x < 0, so there it is rewritten as rho2 / (r - x).
    On the line of a sheet edge (rho2 = 0) both x share a sign, and the
    ratio of the two exact forms stays finite; where x1 < 0 < x2 the
    point lies over the sheet's span, so the standoff keeps rho2 > 0.
    """
    pos = x1 >= 0
    neg = x2 <= 0
    mid = ~(pos | neg)
    out = np.empty_like(x1)
    out[pos] = np.log((x2[pos] + r2[pos]) / (x1[pos] + r1[pos]))
    out[neg] = np.log((r1[neg] - x1[neg]) / (r2[neg] - x2[neg]))
    out[mid] = np.log((x2[mid] + r2[mid]) * (r1[mid] - x1[mid]) / rho2[mid])
    return out


def _sheet_integral(u_pts: np.ndarray, v_pts: np.ndarray, w_pts: np.ndarray,
                    half_len: float, half_wid: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric Biot-Savart integral of a unit-current sheet, in closed form.

    Evaluates I = integral of u_hat x s / |s|^3 over the rectangle
    [-a, a] x [-b, b] for every point given in sheet-local coordinates
    (u, v, w), returning the components along v_hat and the normal; the
    component along the current direction vanishes identically.  With
    X = u -+ a, Y = v -+ b and R = sqrt(X^2 + Y^2 + w^2) at the corners,
    summed with the corner signs sx * sy,

        w * integral of 1/r^3      = sum sx sy arctan(XY / (wR)),
        integral of (v - v')/r^3   = -sum sx sy ln(X + R).

    The arctan form (not arctan2) keeps the branch right for w < 0.  In
    the sheet plane outside the rectangle the first sum is zero.
    """
    x1, x2 = u_pts - half_len, u_pts + half_len
    w2 = w_pts * w_pts
    in_plane = w_pts == 0
    w_div = np.where(in_plane, 1.0, w_pts)
    solid = np.zeros_like(u_pts)
    normal = np.zeros_like(u_pts)
    for sy, y in ((1.0, v_pts + half_wid), (-1.0, v_pts - half_wid)):
        rho2 = y * y + w2
        r1 = np.sqrt(x1 * x1 + rho2)
        r2 = np.sqrt(x2 * x2 + rho2)
        solid += sy * (np.arctan(x2 * y / (w_div * r2))
                       - np.arctan(x1 * y / (w_div * r1)))
        normal -= sy * _log_ratio(x1, r1, x2, r2, rho2)
    solid[in_plane] = 0.0
    return -solid, normal


def _cell_center_mean(samples: np.ndarray) -> np.ndarray:
    """Average of the 8 cell-corner samples, i.e. trilinear value at
    each cell center.  Works for scalar (...,) and vector (..., 3) grids."""
    return 0.125 * (samples[:-1, :-1, :-1] + samples[1:, :-1, :-1]
                    + samples[:-1, 1:, :-1] + samples[:-1, :-1, 1:]
                    + samples[1:, 1:, :-1] + samples[1:, :-1, 1:]
                    + samples[:-1, 1:, 1:] + samples[1:, 1:, 1:])


def _magnetic_plus_electric_energy(b: np.ndarray, spacing: np.ndarray) -> float:
    """Total mode energy by the midpoint rule, in joules.

    The magnetostatic samples carry only half the mode energy; over an
    LC cycle an equal share oscillates through the capacitor, so the
    magnetic integral (1/2mu0) int |B|^2 dV is doubled.
    """
    centers = _cell_center_mean(b)
    cell_volume = float(np.prod(spacing))
    magnetic = float(np.sum(centers * centers)) * cell_volume / (2.0 * MU_0)
    return 2.0 * magnetic


def mode_energy(fmap: FieldMap) -> float:
    """Recompute the total mode energy from the stored samples."""
    if any(n < 2 for n in fmap.dims):
        raise DomainError("energy integration needs >= 2 nodes per axis",
                          module=_MODULE)
    return _magnetic_plus_electric_energy(fmap.b, fmap.spacing)


def biot_savart_map(sheets, grid: GridSpec, rtol: float = 1e-8) -> FieldMap:
    """Evaluate the field of rectangular current sheets on a grid.

    Each node gets the sum over all sheets of the Biot-Savart surface
    integral, evaluated from its closed form (the antiderivatives at the
    four sheet corners) for all nodes at once.  ``rtol`` is the relative
    accuracy asked of the field; it must lie in (0, 1e-2), and the closed
    form, exact up to rounding, always meets it.
    """
    sheets = tuple(sheets)
    if not sheets:
        raise DomainError("at least one current sheet is required", module=_MODULE)
    for sheet in sheets:
        if not isinstance(sheet, CurrentSheet):
            raise DomainError("sheets must be CurrentSheet instances", module=_MODULE)
    if not (0 < rtol < 1e-2):
        raise DomainError("rtol must be in (0, 1e-2)", module=_MODULE)
    nx, ny, nz = grid.dims
    if min(nx, ny, nz) < 2:
        raise DomainError("field maps need >= 2 nodes per axis for the "
                          "energy integral", module=_MODULE)

    xs, ys, zs = grid.axes()
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    out = np.zeros_like(pts)
    for idx, sheet in enumerate(sheets):
        u_hat, v_hat, n_hat, k_signed = _canonical_frame(sheet)
        rel = pts - sheet.center
        u = rel @ u_hat
        v = rel @ v_hat
        w = rel @ n_hat
        ha, hb = sheet.length / 2.0, sheet.width / 2.0
        du = np.maximum(np.abs(u) - ha, 0.0)
        dv = np.maximum(np.abs(v) - hb, 0.0)
        dist2 = du * du + dv * dv + w * w
        closest = int(np.argmin(dist2))
        if dist2[closest] < _SINGULARITY_STANDOFF**2:
            raise SingularityError(
                f"grid node at {tuple(pts[closest])} lies within "
                f"{_SINGULARITY_STANDOFF} m of sheet {idx}", module=_MODULE)
        prefactor = MU_0 * k_signed / (4.0 * math.pi)
        comp_v, comp_n = _sheet_integral(u, v, w, ha, hb)
        out += prefactor * (comp_v[:, None] * v_hat + comp_n[:, None] * n_hat)

    b = out.reshape(nx, ny, nz, 3)
    energy = _magnetic_plus_electric_energy(b, grid.spacing)
    return FieldMap(origin=grid.origin, spacing=grid.spacing, b=b, energy_j=energy)


def normalize_to_vacuum(fmap: FieldMap, f_c: float) -> FieldMap:
    """Rescale a map to the single-photon (vacuum) amplitude.

    Divides the samples by sqrt(n) with n = E_em / (h f_c) the photon
    number at the stored amplitude; the returned map carries exactly
    one photon of energy at f_c.  Already-normalized maps pass through
    unchanged (n = 1).
    """
    if not (f_c > 0 and math.isfinite(f_c)):
        raise DomainError("f_c must be a positive finite frequency", module=_MODULE)
    photon_energy = PLANCK_H * f_c
    n_photons = fmap.energy_j / photon_energy
    b = fmap.b if n_photons == 1.0 else fmap.b / math.sqrt(n_photons)
    return FieldMap(origin=fmap.origin, spacing=fmap.spacing, b=b,
                    energy_j=photon_energy, photon_frequency_hz=f_c)


DEFAULT_CONTOUR_BINS = (0.01, 0.02, 0.05, 0.10)


def homogeneity(fmap: FieldMap, region: SampleRegion,
                bins=DEFAULT_CONTOUR_BINS) -> HomogeneityReport:
    """Volume-weighted homogeneity statistics of |B| over a region.

    This is the toolkit's one computation of region statistics.  |B| at
    each cell center is the mean of the 8 corner magnitudes (trilinear
    interpolation at the center), and each cell counts with its overlap
    volume with the region, so partially covered boundary cells count in
    proportion.  rms_deviation and max_deviation (over cells of positive
    overlap) are fractions of the region mean, so they do not change
    when the field is scaled by a positive factor; the contour histogram
    gives the volume fraction whose |deviation| falls inside each bin,
    the last bin being open-ended.
    """
    edges = tuple(float(b) for b in bins)
    if not edges or any(not (e > 0 and math.isfinite(e)) for e in edges) \
            or any(b <= a for a, b in zip(edges, edges[1:])):
        raise DomainError("bins must be a strictly increasing sequence of "
                          "positive deviation thresholds", module=_MODULE)
    upper = fmap.origin + fmap.spacing * (np.asarray(fmap.dims) - 1)
    slack = 1e-9 * float(np.max(fmap.spacing))
    if np.any(region.lo < fmap.origin - slack) or np.any(region.hi > upper + slack):
        raise DomainError(
            f"sample region [{region.lo}, {region.hi}] extends beyond the "
            f"grid hull [{fmap.origin}, {upper}]", module=_MODULE)
    if any(n < 2 for n in fmap.dims):
        raise DomainError("region statistics need >= 2 nodes per axis",
                          module=_MODULE)
    values = _cell_center_mean(fmap.magnitude)
    ox, oy, oz = (
        np.maximum(np.minimum(nodes[1:], hi) - np.maximum(nodes[:-1], lo), 0.0)
        for nodes, lo, hi in zip(fmap.axes(), region.lo, region.hi))
    weights = ox[:, None, None] * oy[:, None] * oz
    w_total = float(weights.sum())
    if w_total <= 0:
        raise DomainError("sample region does not overlap any grid cell",
                          module=_MODULE)
    mean = float((weights * values).sum() / w_total)
    if mean <= 0:
        raise DomainError("mean |B| over the region is zero; deviations are "
                          "undefined", module=_MODULE)
    dev = np.abs(values - mean) / mean
    rms = math.sqrt(float((weights * dev * dev).sum()) / w_total)
    max_dev = float(np.max(dev[weights > 0]))
    bin_index = np.searchsorted(np.asarray(edges), dev, side="right")
    sums = np.bincount(bin_index.ravel(), weights=weights.ravel(),
                       minlength=len(edges) + 1)
    fractions = sums / sums.sum()
    histogram = tuple(zip(list(edges) + [math.inf], (float(f) for f in fractions)))
    return HomogeneityReport(mean_field_t=mean, rms_deviation=rms,
                             max_deviation=max_dev, contour_histogram=histogram)


def export_map(path, fmap: FieldMap) -> None:
    """Write a map as node CSV plus a ``.meta`` sidecar next to it.

    The CSV holds one row per node (header ``x_m,y_m,z_m,Bx_T,By_T,Bz_T``);
    the sidecar holds grid shape, origin, spacing and the mode energy as
    ``key=value`` lines.  Both files are written atomically and round-trip
    through :func:`ingest_map` bit-exactly.
    """
    nodes = np.meshgrid(*fmap.axes(), indexing="ij")
    rows = np.column_stack([*(n.ravel() for n in nodes), fmap.b.reshape(-1, 3)])
    write_table(path, _CSV_HEADER, rows.tolist())

    values = (*fmap.dims, *fmap.origin, *fmap.spacing, fmap.energy_j,
              fmap.photon_frequency_hz)
    meta = [f"{key}={value if kind is int else format_float(value)}"
            for (key, kind), value in zip(_SIDECAR_KEYS.items(), values)
            if value is not None]
    atomic_write_text(str(path) + _META_SUFFIX, "\n".join(meta) + "\n")


def _parse_sidecar(path) -> dict:
    meta_path = str(path) + _META_SUFFIX
    try:
        with open(meta_path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read sidecar {meta_path}: {exc}",
                              module=_MODULE) from exc
    meta = {}
    for lineno, line in enumerate(raw_lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _SIDECAR_KEYS:
            raise ValidationError(
                f"{meta_path}:{lineno}: unrecognized sidecar line {line!r}",
                module=_MODULE)
        try:
            meta[key] = _SIDECAR_KEYS[key](value)
        except ValueError as exc:
            raise ValidationError(
                f"{meta_path}:{lineno}: cannot parse value for {key!r}",
                module=_MODULE) from exc
    missing = sorted(_SIDECAR_KEYS.keys() - {"photon_frequency_Hz"} - meta.keys())
    if missing:
        raise ValidationError(f"{meta_path}: missing sidecar keys {missing}",
                              module=_MODULE)
    return meta


def ingest_map(path) -> FieldMap:
    """Read a node CSV + sidecar written by :func:`export_map`.

    Rows may arrive in any order; every grid node must appear exactly
    once and sit on the lattice declared by the sidecar.
    """
    meta = _parse_sidecar(path)
    dims = (meta["nx"], meta["ny"], meta["nz"])
    if any(n < 1 for n in dims):
        raise ValidationError("sidecar grid dims must be >= 1", module=_MODULE)
    origin = np.array([meta["origin_x_m"], meta["origin_y_m"], meta["origin_z_m"]])
    spacing = np.array([meta["spacing_x_m"], meta["spacing_y_m"], meta["spacing_z_m"]])
    if np.any(spacing <= 0) or not np.all(np.isfinite(origin)):
        raise ValidationError("sidecar origin/spacing invalid", module=_MODULE)

    data, line_numbers = read_table(path, _CSV_HEADER, 6, _MODULE)
    n_nodes = dims[0] * dims[1] * dims[2]
    b = np.empty((*dims, 3))
    seen = np.zeros(dims, dtype=bool)
    tol = 1e-6 * spacing
    for vals, lineno in zip(data.tolist(), line_numbers):
        idx = []
        for ax in range(3):
            pos = (vals[ax] - origin[ax]) / spacing[ax]
            i = int(round(pos))
            if i < 0 or i >= dims[ax] \
                    or abs(vals[ax] - (origin[ax] + i * spacing[ax])) > tol[ax]:
                raise ValidationError(
                    f"{path}:{lineno}: coordinate {vals[ax]!r} is not on the "
                    f"declared grid lattice (axis {ax})", module=_MODULE)
            idx.append(i)
        ix, iy, iz = idx
        if seen[ix, iy, iz]:
            raise ValidationError(f"{path}:{lineno}: duplicate node "
                                  f"({ix}, {iy}, {iz})", module=_MODULE)
        seen[ix, iy, iz] = True
        b[ix, iy, iz] = vals[3:]

    if not seen.all():
        ix, iy, iz = (int(i[0]) for i in np.nonzero(~seen))
        x = origin[0] + ix * spacing[0]
        y = origin[1] + iy * spacing[1]
        z = origin[2] + iz * spacing[2]
        raise ValidationError(
            f"{path}: missing grid node ({ix}, {iy}, {iz}) at "
            f"({x:.9g}, {y:.9g}, {z:.9g}) m; found "
            f"{int(seen.sum())} of {n_nodes} nodes", module=_MODULE)

    return FieldMap(origin=origin, spacing=spacing, b=b,
                    energy_j=meta["energy_J"],
                    photon_frequency_hz=meta.get("photon_frequency_Hz"))
