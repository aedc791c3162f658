"""Boundary layers of the nonnegative orthant and positivity modification.

A boundary layer collects the points of a domain that are close to the
coordinate faces {x_n = 0}, in one of three senses: within metric distance
eps of the faces (for boxes anchored at the origin the Euclidean and sup
distances coincide and equal min_n x_n), within eps of one chosen face, or
below level eps of the product prod_j section_profile(x_j), which cuts
sections of finite volume out of the unbounded orthant.

The modification of a continuous scalar field f ramps its negative part
off inside the layer,

    modified f = f - P_-(f) * chi(level value),

where P_- is the negative part and chi the 1D transition cutoff applied to
the layer's level value. The cutoff plateaus make the identities exact:
the result equals the positive part of f where the level value is below
eps - delta (coordinate faces included, so nonnegativity there holds with
no tolerance) and is bit-identical to f beyond eps + delta.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from rdlearn._sampling import as_batch, as_tuple, box_quadrature, halton_box, sup_sample
from rdlearn.consistency import lift
from rdlearn.transition import TransitionFunction, default_kernel

_MODES = ("metric", "componentwise", "nonlinear")


def _upper_corner(hi) -> tuple:
    """The upper corner of a box [0, hi] as floats, each positive and finite."""
    hi = as_tuple(hi, float, "hi")
    if not all(0.0 < h < np.inf for h in hi):  # NaN fails too
        raise ValueError(f"box upper corner must be positive and finite, got {hi}")
    return hi


def section_profile(x) -> np.ndarray:
    """Profile defining the nonlinear sections: sqrt(x) below 1, x^2 above.

    Continuous and increasing on [0, inf) with value 0 at 0 and 1 at 1;
    the square growth at infinity is what keeps level sets of the product
    at finite volume.
    """
    x = np.asarray(x, dtype=float)
    return np.where(x < 1.0, np.sqrt(np.clip(x, 0.0, None)), x * x)


@dataclass(frozen=True)
class BoundaryLayer:
    """Points of the domain close to the coordinate faces.

    mode "metric" keeps x with min_n x_n < eps (strict), "componentwise"
    keeps |x_component| <= eps, "nonlinear" keeps the section_profile
    product <= eps. The domain is the box [0, hi] when hi is given and the
    unbounded orthant with `dim` coordinates otherwise. As for reaction
    terms (`as_batch`), a 1-D array is one point and a 2-D array a batch.
    """

    eps: float
    mode: str = "metric"
    hi: tuple | None = None
    dim: int | None = None
    component: int = 0

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.hi is not None:
            hi = _upper_corner(self.hi)
            if self.dim is not None and self.dim != len(hi):
                raise ValueError(
                    f"dim={self.dim} disagrees with upper corner of length {len(hi)}"
                )
            object.__setattr__(self, "hi", hi)
            object.__setattr__(self, "dim", len(hi))
        elif self.dim is None:
            raise ValueError("an unbounded layer needs an explicit dim")
        if self.mode == "componentwise" and not 0 <= self.component < self.dim:
            raise ValueError(
                f"component {self.component} out of range for dim {self.dim}"
            )

    def _normalize(self, points) -> tuple[np.ndarray, bool]:
        """(batch (S, dim), single) by `as_batch`, checked to lie in the domain."""
        pts, single = as_batch(points, self.dim)
        if np.any(pts < 0.0):
            raise ValueError("point outside the domain: negative coordinate")
        if self.hi is not None and np.any(pts > np.asarray(self.hi)):
            raise ValueError("point outside the domain box")
        return pts, single

    def _level(self, pts: np.ndarray) -> np.ndarray:
        """Level values of a batch that `_normalize` has already checked."""
        if self.mode == "metric":
            return pts.min(axis=1)
        if self.mode == "componentwise":
            return np.abs(pts[:, self.component])
        return np.prod(section_profile(pts), axis=1)

    def level_value(self, points) -> np.ndarray:
        """The scalar compared against eps to decide membership."""
        pts, single = self._normalize(points)
        out = self._level(pts)
        return out[0] if single else out

    def members(self, points) -> np.ndarray:
        """Membership: one bool for a point, one per point for a batch."""
        value = self.level_value(points)
        return value < self.eps if self.mode == "metric" else value <= self.eps


@dataclass(frozen=True)
class BoundaryMeasure:
    """Volume of the metric boundary layer as a function of its width.

    Exact closed form on the unit cube; a seeded quasi-Monte-Carlo
    estimate elsewhere. The half-width reported alongside estimates is one
    standard error of the indicator mean, scaled by the box volume.
    """

    hi: tuple
    samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hi", _upper_corner(self.hi))
        if self.samples < 100:
            raise ValueError("need at least 100 samples for a variance estimate")

    @property
    def dim(self) -> int:
        return len(self.hi)

    @property
    def is_unit_cube(self) -> bool:
        return all(h == 1.0 for h in self.hi)

    def measure(self, x: float) -> float:
        """Layer volume at width x: exact on the unit cube, sampled otherwise."""
        if self.is_unit_cube:
            return 1.0 - (1.0 - min(_width(x), 1.0)) ** self.dim
        return self.estimate(x)[0]

    def estimate(self, x: float) -> tuple[float, float]:
        """(sampled volume, half-width), available on any box."""
        x = _width(x)
        if x == 0.0:
            return 0.0, 0.0
        return _sampled_volume(BoundaryLayer(x, hi=self.hi), self.samples, self.seed)


def _width(x: float) -> float:
    """A layer width as a float, checked to be >= 0 (NaN fails)."""
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"layer width must be >= 0, got {x}")
    return x


def _sampled_volume(layer: BoundaryLayer, samples: int, seed: int) -> tuple[float, float]:
    """(volume, half-width) of a layer on its box [0, hi].

    The volume is the box volume times the fraction p of `samples` seeded
    Halton points that are members; the half-width is one standard error
    of that mean, vol * sqrt(p (1 - p) / samples).
    """
    pts = halton_box(samples, np.zeros(layer.dim), np.asarray(layer.hi), seed=seed)
    vol = float(np.prod(layer.hi))
    p = float(layer.members(pts).mean())
    return vol * p, vol * math.sqrt(p * (1.0 - p) / samples)


def modify(f, layer: BoundaryLayer, delta: float):
    """Make a continuous scalar field nonnegative on the coordinate faces.

    The result equals the positive part of f where the layer level value
    is below eps - delta, equals f bit-exactly beyond eps + delta, and
    interpolates continuously in between. It is therefore >= 0 on the
    faces themselves with no tolerance. delta must lie in (0, eps).
    """
    chi = TransitionFunction(layer.eps, float(delta), default_kernel())

    def modified(points) -> np.ndarray:
        pts, single = layer._normalize(points)
        v = np.asarray(f(pts), dtype=float).reshape(pts.shape[0])
        out = lift(v, chi.evaluate(layer._level(pts)))
        return out[0] if single else out

    return modified


@dataclass
class ApproximationStudy:
    """Per-level errors of raw and modified approximants."""

    levels: np.ndarray
    eps: np.ndarray
    delta: np.ndarray
    raw_error: np.ndarray
    modified_error: np.ndarray
    boundary_min: np.ndarray


def approximation_experiment(f_target, approx_family, eps_seq, delta_seq,
                             layer: BoundaryLayer, norm: str = "sup",
                             p: float = 2.0) -> ApproximationStudy:
    """Errors of raw vs modified approximants under shrinking schedules.

    approx_family maps the level m = 1, 2, ... to a scalar field on the
    layer's box. Both schedules must decrease strictly and stay positive,
    with delta < eps at every level; the modified approximant of level m
    uses (eps_m, delta_m). Errors against f_target are measured in the sup
    norm over a dense sample or in the L^p norm by tensor-grid quadrature
    with 200 nodes per axis (quasi-Monte-Carlo above dimension 2). The
    minimum of each modified approximant over 2000 sampled points per face
    is recorded; it is nonnegative by construction, with no tolerance.
    """
    eps_seq = [float(e) for e in eps_seq]
    delta_seq = [float(d) for d in delta_seq]
    if len(eps_seq) != len(delta_seq):
        raise ValueError("eps and delta schedules must have equal length")
    if len(eps_seq) < 2:
        raise ValueError("need at least 2 levels")
    for name, seq in (("eps", eps_seq), ("delta", delta_seq)):
        if seq[-1] <= 0.0:
            raise ValueError(f"{name} schedule must stay positive")
        if any(b >= a for a, b in zip(seq, seq[1:])):
            raise ValueError(f"{name} schedule must decrease strictly toward 0")
    if any(d >= e for e, d in zip(eps_seq, delta_seq)):
        raise ValueError("every level needs delta < eps")
    if layer.hi is None:
        raise ValueError("error norms need a bounded box domain")
    if norm not in ("sup", "lp"):
        raise ValueError(f"norm must be 'sup' or 'lp', got {norm!r}")
    if norm == "lp" and not 1.0 <= p < np.inf:  # NaN fails too
        raise ValueError(f"p must be a finite number >= 1, got {p}")

    lo = np.zeros(layer.dim)
    hi = np.asarray(layer.hi)
    if norm == "sup":
        pts = sup_sample(lo, hi)
        wts = None
    else:
        pts, wts = box_quadrature(lo, hi, nodes_per_dim=200)
    target_vals = np.asarray(f_target(pts), dtype=float).reshape(pts.shape[0])

    def err(vals):
        d = np.abs(vals - target_vals)
        if norm == "sup":
            return float(d.max())
        return float(np.sum(wts * d ** p) ** (1.0 / p))

    faces = ([layer.component] if layer.mode == "componentwise"
             else list(range(layer.dim)))
    face_pts = []
    for n in faces:
        q = halton_box(2_000, lo, hi, seed=7 + n)
        q[:, n] = 0.0
        face_pts.append(q)
    face_pts = np.vstack(face_pts)

    levels = np.arange(1, len(eps_seq) + 1)
    raw = np.empty(levels.size)
    modified = np.empty(levels.size)
    face_min = np.empty(levels.size)
    for i, m in enumerate(levels):
        fm = approx_family(int(m))
        fmod = modify(fm, dataclasses.replace(layer, eps=eps_seq[i]), delta_seq[i])
        raw[i] = err(np.asarray(fm(pts), dtype=float).reshape(pts.shape[0]))
        modified[i] = err(fmod(pts))
        face_min[i] = float(np.min(fmod(face_pts)))
    return ApproximationStudy(levels, np.array(eps_seq), np.array(delta_seq),
                              raw, modified, face_min)


# proposals `sample_members` draws before it calls a layer too thin
_MAX_DRAWS = 5_000_000


def sample_members(layer: BoundaryLayer, count: int, seed: int = 0) -> np.ndarray:
    """Uniform members of the layer, by rejection from a box.

    For unbounded layers the proposals come from [0, 4]^dim. Raises
    RuntimeError when fewer than `count` members turn up within _MAX_DRAWS
    proposals (the layer is too thin for this box).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    dim = layer.dim
    hi = (np.asarray(layer.hi) if layer.hi is not None
          else np.full(dim, 4.0))
    rng = np.random.default_rng(seed)
    chunks = []
    found = 0
    drawn = 0
    batch = max(4 * count, 10_000)
    while found < count:
        if drawn >= _MAX_DRAWS:
            raise RuntimeError(
                f"collected {found}/{count} members after {drawn} proposals; "
                "the layer is too thin for rejection sampling at this box size"
            )
        pts = rng.uniform(0.0, 1.0, size=(batch, dim)) * hi
        drawn += batch
        keep = pts[layer.members(pts)]
        if keep.size:
            chunks.append(keep)
            found += keep.shape[0]
    return np.vstack(chunks)[:count]


@dataclass
class VolumeReport:
    """Layer volume estimates on expanding boxes, with half-widths."""

    box_sizes: np.ndarray
    estimates: np.ndarray
    halfwidths: np.ndarray

    @property
    def stable(self) -> bool:
        """Whether the last two estimates agree within 3 combined half-widths."""
        if self.estimates.size < 2:
            return False
        gap = abs(float(self.estimates[-1]) - float(self.estimates[-2]))
        return gap <= 3.0 * (float(self.halfwidths[-1]) + float(self.halfwidths[-2]))


def nonlinear_volume_report(dim: int, box_sizes=(2.0, 4.0, 8.0, 16.0),
                            samples: int = 200_000,
                            seed: int = 0) -> VolumeReport:
    """Sampled volume of the level-1 nonlinear layer on a growing family of boxes.

    The sections of the product profile have finite volume even though
    they are unbounded, so the estimates flatten once the box captures the
    bulk: the square growth of the profile beyond 1 makes the tail of the
    section along each axis integrable.
    """
    box_sizes = [float(b) for b in box_sizes]
    if any(b2 <= b1 for b1, b2 in zip(box_sizes, box_sizes[1:])):
        raise ValueError("box sizes must increase strictly")
    layer = BoundaryLayer(eps=1.0, mode="nonlinear", dim=int(dim))
    found = np.array([_sampled_volume(dataclasses.replace(layer, hi=(size,) * layer.dim),
                                      samples, seed)
                      for size in box_sizes]).reshape(-1, 2)
    return VolumeReport(np.array(box_sizes), found[:, 0], found[:, 1])
