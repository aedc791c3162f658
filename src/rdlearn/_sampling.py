"""Deterministic sampling and quadrature, shared normalisers, packed views and rate fits."""

from __future__ import annotations

import math

import numpy as np


def as_box(lo, hi, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize box bounds to float arrays, broadcasting scalars.

    Raises ValueError if any lower bound is not strictly below the
    corresponding upper bound.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if dim is not None:
        if lo.size == 1:
            lo = np.full(dim, lo[0])
        if hi.size == 1:
            hi = np.full(dim, hi[0])
    if lo.shape != hi.shape:
        raise ValueError(f"box bounds have mismatched shapes {lo.shape} and {hi.shape}")
    if not np.all(lo < hi):
        raise ValueError("box requires lo < hi in every coordinate")
    return lo, hi


def as_tuple(value, kind, name: str) -> tuple:
    """The field `name`, a scalar or a sequence, as a tuple of `kind` values,
    one per entry. For int, an entry that int() would change (2.5, inf,
    NaN) raises a ValueError that names the field."""
    entries = np.atleast_1d(np.asarray(value, dtype=float))
    if kind is int and not np.all(np.isfinite(entries) & (entries == np.trunc(entries))):
        raise ValueError(f"{name} must be integers, got {value!r}")
    return tuple(kind(v) for v in entries)


def ball_radius(lo, hi) -> float:
    """Radius of the origin ball holding [lo, hi]: the norm of its farthest corner."""
    return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))


def as_batch(u, n: int) -> tuple[np.ndarray, bool]:
    """(batch (S, n), single): a 1-D u is one point in R^n, a 2-D u a batch."""
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    batch = u[None] if single else u
    if batch.ndim != 2 or batch.shape[1] != n:
        raise ValueError(f"expected points in R^{n}, ({n},) or a batch (S, {n}), got shape {u.shape}")
    return batch, single


def as_weights(c, n: int) -> np.ndarray:
    """Mass-control weights c_n as floats, all ones for None: one positive per species."""
    c = np.ones(n) if c is None else np.asarray(c, dtype=float)
    if c.shape != (n,) or np.any(c <= 0):
        raise ValueError("weights c must be positive, one per species")
    return c


def split(x: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the flat array x, one per shape, in order: a packed vector's
    blocks, which read and write through to x."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(x[start:start + size].reshape(shape))
        start += size
    return out


def fitted_rate(x, y) -> float | None:
    """Least-squares slope of log y against log x over the entries with y
    above 1e-14, or None when fewer than two are left to fit."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    keep = y > 1e-14
    if np.count_nonzero(keep) < 2:
        return None
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])


def trapezoid_weights(m: int, h: float) -> np.ndarray:
    """Trapezoid weights of m nodes at spacing h: h inside, h/2 at both ends."""
    w = np.full(m, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(n: int, dim: int, seed: int) -> np.ndarray:
    """Owen-scrambled Halton points in [0, 1)^dim, shape (n, dim).

    One generator drawn from `seed` shuffles, base by base over the first
    `dim` primes, one digit permutation per digit position that a double
    resolves (base^-k > 2^-54); point i is the van der Corput sum of the
    permuted base-b digits of i. This is the sequence of
    scipy.stats.qmc.Halton(dim, scramble=True, seed=seed), bit for bit.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for base in _first_primes(dim):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        index = np.arange(n)
        col = np.zeros(n)
        scale = 1.0 / base
        for perm in perms:
            col += perm[index % base] * scale
            scale /= base
            index //= base
        cols.append(col)
    return np.array(cols).T.reshape(n, dim)


def halton_box(n: int, lo, hi, seed: int = 0) -> np.ndarray:
    """n quasi-random points in the box [lo, hi], shape (n, dim)."""
    lo, hi = as_box(lo, hi)
    pts = _scrambled_halton(n, lo.size, seed)
    return lo + pts * (hi - lo)


def sup_sample(lo, hi, seed: int = 0) -> np.ndarray:
    """Dense deterministic sample of a box for sup-norm estimation.

    Uses 10000 * dim quasi-random points plus the box corners, so
    extremes attained on the boundary are not missed entirely.
    """
    lo, hi = as_box(lo, hi)
    dim = lo.size
    pts = halton_box(10_000 * dim, lo, hi, seed=seed)
    corners = np.stack(np.meshgrid(*[(l, h) for l, h in zip(lo, hi)], indexing="ij"), axis=-1)
    return np.vstack([pts, corners.reshape(-1, dim)])


def box_quadrature(lo, hi, nodes_per_dim: int = 129,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights for integration over a box.

    Tensor-product trapezoid up to dimension 2; quasi-Monte-Carlo with
    32768 equal weights above that. Returns (points (P, dim), weights
    (P,)) with sum(weights) equal to the box volume.
    """
    lo, hi = as_box(lo, hi)
    dim = lo.size
    if dim <= 2:
        axes, wts = [], []
        for d in range(dim):
            x = np.linspace(lo[d], hi[d], nodes_per_dim)
            axes.append(x)
            wts.append(trapezoid_weights(nodes_per_dim, x[1] - x[0]))
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        weight = wts[0]
        for w in wts[1:]:
            weight = np.multiply.outer(weight, w)
        return pts, weight.ravel()
    vol = float(np.prod(hi - lo))
    pts = halton_box(32_768, lo, hi, seed=seed)
    return pts, np.full(len(pts), vol / len(pts))
