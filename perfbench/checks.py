"""Output checks that run after each round, outside the timed region.

Each check returns a list of failure messages; an empty list is a pass.
The reference pieces here are written apart from rdlearn: the cutoff comes
from this file's own quadrature of the bump kernel, the network forward
pass is plain numpy over a parameter file parsed here, and masses are this
file's own trapezoid sums. Nothing is compared against a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

# ---------------------------------------------------------------------------
# reference computations


def _gauss_panels(panels: int = 64, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    s, w = np.polynomial.legendre.leggauss(order)
    left = np.arange(panels) / panels
    nodes = (left[:, None] + (s[None, :] + 1.0) / (2.0 * panels)).ravel()
    weights = np.tile(w / (2.0 * panels), panels)
    return nodes, weights


_NODES, _WEIGHTS = _gauss_panels()


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(under="ignore"):
        out[inside] = np.exp(1.0 / (t[inside] ** 2 - 1.0))
    return out


def bump_cdf(z) -> np.ndarray:
    """E(z) = int_{-1}^{z} eta, the normalized bump's antiderivative."""
    z = np.asarray(z, dtype=float)
    flat = np.where(z >= 1.0, 1.0, 0.0).ravel()
    zf = z.ravel()
    ramp = np.flatnonzero((zf > -1.0) & (zf < 1.0))
    total = 2.0 * (_bump(-1.0 + 2.0 * _NODES) @ _WEIGHTS)
    # 64 points per block keep each (points, quadrature nodes) array at
    # 0.5 MB, so the check stays below the program's own peak RSS
    for start in range(0, ramp.size, 64):
        idx = ramp[start:start + 64]
        span = zf[idx] + 1.0
        flat[idx] = span * (_bump(-1.0 + span[:, None] * _NODES) @ _WEIGHTS) / total
    return flat.reshape(z.shape)


def cutoff(x, eps: float, delta: float | None = None) -> np.ndarray:
    """The mollified heaviside: 1 below eps - delta, 0 above eps + delta."""
    delta = eps / 2.0 if delta is None else delta
    return 1.0 - bump_cdf((np.asarray(x, dtype=float) - eps) / delta)


def read_params(path: str) -> tuple[tuple[int, ...], float, np.ndarray]:
    """(widths, eps, flat parameters) from a parameter file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    for line in lines[:8]:
        key, _, value = line.lstrip("# ").partition(":")
        header[key.strip()] = value.strip()
    widths = tuple(int(w) for w in header["widths"].split(","))
    theta = np.array([float(v) for v in lines[8:] if v.strip()])
    return widths, float(header["eps"]), theta


def mlp_forward(widths, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tanh network, weights then biases per layer, last layer linear."""
    a = np.asarray(u, dtype=float)
    off = 0
    layers = list(zip(widths[:-1], widths[1:]))
    for i, (n_in, n_out) in enumerate(layers):
        W = theta[off:off + n_in * n_out].reshape(n_out, n_in)
        off += n_in * n_out
        b = theta[off:off + n_out]
        off += n_out
        z = np.einsum("oi,si->so", W, a) + b
        a = np.tanh(z) if i < len(layers) - 1 else z
    return a


def wrapped_forward(widths, theta, u, eps: float, delta: float | None = None) -> np.ndarray:
    """f - P_-(f) chi(u_n) per component, with this file's cutoff."""
    f = mlp_forward(widths, theta, u)
    return f - np.minimum(f, 0.0) * cutoff(u, eps, delta)


def trapezoid_weights(extent: float, nodes: int) -> np.ndarray:
    w = np.full(nodes, extent / (nodes - 1))
    w[[0, -1]] *= 0.5
    return w


# ---------------------------------------------------------------------------
# file checks


def manifest_failures(directory: str) -> list[str]:
    """Every file is listed in manifest.txt, with a matching sha256."""
    path = os.path.join(directory, "manifest.txt")
    if not os.path.exists(path):
        return [f"{directory}: no manifest.txt"]
    listed = {}
    with open(path) as fh:
        for line in fh:
            digest, _, name = line.rstrip("\n").partition("  ")
            listed[name] = digest
    failures = []
    present = {n for n in os.listdir(directory) if n != "manifest.txt"}
    if present != set(listed):
        failures.append(f"{directory}: manifest lists {sorted(listed)}, found {sorted(present)}")
    for name in sorted(present & set(listed)):
        digest = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        if digest.hexdigest() != listed[name]:
            failures.append(f"{directory}/{name}: sha256 does not match the manifest")
    return failures


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# learn-sweep


def learn_failures(directory: str, gamma: float, box: tuple[float, float],
                   levels, error_nodes: int = 481) -> list[str]:
    """results.csv and params files of one `rdlearn learn` run.

    Recomputes each level's sup error against u(1-u) from the saved
    parameters, checks each objective against its residual plus misfit,
    and checks each parameter file's eps against m^(-gamma).
    """
    failures = []
    header, rows = read_csv(os.path.join(directory, "results.csv"))
    col = {name: i for i, name in enumerate(header)}
    if [int(r[col["m"]]) for r in rows] != list(levels):
        return [f"results.csv levels {[r[0] for r in rows]}, expected {list(levels)}"]
    probe = np.linspace(box[0], box[1], error_nodes)[:, None]
    truth = probe * (1.0 - probe)
    for r in rows:
        m = int(r[col["m"]])
        objective = float(r[col["objective"]])
        parts = float(r[col["residual_term"]]) + float(r[col["misfit_term"]])
        if not objective >= parts * (1.0 - 1e-12):
            failures.append(f"level {m}: objective {objective!r} below residual + misfit {parts!r}")
        widths, eps, theta = read_params(os.path.join(directory, f"params_m{m}.txt"))
        if abs(eps - m ** -gamma) > 1e-15:
            failures.append(f"level {m}: params eps {eps!r}, schedule gives {m ** -gamma!r}")
        sup = float(np.max(np.abs(wrapped_forward(widths, theta, probe, m ** -gamma) - truth)))
        reported = float(r[col["sup_error_f"]])
        if not abs(sup - reported) <= 1e-9:
            failures.append(f"level {m}: sup error {reported!r} in results.csv, recomputed {sup!r}")
    return failures


def zero_face_failures(wrapped_at_zero: np.ndarray, base_at_zero: np.ndarray) -> list[str]:
    """The wrapped term at u = 0 is the positive part of the base, bitwise."""
    expected = np.maximum(base_at_zero, 0.0)
    if np.asarray(wrapped_at_zero).tobytes() != expected.tobytes():
        return [f"wrapped term at 0 is {wrapped_at_zero!r}, positive part of base is {expected!r}"]
    return []


def gradient_failures(objective, gradient, x: np.ndarray, seed: int,
                      directions: int = 3, h: float = 1e-6, rtol: float = 1e-5) -> list[str]:
    """Directional derivatives of the gradient against central differences."""
    rng = np.random.default_rng(seed)
    g = gradient(x)
    scale = abs(objective(x))
    failures = []
    for i in range(directions):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        fd = (objective(x + h * v) - objective(x - h * v)) / (2.0 * h)
        an = float(g @ v)
        if not abs(fd - an) <= rtol * max(abs(fd), abs(an), 1e-8 * scale):
            failures.append(f"direction {i}: gradient gives {an!r}, central difference {fd!r}")
    return failures


# ---------------------------------------------------------------------------
# forward-audit


def forward_failures(values: np.ndarray, species_mass: np.ndarray, fbar_flat,
                     dt: float, extent: float) -> list[str]:
    """Nonnegativity and the discrete mass balance of a 1D trajectory.

    values has shape (species, steps + 1, nodes); fbar_flat evaluates the
    wrapped term on (points, species). With trapezoid weights w the scheme
    must satisfy w.u[k+1] - w.u[k] = dt w.fbar(u[k]) up to rounding.
    """
    failures = []
    low = float(values.min())
    if not low >= 0.0:
        failures.append(f"state minimum {low!r} is negative")
    n, steps1, nodes = values.shape
    w = trapezoid_weights(extent, nodes)
    mass = values @ w
    if not np.allclose(mass, species_mass, rtol=0.0, atol=1e-13):
        failures.append(f"species_mass differs from trapezoid sums by "
                        f"{float(np.max(np.abs(mass - species_mass))):.3e}")
    source = np.empty((n, steps1 - 1))
    chunk = 64  # time steps per evaluation, so the check's memory stays small
    for k in range(0, steps1 - 1, chunk):
        block = values[:, k:min(k + chunk, steps1 - 1)]
        flat = block.reshape(n, -1).T
        source[:, k:k + block.shape[1]] = fbar_flat(flat).T.reshape(block.shape) @ w
    gap = float(np.max(np.abs(np.diff(species_mass, axis=1) - dt * source)))
    if not gap <= 1e-13:
        failures.append(f"mass balance off by {gap:.3e}")
    return failures


def network_failures(base_eval, widths, theta, points: np.ndarray) -> list[str]:
    ours = mlp_forward(widths, theta, points)
    gap = float(np.max(np.abs(base_eval(points) - ours)))
    if not gap <= 1e-12 * max(1.0, float(np.max(np.abs(ours)))):
        return [f"network values differ from an independent forward pass by {gap:.3e}"]
    return []


# ---------------------------------------------------------------------------
# simulate-2d


def read_trajectory_slices(path: str, nodes: tuple[int, int], keep) -> tuple[dict, int]:
    """Rows of the sampled time indices as arrays (columns, nx, ny).

    Streams the file into arrays made up front, so memory stays at the
    size of the kept slices. Returns ({k: array}, total data rows).
    """
    per_step = nodes[0] * nodes[1]
    count = 0
    with open(path) as fh:
        columns = len(fh.readline().split(","))
        slices = {k: np.empty((per_step, columns)) for k in keep}
        for line in fh:
            k, row = divmod(count, per_step)
            if k in slices:
                slices[k][row] = [float(v) for v in line.split(",")]
            count += 1
    complete = count // per_step
    return {k: a.T.reshape(-1, *nodes) for k, a in slices.items() if k < complete}, count


def simulate_failures(directory: str, extent: tuple[float, float], nodes: tuple[int, int],
                      steps: int, horizon: float, weights, keep, reference) -> list[str]:
    """trajectory.csv and diagnostics.csv of one 2D `rdlearn simulate` run.

    `reference` holds the states (species, len(keep), nx, ny) at the
    sorted time indices `keep` from an in-process solve of the same
    problem; the sampled slices must equal it exactly, and diagnostics masses must equal trapezoid sums over them.
    """
    failures = []
    header, diag = read_csv(os.path.join(directory, "diagnostics.csv"))
    if header != ["t", "min_u", "mass_weighted"] or len(diag) != steps + 1:
        return [f"diagnostics.csv has header {header} and {len(diag)} rows"]
    min_u = np.array([float(r[1]) for r in diag])
    mass = np.array([float(r[2]) for r in diag])
    if not np.all(min_u >= 0.0):
        failures.append(f"diagnostics min_u reaches {float(min_u.min())!r}")
    slices, count = read_trajectory_slices(os.path.join(directory, "trajectory.csv"), nodes, keep)
    if count != (steps + 1) * nodes[0] * nodes[1]:
        failures.append(f"trajectory.csv has {count} rows, expected {(steps + 1) * nodes[0] * nodes[1]}")
    w = np.multiply.outer(trapezoid_weights(extent[0], nodes[0]),
                          trapezoid_weights(extent[1], nodes[1]))
    x = np.linspace(0.0, extent[0], nodes[0])
    y = np.linspace(0.0, extent[1], nodes[1])
    times = np.linspace(0.0, horizon, steps + 1)
    c = np.asarray(weights, dtype=float)
    for j, k in enumerate(sorted(keep)):
        if k not in slices:
            failures.append(f"time index {k} missing from trajectory.csv")
            continue
        cols = slices[k]
        u = cols[3:]
        if not (np.all(cols[0] == times[k]) and np.all(cols[1] == x[:, None])
                and np.all(cols[2] == y[None, :])):
            failures.append(f"time index {k}: t, x or y columns off the grid")
        if not np.array_equal(u, reference[:, j]):
            failures.append(f"time index {k}: states differ from an in-process solve "
                            f"by up to {float(np.max(np.abs(u - reference[:, j]))):.3e}")
        ours = float(np.sum(c * np.einsum("nij,ij->n", u, w)))
        if not math.isclose(ours, mass[k], rel_tol=1e-12, abs_tol=1e-15):
            failures.append(f"time index {k}: mass {mass[k]!r}, trapezoid sum {ours!r}")
        if u.min() != min_u[k]:
            failures.append(f"time index {k}: min_u {min_u[k]!r}, slice minimum {float(u.min())!r}")
    return failures
