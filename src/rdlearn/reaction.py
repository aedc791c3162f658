"""Reaction terms f: R^N -> R^N and physical-consistency condition checks.

Two families are provided. The analytic catalog carries classic models
(logistic growth, predator-prey, an activator-substrate system) with exact
Jacobians. The parameterized family is a fully connected tanh network with
an explicit flat parameter vector; value, Jacobian, and the reverse-mode
accumulation passes needed by the learning module are written out by hand
(no autodiff framework), including the second-order pass that
backpropagates a cotangent of the Jacobian itself to the parameters.

Condition checks are sampling-based and report falsifiable verdicts:

    (L) Lipschitz: max difference quotient over sampled pairs, plus a
        certified layer-norm product bound for the parameterized family,
    (Q) quasipositivity: f_n(u) >= 0 on sampled faces {u >= 0, u_n = 0},
        checked with no tolerance,
    (M) mass control: sum_n c_n f_n(u) <= K_0 + K_1 sum_n u_n on the
        nonnegative orthant,
    (G) growth: ||f(u)|| <= K (1 + ||u||^2).

A sampling verdict is "no violation found", never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rdlearn._sampling import as_batch, as_box, as_weights, ball_radius, halton_box, split


def _product(W, a):
    """W @ a for a points-last a (width, S).

    Where the contracted width is 1 this is the broadcast W * a: the same
    numbers, without numpy's slow matmul path for that shape.
    """
    return W * a if W.shape[1] == 1 else W @ a


def _times_product(out, W, a):
    """out *= W @ a in place, and returns out.

    Where the contracted width is 1 the product is applied as two
    broadcasts, so no (width, S) temporary is made.
    """
    if W.shape[1] == 1:
        out *= W
        out *= a
    else:
        out *= W @ a
    return out


def _tanh_slope(a):
    """1 - a^2, the slope of tanh where it takes the values a, as a new array."""
    sq = a * a
    return np.subtract(1.0, sq, out=sq)


class ReactionTerm:
    """Base type: species count, evaluation rule, optional Jacobian rule.

    `eval` and `jacobian` accept a point (N,) or a batch (S, N) (`as_batch`)
    and return matching shapes ((N,)/(S, N) and (N, N)/(S, N, N)).
    """

    n_species: int

    def eval(self, u):
        raise NotImplementedError

    def jacobian(self, u):
        """Central-difference fallback, step 1e-5 * (1 + |u_j|) per column."""
        ub, single = as_batch(u, self.n_species)
        steps = 1e-5 * (1.0 + np.abs(ub))
        cols = []
        for j in range(self.n_species):
            e = np.zeros_like(ub)
            e[:, j] = steps[:, j]
            cols.append((self.eval(ub + e) - self.eval(ub - e)) / (2.0 * steps[:, j:j + 1]))
        jac = np.stack(cols, axis=-1)
        return jac[0] if single else jac

    def value_and_jacobian(self, u):
        """(f(u), df/du(u)); a term whose two share one pass overrides it."""
        return self.eval(u), self.jacobian(u)

    def lipschitz_bound(self, lo=None, hi=None):
        """Certified Lipschitz bound if one is available, else None."""
        return None

    def sampled_lipschitz(self, lo, hi, samples: int = 10_000, seed: int = 0) -> float:
        """Max difference quotient over quasi-random point pairs in a box."""
        lo, hi = as_box(lo, hi, self.n_species)
        pts = halton_box(2 * samples, lo, hi, seed=seed)
        u, v = pts[:samples], pts[samples:]
        num = np.linalg.norm(self.eval(u) - self.eval(v), axis=1)
        den = np.linalg.norm(u - v, axis=1)
        keep = den > 1e-12
        return float(np.max(num[keep] / den[keep]))


class AnalyticReaction(ReactionTerm):
    """Catalog entry with closed-form value and Jacobian rules."""

    def __init__(self, name, n_species, fn, jac=None):
        self.name = name
        self.n_species = n_species
        self._fn = fn
        self._jac = jac

    def eval(self, u):
        ub, single = as_batch(u, self.n_species)
        out = self._fn(ub)
        return out[0] if single else out

    def jacobian(self, u):
        if self._jac is None:
            return super().jacobian(u)
        ub, single = as_batch(u, self.n_species)
        out = self._jac(ub)
        return out[0] if single else out

    def __repr__(self):
        return f"AnalyticReaction({self.name!r}, N={self.n_species})"


def _fisher_kpp():
    def fn(u):
        return u * (1.0 - u)

    def jac(u):
        return (1.0 - 2.0 * u)[:, :, None]

    return AnalyticReaction("fisher-kpp", 1, fn, jac)


def _lotka_volterra():
    def fn(u):
        u1, u2 = u[:, 0], u[:, 1]
        return np.stack([u1 * (1.0 - u2), u2 * (u1 - 1.0)]).T

    def jac(u):
        u1, u2 = u[:, 0], u[:, 1]
        out = np.empty((u.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 - u2
        out[:, 0, 1] = -u1
        out[:, 1, 0] = u2
        out[:, 1, 1] = u1 - 1.0
        return out

    return AnalyticReaction("lotka-volterra", 2, fn, jac)


def _gray_scott():
    feed, kill = 0.04, 0.06

    def fn(u):
        a, s = u[:, 0], u[:, 1]
        r = a * s * s
        return np.stack([-r + feed * (1.0 - a), r - (feed + kill) * s]).T

    def jac(u):
        a, s = u[:, 0], u[:, 1]
        out = np.empty((u.shape[0], 2, 2))
        out[:, 0, 0] = -s * s - feed
        out[:, 0, 1] = -2.0 * a * s
        out[:, 1, 0] = s * s
        out[:, 1, 1] = 2.0 * a * s - (feed + kill)
        return out

    return AnalyticReaction("gray-scott", 2, fn, jac)


_CATALOG = {
    "fisher-kpp": _fisher_kpp,
    "lotka-volterra": _lotka_volterra,
    "gray-scott": _gray_scott,
}


def make_reaction(name: str) -> ReactionTerm:
    """Catalog lookup by name: fisher-kpp | lotka-volterra | gray-scott."""
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown reaction {name!r}; catalog: {sorted(_CATALOG)}"
        ) from None
    return factory()


class MLPReaction(ReactionTerm):
    """Fully connected tanh network u -> f(u) with a flat parameter vector.

    Widths run input to output and both ends must equal the species count.
    The last layer is linear; hidden activations are tanh, so every
    instance is globally Lipschitz with certified constant
    prod_i ||W_i||_2 (tanh slope bound 1).

    Parameters
    ----------
    widths : sequence of int
        Layer widths, e.g. (N, 16, 16, N).
    theta : ndarray
        Flat parameter vector, weights then bias per layer.
    """

    def __init__(self, widths, theta):
        widths = tuple(int(w) for w in widths)
        if len(widths) < 2:
            raise ValueError("need at least an input and an output width")
        if widths[0] != widths[-1]:
            raise ValueError(
                f"reaction maps R^N to R^N; widths {widths} have mismatched ends"
            )
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        self.widths = widths
        self.n_species = widths[0]
        theta = np.ascontiguousarray(np.asarray(theta, dtype=float).ravel())
        if theta.size != self.parameter_count(widths):
            raise ValueError(
                f"theta has {theta.size} entries, architecture {widths} needs "
                f"{self.parameter_count(widths)}"
            )
        theta.flags.writeable = False
        self.theta = theta
        self._layers = self._unpack(theta)

    @staticmethod
    def parameter_count(widths) -> int:
        return sum((widths[i] + 1) * widths[i + 1] for i in range(len(widths) - 1))

    def _unpack(self, theta):
        """Views (W (n_out, n_in), b (n_out,)) of a parameter-sized vector, per layer."""
        views = split(theta, [s for n_in, n_out in zip(self.widths, self.widths[1:])
                              for s in ((n_out, n_in), (n_out,))])
        return list(zip(views[::2], views[1::2]))

    @classmethod
    def from_seed(cls, widths, seed, scale=1.0):
        """Random instance: weights ~ N(0, scale^2/fan_in), zero biases."""
        widths = tuple(int(w) for w in widths)
        rng = np.random.default_rng(seed)
        parts = []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            parts.append(rng.normal(0.0, scale / np.sqrt(n_in), size=n_in * n_out))
            parts.append(np.zeros(n_out))
        return cls(widths, np.concatenate(parts))

    def forward(self, U):
        """The forward pass over a batch (S, N), kept as a tape.

        Returns (z, acts): the output (S, N) and the input of every layer,
        which is what `vjp` replays instead of running the pass again. The
        tape is points-last: acts[i] is (width_i, S), so each bias add,
        tanh and product runs along the long batch axis.
        """
        a = U.T
        acts = [a]
        last = len(self._layers) - 1
        for i, (W, b) in enumerate(self._layers):
            z = _product(W, a)
            z += b[:, None]
            if i < last:
                a = np.tanh(z, out=z)
                acts.append(a)
        return z.T, acts

    def eval(self, u):
        ub, single = as_batch(u, self.n_species)
        out, _ = self.forward(ub)
        return out[0] if single else out

    def jacobian(self, u):
        return self.value_and_jacobian(u)[1]

    def value_and_jacobian(self, u):
        ub, single = as_batch(u, self.n_species)
        f, _, J = self._value_jac_state(ub)[:3]
        if single:
            return f[0], J[0]
        return f, J

    def _value_jac_state(self, U):
        """The forward pass, then df/du carried through its activations.

        Returns (f, acts, J, A_list, Z_list): f (S, N) and J (S, N, N) in
        the batch layout, and the points-last tape that `jac_vjp` replays:
        acts as in `forward`, A_list[i] = da_i/du and Z_list[i] =
        dz_{i+1}/du, each (width, N, S). A_list[0], the identity, and
        Z_list[0] = W_0 are read-only broadcasts along the points.
        """
        S, N = U.shape
        f, acts = self.forward(U)
        A_list = [np.broadcast_to(np.eye(N)[:, :, None], (N, N, S))]
        Z_list = []
        for i, (W, _) in enumerate(self._layers):
            if i == 0:
                Z = np.broadcast_to(W[:, :, None], (W.shape[0], N, S))  # W @ I
            else:
                Z = _product(W, A_list[i].reshape(W.shape[1], -1)).reshape(W.shape[0], N, S)
            Z_list.append(Z)
            if i + 1 < len(self._layers):
                A_list.append(_tanh_slope(acts[i + 1])[:, None, :] * Z)
        J = np.ascontiguousarray(np.moveaxis(Z_list[-1], -1, 0))
        return f, acts, J, A_list, Z_list

    def vjp(self, cotangent, tape):
        """Reverse pass for the value: returns (theta_grad, u_grad).

        theta_grad is d<cotangent, f(u)>/dtheta (flat), u_grad the same
        quantity differentiated in u, where `tape` is the result of
        `forward` on the batch u, which this pass replays. The cotangent
        and u_grad are (S, N); inside, the cotangent runs back
        points-last, (width, S), like the tape.
        """
        _, acts = tape
        theta_grad = np.zeros(self.theta.size)
        grads = self._unpack(theta_grad)
        delta = cotangent.T
        for i in reversed(range(len(self._layers))):
            (W, _), (gW, gb) = self._layers[i], grads[i]
            gW[...] = delta @ acts[i].T
            gb[...] = delta.sum(axis=1)
            if i > 0:
                delta = _times_product(_tanh_slope(acts[i]), W.T, delta)
            else:
                delta = _product(W.T, delta)
        return theta_grad, delta.T

    def jac_vjp(self, cot_jac, cot_val, state):
        """Reverse pass through value and Jacobian simultaneously.

        Computes d(<cot_jac, df/du(u)> + <cot_val, f(u)>)/dtheta. This is
        the second-order pass behind the gradient of sup-norm terms on the
        wrapped Jacobian: the Jacobian forward recursion
        A_{i+1} = (1 - a_{i+1}^2) * (W_i A_i) is itself differentiated in
        reverse, which costs one extra product chain per layer. `state` is
        the result of `_value_jac_state` on a batch u (S, N), which this
        pass replays; cot_jac is (S, N, N) and cot_val (S, N).
        """
        S, N = cot_val.shape
        z_hat = cot_val.T
        _, acts, _, A_list, Z_list = state
        theta_grad = np.zeros(self.theta.size)
        grads = self._unpack(theta_grad)
        Z_hat = np.moveaxis(cot_jac, 0, -1)
        for i in reversed(range(len(self._layers))):
            (W, _), (gW, gb) = self._layers[i], grads[i]
            n_out, n_in = W.shape
            Z_flat = Z_hat.reshape(n_out, -1)
            gW[...] = z_hat @ acts[i].T + Z_flat @ A_list[i].reshape(n_in, -1).T
            gb[...] = z_hat.sum(axis=1)
            if i > 0:
                a_hat = _product(W.T, z_hat)
                A_hat = _product(W.T, Z_flat).reshape(n_in, N, S)
                a_i = acts[i]
                s = _tanh_slope(a_i)
                z_hat = a_hat * s + np.sum(A_hat * Z_list[i - 1], axis=1) * (-2.0 * a_i * s)
                Z_hat = s[:, None, :] * A_hat
        return theta_grad

    def lipschitz_bound(self, lo=None, hi=None) -> float:
        """Certified global bound: product of layer spectral norms."""
        out = 1.0
        for W, _ in self._layers:
            out *= np.linalg.norm(W, 2)
        return float(out)

    def __repr__(self):
        return f"MLPReaction(widths={self.widths}, params={self.theta.size})"


def save_params(path, mlp: MLPReaction, *, level: int, seed: int, eps: float):
    """Write an MLPReaction to a flat-list text file with an 8-line header.

    The header carries the run's metadata, the level m, the seed and the
    cutoff's eps, which `load_params` returns beside the network.
    """
    lines = [
        "# reaction parameter file",
        f"# species: {mlp.n_species}",
        f"# widths: {','.join(str(w) for w in mlp.widths)}",
        f"# level: {level}",
        f"# seed: {seed}",
        f"# eps: {eps:.17g}",
        f"# count: {mlp.theta.size}",
        "# values: float64 text, one per line",
    ]
    body = "\n".join(f"{v:.17g}" for v in mlp.theta)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n" + body + "\n")


def load_params(path):
    """Read a parameter file, returning (MLPReaction, metadata dict)."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    header = raw[:8]
    if len(header) < 8 or any(not h.startswith("#") for h in header):
        raise ValueError(f"{path}: expected an 8-line '#' header")
    meta = {}
    for line in header[1:7]:
        key, _, val = line.lstrip("# ").partition(":")
        meta[key.strip()] = val.strip()
    missing = [k for k in ("species", "widths", "level", "seed", "eps", "count") if k not in meta]
    if missing:
        raise ValueError(f"{path}: header has no {missing[0]!r} line")
    widths = tuple(int(w) for w in meta["widths"].split(","))
    theta = np.array([float(v) for v in raw[8:] if v.strip()], dtype=float)
    if theta.size != int(meta["count"]):
        raise ValueError(
            f"{path}: header promises {meta['count']} values, found {theta.size}"
        )
    return MLPReaction(widths, theta), {
        "level": int(meta["level"]), "seed": int(meta["seed"]),
        "eps": float(meta["eps"]), "species": int(meta["species"])}


@dataclass(frozen=True)
class ConsistencyConstants:
    """Derived mass-control and growth constants of a reaction term."""

    K0: float
    K1: float | None
    growth_K: float | None
    lipschitz: float | None
    label: str  # "certified" | "sampled" | "unavailable"


def mass_growth_constants(f0: np.ndarray, L: float | None, label: str,
                          c: np.ndarray) -> ConsistencyConstants:
    """Mass control K0 = sum_n c_n P_+(f_n(0)), K1 = L sqrt(N) sum_n c_n and
    growth K = 4 max(L, max_n |f_n(0)|), for f(0) = f0 and a Lipschitz
    bound L of the kind `label`; K1, K need L."""
    K0 = float(np.sum(c * np.maximum(f0, 0.0)))
    if L is None:
        return ConsistencyConstants(K0, None, None, None, label)
    K1 = float(L * np.sqrt(f0.size) * np.sum(c))
    K = float(4.0 * max(L, np.max(np.abs(f0))))
    return ConsistencyConstants(K0, K1, K, L, label)


@dataclass
class ConditionReport:
    """Sampling-based verdicts for the four consistency conditions.

    A check the box gives no points to is skipped, and its verdict is None:
    (Q) when the box reaches no face {u >= 0, u_n = 0}, (M) when it misses
    the nonnegative orthant. The certified Lipschitz bound, when there is
    one, is `constants.lipschitz` under the label "certified".
    """

    samples: int
    ball_radius: float
    lipschitz_estimate: float
    quasipos_violations: list | None  # None when the box reaches no face
    mass_margin: float | None  # None when the box misses the nonnegative orthant
    growth_worst_ratio: float
    constants: ConsistencyConstants

    @property
    def quasipos_ok(self) -> bool | None:
        if self.quasipos_violations is None:
            return None
        return not self.quasipos_violations

    @property
    def mass_ok(self) -> bool | None:
        if self.mass_margin is None:
            return None
        return self.mass_margin <= 0.0

    @property
    def growth_ok(self) -> bool:
        return self.growth_worst_ratio <= self.constants.growth_K

    def summary(self) -> str:
        k = self.constants
        violations = self.quasipos_violations
        if violations is None:
            quasipos = "skipped (the box reaches no face u_n = 0 of the nonnegative orthant)"
        elif violations:
            quasipos = (f"{len(violations)} violations, "
                        f"worst {min(v[2] for v in violations):.6g}")
        else:
            quasipos = "no violation found"
        lines = [
            f"samples per check: {self.samples}",
            f"(L) Lipschitz estimate on ball radius {self.ball_radius:.6g}: "
            f"{self.lipschitz_estimate:.6g}"
            + (f" (certified bound {k.lipschitz:.6g})" if k.label == "certified" else ""),
            f"(Q) quasipositivity: {quasipos}",
        ]
        if self.mass_margin is None:
            lines.append("(M) mass control: skipped (the box misses the nonnegative orthant)")
        else:
            lines.append(
                f"(M) mass control [{k.label}]: K0={k.K0:.6g}, "
                f"K1={k.K1:.6g}, worst margin {self.mass_margin:.6g} "
                + ("(holds)" if self.mass_ok else "(VIOLATED)")
            )
        lines.append(
            f"(G) growth [{k.label}]: K={k.growth_K:.6g}, "
            f"worst ratio {self.growth_worst_ratio:.6g} "
            + ("(holds)" if self.growth_ok else "(VIOLATED)")
        )
        return "\n".join(lines)


def check_conditions(f: ReactionTerm, lo, hi, samples: int = 10_000,
                     c=None, seed: int = 0) -> ConditionReport:
    """Sample-based check of (L), (Q), (M), (G) on an axis-aligned box.

    (Q) is evaluated on the faces {u in box, u >= 0, u_n = 0} that the box
    actually reaches (components with lo_n <= 0), with no tolerance, and
    (M) on the part of the box in the nonnegative orthant; each is skipped
    where the box gives it no points. (M) and (G) margins use the derived
    constants: certified when the term carries a certified Lipschitz
    bound, sampled otherwise.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    N = f.n_species
    lo, hi = as_box(lo, hi, N)
    c = as_weights(c, N)

    L_est = f.sampled_lipschitz(lo, hi, samples=samples, seed=seed)
    L_cert = f.lipschitz_bound(lo, hi)

    constants = mass_growth_constants(
        f.eval(np.zeros(N)), L_cert if L_cert is not None else L_est,
        "certified" if L_cert is not None else "sampled", c)

    # (Q) on the boundary faces of the nonnegative orthant that the box reaches
    orth_lo, orth_hi = np.maximum(lo, 0.0), hi
    orthant_ok = bool(np.all(orth_lo < orth_hi))
    faces = [n for n in range(N) if lo[n] <= 0.0] if orthant_ok else []
    violations = [] if faces else None
    for n in faces:
        pts = halton_box(samples, orth_lo, orth_hi, seed=seed + 1000 + n)
        pts[:, n] = 0.0
        vals = f.eval(pts)[:, n]
        bad = np.flatnonzero(vals < 0.0)
        violations.extend(
            (tuple(pts[i]), n, float(vals[i])) for i in bad[:100]
        )

    # (M) on the orthant part of the box
    mass_margin = None
    if orthant_ok:
        pts = halton_box(samples, orth_lo, orth_hi, seed=seed + 1)
        fu = f.eval(pts)
        margin = fu @ c - (constants.K0 + constants.K1 * pts.sum(axis=1))
        mass_margin = float(np.max(margin))

    # (G) on the whole box
    pts = halton_box(samples, lo, hi, seed=seed + 2)
    fu = f.eval(pts)
    ratio = np.linalg.norm(fu, axis=1) / (1.0 + np.sum(pts * pts, axis=1))
    worst_ratio = float(np.max(ratio))

    return ConditionReport(
        samples=samples,
        ball_radius=ball_radius(lo, hi),
        lipschitz_estimate=L_est,
        quasipos_violations=violations,
        mass_margin=mass_margin,
        growth_worst_ratio=worst_ratio,
        constants=constants,
    )
