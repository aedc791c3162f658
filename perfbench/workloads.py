"""The three workloads: inputs from the seed, the timed calls, the checks.

Each workload splits into
  prepare()             the repeatable part of set-up (configs written, parsed);
  items                 the inputs one round visits, in order;
  run(item, out)        the timed calls into rdlearn's public functions;
  check(k, item, ...)   checks of one item's outputs in round k, outside the
                        timed region, as (operation index, message) pairs.

Every round of a run visits the same items. Where the cost of an input
depends on the input (a learning seed's backtracking, a network's time
in the cutoff ramp), the items are a fixed pool drawn from POOL_SEED, so
every run's median covers the same mix; `--seed` sets the order of the
visits.

rdlearn functions are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import checks
import rdlearn.cli
from rdlearn import consistency, learn, rdsolve, reaction, transition


POOL_SEED = 0


def derived_seed(seed: int, *keys: int) -> int:
    return int(np.random.default_rng([seed, *keys]).integers(2 ** 31))


def visit_order(seed: int, size: int) -> list[int]:
    return [int(i) for i in np.random.default_rng([seed, 1]).permutation(size)]


def _quiet_cli(argv: list[str]) -> int:
    """rdlearn's CLI in process, its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return rdlearn.cli.main(argv)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


class LearnSweep:
    """`rdlearn learn` on the shipped learn-toy.cfg with a lower iteration cap.

    A round runs one sweep per learning seed of a fixed pool. Every round
    repeats the pool, so each learning seed's manifest must come out
    byte-identical in every round.
    """

    name = "learn-sweep"
    pool_size = 2
    ops_per_item = 1

    def __init__(self, root: str, workdir: str, seed: int, tiny: bool = False):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.max_iters = 2 if tiny else 50
        self.grid_override = {"nodes": "13", "steps": "12"} if tiny else {}
        pool = [derived_seed(POOL_SEED, i) for i in range(self.pool_size)]
        self.items = [pool[i] for i in visit_order(seed, self.pool_size)]
        self.quality_seed = pool[0]
        self.manifests: dict[int, tuple[str, bytes]] = {}
        self.quality: dict[str, float] = {}

    def prepare(self) -> None:
        shipped = os.path.join(self.root, "src", "rdlearn", "configs", "learn-toy.cfg")
        with open(shipped) as fh:
            cfg = rdlearn.cli.ExperimentConfig.parse(fh.read())
        cfg.sections["optimizer"]["max_iters"] = str(self.max_iters)
        cfg.sections["grid"].update(self.grid_override)
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "learn.cfg")
        _write(self.config_path, cfg.serialize())
        self.cfg = rdlearn.cli.ExperimentConfig.load(self.config_path)

    def run(self, cli_seed: int, out: str) -> int:
        return _quiet_cli(["learn", "--config", self.config_path, "--out", out,
                           "--seed", str(cli_seed)])

    def check(self, k: int, cli_seed: int, status: int, out: str) -> list[tuple[int, str]]:
        if status != 0:
            return [(0, f"rdlearn learn exited with {status}")]
        cfg = self.cfg
        gamma = cfg.getfloat("schedule", "gamma")
        box = tuple(cfg.getfloats("reaction", "box"))
        levels = [int(v) for v in cfg.require("schedule", "levels").split(",")]
        found = checks.manifest_failures(out)
        found += checks.learn_failures(out, gamma, box, levels)
        zero = np.zeros(1)
        for m in levels:
            mlp, meta = reaction.load_params(os.path.join(out, f"params_m{m}.txt"))
            wrapped = consistency.wrap(mlp, transition.build_mollified_heaviside(meta["eps"]))
            found += checks.zero_face_failures(wrapped.eval(zero), mlp.eval(zero))
        with open(os.path.join(out, "manifest.txt"), "rb") as fh:
            manifest = fh.read()
        if cli_seed in self.manifests:
            first_dir, first = self.manifests[cli_seed]
            if manifest != first:
                found.append(f"rounds with learning seed {cli_seed} wrote different "
                             f"manifests ({first_dir}, {out})")
        else:
            self.manifests[cli_seed] = (out, manifest)
        if k == 0 and cli_seed == self.quality_seed:
            header, rows = checks.read_csv(os.path.join(out, "results.csv"))
            col = {n: i for i, n in enumerate(header)}
            self.quality = {
                "sup_errors": [float(r[col["sup_error_f"]]) for r in rows],
                "d_error_final": float(rows[-1][col["D_error"]]),
            }
            found += self.gradient_check(cli_seed)
        return [(0, msg) for msg in found]

    def gradient_check(self, cli_seed: int) -> list[str]:
        """The last level's problem, gradient against central differences."""
        cfg = self.cfg
        grid = rdsolve.SpaceTimeGrid(cfg.getfloat("domain", "extent"),
                                     cfg.getint("grid", "nodes"),
                                     cfg.getfloat("grid", "horizon"),
                                     cfg.getint("grid", "steps"))
        x = grid.axis(0) / grid.extents[0]
        # the shipped config's initials: ramp:0.1,1.1; constant:0.05; constant:1.3
        u0s = [0.1 + 1.1 * x, np.full_like(x, 0.05), np.full_like(x, 1.3)]
        truth = reaction.make_reaction("fisher-kpp")
        D = rdsolve.DiffusionSpec.uniform(cfg.getfloat("reaction", "diffusion"), 1)
        sched = learn.make_schedule(
            cfg.getfloat("schedule", "alpha"), cfg.getfloat("schedule", "beta"),
            cfg.getfloat("schedule", "gamma"), levels=(1, 2, 3),
            lam0=cfg.getfloat("schedule", "lam0"), mu0=cfg.getfloat("schedule", "mu0"))[-1]
        op = learn.MeasurementOperator("subsample", stride=1)
        data = np.stack([
            learn.generate_measurements(rdsolve.solve(truth, D, u0[None], grid), op,
                                        sched.delta, seed=cli_seed + i)
            for i, u0 in enumerate(u0s)])
        box = cfg.getfloats("reaction", "box")
        prob = learn.AllAtOnceProblem(grid, (1, 16, 1),
                                      transition.build_mollified_heaviside(sched.eps),
                                      sched, op, data, box_lo=[box[0]], box_hi=[box[1]],
                                      sup_points=cfg.getint("optimizer", "sup_points"))
        return checks.gradient_failures(prob.objective, prob.gradient,
                                        prob.initial_iterate(cli_seed), cli_seed)

    def summary(self) -> str:
        if not self.quality:
            return "no quality numbers"
        sups = " ".join(f"{s:.4f}" for s in self.quality["sup_errors"])
        return f"sup errors by level {sups}, final D error {self.quality['d_error_final']:.4f}"


@dataclass(frozen=True)
class AuditInput:
    index: int  # in the pool
    theta: np.ndarray
    profiles: tuple  # (base, amplitude, modes) per species


class ForwardAudit:
    """Random wrapped (2,16,2) networks: solve, mass tolerance, mass audit.

    Criterion 6's traffic through the library. A round runs all three
    operations on every network of a fixed pool.
    """

    name = "forward-audit"
    pool_size = 3
    ops_per_item = 3  # solve, estimate_mass_tolerance, mass_audit
    widths = (2, 16, 2)

    def __init__(self, root: str, workdir: str, seed: int, tiny: bool = False):
        self.workdir, self.seed = workdir, seed
        self.grid_args = (1.0, 20, 0.2, 100) if tiny else (1.0, 200, 1.0, 2000)
        self.items = [self.draw(i) for i in visit_order(seed, self.pool_size)]
        self.quality: dict[str, float] = {}

    def draw(self, index: int) -> AuditInput:
        rng = np.random.default_rng([POOL_SEED, index])
        parts = []
        for n_in, n_out in zip(self.widths[:-1], self.widths[1:]):
            parts.append(rng.normal(0.0, 1.0 / math.sqrt(n_in), size=n_in * n_out))
            parts.append(np.zeros(n_out))
        profiles = []
        for _ in range(2):
            base = rng.uniform(0.3, 0.8)
            profiles.append((base, base * rng.uniform(0.2, 0.8), int(rng.integers(1, 4))))
        return AuditInput(index, np.concatenate(parts), tuple(profiles))

    def prepare(self) -> None:
        self.chi = transition.build_mollified_heaviside(0.25)
        self.grid = rdsolve.SpaceTimeGrid(*self.grid_args)
        self.D = rdsolve.DiffusionSpec.uniform(0.1, 2)

    @staticmethod
    def initial_state(grid, profiles) -> np.ndarray:
        x = grid.axis(0)
        return np.array([a + b * np.cos(k * np.pi * x / grid.extents[0])
                         for a, b, k in profiles])

    def run(self, inp: AuditInput, out: str):
        mlp = reaction.MLPReaction(self.widths, inp.theta)
        wrapped = consistency.wrap(mlp, self.chi)
        cc = wrapped.consistency_constants()

        def builder(g):
            return self.initial_state(g, inp.profiles)

        traj = rdsolve.solve(wrapped, self.D, builder(self.grid), self.grid)
        tol = rdsolve.estimate_mass_tolerance(wrapped, self.D, builder, self.grid,
                                              K0=cc.K0, K1=cc.K1)
        audit = rdsolve.mass_audit(traj, K0=cc.K0, K1=cc.K1, tol=tol)
        return mlp, wrapped, traj, tol, audit

    def check(self, k: int, inp: AuditInput, result, out: str) -> list[tuple[int, str]]:
        mlp, wrapped, traj, tol, audit = result
        grid = self.grid
        found = [(0, m) for m in checks.forward_failures(traj.values, traj.species_mass,
                                                         wrapped.eval, grid.dt, grid.extents[0])]
        visited = traj.values[:, ::max(grid.steps // 20, 1)].reshape(2, -1).T
        found += [(0, m) for m in checks.network_failures(mlp.eval, self.widths,
                                                          inp.theta, visited)]
        ours = checks.wrapped_forward(self.widths, inp.theta, visited, self.chi.eps, self.chi.delta)
        gap = float(np.max(np.abs(wrapped.eval(visited) - ours)))
        if not gap <= 1e-9:
            found.append((0, f"wrapped values differ from the reference wrapper by {gap:.3e}"))
        if not (math.isfinite(tol) and tol >= 1e-10):
            found.append((1, f"mass tolerance {tol!r} is not a finite value >= the floor"))
        if not audit.passed:
            found.append((2, f"mass audit failed: worst margin {audit.worst!r} > tol {tol!r}"))
        if k == 0 and inp.index == 0:
            self.quality = {"min_state": traj.min_value, "worst_margin": audit.worst, "tol": tol}
        return [(op, f"network {inp.index}: {msg}") for op, msg in found]

    def summary(self) -> str:
        if not self.quality:
            return "no quality numbers"
        q = self.quality
        return (f"network 0: state minimum {q['min_state']:.4f}, worst mass margin "
                f"{q['worst_margin']:.3e} within tolerance {q['tol']:.3e}")


class Simulate2D:
    """`rdlearn simulate` on a 2D wrapped Gray-Scott config from the seed.

    Every round simulates the same config, written and parsed at set-up.
    """

    name = "simulate-2d"
    items = (None,)
    ops_per_item = 1
    eps = 0.2
    diffusion = (0.002, 0.001)
    weights = (1.0, 0.5)

    def __init__(self, root: str, workdir: str, seed: int, tiny: bool = False):
        self.workdir, self.seed = workdir, seed
        self.nodes, self.steps, self.horizon = ((8, 8), 6, 0.06) if tiny else ((64, 64), 80, 0.8)
        rng = np.random.default_rng([seed, 2])
        a = rng.uniform(0.5, 0.9)
        s = rng.uniform(0.1, 0.3)
        self.profiles = ((a, a * rng.uniform(0.1, 0.4), float(rng.integers(1, 4))),
                         (s, s * rng.uniform(0.2, 0.9), float(rng.integers(1, 4))))
        inner = rng.choice(np.arange(1, self.steps), size=min(3, self.steps - 1), replace=False)
        self.keep = sorted({0, self.steps, *(int(k) for k in inner)})
        self.reference = None
        self.quality: dict[str, float] = {}

    def config_text(self) -> str:
        initial = "|".join(f"cosine:{b!r},{a!r},{k!r}" for b, a, k in self.profiles)
        return "\n".join([
            "[domain]", "extent = 1.0,1.0", "species = 2", f"initial = {initial}", "",
            "[grid]", f"nodes = {self.nodes[0]},{self.nodes[1]}",
            f"horizon = {self.horizon!r}", f"steps = {self.steps}", "",
            "[reaction]", "name = gray-scott",
            f"diffusion = {self.diffusion[0]!r},{self.diffusion[1]!r}",
            f"weights = {self.weights[0]!r},{self.weights[1]!r}", "",
            "[wrapper]", f"eps = {self.eps!r}", ""])

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "gray-scott-2d.cfg")
        _write(self.config_path, self.config_text())
        rdlearn.cli.ExperimentConfig.load(self.config_path)

    def run(self, item, out: str) -> int:
        return _quiet_cli(["simulate", "--config", self.config_path, "--out", out,
                           "--seed", str(self.seed)])

    def reference_trajectory(self):
        """The same problem through rdlearn.solve, in process."""
        grid = rdsolve.SpaceTimeGrid((1.0, 1.0), self.nodes, self.horizon, self.steps)
        axes = [grid.axis(k) / grid.extents[k] for k in range(2)]
        u0 = np.stack([b + a * np.outer(np.cos(np.pi * k * axes[0]), np.cos(np.pi * k * axes[1]))
                       for b, a, k in self.profiles])
        f = consistency.wrap(reaction.make_reaction("gray-scott"),
                             transition.TransitionFunction(self.eps, self.eps / 2.0,
                                                           transition.default_kernel()))
        return rdsolve.solve(f, rdsolve.DiffusionSpec(self.diffusion), u0, grid,
                             c=np.asarray(self.weights))

    def check(self, k: int, item, status: int, out: str) -> list[tuple[int, str]]:
        if status != 0:
            return [(0, f"rdlearn simulate exited with {status}")]
        if self.reference is None:
            # only the checked slices are kept, so the check adds little to the peak RSS
            traj = self.reference_trajectory()
            self.reference = traj.values[:, self.keep].copy()
            self.quality = {"min_state": float(traj.min_value),
                            "rows": (self.steps + 1) * self.nodes[0] * self.nodes[1]}
        found = checks.manifest_failures(out)
        found += checks.simulate_failures(out, (1.0, 1.0), self.nodes, self.steps,
                                          self.horizon, self.weights, self.keep, self.reference)
        return [(0, m) for m in found]

    def summary(self) -> str:
        if not self.quality:
            return "no quality numbers"
        return (f"{self.quality['rows']} trajectory rows, state minimum "
                f"{self.quality['min_state']:.4f}, time slices {self.keep} checked")


WORKLOADS = {w.name: w for w in (LearnSweep, ForwardAudit, Simulate2D)}
