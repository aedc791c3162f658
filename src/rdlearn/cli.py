"""Command-line harness: config-driven experiments with reproducible outputs.

Every subcommand reads a strict INI config (unknown sections or keys are
errors, so a mistyped key cannot pass silently), seeds all
randomness from one place, and writes CSV files atomically together with
a manifest of content hashes. Reruns with the same config and seed are
byte-identical; there is nothing interactive here.

Exit codes: 0 on success, 2 for configuration problems, 1 for runtime
failures (instability, blow-up, an output that cannot be written).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from importlib import resources

import numpy as np

from rdlearn._sampling import as_weights
from rdlearn.consistency import WrapperSchedule, rate_preservation_study, wrap
from rdlearn.learn import (BOX, MAX_ITERS, STEP, SUP_POINTS, MeasurementOperator, check_levels,
                           identification_sweep, make_schedule)
from rdlearn.quasipos import BoundaryLayer, BoundaryMeasure, nonlinear_volume_report, sample_members
from rdlearn.rdsolve import DiffusionSpec, SpaceTimeGrid, manufactured_convergence, solve
from rdlearn.reaction import (AnalyticReaction, MLPReaction, check_conditions, make_reaction,
                              save_params)
from rdlearn.transition import TransitionFunction, build_mollified_heaviside, default_kernel


class ConfigError(ValueError):
    """A config file problem; the message names the offending key."""


@contextmanager
def _keyed(key: str):
    """Turns a ValueError raised in the block into a ConfigError that names
    `key`. A ConfigError passes through untouched: it names its own key."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


_SCHEMA = {
    "domain": {"extent", "species", "initial", "initials"},
    "grid": {"nodes", "horizon", "steps"},
    "reaction": {"name", "diffusion", "weights", "box", "widths"},
    "wrapper": {"eps", "delta"},
    "schedule": {"alpha", "beta", "gamma", "lam0", "mu0", "nu0", "levels"},
    "measurement": {"kind", "strides", "modes"},
    "optimizer": {"step", "max_iters", "sup_points"},
    "output": {"prefix"},
}


class ExperimentConfig:
    """Parsed strict-INI experiment description."""

    def __init__(self, sections: dict):
        self.sections = sections

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        sections = {}
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            sections[section] = {}
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                sections[section][key] = value.strip()
        return cls(sections)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.parse(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def serialize(self) -> str:
        out = []
        for section, keys in self.sections.items():
            out.append(f"[{section}]")
            for key, value in keys.items():
                out.append(f"{key} = {value}")
            out.append("")
        return "\n".join(out)

    # typed getters; every failure names section.key for the user

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required config key {section}.{key}")
        return value

    def getfloat(self, section, key, default=None, minimum=None) -> float:
        if self.get(section, key) is None and default is not None:
            return float(default)
        raw = self.require(section, key)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from None
        if not np.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
        if minimum is not None and not value > minimum:
            raise ConfigError(f"{section}.{key} must be > {minimum}, got {value}")
        return value

    def getint(self, section, key, default=None, minimum=None) -> int:
        value = self.getfloat(section, key, default=default, minimum=minimum)
        if value != int(value):
            raise ConfigError(f"{section}.{key} must be an integer, got {value}")
        return int(value)

    def getfloats(self, section, key, default=None) -> list:
        if self.get(section, key) is None and default is not None:
            return list(default)
        raw = self.require(section, key)
        try:
            values = [float(part) for part in raw.split(",")]
        except ValueError:
            raise ConfigError(
                f"{section}.{key} must be comma-separated numbers, got {raw!r}"
            ) from None
        if not np.isfinite(values).all():
            raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
        return values

    def getints(self, section, key, default=None) -> list:
        vals = self.getfloats(section, key, default=default)
        if any(v != int(v) for v in vals):
            raise ConfigError(f"{section}.{key} must be integers, got {vals}")
        return [int(v) for v in vals]


# ---------------------------------------------------------------------------
# output plumbing


@contextmanager
def _atomic_file(path: str):
    """Path of a temp file beside path, renamed onto path when the block
    succeeds and removed when it raises, so a failed write leaves no file.
    The mode follows the umask as for open(); setting it is the only way to read it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        os.close(fd)
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# every float in a CSV file; 17 significant digits round-trip exactly
_FLOAT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT % float(value)


class OutputDir:
    """Collects written files and finishes with a hash manifest.

    A previous run's manifest is removed on opening, so a manifest that is
    present always matches the files of the run that wrote it.
    """

    def __init__(self, root: str, prefix: str = ""):
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.prefix = prefix
        self.written = []
        with suppress(FileNotFoundError):
            os.unlink(self.path("manifest.txt"))

    def path(self, name: str) -> str:
        return os.path.join(self.root, self.prefix + name)

    @contextmanager
    def file(self, name: str):
        """Temp path for the output file `name`, renamed into place and listed
        in the manifest when the block succeeds."""
        with _atomic_file(self.path(name)) as tmp:
            yield tmp
        self.written.append(self.prefix + name)

    def write_csv(self, name: str, header, rows) -> str:
        """Stream a CSV file; a row is a tuple of values or a str of formatted lines."""
        with self.file(name) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(row if isinstance(row, str) else ",".join(map(_fmt, row)) + "\n")
        return self.path(name)

    def finish(self) -> str:
        lines = []
        for name in sorted(self.written):
            digest = hashlib.sha256()
            with open(os.path.join(self.root, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            lines.append(f"{digest.hexdigest()}  {name}\n")
        path = self.path("manifest.txt")
        with _atomic_file(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        return path


# ---------------------------------------------------------------------------
# config interpretation


def _build_grid(cfg: ExperimentConfig) -> SpaceTimeGrid:
    extent = cfg.getfloats("domain", "extent")
    if min(extent) <= 0.0:
        raise ConfigError(f"domain.extent must be positive, got {extent}")
    nodes = cfg.getints("grid", "nodes")
    horizon = cfg.getfloat("grid", "horizon", minimum=0.0)
    steps = cfg.getint("grid", "steps", minimum=0)
    with _keyed("grid.nodes"):
        return SpaceTimeGrid(tuple(extent), tuple(nodes), horizon, steps)


def _profile_values(text: str, grid: SpaceTimeGrid) -> np.ndarray:
    """One named initial profile evaluated on the grid; a ValueError says
    what is wrong with it."""
    text = text.strip()
    name, _, args = text.partition(":")
    vals = []
    if args:
        try:
            vals = [float(a) for a in args.split(",")]
        except ValueError:
            raise ValueError(f"initial profile arguments must be numbers: {text!r}") from None
        if not np.isfinite(vals).all():
            raise ValueError(f"initial profile arguments must be finite: {text!r}")
    axes = [grid.axis(k) / grid.extents[k] for k in range(grid.ndim)]
    if name == "constant":
        if len(vals) != 1:
            raise ValueError(f"constant profile takes one value, got {text!r}")
        return np.full(grid.nodes, vals[0])
    if name == "ramp":
        if len(vals) != 2:
            raise ValueError(f"ramp profile takes base,slope, got {text!r}")
        base, slope = vals
        out = base + slope * axes[0]
        if grid.ndim == 2:
            out = np.broadcast_to(out[:, None], grid.nodes).copy()
        return out
    if name == "cosine":
        if len(vals) != 3:
            raise ValueError(f"cosine profile takes base,amp,modes, got {text!r}")
        base, amp, k = vals
        wave = np.cos(np.pi * k * axes[0])
        if grid.ndim == 2:
            wave = np.outer(wave, np.cos(np.pi * k * axes[1]))
        return base + amp * wave
    raise ValueError(f"unknown initial profile {name!r} (constant, ramp, cosine)")


def _initial_state(text: str, key: str, grid: SpaceTimeGrid, n: int) -> np.ndarray:
    """One trajectory's nonnegative initial state (n, *grid.nodes) from n '|'-separated profiles."""
    parts = text.split("|")
    if len(parts) != n:
        raise ConfigError(f"{key} needs {n} '|'-separated profiles, got {len(parts)} in {text!r}")
    with _keyed(key):
        u0 = np.stack([_profile_values(p, grid) for p in parts])
    if np.any(u0 < 0.0):
        raise ConfigError(f"{key}: initial states must be componentwise nonnegative, got {text!r}")
    return u0


def _build_reaction(cfg: ExperimentConfig, n: int):
    name = cfg.get("reaction", "name", "none")
    if name == "none":
        return None
    with _keyed("reaction.name"):
        f = make_reaction(name)
    if f.n_species != n:
        raise ConfigError(
            f"reaction.name {name!r} has {f.n_species} species, domain.species says {n}"
        )
    return f


def _cutoff(cfg: ExperimentConfig, eps_default=None) -> TransitionFunction:
    """The [wrapper] cutoff: ramp center eps, half-width delta (eps / 2 unless given)."""
    eps = cfg.getfloat("wrapper", "eps", default=eps_default, minimum=0.0)
    delta = cfg.getfloat("wrapper", "delta", default=eps / 2.0, minimum=0.0)
    with _keyed("wrapper.delta"):
        return TransitionFunction(eps, delta, default_kernel())


def _maybe_wrap(cfg: ExperimentConfig, f):
    if cfg.get("wrapper", "eps") is None:
        return f
    if f is None:
        raise ConfigError("wrapper.eps given but reaction.name is 'none'")
    return wrap(f, _cutoff(cfg))


def _weights(cfg: ExperimentConfig, n: int) -> np.ndarray:
    weights = cfg.getfloats("reaction", "weights", default=[1.0] * n)
    with _keyed("reaction.weights"):
        return as_weights(weights, n)


def _diffusion(cfg: ExperimentConfig, n: int) -> DiffusionSpec:
    """reaction.diffusion: one coefficient per species, or one shared by all."""
    d = cfg.getfloats("reaction", "diffusion")
    if len(d) not in (1, n):
        raise ConfigError(f"reaction.diffusion needs one value or {n}, one per species, got {d}")
    with _keyed("reaction.diffusion"):
        return DiffusionSpec(tuple(d * n if len(d) == 1 else d))


def _box(cfg: ExperimentConfig, default) -> list:
    """reaction.box: one interval lo,hi shared by every species."""
    box = cfg.getfloats("reaction", "box", default=default)
    if len(box) != 2 or box[0] >= box[1]:
        raise ConfigError(f"reaction.box must be lo,hi with lo < hi, got {box}")
    return box


def _parse_levels(key: str, text: str) -> list:
    """Levels given as lo..hi or as a comma list, checked by `check_levels`;
    an error names `key`."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        levels = list(range(int(lo), int(hi) + 1)) if dots else [int(p) for p in text.split(",")]
    except ValueError:
        what = "range must be int..int" if dots else "must be ints"
        raise ConfigError(f"{key}: levels {what}, got {text!r}") from None
    with _keyed(key):
        return check_levels(levels)


# ---------------------------------------------------------------------------
# subcommands


def _trajectory_blocks(values: np.ndarray, grid: SpaceTimeGrid):
    """trajectory.csv rows as one text block per time step: the coordinate
    columns are formatted once, t once per step, the species in one %."""
    n = values.shape[0]
    mesh = np.meshgrid(*(grid.axis(k) for k in range(grid.ndim)), indexing="ij")
    tail = ",".join([_FLOAT] * n) + "\n"
    lines = [",".join(map(_fmt, node)) + "," + tail
             for node in zip(*(axis.ravel() for axis in mesh))]
    for k, t in enumerate(grid.times()):
        prefix = _fmt(t) + ","
        yield (prefix + prefix.join(lines)) % tuple(values[:, k].reshape(n, -1).T.ravel().tolist())


def _cmd_simulate(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    grid = _build_grid(cfg)
    n = cfg.getint("domain", "species", minimum=0)
    f = _maybe_wrap(cfg, _build_reaction(cfg, n))
    D = _diffusion(cfg, n)
    weights = _weights(cfg, n)
    u0 = _initial_state(cfg.require("domain", "initial"), "domain.initial", grid, n)

    traj = solve(f, D, u0, grid, c=weights)

    header = ["t", *"xy"[:grid.ndim]] + [f"species_{i + 1}" for i in range(n)]
    out.write_csv("trajectory.csv", header, _trajectory_blocks(traj.values, grid))

    masses = traj.masses
    out.write_csv(
        "diagnostics.csv", ["t", "min_u", "mass_weighted"],
        ((t, float(traj.values[:, k].min()), masses[k]) for k, t in enumerate(grid.times())),
    )
    manifest = out.finish()
    print(f"simulated {n} species for {grid.steps} steps; wrote {manifest}")
    return 0


def _cmd_check(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    n = cfg.getint("domain", "species", minimum=0)
    f = _maybe_wrap(cfg, _build_reaction(cfg, n))
    if f is None:
        raise ConfigError("check needs reaction.name")
    box = _box(cfg, [0.0, 2.0])
    report = check_conditions(f, [box[0]] * n, [box[1]] * n,
                              samples=20_000, c=_weights(cfg, n), seed=args.seed)
    # a check the box gives no points to is skipped: neither a pass nor a failure
    verdicts = [("quasipositivity", report.quasipos_ok), ("mass_control", report.mass_ok),
                ("growth", report.growth_ok)]
    out.write_csv("conditions.csv", ["condition", "ok"],
                  [(name, "skipped" if ok is None else int(ok)) for name, ok in verdicts])
    out.finish()
    print(report.summary())
    return 1 if any(ok is False for _, ok in verdicts) else 0


def _cmd_wrap_rates(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    alpha = cfg.getfloat("schedule", "alpha", default=2.0, minimum=1.0)
    beta = cfg.getfloat("schedule", "beta", default=1.0, minimum=0.0)
    gamma = cfg.getfloat("schedule", "gamma", default=0.5, minimum=0.0)
    with _keyed("schedule.gamma"):
        sched = WrapperSchedule(alpha=alpha, beta=beta, gamma=gamma)

    target = AnalyticReaction("cubic-target", 1, lambda u: -(u ** 2) * (1.0 - u))

    def family(m):
        return AnalyticReaction(
            "cubic-shift", 1, lambda u: -(u ** 2) * (1.0 - u) + 1.0 / m
        )

    levels = _parse_levels("schedule.levels", cfg.get("schedule", "levels", "4,8,16,32,64"))
    # the study rejects fewer than three levels, which is a config error here
    with _keyed("schedule.levels"):
        study = rate_preservation_study(target, family, sched, [0.0], [1.0],
                                        levels, seed=args.seed)
    out.write_csv("rates.csv", ["m", "eps", "sup_raw", "sup_wrapped", "fitted_slope"],
                  ((*row, study.fitted_slope) for row in
                   zip(study.levels, study.eps, study.sup_raw, study.sup_wrapped)))
    out.finish()
    print(f"fitted slope {study.fitted_slope:.4f} "
          f"(preserved rate {sched.preserved_rate:.4f})")
    return 0


def _cmd_quasipos(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    dim = cfg.getint("domain", "species", default=2, minimum=0)
    rows = []
    cube = BoundaryMeasure((1.0,) * dim, samples=100_000, seed=args.seed)
    for x in (0.1, 0.25, 0.5):
        est, hw = cube.estimate(x)
        rows.append(("unit_cube_layer", x, est, cube.measure(x), 3.0 * hw))
    for eps in (0.5, 0.1):
        layer = BoundaryLayer(eps, mode="nonlinear", dim=dim)
        members = sample_members(layer, 2_000, seed=args.seed)
        rows.append(("distance_bound", eps,
                     float(members.min(axis=1).max()), eps ** (2.0 / dim), 0.0))
    if dim == 2:
        report = nonlinear_volume_report(2, samples=100_000, seed=args.seed)
        for box, est, hw in zip(report.box_sizes, report.estimates, report.halfwidths):
            rows.append(("plane_volume", box, est, 5.0 / 3.0, 3.0 * hw))
    out.write_csv("quasipos.csv",
                  ["experiment", "parameter", "value", "reference", "slack"], rows)
    out.finish()
    print(f"wrote {len(rows)} boundary-layer checks for dimension {dim}")
    return 0


def _cmd_transition(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    chi = _cutoff(cfg, eps_default=0.1)
    xs = np.linspace(0.0, 1.25 * (chi.eps + chi.delta), 257)
    out.write_csv("transition.csv", ["x", "value", "derivative"],
                  ((x, chi.evaluate(x), chi.derivative(x)) for x in xs))
    out.finish()
    print(f"certified slope bound {chi.slope_bound:.6g} "
          f"(product with eps: {chi.eps * chi.slope_bound:.6g})")
    return 0


def _cmd_learn(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    n = cfg.getint("domain", "species", minimum=0)
    grid = _build_grid(cfg)
    if grid.ndim != 1:
        raise ConfigError("learn requires a one-dimensional domain.extent")
    f_true = _build_reaction(cfg, n)
    if f_true is None:
        raise ConfigError("learn needs reaction.name (the ground truth)")
    # the learning problem has one diffusion coefficient, shared by all species
    diffusion = cfg.getfloat("reaction", "diffusion", minimum=0.0)
    with _keyed("reaction.diffusion"):
        DiffusionSpec.uniform(diffusion, n)
    widths = tuple(cfg.getints("reaction", "widths", default=[n, 16, n]))
    if len(widths) < 2 or widths[0] != n or widths[-1] != n or min(widths) < 1:
        raise ConfigError(
            f"reaction.widths must be two or more positive widths from {n} to {n}, got {widths}")
    box = _box(cfg, BOX)
    u0s = np.stack([_initial_state(traj, "domain.initials", grid, n)
                    for traj in cfg.require("domain", "initials").split(";")])

    levels = _parse_levels("schedule.levels", cfg.get("schedule", "levels", "1,2,3"))
    # each value's own range is checked as it is read, and named by its key;
    # what make_schedule rejects is a combination of them
    alpha = cfg.getfloat("schedule", "alpha", minimum=1.0)
    beta = cfg.getfloat("schedule", "beta", minimum=0.0)
    gamma = cfg.getfloat("schedule", "gamma", minimum=0.0)
    prefactors = {key: cfg.getfloat("schedule", key, default=1.0, minimum=0.0)
                  for key in ("lam0", "mu0", "nu0")}
    with _keyed("schedule"):
        scheds = make_schedule(alpha, beta, gamma, levels=levels, **prefactors)

    # a per-level list has one entry per level of schedule.levels: kind -> (key, operator field)
    per_level = {"subsample": ("strides", "stride"), "fourier": ("modes", "modes")}
    kind = cfg.get("measurement", "kind", "full")
    if kind != "full" and kind not in per_level:
        raise ConfigError(f"measurement.kind must be full, subsample or fourier, got {kind!r}")
    for reader, (key, _) in per_level.items():
        if reader != kind and cfg.get("measurement", key) is not None:
            raise ConfigError(f"measurement.{key} is read only under measurement.kind = "
                              f"{reader}, got kind = {kind}")
    if kind == "full":
        ops = [MeasurementOperator() for _ in levels]
    else:
        key, field = per_level[kind]
        values = cfg.getints("measurement", key)
        if len(values) != len(levels):
            raise ConfigError(f"measurement.{key} needs one entry per level of "
                              f"schedule.levels {levels}, got {values}")
        with _keyed(f"measurement.{key}"):
            ops = [MeasurementOperator(kind, **{field: v}) for v in values]
            for op in ops:
                op.check_grid(grid)
    if args.levels:  # --levels picks levels of schedule.levels
        picked = _parse_levels("--levels", args.levels)
        if not set(picked) <= set(levels):
            raise ConfigError(f"--levels: {picked} are not all levels of schedule.levels {levels}")
        scheds, ops = zip(*[(s, op) for s, op in zip(scheds, ops) if s.m in picked])

    rows, results = identification_sweep(
        f_true, diffusion, u0s, grid, scheds, ops, widths,
        box_lo=box[0], box_hi=box[1], seed=args.seed,
        step=cfg.getfloat("optimizer", "step", default=STEP, minimum=0.0),
        max_iters=cfg.getint("optimizer", "max_iters", default=MAX_ITERS, minimum=0),
        sup_points=cfg.getint("optimizer", "sup_points", default=SUP_POINTS, minimum=0),
    )
    out.write_csv(
        "results.csv",
        ["m", "objective", "residual_term", "misfit_term", "sup_error_f", "D_error",
         "stop_reason", "iterations"],
        ((row.m, res.objective, res.terms["residual"], res.terms["data_misfit"],
          row.sup_error, row.d_error, res.stop_reason, res.iterations)
         for row, res in zip(rows, results)),
    )
    for sched, res in zip(scheds, results):
        with out.file(f"params_m{sched.m}.txt") as tmp:
            save_params(tmp, MLPReaction(widths, res.theta),
                        level=sched.m, seed=args.seed, eps=sched.eps)
    out.finish()
    for sched, row, res in zip(scheds, rows, results):
        print(f"level {row.m}: sup error {row.sup_error:.4f}, "
              f"objective {res.objective:.4f}, "
              f"state containment {res.state_containment:.3f}, "
              f"{res.stop_reason} after {res.iterations} iterations")
        chi = build_mollified_heaviside(sched.eps)
        if chi.evaluate(box[1]) > 0.0:
            print(f"warning: level {row.m}: the cutoff is still positive at the top "
                  f"of the reaction box ({box[1]:g} < eps + delta = "
                  f"{chi.eps + chi.delta:g}): it damps the negative part of the "
                  f"learned term on the whole box")
    return 0


def _cmd_convergence(cfg: ExperimentConfig, out: OutputDir, args: argparse.Namespace) -> int:
    study = manufactured_convergence(
        diffusion=cfg.getfloat("reaction", "diffusion", default=0.7, minimum=0.0),
        extent=cfg.getfloat("domain", "extent", default=1.0, minimum=0.0),
        horizon=cfg.getfloat("grid", "horizon", default=0.5, minimum=0.0),
    )
    rows = [("space", *row) for row in zip(study.spatial_h, study.spatial_errors)]
    rows += [("time", *row) for row in zip(study.temporal_dt, study.temporal_errors)]
    out.write_csv("convergence.csv", ["kind", "spacing", "error"], rows)
    out.write_csv("orders.csv", ["direction", "order"],
                  [("space", study.spatial_order), ("time", study.temporal_order)])
    out.finish()
    print(f"spatial order {study.spatial_order:.3f}, "
          f"temporal order {study.temporal_order:.3f}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def shipped_config(name: str) -> str:
    """Path of a config file distributed with the package."""
    return str(resources.files("rdlearn").joinpath("configs", name))


_COMMANDS = {  # subcommand -> (handler, whether --config is required)
    "simulate": (_cmd_simulate, True), "check": (_cmd_check, True),
    "wrap-rates": (_cmd_wrap_rates, False), "quasipos": (_cmd_quasipos, False),
    "transition": (_cmd_transition, False), "learn": (_cmd_learn, True),
    "convergence-study": (_cmd_convergence, False),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdlearn",
        description="Reaction-diffusion consistency, simulation and learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="experiment config file (strict INI)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="global random seed")
        if name == "learn":
            p.add_argument("--levels", default=None,
                           help="levels to run, e.g. 1..3 or 1,2,3")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = (ExperimentConfig.load(args.config) if args.config
               else ExperimentConfig({}))
        out = OutputDir(args.out, prefix=cfg.get("output", "prefix", ""))
        return _COMMANDS[args.command][0](cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
