"""Experiment configuration: flat key = value sections.

A config file fully determines an experiment given a master seed.  Keys
and each value's domain are checked against a fixed schema at load;
unknown sections or keys are rejected so typos fail loudly.  Parsing and
serialization round-trip: serialize(parse(text)) is idempotent.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .engine import MODES, RunConfig
from .objectives import NoiseModel, build_logistic, build_quadratic
from .participation import PATTERN_KINDS, PatternSpec, generate_schedule, rho_bound
from .analysis import plan_rates_adaptive, plan_rates_fixed_amp
from .streams import derive_seed, substream


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 1."""


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _int_list(text: str):
    values = [int(v) for v in text.replace(",", " ").split()]
    if not values:
        raise ValueError("needs at least one value")
    return values


def _offset(text: str):
    return text if text.strip() == "random" else int(text)


def _gap(text: str):
    return text if text.strip() == "exact" else float(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return " ".join(_fmt(v) for v in value)
    return str(value)


PLANNERS = {"cor3.2": plan_rates_adaptive, "cor3.3": plan_rates_fixed_amp}

# (section, key) -> (parser, default, domain), section by section in the
# order `serialize` writes them.  A None default means the key is required
# when its section is active; sections themselves are optional unless the
# subcommand needs them.  The domain is None (every parsed value), a tuple
# of choices, or a lower bound (a float must also be finite); _parse_value
# applies it to file values and overrides alike.
SCHEMA = {
    ("population", "kind"): (str, "quadratic", ("quadratic", "logistic")),
    ("population", "N"): (int, None, None),
    ("population", "m"): (int, 16, None),
    ("population", "L"): (float, 1.0, None),
    ("population", "spread"): (float, 0.5, None),
    ("population", "seed"): (int, 42, 0),
    ("population", "spectrum"): (str, "uniform", ("uniform", "linspace", "geomspace")),
    ("population", "eigen_lo"): (float, 0.1, None),
    ("population", "eigen_hi"): (float, 1.0, None),
    ("population", "rotate"): (_bool, True, None),
    ("population", "noise"): (str, "none", None),
    ("population", "sigma"): (float, 0.0, None),
    ("population", "samples_per_client"): (int, 64, None),    # logistic only
    ("population", "reg"): (float, 1e-3, 0.0),                # logistic only
    ("pattern", "kind"): (str, None, PATTERN_KINDS),
    ("pattern", "S"): (int, 0, None),
    ("pattern", "G"): (int, 0, None),
    ("pattern", "B"): (int, 0, None),
    ("pattern", "offset"): (_offset, "random", None),
    ("pattern", "p_aa"): (float, 0.0, None),
    ("pattern", "p_uu"): (float, 0.0, None),
    ("run", "planner"): (str, "none", ("none", *PLANNERS)),
    ("run", "gap"): (_gap, "exact", None),                    # planner objective gap
    ("run", "gamma"): (float, 0.0, None),
    ("run", "eta"): (float, 1.0, None),
    ("run", "I"): (int, 5, None),
    ("run", "P"): (int, 1, None),
    ("run", "T"): (int, None, None),
    ("run", "eval_every"): (int, 0, 0),                       # 0: every P rounds
    ("run", "mode"): (str, "generalized", MODES),
    ("run", "minibatch"): (int, 0, 0),                        # 0: full local gradient
    ("run", "x0_kind"): (str, "uniform", ("zero", "uniform", "gaussian", "spectral")),
    ("run", "x0_scale"): (float, 1.0, 0.0),
    ("sweep", "axis"): (str, None, ("T", "P", "S")),
    ("sweep", "values"): (_int_list, None, None),
    ("sweep", "st_fixed"): (_bool, False, None),
    ("bounds", "check"): (str, None, ("hoeffding", "chebyshev")),  # unset: by pattern
    ("bounds", "P"): (int, 64, None),
    ("bounds", "P_list"): (_int_list, [16, 32, 64, 128, 256, 512, 1024], None),
    ("bounds", "c"): (float, 0.05, None),
    ("bounds", "chebyshev_c"): (float, 0.1, None),
    ("bounds", "trials"): (int, 10000, None),
    ("bounds", "mixing_trials"): (int, 200, None),
    ("bounds", "max_lag"): (int, 40, None),
    ("diagnose", "P_list"): (_int_list, [1, 2, 4, 8], None),
    ("diagnose", "points"): (int, 0, 0),                      # 0: exact mode
    ("seeds", "master"): (int, 0, None),
    ("seeds", "replications"): (int, 1, 1),
    ("output", "dir"): (str, "out", None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, typed view of a config file."""

    values: dict = field(default_factory=dict)   # (section, key) -> value

    def get(self, section: str, key: str):
        if (section, key) in self.values:
            return self.values[(section, key)]
        default = SCHEMA[(section, key)][1]
        if default is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default

    def serialize(self) -> str:
        """The set keys as config text, sections and keys in SCHEMA order."""
        sections = {}
        for s, k in SCHEMA:
            if (s, k) in self.values:
                sections.setdefault(s, [f"[{s}]"]).append(
                    f"{k} = {_fmt(self.values[(s, k)])}")
        return "\n".join(line for body in sections.values() for line in body + [""])


def _parse_value(section: str, key: str, raw: str, source: str = ""):
    """Parse one raw value by the schema and check it lies in the key's
    domain; `source` ("override ") names where it came from in the error
    messages."""
    if (section, key) not in SCHEMA:
        raise ConfigError(f"unknown {source}key [{section}] {key}")
    parser, _, domain = SCHEMA[(section, key)]
    try:
        value = parser(raw)
        if isinstance(domain, tuple):
            if value not in domain:
                raise ConfigError(f"unknown {section} {key}: {value!r}")
        elif domain is not None and not domain <= value < np.inf:
            raise ValueError(f"must be finite and >= {domain}")
        return value
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {source}value for [{section}] {key}: "
                          f"{raw!r} ({exc})") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str     # keys are case-sensitive (N vs n)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    values = {}
    known = {s for s, _ in SCHEMA}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            values[(section, key)] = _parse_value(section, key, raw)
    return ExperimentConfig(values)


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a config file and apply `section.key=value` overrides."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    parsed = parse_config_text(text)
    updates = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        lhs, raw = item.split("=", 1)
        if "." not in lhs:
            raise ConfigError(f"override key must be section.key: {lhs!r}")
        section, key = lhs.split(".", 1)
        updates[(section, key)] = _parse_value(section, key, raw, "override ")
    return ExperimentConfig({**parsed.values, **updates})


# -- resolution into runnable objects ---------------------------------------

def build_population(cfg: ExperimentConfig):
    kind = cfg.get("population", "kind")
    N = cfg.get("population", "N")
    m = cfg.get("population", "m")
    seed = cfg.get("population", "seed")
    if kind == "quadratic":
        spectrum = cfg.get("population", "spectrum")
        lo, hi = cfg.get("population", "eigen_lo"), cfg.get("population", "eigen_hi")
        if spectrum == "uniform":
            eig = None
        elif spectrum == "linspace":
            eig = np.linspace(lo, hi, m)
        elif not (lo > 0 and hi > 0):
            raise ConfigError("geomspace spectrum needs eigen_lo, eigen_hi > 0")
        else:
            eig = np.geomspace(lo, hi, m)
        try:
            return build_quadratic(N, m, cfg.get("population", "L"),
                                   cfg.get("population", "spread"), seed,
                                   eigenvalues=eig,
                                   rotate=cfg.get("population", "rotate"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return build_logistic(N, m, cfg.get("population", "samples_per_client"),
                              seed, lam=cfg.get("population", "reg"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_noise(cfg: ExperimentConfig) -> NoiseModel:
    try:
        return NoiseModel(cfg.get("population", "noise"),
                          cfg.get("population", "sigma"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_pattern(cfg: ExperimentConfig) -> PatternSpec:
    return PatternSpec(kind=cfg.get("pattern", "kind"),
                       S=cfg.get("pattern", "S"),
                       G=cfg.get("pattern", "G"),
                       B=cfg.get("pattern", "B"),
                       offset=cfg.get("pattern", "offset"),
                       p_aa=cfg.get("pattern", "p_aa"),
                       p_uu=cfg.get("pattern", "p_uu"))


def build_x0(cfg: ExperimentConfig, pop, master_seed: int) -> np.ndarray:
    kind = cfg.get("run", "x0_kind")
    scale = cfg.get("run", "x0_scale")
    m = pop.m
    center = getattr(pop, "x_star", None)
    if center is None:
        center = np.zeros(m)
    if kind == "zero":
        return np.zeros(m)
    if kind == "uniform":
        # fixed direction, ||x0 - x*|| = scale
        return center + scale * np.full(m, 1.0 / np.sqrt(m))
    if kind == "gaussian":
        v = substream(derive_seed(master_seed, "x0"), "x0").normal(size=m)
        return center + scale * v / np.linalg.norm(v)
    # spectral: per-eigenvalue offsets sqrt(scale/lam) spread the initial
    # error across the spectrum so no single curvature dominates the decay
    if pop.diag is None or np.any(pop.diag <= 0):
        raise ConfigError("spectral x0 needs a diagonal positive spectrum")
    return center + np.sqrt(scale / pop.diag)


def resolve_plan(cfg: ExperimentConfig, pop, schedule, x0):
    """Return (gamma, eta) honoring the planner directive."""
    planner = cfg.get("run", "planner")
    if planner == "none":
        return cfg.get("run", "gamma"), cfg.get("run", "eta")
    gap = cfg.get("run", "gap")
    if gap == "exact":
        f_star = getattr(pop, "f_star", None)
        if f_star is None:
            raise ConfigError("gap=exact needs a population with a known optimum")
        gap = pop.global_value(x0) - f_star
    L = pop.lipschitz
    sigma = cfg.get("population", "sigma") if cfg.get("population", "noise") != "none" else 0.0
    rho = rho_bound(schedule)
    I, P, T = cfg.get("run", "I"), cfg.get("run", "P"), cfg.get("run", "T")
    try:
        plan = PLANNERS[planner](L, gap, sigma, rho, I, P, T)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not plan.valid:
        raise ConfigError(f"planner produced an invalid plan: {plan.notes}")
    return plan.gamma, plan.eta


def build_run_config(cfg: ExperimentConfig, pop, schedule, master_seed: int,
                     T: int | None = None) -> RunConfig:
    cfg = cfg if T is None else ExperimentConfig({**cfg.values, ("run", "T"): T})
    if cfg.get("run", "minibatch") and cfg.get("run", "planner") != "none":
        raise ConfigError("a planner needs the gradient noise sigma, which a "
                          "minibatch gradient does not supply; with [run] "
                          "minibatch > 0, set [run] planner = none")
    x0 = build_x0(cfg, pop, master_seed)
    gamma, eta = resolve_plan(cfg, pop, schedule, x0)
    rc = RunConfig(gamma=gamma, eta=eta, local_steps=cfg.get("run", "I"),
                   amplify_every=cfg.get("run", "P"), rounds=cfg.get("run", "T"),
                   x0=x0, eval_every=cfg.get("run", "eval_every") or None,
                   mode=cfg.get("run", "mode"),
                   minibatch=cfg.get("run", "minibatch") or None)
    try:
        rc.validate(pop, build_noise(cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return rc


def build_schedule(cfg: ExperimentConfig, N: int, T: int, master_seed: int):
    try:
        return generate_schedule(build_pattern(cfg), N, T,
                                 derive_seed(master_seed, "schedule"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
