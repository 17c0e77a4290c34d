"""Run configuration: dataclasses plus a flat key = value file format.

Sections: [run], [transport], [streamer], [bc], [potential_bc].  Boundary
entries map a face label to either `neumann` or `dirichlet <value>`; other
keys left empty keep their defaults.  Any unknown key is an error so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_LABELS = ("left", "right", "top", "bottom")


def _all_neumann() -> dict:
    return {lab: ("neumann",) for lab in _LABELS}


@dataclass
class TransportConfig:
    velocity: tuple = (0.0, 0.0)
    diffusion: float = 0.1
    init: str = "gaussian"          # gaussian | constant
    center: tuple = (0.5, 0.5)
    sigma: float = 0.1
    amplitude: float = 1.0
    constant: float = 0.0
    bc: dict = field(default_factory=_all_neumann)


@dataclass
class StreamerConfig:
    model: str = "linear"
    mu_e: float = 1.0
    d_e: float = 0.1
    alpha: float = 1.0
    eps: float = 1.0
    q_e: float = 1.0
    table_path: str | None = None
    seed_center: tuple = (0.5, 0.5)
    seed_sigma: float = 0.1
    seed_amplitude: float = 1.0
    ion_amplitude: float | None = None   # None = neutral seed (equal to electrons)
    species_bc: dict = field(default_factory=_all_neumann)
    potential_bc: dict = field(default_factory=_all_neumann)
    pin_cell: int | None = None          # auto-pinned when all-Neumann


@dataclass
class RunConfig:
    mesh_path: str | None = None
    mesh_n: int = 16                # used when mesh_path is unset
    k: int = 1
    steps: int = 10
    dt: float | None = None         # None = CFL-reduced each step
    cfl: float = 0.4
    physics: str = "transport"      # transport | streamer
    output_every: int = 0           # 0 = initial state only
    out_dir: str | None = None
    name: str = "run"
    timeout_s: float = 60.0
    transport: TransportConfig = field(default_factory=TransportConfig)
    streamer: StreamerConfig = field(default_factory=StreamerConfig)

    def validate(self) -> "RunConfig":
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k > 1 and not hasattr(os, "fork"):
            raise ConfigError("k > 1 runs ranks as forked processes, and "
                              "this platform has no os.fork")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError("cfl must be in (0, 1]")
        if self.physics not in ("transport", "streamer"):
            raise ConfigError(f"unknown physics '{self.physics}'")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.output_every < 0:
            raise ConfigError("output_every must be >= 0")
        if self.mesh_path is None and self.mesh_n < 1:
            raise ConfigError("mesh_n must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        tc, sc = self.transport, self.streamer
        if self.physics == "transport" \
                and tc.init not in ("gaussian", "constant"):
            raise ConfigError(f"unknown transport init '{tc.init}'")
        if self.physics == "streamer":
            if sc.model not in ("linear", "table"):
                raise ConfigError(f"unknown coefficient model '{sc.model}'")
            if sc.model == "table" and sc.table_path is None:
                raise ConfigError("model = table needs table_path")
            if sc.model == "linear" and sc.d_e < 0:
                raise ConfigError("d_e must be >= 0")
        for name, val in (("sigma", tc.sigma), ("seed_sigma", sc.seed_sigma)):
            if val <= 0:
                raise ConfigError(f"{name} must be positive")
        return self


def _float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: '{raw}'") from None


def _int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: '{raw}'") from None


def _pair(section, key, raw):
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"[{section}] {key}: expected two numbers, got '{raw}'")
    return (_float(section, key, parts[0]), _float(section, key, parts[1]))


def _bc_entry(section, label, raw):
    parts = raw.split()
    if parts and parts[0] == "neumann" and len(parts) == 1:
        return ("neumann",)
    if len(parts) == 2 and parts[0] == "dirichlet":
        return ("dirichlet", _float(section, label, parts[1]))
    raise ConfigError(f"[{section}] {label}: expected 'neumann' or "
                      f"'dirichlet <value>', got '{raw}'")


def _bc_section(parser, section) -> dict | None:
    if not parser.has_section(section):
        return None
    out = _all_neumann()  # unnamed sides keep the default
    for label, raw in parser.items(section):
        if label not in _LABELS:
            raise ConfigError(f"[{section}]: unknown boundary label '{label}' "
                              f"(expected one of {', '.join(_LABELS)})")
        out[label] = _bc_entry(section, label, raw)
    return out


_KEYS = {
    "run": {
        "mesh_path": str, "mesh_n": _int, "k": _int, "steps": _int,
        "dt": _float, "cfl": _float, "physics": str, "output_every": _int,
        "out_dir": str, "name": str, "timeout_s": _float,
    },
    "transport": {
        "velocity": _pair, "diffusion": _float, "init": str,
        "center": _pair, "sigma": _float, "amplitude": _float,
        "constant": _float,
    },
    "streamer": {
        "model": str, "mu_e": _float, "d_e": _float, "alpha": _float,
        "eps": _float, "q_e": _float, "table_path": str,
        "seed_center": _pair, "seed_sigma": _float,
        "seed_amplitude": _float, "ion_amplitude": _float,
        "pin_cell": _int,
    },
}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")

    cfg = RunConfig()
    extra = set(parser.sections()) - set(_KEYS) - {"bc", "potential_bc"}
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}")

    for section, target in (("run", cfg), ("transport", cfg.transport),
                            ("streamer", cfg.streamer)):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            conv = _KEYS[section].get(key)
            if conv is None:
                raise ConfigError(f"[{section}] unknown key '{key}'")
            if raw:   # an empty value keeps the default
                setattr(target, key,
                        raw if conv is str else conv(section, key, raw))

    bc = _bc_section(parser, "bc")
    if bc is not None:
        cfg.transport.bc = bc
        cfg.streamer.species_bc = bc
    pot = _bc_section(parser, "potential_bc")
    if pot is not None:
        cfg.streamer.potential_bc = pot
    return cfg.validate()


def load_coefficient_table(path) -> np.ndarray:
    """Whitespace table with rows |E| mu_e D_e alpha, ascending |E|."""
    try:
        t = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read coefficient table {path}: {exc}") from exc
    return t
