"""Run configuration: dataclasses plus a flat key = value file format.

Sections: [run], [transport], [streamer], [bc], [potential_bc].  The
records below declare the keys of the first three: each int, float, tuple
or str field (or None) of `RunConfig`, `TransportConfig` and
`StreamerConfig` is one.  [bc] is `RunConfig.bc`, the boundaries of the
transported field (the scalar or the electrons).  Boundary entries map any
face label of the mesh, case-sensitive, to `neumann` or `dirichlet
<value>`, and a label left out is Neumann; section names and other keys
match in any case, and left empty keep their defaults.  Any unknown key or
section, [DEFAULT] included, is an error so typos fail loudly instead of
silently running defaults, and so is a section or key given twice; a label
the mesh lacks is one too, found once the mesh is read (`runtime`).  A file
configparser cannot parse, or that is not UTF-8 text, is a ConfigError as
well.  Each rule is checked once: `RunConfig.validate` checks the settings,
`load_coefficient_table` the streamer's table, and the streamer's kernels
read both unchecked.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError


@dataclass
class TransportConfig:
    velocity: tuple = (0.0, 0.0)
    diffusion: float = 0.1
    init: str = "gaussian"          # gaussian | constant
    center: tuple = (0.5, 0.5)
    sigma: float = 0.1
    amplitude: float = 1.0
    constant: float = 0.0


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
    potential_bc: dict = field(default_factory=dict)
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
    bc: dict = field(default_factory=dict)  # of the transported field
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
        if self.dt is not None and not 0 < self.dt < np.inf:   # NaN too
            raise ConfigError("dt must be positive and finite")
        if self.output_every < 0:
            raise ConfigError("output_every must be >= 0")
        if self.mesh_path is None and self.mesh_n < 1:
            raise ConfigError("mesh_n must be >= 1")
        if not self.timeout_s > 0:
            raise ConfigError("timeout_s must be positive")
        tc, sc = self.transport, self.streamer
        if self.physics == "transport":
            if tc.init not in ("gaussian", "constant"):
                raise ConfigError(f"unknown transport init '{tc.init}'")
            _check_finite(tc, "velocity", "center", "amplitude", "constant")
            if not 0 <= tc.diffusion < np.inf:
                raise ConfigError("diffusion must be finite and >= 0")
        if self.physics == "streamer":
            if sc.model not in ("linear", "table"):
                raise ConfigError(f"unknown coefficient model '{sc.model}'")
            if sc.model == "table" and sc.table_path is None:
                raise ConfigError("model = table needs table_path")
            if sc.model == "linear":
                if not 0 <= sc.d_e < np.inf:
                    raise ConfigError("d_e must be finite and >= 0")
                _check_finite(sc, "mu_e", "alpha")
            _check_finite(sc, "q_e", "seed_center", "seed_amplitude",
                          "ion_amplitude")
            if not sc.eps > 0:   # NaN too
                raise ConfigError("eps must be positive")
        for name, val in (("sigma", tc.sigma), ("seed_sigma", sc.seed_sigma)):
            if not val > 0:
                raise ConfigError(f"{name} must be positive")
        return self


def _check_finite(record, *names):
    """Each named field that is set holds only finite numbers (NaN fails)."""
    for name in names:
        val = getattr(record, name)
        if val is not None and not np.all(np.abs(val) < np.inf):
            raise ConfigError(f"{name} must be finite")


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


def _bc_section(sections, section) -> dict:
    """Entries by label; an absent section names none, so all are Neumann."""
    return {label: _bc_entry(section, label, raw)
            for label, raw in sections.get(section, ())}


# a record's field is a key when its annotation starts with one of these
# types, and is read by its parser (`str | None` by str)
_PARSERS = {"int": _int, "float": _float, "tuple": _pair, "str": str}


def load_config(path) -> RunConfig:
    # no header can name a section "\n": [DEFAULT] is a section like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="\n")
    parser.optionxform = str    # mesh labels keep their case
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file: {path}")
        sections = {name.lower(): parser.items(name)
                    for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if len(sections) < len(parser.sections()):
        raise ConfigError(f"a section appears twice: {parser.sections()}")
    cfg = RunConfig()
    records = {"run": cfg, "transport": cfg.transport,
               "streamer": cfg.streamer}
    extra = set(sections) - set(records) - {"bc", "potential_bc"}
    if extra:
        raise ConfigError(f"unknown section(s): {sorted(extra)}")

    for section, target in records.items():
        typed = ((f.name, f.type.split()[0]) for f in fields(target))
        keys = {name: _PARSERS[t] for name, t in typed if t in _PARSERS}
        items = [(key.lower(), raw) for key, raw in sections.get(section, ())]
        if len(dict(items)) < len(items):
            raise ConfigError(f"[{section}] a key appears twice: "
                              f"{[key for key, _ in items]}")
        for key, raw in items:
            conv = keys.get(key)
            if conv is None:
                raise ConfigError(f"[{section}] unknown key '{key}'")
            if raw:   # an empty value keeps the default
                setattr(target, key,
                        raw if conv is str else conv(section, key, raw))

    cfg.bc = _bc_section(sections, "bc")
    cfg.streamer.potential_bc = _bc_section(sections, "potential_bc")
    return cfg.validate()


def load_coefficient_table(path) -> np.ndarray:
    """Whitespace table with rows |E| mu_e D_e alpha, ascending |E|."""
    try:
        with open(path) as fh:
            rows = [line for line in fh if line.split("#", 1)[0].strip()]
        # numpy warns on a table without rows; the shape test rejects it
        t = np.loadtxt(rows, dtype=np.float64, ndmin=2) if rows \
            else np.empty((0, 0))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read coefficient table {path}: {exc}") from exc
    if t.shape[1] != 4 or t.shape[0] < 2:
        raise ConfigError(f"coefficient table {path} must be (rows >= 2) x 4")
    if not np.all(np.diff(t[:, 0]) > 0):
        raise ConfigError("table |E| knots must be strictly ascending")
    if not np.all(np.isfinite(t)) or np.any(t[:, 2] < 0):
        raise ConfigError("table entries must be finite with D_e >= 0")
    return t
