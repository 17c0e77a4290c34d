"""Run configuration: dataclasses plus a flat key = value file format.

Sections: [run], [transport], [streamer], [bc], [potential_bc].  Each int,
float, tuple or str field (or None) of `RunConfig`, `TransportConfig` and
`StreamerConfig` is a key of the first three, and each numeric one declares
its range beside it (unmarked: finite, |x| <= `CAP`).  [bc] is
`RunConfig.bc`, the boundaries of the transported field (the scalar or the
electrons).  Boundary entries map any face label of the mesh,
case-sensitive, to `neumann` or `dirichlet <value>` (|value| <= `CAP`),
and a label left out is Neumann; section names and other keys match in any
case, and left empty keep their defaults.  Any unknown key or section,
[DEFAULT] included, is an error so typos fail loudly instead of silently
running defaults, and so is a section or key given twice; a label the mesh
lacks is one too, found once the mesh is read (`runtime`).  A file
configparser cannot parse, or that is not UTF-8 text, is a ConfigError as
well.  Each rule is checked once: `RunConfig.validate` checks the keys the
run's physics reads, `load_coefficient_table` the streamer's table, and
the streamer's kernels read both unchecked.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError


# a key's range (lo, hi, text): lo <= x <= hi (no NaN), "<key> must be <text>"
CAP = 1e100   # the largest magnitude a number in the input may have
FINITE = (-CAP, CAP, f"finite with |x| <= {CAP:g}")   # the default
NON_NEGATIVE = (0.0, CAP, f"in [0, {CAP:g}]")
POSITIVE = (1 / CAP, CAP, f"positive, in [{1 / CAP:g}, {CAP:g}]")


def at_least(n: int) -> tuple:
    return (n, np.inf, f">= {n}")


def _key(default, rng: tuple):
    return field(default=default, metadata={"range": rng})


def _check(name, val, rng=FINITE):
    """val, if each of its numbers (one, or a tuple's) is in rng."""
    lo, hi, text = rng
    if not all(lo <= x <= hi for x in np.ravel(val).tolist()):
        raise ConfigError(f"{name} must be {text}")
    return val


@dataclass
class TransportConfig:
    velocity: tuple = (0.0, 0.0)
    diffusion: float = _key(0.1, NON_NEGATIVE)
    init: str = "gaussian"          # gaussian | constant
    center: tuple = (0.5, 0.5)
    sigma: float = _key(0.1, POSITIVE)
    amplitude: float = 1.0
    constant: float = 0.0


@dataclass
class StreamerConfig:
    model: str = "linear"
    mu_e: float = 1.0
    d_e: float = _key(0.1, NON_NEGATIVE)
    alpha: float = 1.0
    eps: float = _key(1.0, POSITIVE)
    q_e: float = 1.0
    table_path: str | None = None
    seed_center: tuple = (0.5, 0.5)
    seed_sigma: float = _key(0.1, POSITIVE)
    seed_amplitude: float = 1.0
    ion_amplitude: float | None = None   # None = neutral seed (equal to electrons)
    potential_bc: dict = field(default_factory=dict)
    pin_cell: int | None = _key(None, at_least(0))  # auto-pinned when all-Neumann


@dataclass
class RunConfig:
    mesh_path: str | None = None
    mesh_n: int = _key(16, at_least(1))   # used when mesh_path is unset
    k: int = _key(1, at_least(1))
    steps: int = _key(10, at_least(0))
    dt: float | None = _key(None, POSITIVE)   # None = CFL-reduced each step
    cfl: float = _key(0.4, (1 / CAP, 1.0, f"in [{1 / CAP:g}, 1]"))
    physics: str = "transport"      # transport | streamer
    output_every: int = _key(0, at_least(0))   # 0 = initial state only
    out_dir: str | None = None
    name: str = "run"
    timeout_s: float = _key(60.0, POSITIVE)
    bc: dict = field(default_factory=dict)  # of the transported field
    transport: TransportConfig = field(default_factory=TransportConfig)
    streamer: StreamerConfig = field(default_factory=StreamerConfig)

    def validate(self) -> "RunConfig":
        """Check the range of each key the run's physics reads, and more."""
        tc, sc = self.transport, self.streamer
        if self.physics not in ("transport", "streamer"):
            raise ConfigError(f"unknown physics '{self.physics}'")
        unread = {"mesh_n"} if self.mesh_path is not None else set()
        if self.physics == "transport":
            if tc.init not in ("gaussian", "constant"):
                raise ConfigError(f"unknown transport init '{tc.init}'")
        else:
            if sc.model not in ("linear", "table"):
                raise ConfigError(f"unknown coefficient model '{sc.model}'")
            if sc.model == "table" and sc.table_path is None:
                raise ConfigError("model = table needs table_path")
            if sc.model == "table":
                unread |= {"mu_e", "d_e", "alpha"}
        for record in (self, tc if self.physics == "transport" else sc):
            for f in fields(record):
                val = getattr(record, f.name)
                if (f.type.split()[0] in ("int", "float", "tuple")
                        and f.name not in unread and val is not None):
                    _check(f.name, val, f.metadata.get("range", FINITE))
        if self.k > 1 and not hasattr(os, "fork"):
            raise ConfigError("k > 1 runs ranks as forked processes, and "
                              "this platform has no os.fork")
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
        return ("dirichlet", _check(f"[{section}] {label}: the value",
                                    _float(section, label, parts[1])))
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
    if not np.all(np.abs(t) <= CAP) or np.any(t[:, 2] < 0):
        raise ConfigError(f"table entries must be {FINITE[2]}, with D_e >= 0")
    if not np.all(np.diff(t[:, 0]) > 0):
        raise ConfigError("table |E| knots must be strictly ascending")
    return t
