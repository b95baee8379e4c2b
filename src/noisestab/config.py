"""Experiment configuration: flat structured-text documents.

Format: INI-style sections with ``key = value`` pairs, comma-separated
lists, and a small function-call DSL with bracketed vectors for set
expressions, e.g.::

    [experiment]
    kind = verify-main
    n = 2

    [matrix]
    type = equicorrelated
    k = 2
    rho = 0.5

    [sets]
    a1 = ball([0, 0], 1.1774)
    a2 = halfspace([1, 0], 0.0)

Each key is declared once, in :data:`FIELDS`, which drives parsing, the
resolved configuration embedded in reports (defaults filled in), the
byte-stable :func:`emit_config` and :func:`apply_overrides`. Every field
has a default, which an empty list keeps. Unknown sections and keys fail.
"""
from __future__ import annotations

import configparser
import os
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import CorrelationMatrix, ou_covariance
from .geometry import AxisBox, Ball, Complement, HalfSpace, Intersection, \
    SetExpr, Union

SEED_ENV_VAR = "NOISESTAB_SEED"

EXPERIMENT_KINDS = (
    "verify-main",
    "noise-stability",
    "exit-time",
    "occupation",
    "hessian-sweep",
    "equality-diagnostic",
    "condition-check",
)


class ConfigError(ValueError):
    """Configuration is malformed; the message is field-anchored."""


# ---------------------------------------------------------------------------
# set-expression DSL
# ---------------------------------------------------------------------------

_CONSTRUCTORS = ("halfspace", "ball", "box", "complement", "intersection",
                 "union")


class _Tokens:
    def __init__(self, text: str, where: str):
        self.text = text
        self.pos = 0
        self.where = where

    def error(self, msg: str) -> ConfigError:
        return ConfigError(f"{self.where}: {msg} at column {self.pos + 1}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start:self.pos].lower()

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in ",])":
            self.pos += 1
        token = self.text[start:self.pos].strip()
        try:
            return float(token)
        except ValueError:
            self.pos = start
            raise self.error(f"expected a number, got {token!r}")


def _parse_vector(tk: _Tokens) -> list[float]:
    tk.expect("[")
    out = [tk.number()]
    while tk.peek() == ",":
        tk.expect(",")
        out.append(tk.number())
    tk.expect("]")
    return out


def _parse_expr(tk: _Tokens) -> SetExpr:
    name = tk.name()
    if name not in _CONSTRUCTORS:
        raise tk.error(f"unknown set constructor {name!r} "
                       f"(expected one of {', '.join(_CONSTRUCTORS)})")
    tk.expect("(")
    try:
        if name == "halfspace":
            normal = _parse_vector(tk)
            tk.expect(",")
            offset = tk.number()
            tk.expect(")")
            return HalfSpace(np.array(normal), offset)
        if name == "ball":
            center = _parse_vector(tk)
            tk.expect(",")
            radius = tk.number()
            tk.expect(")")
            return Ball(np.array(center), radius)
        if name == "box":
            lo = _parse_vector(tk)
            tk.expect(",")
            hi = _parse_vector(tk)
            tk.expect(")")
            return AxisBox(np.array(lo), np.array(hi))
        if name == "complement":
            inner = _parse_expr(tk)
            tk.expect(")")
            return Complement(inner)
        parts = [_parse_expr(tk)]
        while tk.peek() == ",":
            tk.expect(",")
            parts.append(_parse_expr(tk))
        tk.expect(")")
        return Intersection(tuple(parts)) if name == "intersection" \
            else Union(tuple(parts))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise tk.error(str(exc))


def parse_set_expr(text: str, where: str = "set expression") -> SetExpr:
    """Parse one set expression; errors carry the field name and column."""
    tk = _Tokens(text, where)
    expr = _parse_expr(tk)
    tk.skip_ws()
    if tk.pos != len(tk.text):
        raise tk.error("trailing characters after expression")
    return expr


def emit_set_expr(s: SetExpr) -> str:
    """Canonical DSL text; round-trips through :func:`parse_set_expr`."""
    def vec(a):
        return "[" + ", ".join(repr(float(v)) for v in a) + "]"
    if isinstance(s, HalfSpace):
        return f"halfspace({vec(s.normal)}, {s.offset!r})"
    if isinstance(s, Ball):
        return f"ball({vec(s.center)}, {s.radius!r})"
    if isinstance(s, AxisBox):
        return f"box({vec(s.lower)}, {vec(s.upper)})"
    if isinstance(s, Complement):
        return f"complement({emit_set_expr(s.inner)})"
    if isinstance(s, Intersection):
        return "intersection(" + ", ".join(emit_set_expr(p) for p in s.parts) + ")"
    if isinstance(s, Union):
        return "union(" + ", ".join(emit_set_expr(p) for p in s.parts) + ")"
    raise TypeError(f"not a set expression: {type(s).__name__}")


# ---------------------------------------------------------------------------
# config dataclasses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixSpec:
    kind: str = "equicorrelated"       # explicit | ou-times | equicorrelated
    k: int = 2
    rho: float = 0.5
    times: tuple[float, ...] = ()
    rows: tuple[tuple[float, ...], ...] = ()

    def build(self) -> CorrelationMatrix:
        if self.kind == "equicorrelated":
            if self.k < 1:
                raise ConfigError(f"[matrix] k: {self.k}, but a correlation "
                                  "matrix needs k >= 1")
            return CorrelationMatrix.equicorrelated(self.k, self.rho)
        if self.kind == "ou-times":
            if not self.times:
                raise ConfigError("[matrix] times: required for type ou-times")
            return ou_covariance(self.times)
        if self.kind == "explicit":
            if not self.rows:
                raise ConfigError("[matrix] rows: required for type explicit")
            return CorrelationMatrix(np.array(self.rows))
        raise ConfigError(f"[matrix] type: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class SamplingSpec:
    samples: int = 1_000_000
    paths: int = 100_000
    seed: int = 0
    target_se: float = 1e-4
    probes: int = 200


@dataclass(frozen=True)
class GridSpec:
    taus: tuple[float, ...] = (0.5,)
    steps: int = 512


@dataclass(frozen=True)
class SweepSpec:
    x_axis: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    random_x: int = 0
    rhos: tuple[float, ...] = ()
    grids: int = 20       # condition-check: number of random time grids
    k_max: int = 5


@dataclass(frozen=True)
class OutputSpec:
    report: str = ""
    csv: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "verify-main"
    n: int = 2
    t: float = 0.5
    matrix: MatrixSpec = MatrixSpec()
    sets: tuple[SetExpr, ...] = ()
    sampling: SamplingSpec = SamplingSpec()
    grid: GridSpec = GridSpec()
    sweep: SweepSpec = SweepSpec()
    output: OutputSpec = OutputSpec()

    def resolved_dict(self) -> dict:
        """Every field, defaults included, as JSON-ready primitives."""
        d = {section: {} for section in SECTIONS}
        d["sets"] = [emit_set_expr(s) for s in self.sets]
        for f in FIELDS:
            d[f.section][f.report or f.key] = _plain(_get(self, f))
        return d


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


# ---------------------------------------------------------------------------
# the field table: parsing, reporting, emission and overrides
# ---------------------------------------------------------------------------

def _floats(text: str, where: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, "
                          f"got {text!r}")


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}")


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}")


def _emit_floats(values) -> str:
    return ", ".join(repr(v) for v in values)


def _choice(options: tuple[str, ...]):
    def parse(text: str, where: str) -> str:
        if text.strip() not in options:
            raise ConfigError(f"{where}: {text.strip()!r} is not one of "
                              f"{', '.join(options)}")
        return text.strip()
    return parse, str


_INT = (_int, str)
_FLOAT = (_float, repr)
_FLOATS = (_floats, _emit_floats)
_ROWS = (lambda text, where: tuple(_floats(row, where) for row in
                                   text.split(";") if row.strip()),
         lambda rows: "; ".join(_emit_floats(r) for r in rows))
_TEXT = (lambda text, where: text.strip(), str)


# One entry per config key: its section; its key in the file; the
# dataclass attribute (on ExperimentConfig for [experiment], else on the
# section's spec); the value parser and emitter; the apply_overrides
# keyword that sets it; its name in resolved_dict if not the key.
Field = namedtuple("Field", "section key attr parse emit flag report",
                   defaults=(None, None))

SECTIONS = ("experiment", "matrix", "sets", "sampling", "grid", "sweep",
            "output")

FIELDS = (
    Field("experiment", "kind", "kind", *_choice(EXPERIMENT_KINDS),
          flag="kind"),
    Field("experiment", "n", "n", *_INT),
    Field("experiment", "t", "t", *_FLOAT),
    Field("matrix", "type", "kind",
          *_choice(("explicit", "ou-times", "equicorrelated"))),
    Field("matrix", "k", "k", *_INT),
    Field("matrix", "rho", "rho", *_FLOAT),
    Field("matrix", "times", "times", *_FLOATS),
    Field("matrix", "rows", "rows", *_ROWS),
    Field("sampling", "samples", "samples", *_INT, flag="samples"),
    Field("sampling", "paths", "paths", *_INT, flag="paths"),
    Field("sampling", "seed", "seed", *_INT, flag="seed"),
    Field("sampling", "target_se", "target_se", *_FLOAT),
    Field("sampling", "probes", "probes", *_INT),
    Field("grid", "taus", "taus", *_FLOATS, flag="taus"),
    Field("grid", "steps", "steps", *_INT, flag="steps"),
    Field("sweep", "x", "x_axis", *_FLOATS, report="x_axis"),
    Field("sweep", "random_x", "random_x", *_INT),
    Field("sweep", "rhos", "rhos", *_FLOATS),
    Field("sweep", "grids", "grids", *_INT),
    Field("sweep", "k_max", "k_max", *_INT),
    Field("output", "report", "report", *_TEXT, flag="out"),
    Field("output", "csv", "csv", *_TEXT),
)


def _get(cfg: ExperimentConfig, f: Field):
    return getattr(cfg if f.section == "experiment"
                   else getattr(cfg, f.section), f.attr)


def _with(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    """``cfg`` with each Field in ``values`` set to its value."""
    def changes(section):
        return {f.attr: v for f, v in values.items() if f.section == section}
    specs = {f.section for f in values} - {"experiment"}
    return replace(cfg, **changes("experiment"), **{
        s: replace(getattr(cfg, s), **changes(s)) for s in specs})


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse a config document. A document without ``[sampling] seed``
    takes the seed from NOISESTAB_SEED when that is set."""
    # ';' stays available inside values (explicit matrix rows use it).
    cp = configparser.ConfigParser(comment_prefixes=("#",),
                                   inline_comment_prefixes=None,
                                   interpolation=None)
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc))

    # configparser hides [DEFAULT] from sections() and copies its keys into
    # every section, so it would otherwise slip past both checks below
    if cp.defaults():
        raise ConfigError(f"[{cp.default_section}]: keys are not allowed "
                          f"here, got {sorted(cp.defaults())}")
    unknown = set(cp.sections()) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    for section in cp.sections():
        unknown = set(cp[section]) - {f.key for f in FIELDS
                                      if f.section == section}
        if unknown and section != "sets":
            raise ConfigError(f"[{section}]: unknown key(s) {sorted(unknown)}")

    values = {f: f.parse(cp[f.section][f.key], f"[{f.section}] {f.key}")
              for f in FIELDS if cp.has_option(f.section, f.key)}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed and not cp.has_option("sampling", "seed"):
        seed = next(f for f in FIELDS if f.key == "seed")
        values[seed] = seed.parse(env_seed, f"${SEED_ENV_VAR}")
    # an empty list keeps its default
    cfg = _with(ExperimentConfig(), {f: v for f, v in values.items()
                                     if v != ()})

    if cp.has_section("sets"):
        sets = []
        for key in cp["sets"]:
            s = parse_set_expr(cp["sets"][key], where=f"[sets] {key}")
            if s.dim != cfg.n:
                raise ConfigError(f"[experiment] n: {cfg.n}, but [sets] {key} "
                                  f"is {s.dim}-dimensional")
            sets.append(s)
        cfg = replace(cfg, sets=tuple(sets))
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config(text, path=path)


def apply_overrides(cfg: ExperimentConfig, *, seed=None, samples=None,
                    paths=None, steps=None, taus=None, out=None,
                    kind=None) -> ExperimentConfig:
    """Resolve command-line flags.

    Each keyword sets the field whose ``flag`` it is in :data:`FIELDS`,
    converted to that field's type, so a ``seed`` flag beats both the
    config and NOISESTAB_SEED (which ``parse_config`` resolves).
    """
    flags = dict(locals())            # keyword name -> value
    return _with(cfg, {f: type(_get(cfg, f))(flags[f.flag]) for f in FIELDS
                       if flags.get(f.flag) is not None})


def emit_config(cfg: ExperimentConfig) -> str:
    """Re-emit the resolved configuration; stable byte-for-byte under a
    parse/emit round trip."""
    lines = []
    for section in SECTIONS:
        if section == "sets":
            pairs = [(f"a{i + 1}", emit_set_expr(s))
                     for i, s in enumerate(cfg.sets)]
        else:
            pairs = [(f.key, f.emit(_get(cfg, f))) for f in FIELDS
                     if f.section == section]
        if pairs:
            lines += [f"[{section}]", *(f"{k} = {v}" for k, v in pairs), ""]
    return "".join(line + "\n" for line in lines)
