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

Every field has an explicit default; the resolved configuration (with
all defaults filled in) is what gets embedded in reports, and
:func:`emit_config` re-emits it byte-stably.
"""
from __future__ import annotations

import configparser
import io
import os
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
        return {
            "experiment": {"kind": self.kind, "n": self.n, "t": self.t},
            "matrix": {
                "type": self.matrix.kind, "k": self.matrix.k,
                "rho": self.matrix.rho, "times": list(self.matrix.times),
                "rows": [list(r) for r in self.matrix.rows],
            },
            "sets": [emit_set_expr(s) for s in self.sets],
            "sampling": {
                "samples": self.sampling.samples, "paths": self.sampling.paths,
                "seed": self.sampling.seed,
                "target_se": self.sampling.target_se,
                "probes": self.sampling.probes,
            },
            "grid": {"taus": list(self.grid.taus), "steps": self.grid.steps},
            "sweep": {
                "x_axis": list(self.sweep.x_axis),
                "random_x": self.sweep.random_x,
                "rhos": list(self.sweep.rhos),
                "grids": self.sweep.grids, "k_max": self.sweep.k_max,
            },
            "output": {"report": self.output.report, "csv": self.output.csv},
        }


# ---------------------------------------------------------------------------
# parsing
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


def _parser() -> configparser.ConfigParser:
    # ';' stays available inside values (explicit matrix rows use it).
    return configparser.ConfigParser(comment_prefixes=("#",),
                                     inline_comment_prefixes=None,
                                     interpolation=None)


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    cp = _parser()
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc))

    cfg = ExperimentConfig()

    known = {"experiment", "matrix", "sets", "sampling", "grid", "sweep",
             "output"}
    unknown = set(cp.sections()) - known
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")

    if cp.has_section("experiment"):
        sec = cp["experiment"]
        kind = sec.get("kind", cfg.kind).strip()
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"[experiment] kind: {kind!r} is not one of "
                              f"{', '.join(EXPERIMENT_KINDS)}")
        cfg = replace(cfg, kind=kind,
                      n=_int(sec.get("n", str(cfg.n)), "[experiment] n"),
                      t=_float(sec.get("t", str(cfg.t)), "[experiment] t"))

    if cp.has_section("matrix"):
        sec = cp["matrix"]
        m = MatrixSpec(
            kind=sec.get("type", cfg.matrix.kind).strip(),
            k=_int(sec.get("k", str(cfg.matrix.k)), "[matrix] k"),
            rho=_float(sec.get("rho", str(cfg.matrix.rho)), "[matrix] rho"),
            times=_floats(sec.get("times", ""), "[matrix] times"),
            rows=tuple(_floats(row, "[matrix] rows")
                       for row in sec.get("rows", "").split(";")
                       if row.strip()),
        )
        if m.kind not in ("explicit", "ou-times", "equicorrelated"):
            raise ConfigError(f"[matrix] type: unknown kind {m.kind!r}")
        cfg = replace(cfg, matrix=m)

    if cp.has_section("sets"):
        sets = []
        for key in cp["sets"]:
            s = parse_set_expr(cp["sets"][key], where=f"[sets] {key}")
            if s.dim != cfg.n:
                raise ConfigError(f"[experiment] n: {cfg.n}, but [sets] {key} "
                                  f"is {s.dim}-dimensional")
            sets.append(s)
        cfg = replace(cfg, sets=tuple(sets))

    if cp.has_section("sampling"):
        sec = cp["sampling"]
        cfg = replace(cfg, sampling=SamplingSpec(
            samples=_int(sec.get("samples", str(cfg.sampling.samples)),
                         "[sampling] samples"),
            paths=_int(sec.get("paths", str(cfg.sampling.paths)),
                       "[sampling] paths"),
            seed=_int(sec.get("seed", str(cfg.sampling.seed)),
                      "[sampling] seed"),
            target_se=_float(sec.get("target_se",
                                     str(cfg.sampling.target_se)),
                             "[sampling] target_se"),
            probes=_int(sec.get("probes", str(cfg.sampling.probes)),
                        "[sampling] probes"),
        ))

    if cp.has_section("grid"):
        sec = cp["grid"]
        taus = _floats(sec.get("taus", ""), "[grid] taus") or cfg.grid.taus
        cfg = replace(cfg, grid=GridSpec(
            taus=taus,
            steps=_int(sec.get("steps", str(cfg.grid.steps)),
                       "[grid] steps")))

    if cp.has_section("sweep"):
        sec = cp["sweep"]
        x_axis = _floats(sec.get("x", ""), "[sweep] x") or cfg.sweep.x_axis
        cfg = replace(cfg, sweep=SweepSpec(
            x_axis=x_axis,
            random_x=_int(sec.get("random_x", str(cfg.sweep.random_x)),
                          "[sweep] random_x"),
            rhos=_floats(sec.get("rhos", ""), "[sweep] rhos"),
            grids=_int(sec.get("grids", str(cfg.sweep.grids)),
                       "[sweep] grids"),
            k_max=_int(sec.get("k_max", str(cfg.sweep.k_max)),
                       "[sweep] k_max")))

    if cp.has_section("output"):
        sec = cp["output"]
        cfg = replace(cfg, output=OutputSpec(
            report=sec.get("report", cfg.output.report).strip(),
            csv=sec.get("csv", cfg.output.csv).strip()))

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
    """Resolve command-line flags and the seed environment variable.

    Precedence for the seed: flag, config value, then the environment
    default NOISESTAB_SEED if the config kept the built-in 0.
    """
    if kind is not None:
        cfg = replace(cfg, kind=kind)
    sampling = cfg.sampling
    if seed is None and sampling.seed == 0 and os.environ.get(SEED_ENV_VAR):
        seed = _int(os.environ[SEED_ENV_VAR], f"${SEED_ENV_VAR}")
    if seed is not None:
        sampling = replace(sampling, seed=int(seed))
    if samples is not None:
        sampling = replace(sampling, samples=int(samples))
    if paths is not None:
        sampling = replace(sampling, paths=int(paths))
    cfg = replace(cfg, sampling=sampling)
    grid = cfg.grid
    if steps is not None:
        grid = replace(grid, steps=int(steps))
    if taus is not None:
        grid = replace(grid, taus=tuple(float(t) for t in taus))
    cfg = replace(cfg, grid=grid)
    if out is not None:
        cfg = replace(cfg, output=replace(cfg.output, report=str(out)))
    return cfg


def emit_config(cfg: ExperimentConfig) -> str:
    """Re-emit the resolved configuration; stable byte-for-byte under a
    parse/emit round trip."""
    out = io.StringIO()

    def section(name, pairs):
        out.write(f"[{name}]\n")
        for key, value in pairs:
            out.write(f"{key} = {value}\n")
        out.write("\n")

    section("experiment", [("kind", cfg.kind), ("n", cfg.n), ("t", repr(cfg.t))])
    m = cfg.matrix
    pairs = [("type", m.kind), ("k", m.k), ("rho", repr(m.rho))]
    if m.times:
        pairs.append(("times", ", ".join(repr(v) for v in m.times)))
    if m.rows:
        pairs.append(("rows", "; ".join(", ".join(repr(v) for v in row)
                                        for row in m.rows)))
    section("matrix", pairs)
    if cfg.sets:
        section("sets", [(f"a{i + 1}", emit_set_expr(s))
                         for i, s in enumerate(cfg.sets)])
    s = cfg.sampling
    section("sampling", [("samples", s.samples), ("paths", s.paths),
                         ("seed", s.seed), ("target_se", repr(s.target_se)),
                         ("probes", s.probes)])
    g = cfg.grid
    section("grid", [("taus", ", ".join(repr(v) for v in g.taus)),
                     ("steps", g.steps)])
    w = cfg.sweep
    section("sweep", [("x", ", ".join(repr(v) for v in w.x_axis)),
                      ("random_x", w.random_x),
                      ("rhos", ", ".join(repr(v) for v in w.rhos)),
                      ("grids", w.grids), ("k_max", w.k_max)])
    section("output", [("report", cfg.output.report), ("csv", cfg.output.csv)])
    return out.getvalue()
