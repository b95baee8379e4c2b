from pathlib import Path

import numpy as np
import pytest

from noisestab import AxisBox, Ball, Complement, HalfSpace, Intersection, Union
from noisestab.config import (
    ConfigError,
    ExperimentConfig,
    MatrixSpec,
    apply_overrides,
    emit_config,
    emit_set_expr,
    load_config,
    parse_config,
    parse_set_expr,
)

FULL_DOC = """
[experiment]
kind = exit-time
n = 2
t = 0.7

[matrix]
type = ou-times
times = 0.0, 0.5, 1.0

[sets]
a1 = union(ball([0, 0], 1.25), halfspace([1, 0], -1.5))

[sampling]
samples = 20000
paths = 5000
seed = 11
target_se = 0.001
probes = 50

[grid]
taus = 0.1, 0.2
steps = 64

[output]
report = out/report.json
csv = out/rows.csv
"""


class TestSetExprDsl:
    def test_halfspace(self):
        s = parse_set_expr("halfspace([1, 0], 0.5)")
        assert isinstance(s, HalfSpace)
        assert s.offset == 0.5

    def test_ball(self):
        s = parse_set_expr("ball([0.5, -1], 2.0)")
        assert isinstance(s, Ball) and s.radius == 2.0

    def test_box(self):
        s = parse_set_expr("box([-1, -inf], [1, 0])")
        assert isinstance(s, AxisBox)
        assert s.lower[1] == -np.inf

    def test_nested(self):
        s = parse_set_expr(
            "complement(intersection(ball([0,0],1), union(halfspace([1,0],0),"
            " ball([2,0],0.5))))")
        assert isinstance(s, Complement)
        assert isinstance(s.inner, Intersection)
        assert isinstance(s.inner.parts[1], Union)

    def test_whitespace_tolerant(self):
        s = parse_set_expr("  ball( [ 0 , 0 ] ,  1.0 ) ")
        assert isinstance(s, Ball)

    def test_unknown_constructor_anchored(self):
        with pytest.raises(ConfigError, match=r"\[sets\] a1.*column"):
            parse_set_expr("cube([0,0], 1)", where="[sets] a1")

    def test_bad_number_anchored(self):
        with pytest.raises(ConfigError, match="column"):
            parse_set_expr("ball([0, zz], 1)")

    def test_trailing_garbage(self):
        with pytest.raises(ConfigError, match="trailing"):
            parse_set_expr("ball([0,0],1) extra")

    def test_invalid_geometry_reported(self):
        with pytest.raises(ConfigError):
            parse_set_expr("ball([0,0], -1)")

    def test_round_trip(self):
        for text in ("halfspace([1.0, 0.0], 0.25)",
                     "union(ball([0.0, 0.0], 1.0), box([-1.0, -1.0], [1.0, 1.0]))",
                     "complement(ball([0.5, 0.5], 0.75))"):
            s = parse_set_expr(text)
            assert emit_set_expr(parse_set_expr(emit_set_expr(s))) == \
                emit_set_expr(s)


class TestParseConfig:
    def test_full_document(self):
        cfg = parse_config(FULL_DOC)
        assert cfg.kind == "exit-time"
        assert cfg.t == 0.7
        assert cfg.matrix.kind == "ou-times"
        assert cfg.matrix.times == (0.0, 0.5, 1.0)
        assert isinstance(cfg.sets[0], Union)
        assert cfg.sampling.seed == 11
        assert cfg.grid.taus == (0.1, 0.2)
        assert cfg.output.report == "out/report.json"

    def test_defaults_on_empty(self):
        cfg = parse_config("")
        assert cfg.kind == "verify-main"
        assert cfg.sampling.samples == 1_000_000
        assert cfg.grid.steps == 512

    def test_resolved_dict_complete(self):
        d = parse_config("").resolved_dict()
        assert set(d) == {"experiment", "matrix", "sets", "sampling", "grid",
                          "sweep", "output"}
        assert d["sampling"]["target_se"] == 1e-4

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config("[experiment]\nkind = frobnicate\n")

    def test_set_dimension_must_match_n(self):
        doc = "[experiment]\nn = 3\n[sets]\na1 = ball([0, 0], 1.0)\n"
        with pytest.raises(ConfigError, match=r"\[experiment\] n"):
            parse_config(doc)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nonsense]\nx = 1\n")

    def test_bad_int_anchored(self):
        with pytest.raises(ConfigError, match=r"\[sampling\] samples"):
            parse_config("[sampling]\nsamples = lots\n")

    def test_bad_float_anchored(self):
        with pytest.raises(ConfigError, match=r"\[matrix\] rho"):
            parse_config("[matrix]\nrho = abc\n")

    def test_explicit_matrix_rows(self):
        cfg = parse_config(
            "[matrix]\ntype = explicit\nrows = 1.0, 0.5; 0.5, 1.0\n")
        m = cfg.matrix.build()
        assert m.entries[0, 1] == 0.5

    def test_ou_matrix_requires_times(self):
        with pytest.raises(ConfigError, match="times"):
            parse_config("[matrix]\ntype = ou-times\n").matrix.build()

    def test_equicorrelated_build(self):
        m = MatrixSpec(kind="equicorrelated", k=3, rho=0.4).build()
        assert m.k == 3 and m.entries[0, 2] == 0.4


class TestEmitConfig:
    def test_round_trip_bytes(self):
        cfg = parse_config(FULL_DOC)
        text1 = emit_config(cfg)
        text2 = emit_config(parse_config(text1))
        assert text1 == text2

    def test_round_trip_semantics(self):
        cfg = parse_config(FULL_DOC)
        again = parse_config(emit_config(cfg))
        assert again.resolved_dict() == cfg.resolved_dict()

    def test_explicit_rows_round_trip(self):
        doc = "[matrix]\ntype = explicit\nrows = 1.0, 0.25; 0.25, 1.0\n"
        cfg = parse_config(doc)
        again = parse_config(emit_config(cfg))
        assert again.matrix.rows == cfg.matrix.rows


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.cfg"))


class TestShippedConfigs:
    def test_configs_found(self):
        assert SHIPPED

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_round_trip_bytes(self, path):
        cfg = load_config(str(path))
        text = emit_config(cfg)
        again = parse_config(text)
        assert emit_config(again) == text
        assert again.resolved_dict() == cfg.resolved_dict()


class TestOverrides:
    def test_flag_precedence(self):
        cfg = parse_config(FULL_DOC)
        cfg = apply_overrides(cfg, seed=99, samples=123, steps=7,
                              taus=[0.3], out="elsewhere.json")
        assert cfg.sampling.seed == 99
        assert cfg.sampling.samples == 123
        assert cfg.grid.steps == 7
        assert cfg.grid.taus == (0.3,)
        assert cfg.output.report == "elsewhere.json"

    def test_env_seed_default(self, monkeypatch):
        monkeypatch.setenv("NOISESTAB_SEED", "4242")
        cfg = apply_overrides(parse_config(""))
        assert cfg.sampling.seed == 4242

    def test_env_seed_loses_to_config(self, monkeypatch):
        monkeypatch.setenv("NOISESTAB_SEED", "4242")
        cfg = apply_overrides(parse_config("[sampling]\nseed = 5\n"))
        assert cfg.sampling.seed == 5

    def test_env_seed_loses_to_flag(self, monkeypatch):
        monkeypatch.setenv("NOISESTAB_SEED", "4242")
        cfg = apply_overrides(parse_config(""), seed=9)
        assert cfg.sampling.seed == 9

    def test_kind_override(self):
        cfg = apply_overrides(ExperimentConfig(), kind="condition-check")
        assert cfg.kind == "condition-check"
