import dataclasses
import hashlib
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import AxisBox, Ball, Complement, HalfSpace, Intersection, Union
from noisestab.config import (
    EXPERIMENT_KINDS,
    FIELDS,
    SECTIONS,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    MatrixSpec,
    OutputSpec,
    SamplingSpec,
    SweepSpec,
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


# -- hypothesis strategies ---------------------------------------------------

NUMBERS = st.floats(allow_nan=False)          # infinities included


def vectors(n, elements=NUMBERS):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


def set_exprs(n):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    leaves = st.one_of(
        st.builds(HalfSpace, vectors(n, finite).filter(np.any), NUMBERS),
        st.builds(Ball, vectors(n, finite),
                  st.floats(min_value=0.0, allow_nan=False)),
        st.builds(lambda a, b: AxisBox(np.minimum(a, b), np.maximum(a, b)),
                  vectors(n), vectors(n)))
    def nodes(inner):
        parts = st.lists(inner, min_size=1, max_size=3).map(tuple)
        return st.one_of(st.builds(Complement, inner),
                         st.builds(Intersection, parts),
                         st.builds(Union, parts))
    return st.recursive(leaves, nodes, max_leaves=6)


def floats(min_size=0):
    return st.lists(NUMBERS, min_size=min_size, max_size=4).map(tuple)


INTS = st.integers(-2**64, 2**64)
# no line breaks; no surrounding whitespace, which the parser strips
TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
               max_size=12).map(str.strip)


@st.composite
def configs(draw):
    n = draw(st.integers(1, 4))
    return ExperimentConfig(
        kind=draw(st.sampled_from(EXPERIMENT_KINDS)), n=n, t=draw(NUMBERS),
        matrix=MatrixSpec(
            kind=draw(st.sampled_from(("explicit", "ou-times",
                                       "equicorrelated"))),
            k=draw(INTS), rho=draw(NUMBERS), times=draw(floats()),
            rows=draw(st.lists(floats(1), max_size=3).map(tuple))),
        sets=draw(st.lists(set_exprs(n), max_size=3).map(tuple)),
        sampling=SamplingSpec(samples=draw(INTS), paths=draw(INTS),
                              seed=draw(INTS), target_se=draw(NUMBERS),
                              probes=draw(INTS)),
        # an empty taus or x keeps its default, so neither is drawn empty
        grid=GridSpec(taus=draw(floats(1)), steps=draw(INTS)),
        sweep=SweepSpec(x_axis=draw(floats(1)), random_x=draw(INTS),
                        rhos=draw(floats()), grids=draw(INTS),
                        k_max=draw(INTS)),
        output=OutputSpec(report=draw(TEXT), csv=draw(TEXT)))


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

    @pytest.mark.parametrize("text,message", [
        ("halfspace([1, 0])", "expected ',' at column 17"),
        ("ball(1.0, [0, 0])", "expected '[' at column 6"),
        ("box([0, 0], 1)", "expected '[' at column 13"),
        ("complement(ball([0, 0], 1), ball([0, 0], 2))",
         "expected ')' at column 27"),
        ("union()", "expected a name at column 7"),
        ("intersection(ball([0,0],1),)", "expected a name at column 28"),
    ])
    def test_argument_error_text(self, text, message):
        """Each constructor's arity and argument-kind errors, in full."""
        with pytest.raises(ConfigError) as err:
            parse_set_expr(text, where="[sets] a1")
        assert str(err.value) == f"[sets] a1: {message}"

    @pytest.mark.parametrize("text", ["box([nan, 0], [1, 1])",
                                      "box([0, 0], [1, NaN])",
                                      "halfspace([1, 0], nan)",
                                      "union(ball([0, 0], 1), "
                                      "halfspace([0, 1], nan))"])
    def test_nan_rejected(self, text):
        with pytest.raises(ConfigError, match=r"\[sets\] a1: .*nan"):
            parse_set_expr(text, where="[sets] a1")

    def test_infinite_bounds_allowed(self):
        box = parse_set_expr("box([-inf, 0], [inf, inf])")
        assert box.lower[0] == -np.inf and box.upper[1] == np.inf
        assert parse_set_expr("halfspace([1, 0], -inf)").offset == -np.inf

    def test_round_trip(self):
        for text in ("halfspace([1.0, 0.0], 0.25)",
                     "union(ball([0.0, 0.0], 1.0), box([-1.0, -1.0], [1.0, 1.0]))",
                     "complement(ball([0.5, 0.5], 0.75))"):
            s = parse_set_expr(text)
            assert emit_set_expr(parse_set_expr(emit_set_expr(s))) == \
                emit_set_expr(s)

    @pytest.mark.parametrize("normal", [[1.0, 1.0], [0.3, -2.0, 5.5],
                                        [1e-160, 0.0], [3e-170, 4e-170],
                                        [1e200, -1e200], [5e-324, 0.0]])
    def test_halfspace_normal_is_unit_and_stable(self, normal):
        s = parse_set_expr(f"halfspace({normal}, 0.5)")
        assert abs(np.linalg.norm(s.normal) - 1.0) <= 1e-15
        text = emit_set_expr(s)
        assert emit_set_expr(parse_set_expr(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(set_exprs))
    def test_round_trip_property(self, s):
        text = emit_set_expr(s)
        again = parse_set_expr(text)
        assert type(again) is type(s)
        assert again.dim == s.dim
        assert emit_set_expr(again) == text


class TestParseConfig:
    def test_unknown_key_anchored(self):
        with pytest.raises(ConfigError, match=re.escape(
                "[sampling]: unknown key(s) ['sampels']")):
            parse_config("[sampling]\nsampels = 5\n")

    @pytest.mark.parametrize("doc, keys", [
        ("[experiment]\nkind = exit-time\nN = 3\ntau = 1\nsteps = 4\n",
         "['steps', 'tau']"),
        ("[matrix]\nkind = explicit\n", "['kind']"),
        ("[sweep]\nx_axis = 0.5\n", "['x_axis']"),
        ("[output]\nreport = r.json\njson = r.json\n", "['json']"),
    ])
    def test_attribute_names_are_not_keys(self, doc, keys):
        # configparser lowercases keys, so N is the known n; a key of
        # another section and the attribute names kind and x_axis are not
        # keys here
        with pytest.raises(ConfigError, match=re.escape(keys)):
            parse_config(doc)

    @pytest.mark.parametrize("doc, keys", [
        ("[DEFAULT]\nsampels = 5\n", "['sampels']"),
        ("[DEFAULT]\nseed = 5\n[experiment]\nkind = verify-main\n",
         "['seed']"),
    ])
    def test_default_section_rejected(self, doc, keys):
        # configparser hides [DEFAULT] and copies its keys into every
        # section; the error names [DEFAULT] itself
        with pytest.raises(ConfigError, match=re.escape(
                f"[DEFAULT]: keys are not allowed here, got {keys}")):
            parse_config(doc)

    def test_sets_take_any_key(self):
        cfg = parse_config("[sets]\nleft = ball([0, 0], 1.0)\n"
                           "b = halfspace([0, 1], 0.0)\n")
        assert [type(s) for s in cfg.sets] == [Ball, HalfSpace]

    def test_empty_list_keeps_default(self):
        cfg = parse_config("[matrix]\ntimes =\nrows =\n[grid]\ntaus =\n"
                           "[sweep]\nx =\nrhos =\n")
        assert cfg == ExperimentConfig()

    def test_unknown_matrix_type_anchored(self):
        with pytest.raises(ConfigError, match=r"\[matrix\] type: 'toeplitz'"):
            parse_config("[matrix]\ntype = toeplitz\n")

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

    @settings(max_examples=100, deadline=None)
    @given(configs())
    def test_round_trip_property(self, cfg):
        text = emit_config(cfg)
        again = parse_config(text)
        assert again.resolved_dict() == cfg.resolved_dict()
        assert emit_config(again) == text

    def test_explicit_rows_round_trip(self):
        doc = "[matrix]\ntype = explicit\nrows = 1.0, 0.25; 0.25, 1.0\n"
        cfg = parse_config(doc)
        again = parse_config(emit_config(cfg))
        assert again.matrix.rows == cfg.matrix.rows


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.cfg"))

# sha256 of json.dumps(load_config(p).resolved_dict(), sort_keys=True):
# the block every report embeds and fingerprints. A rename that parses
# and emits consistently still changes these.
PINNED_RESOLVED = {
    "ball_vs_bound.cfg":
        "090cc79033bc1a995ff65aad4aec37a3bb82cdaba4b443d72b1c734f92fab066",
    "composite_main.cfg":
        "848340a7ddc3409bc2d2f7ebb67cf888b3bbf24de000573a45e679a1f5492e19",
    "condition.cfg":
        "3b4eb96091e0fc63a8aa27964065e8a1e730e6e32d4d233182a22fc0e63355b1",
    "equality_diag.cfg":
        "495d9242aa61c00c437cad4f85fd1af09d18b98cac415b159ed4d8525a3c0499",
    "exit_ball.cfg":
        "188630050de6d8eaeb5802fe6457cc0f5a8e6efc223e15b978af217a1887a8f0",
    "k2grid.cfg":
        "dee4c39c001e9445755f5d2234ae8367a70cc477caa501fb4e87efc8c5c08c32",
    "noise_ball.cfg":
        "a0523f8f5eecfb1fb65b661d10df82ee1cbeb9883c256aa89621c8171ef82f03",
    "occupation_balls.cfg":
        "0accfb1359b603ad23b6d17dd4fa1382d952f3caec40bb920397a4a96be09222",
    "parallel.cfg":
        "05e6e8439e9c7b91cb38e3aed94a161f3a0398bdb423da8995047df790d54c57",
}


class TestShippedConfigs:
    def test_configs_found(self):
        assert [p.name for p in SHIPPED] == sorted(PINNED_RESOLVED)

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_resolved_dict_pinned(self, path):
        blob = json.dumps(load_config(str(path)).resolved_dict(),
                          sort_keys=True)
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() \
            == PINNED_RESOLVED[path.name]

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

    def test_env_seed_loses_to_config_zero(self, monkeypatch):
        # the config sets the seed, so the environment does not apply
        monkeypatch.setenv("NOISESTAB_SEED", "4242")
        cfg = apply_overrides(parse_config("[sampling]\nseed = 0\n"))
        assert cfg.sampling.seed == 0

    def test_env_seed_loses_to_flag(self, monkeypatch):
        monkeypatch.setenv("NOISESTAB_SEED", "4242")
        cfg = apply_overrides(parse_config(""), seed=9)
        assert cfg.sampling.seed == 9

    def test_kind_override(self):
        cfg = apply_overrides(ExperimentConfig(), kind="condition-check")
        assert cfg.kind == "condition-check"


class TestFieldTable:
    def test_each_key_and_attribute_declared_once(self):
        keys = [(f.section, f.key) for f in FIELDS]
        attrs = [(f.section, f.attr) for f in FIELDS]
        assert len(set(keys)) == len(keys) == len(set(attrs))
        assert {f.section for f in FIELDS} == set(SECTIONS) - {"sets"}

    def test_every_dataclass_field_has_an_entry(self):
        specs = {"matrix": MatrixSpec, "sampling": SamplingSpec,
                 "grid": GridSpec, "sweep": SweepSpec, "output": OutputSpec}
        for section, spec in specs.items():
            assert {f.attr for f in FIELDS if f.section == section} \
                == {a.name for a in dataclasses.fields(spec)}
        top = {a.name for a in dataclasses.fields(ExperimentConfig)}
        assert {f.attr for f in FIELDS if f.section == "experiment"} \
            == top - set(specs) - {"sets"}

    def test_flags_are_the_override_keywords(self):
        params = inspect.signature(apply_overrides).parameters
        assert {f.flag for f in FIELDS if f.flag} == set(params) - {"cfg"}

    def test_emit_writes_every_key(self):
        text = emit_config(ExperimentConfig())
        for f in FIELDS:
            assert f"\n{f.key} = " in text
