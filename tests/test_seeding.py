import json
import threading

import numpy as np
import pytest

from noisestab import Ball, OrthantQuery, Union, gaussian_measure, \
    orthant_mc, semigroup_apply
from noisestab import seeding
from noisestab.cli import cli_main
from noisestab.report import report_fingerprint
from noisestab.seeding import BATCH, batches, fan_out, subseed

# Sub-seeds frozen from the per-module helpers that subseed replaced
# (jfunc/verify key tuples and the gradient-check probe seeds), so any
# drift in derived seeds shows here.
PINNED_SUBSEEDS = [
    (0, ("value",), 1135402999974783973),
    (7, ("grad", 2), 8875956289226509997),
    (12345, ("pair", 0, 1), 931248639176950566),
    (2**64 - 1, ("joint", 3), 6178710676445349254),
    (606, ("measure", 0), 5307913917695254068),
    (0, ("probe", 0), 2525680773010976778),
    (7, ("probe", 5), 7031712187210391310),
    (99, ("probe", 17), 7626033259677303643),
]


class TestBatches:
    @pytest.mark.parametrize("samples", [1, BATCH - 1, BATCH, BATCH + 1,
                                         3 * BATCH + 17, 10**6])
    def test_counts_cover_samples_in_order(self, samples):
        parts = list(batches(samples))
        assert [i for i, _ in parts] == list(range(len(parts)))
        assert sum(c for _, c in parts) == samples
        assert all(1 <= c <= BATCH for _, c in parts)
        assert all(c == BATCH for _, c in parts[:-1])

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            batches(bad)


class TestSubseed:
    @pytest.mark.parametrize("seed,key,expected", PINNED_SUBSEEDS)
    def test_pinned(self, seed, key, expected):
        assert subseed(seed, *key) == expected


class TestIndicatorStreams:
    """The Monte Carlo indicator averages draw all batches from one stream,
    so the batch size sets memory use and never the result."""

    ESTIMATORS = {
        "gaussian_measure": lambda: gaussian_measure(
            Union((Ball(np.array([0.3, -0.2, 0.1]), 1.1),)), 5000, 31),
        "orthant_mc": lambda: orthant_mc(
            OrthantQuery(np.array([0.2, -0.1]),
                         np.array([[1.0, 0.4], [0.4, 1.0]])), 5000, 32),
        "semigroup_apply": lambda: semigroup_apply(
            Ball(np.zeros(2), 1.0), 0.5, np.array([0.4, 0.1]), 5000, 33),
    }

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_result_independent_of_batch_size(self, name, monkeypatch):
        whole = self.ESTIMATORS[name]()
        monkeypatch.setattr(seeding, "BATCH", 999)
        assert len(list(batches(5000))) == 6
        chunked = self.ESTIMATORS[name]()
        assert chunked == whole
        assert 0.0 < whole.value < 1.0 and whole.samples == 5000


class TestFanOut:
    def test_results_in_item_order(self, monkeypatch):
        monkeypatch.setattr(seeding, "WORKERS", 2)
        assert fan_out(lambda x: x * x, range(10)) == [x * x for x in
                                                        range(10)]

    def test_one_item_runs_on_calling_thread(self, monkeypatch):
        # what the draw-counting proxies of the single-batch scans in
        # tests/test_ousim.py::TestCompaction rely on
        monkeypatch.setattr(seeding, "WORKERS", 2)
        me = threading.current_thread()
        assert fan_out(lambda _: threading.current_thread(), [0]) == [me]

    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(seeding, "WORKERS", 1)
        me = threading.current_thread()
        assert fan_out(lambda _: threading.current_thread(),
                       range(3)) == [me] * 3

    def test_nested_use_runs_on_the_pool_thread(self, monkeypatch):
        # more outer items than workers: a nested call that waited on the
        # pool would deadlock, so the caller waits with a timeout
        monkeypatch.setattr(seeding, "WORKERS", 2)

        def outer(_):
            here = threading.current_thread()
            return here, fan_out(lambda _: threading.current_thread(),
                                 range(3))

        results = []
        caller = threading.Thread(
            target=lambda: results.extend(fan_out(outer, range(4))),
            daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(results) == 4
        for here, inner in results:
            assert here is not caller
            assert inner == [here] * 3

    def test_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(seeding, "WORKERS", 2)

        def fail_on_two(x):
            if x == 2:
                raise ValueError("item 2")
            return x

        with pytest.raises(ValueError, match="item 2"):
            fan_out(fail_on_two, range(4))


# A two-horizon exit-time run of 70,000 paths: four shards per scan.
EXIT_CFG = """[experiment]
kind = exit-time
n = 2

[sets]
a1 = ball([0, 0], 1.1774100225154747)

[sampling]
samples = 1000
paths = 70000
seed = 24

[grid]
taus = 0.25, 0.5
steps = 32
"""

# (lhs, lhs se, rhs, rhs se, margin in SEs) per horizon, as the
# sequential scans gave them. The rhs is the exact survival of the
# matched half-space, so its se is 0.
PINNED_EXIT = [
    (0.17242425145025056, 0.0008227503415322717, 0.28417173094549586, 0.0,
     135.82185731716538),
    (0.07617080504631345, 0.0007686814988228795, 0.20743930276397543, 0.0,
     170.7709863170637),
]


class TestWorkerCount:
    def test_exit_time_report(self, monkeypatch, tmp_path):
        cfg = tmp_path / "exit.cfg"
        cfg.write_text(EXIT_CFG)
        out = tmp_path / "report.json"
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            assert cli_main(["exit-time", "--config", str(cfg), "--out",
                             str(out), "--quiet"]) == 0
            reports.append(json.loads(out.read_text()))
        assert report_fingerprint(reports[0]) == \
            report_fingerprint(reports[1])
        assert [(c["lhs"]["value"], c["lhs"]["se"], c["rhs"]["value"],
                 c["rhs"]["se"], c["margin_se"])
                for c in reports[0]["results"]] == PINNED_EXIT
