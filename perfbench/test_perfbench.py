"""Tests for the benchmark harness.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import harness  # noqa: E402
import seaweed  # noqa: E402
import seaweed.cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, _certify, cert_digest  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        tr.call("inner", inner, (), {})
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        tr.call("middle", middle, (), {})
        tr.call("inner", inner, (), {})

    tr.call("outer", outer, (), {})
    assert tr.self_s == {"outer": 3.0, "middle": 1.5, "inner": 4.0}
    assert tr.calls == {"outer": 1, "middle": 1, "inner": 2}
    spans = {sid: (name, parent) for sid, name, _, _, parent, _ in tr.spans}
    assert spans == {0: ("outer", None), 1: ("middle", 0), 2: ("inner", 1), 3: ("inner", 0)}


def test_self_time_survives_an_exception_in_a_child():
    clock = FakeClock()
    tr = Tracer(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 2.0
        with pytest.raises(ValueError):
            tr.call("failing", failing, (), {})

    tr.call("outer", outer, (), {})
    assert tr.self_s == {"outer": 2.0, "failing": 1.0}


def test_percentile_is_nearest_rank():
    values = [float(x) for x in range(10, 0, -1)]
    assert harness.percentile(values, 0.5) == 5.0
    assert harness.percentile(values, 0.9) == 9.0
    assert harness.percentile(values, 1.0) == 10.0
    assert harness.percentile([7.0], 0.9) == 7.0
    assert harness.percentile([1.0, 2.0], 0.5) == 1.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_probe_time_is_left_out_and_stretches_use_nearby_references():
    probe = harness.SpeedProbe()
    probe.marks = [(0.0, 1.0), (5.0, 6.0), (8.0, 9.0), (11.0, 13.0)]
    nominal = harness.NOMINAL_REFERENCE_S
    # stretches 2..5, 6..8 and 9..10, each at a median reference of 1 s
    assert probe.split(2.0, 10.0) == (6.0, 6.0 * nominal)
    assert probe.split(2.0, 4.0) == (2.0, 2.0 * nominal)
    # 9.5..11 and 13..14 at the median of 1 s and 2 s
    seconds, corrected = probe.split(9.5, 14.0)
    assert seconds == 2.5 and corrected == pytest.approx(2.5 / 1.5 * nominal)


def _outputs():
    sp = seaweed.SeaweedSpec.parse("2|2|2 / 6")  # index 3: every trial falls back
    idx = seaweed.index_randomized(seaweed.materialize(sp), trials=3, seed=5)
    two_paths = seaweed.SeaweedSpec.parse("1|3|3 / 7")
    cert = seaweed.synthesize_contact(two_paths).to_json()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        seaweed.cli.main(["enumerate", "4", "--csv"])
    return idx, cert, buf.getvalue()


def test_wrappers_keep_results_and_are_restored():
    originals = {
        "liealg.bhat_det": seaweed.liealg.bhat_det,
        "contact.bhat_det": seaweed.contact.bhat_det,
        "liealg._det": seaweed.liealg._det,
        "kernels.rank_mod": seaweed._kernels.rank_mod,
        "pure.echelon_int": seaweed._kernels.pure.echelon_int,
        "cli.cmd_enumerate": seaweed.cli.cmd_enumerate,
        "from_rows": seaweed.exact.RatMatrix.__dict__["from_rows"],
    }
    plain = _outputs()
    tr = Tracer()
    tr.install()
    try:
        assert seaweed.contact.bhat_det is not originals["contact.bhat_det"]
        assert seaweed._kernels.pure.echelon_int is originals["pure.echelon_int"]
        traced = _outputs()
    finally:
        tr.restore()
    assert traced == plain
    assert tr.calls["kernels.rank_mod"] == 3
    # materialize's span check reaches rank_int through exact.rank
    assert tr.calls["kernels.rank_int"] == 3 + tr.calls["exact.rank"]
    assert tr.counters["liealg.oracle.trials"] == 3
    assert tr.counters["liealg.oracle.exact_fallbacks"] == 3
    assert tr.calls["contact.case1_contact"] == 1
    assert tr.counters["contact.case1.diag_indices_tried"] >= 1
    assert tr.calls["cli.enumerate"] == 1
    assert tr.calls["meander.build_meander"] > 64  # census rows go through the cli alias
    assert tr.calls["exact.RatMatrix.from_rows"] > 0
    metrics = tr.per_layer(1)
    assert metrics["liealg.oracle.modp_settled_ratio"] == (0.0, "ratio")
    assert metrics["kernels.rank_mod.ops"][0] == 3 * 23**3
    current = {
        "liealg.bhat_det": seaweed.liealg.bhat_det,
        "contact.bhat_det": seaweed.contact.bhat_det,
        "liealg._det": seaweed.liealg._det,
        "kernels.rank_mod": seaweed._kernels.rank_mod,
        "pure.echelon_int": seaweed._kernels.pure.echelon_int,
        "cli.cmd_enumerate": seaweed.cli.cmd_enumerate,
        "from_rows": seaweed.exact.RatMatrix.__dict__["from_rows"],
    }
    assert all(current[k] is originals[k] for k in originals)


def test_injected_failures_count_against_attempts():
    specs = [seaweed.SeaweedSpec.parse(t) for t in ("2|6 / 8", "1|3|3 / 7", "2|4 / 6")]
    goldens = {"certificates": {
        sp.text(): cert_digest(seaweed.synthesize_contact(sp).to_json()) for sp in specs
    }}
    goldens["certificates"]["1|3|3 / 7"] = "0" * 16  # a wrong golden

    def run_task(sp):
        if sp == "not a spec":
            raise ValueError("injected")
        return _certify(seaweed, sp, goldens)

    with harness.SpeedProbe() as probe:
        result = harness.run_pass([*specs, "not a spec"], run_task, probe)
    assert result.ok == [True, False, True, False]
    assert len(result.errors) == 1 and "injected" in result.errors[0]


def test_every_workload_draws_the_same_tasks_for_the_same_seed():
    cheap = {"spec_ladder", "census"}
    for name in cheap:
        w = WORKLOADS[name]
        assert w.make_tasks(seaweed, 3) == w.make_tasks(seaweed, 3)
    ladder = WORKLOADS["spec_ladder"].make_tasks
    assert ladder(seaweed, 3) != ladder(seaweed, 4)  # oracle seeds follow the seed
