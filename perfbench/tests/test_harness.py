"""Self-test of the benchmark harness at tiny grid sizes.

Run from the checkout root with ``python -m pytest perfbench/tests -q``.
The tiny runs go through the same launcher and checks as the
benchmark, so a check that cannot fail, or a roll-up that miscounts,
shows here in seconds rather than in a benchmark result.
"""

from __future__ import annotations

import copy
import json
import time

import pytest

import run
import tracing
import workloads


def tiny(name: str, seed: int = 1) -> workloads.Workload:
    """The workload ``name`` shrunk to a grid that runs in about a second."""
    wl = workloads.build(name, seed)
    config = copy.deepcopy(wl.config)
    if config["scenario"] == "plasma":
        config["grid"].update(nx=[8], nu=[16])
        config["schedule"]["n_steps"] = 6
        wl.legs = [workloads.Leg("run", 3, 75), workloads.Leg("resume", None, 0)]
    else:
        config["grid"].update(nx=[8, 6, 6], nu=[6, 6, 6])
    wl.config = config
    return wl


def harness(tmp_path, wl) -> run.Harness:
    return run.Harness(wl, time.monotonic() + 120.0, work=tmp_path)


def test_seed_changes_initial_conditions_only():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert a.cell_updates == b.cell_updates
        assert a.ic != b.ic
        strip = lambda c: {k: v for k, v in c.items() if k != "params"}  # noqa: E731
        assert strip(a.config) == strip(b.config)


def test_restart_run_passes_every_check(tmp_path):
    h = harness(tmp_path, tiny("plasma1d-restart"))
    ex = h.run(h.workload, "main")
    assert h.tally.failures == []
    assert [leg.exit_code for leg in ex.legs] == [75, 0]
    assert ex.legs[0].first_record_s is not None
    assert ex.legs[0].peak_rss_mb > 0
    metrics = run.end_to_end(ex)
    assert metrics["tts_s"] > metrics["setup_s"] > 0


def test_corrupted_checkpoint_fails_the_run(tmp_path):
    from checks import check_execution

    h = harness(tmp_path, tiny("plasma1d-restart"))
    ex = h.run(h.workload, "main")
    assert ex is not None
    final = ex.run_dir / "checkpoints" / f"ck_{h.workload.n_steps:08d}.npz"
    data = bytearray(final.read_bytes())
    middle = len(data) // 2
    data[middle:middle + 64] = bytes(b ^ 0xFF for b in data[middle:middle + 64])
    final.write_bytes(bytes(data))
    failures, digest = check_execution(ex)
    assert digest is None
    assert any("final checkpoint" in f for f in failures)


def test_mismatched_digest_fails_the_run(tmp_path):
    h = harness(tmp_path, tiny("vlasov6d-domain"))
    reference = h.run(tiny("vlasov6d-serial"), "reference")
    assert reference is not None and reference.digest is not None
    h.reference_digest = reference.digest
    assert h.run(h.workload, "main") is not None, h.tally.failures

    h.reference_digest = "0" * 64
    assert h.run(h.workload, "main") is None
    label, reasons = h.tally.failures[-1]
    assert any("differs bitwise" in r for r in reasons)
    assert (h.tally.attempted, h.tally.failed) == (3, 1)


def test_wrong_exit_code_fails_the_run(tmp_path):
    wl = tiny("plasma1d-restart")
    wl.legs[0].expect_exit = 0
    h = harness(tmp_path, wl)
    assert h.run(wl, "main") is None
    assert any("exit 75, expected 0" in r for r in h.tally.failures[0][1])


def test_self_time_rollup_on_hand_built_tree():
    main, worker = 1, 2
    spans = [
        [0, 0, tracing.ROOT_NAME, 0, 1000, main, None],
        [-1, 0, "startup.imports", 0, 100, main, None],
        [1, 0, "runtime.run", 100, 900, main, None],
        [2, 1, "core.drift", 200, 500, main, None],
        [3, 2, "core.advect", 250, 450, main, None],
        [4, 1, "io.checkpoint", 600, 700, main, None],
        [5, 0, "serve.store", 300, 800, worker, None],
    ]
    got = tracing.self_times(spans, main)
    assert got == pytest.approx({
        "startup": 100e-9,
        "runtime": 400e-9,   # 800 - drift 300 - checkpoint 100
        "core": 300e-9,      # drift 300 - advect 200, plus advect 200
        "io": 100e-9,
        tracing.UNACCOUNTED: 100e-9,
    })
    assert sum(got.values()) == pytest.approx(1000e-9)


def test_traced_run_reports_layers_and_chrome_trace(tmp_path, capsys):
    h = harness(tmp_path, tiny("plasma1d-restart"))
    run_dir = tmp_path
    metrics = run.traced(h, trace_dir=run_dir)
    assert h.tally.failed == 0
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["io.checkpoints"] >= len(h.workload.legs)
    assert metrics["serve.products"] == h.workload.expected_products()
    assert metrics["io.resume_s"] > 0
    out = capsys.readouterr().out
    assert "unaccounted" in out
    trace = json.loads(next(run_dir.glob("*.json")).read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {"runtime.advance", "core.advect", "io.checkpoint", "serve.submit"} \
        <= {e["name"] for e in spans}
    assert all(e["dur"] >= 0 for e in spans)
