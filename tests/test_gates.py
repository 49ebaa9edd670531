"""The CI gate runner: ``python -m repro.gates``."""

import json

from repro import gates


def _report(tmp_path):
    return json.loads((tmp_path / "gates.json").read_text())


def test_unknown_gate_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gates, "RESULTS_DIR", str(tmp_path))
    assert gates.main(["no-such-gate"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no-such-gate" in err
    assert not (tmp_path / "gates.json").exists()


def test_failing_gate_exits_1_and_reports(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gates, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setitem(gates.GATES, "broken", lambda: [
        {"check": "fine", "ok": True},
        {"check": "wrong", "ok": False, "value": 3},
    ])
    assert gates.main(["broken"]) == 1
    out = capsys.readouterr().out
    assert "[ok  ] broken/fine: {}" in out
    assert '[FAIL] broken/wrong: {"value": 3}' in out
    report = _report(tmp_path)
    assert report["ok"] is False
    (gate,) = report["gates"]
    assert gate["name"] == "broken" and gate["ok"] is False
    assert gate["wall_s"] >= 0.0
    assert [c["check"] for c in gate["checks"]] == ["fine", "wrong"]


def test_raising_gate_is_a_failed_check(monkeypatch, tmp_path, capsys):
    def boom():
        raise RuntimeError("no baseline")

    monkeypatch.setattr(gates, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setitem(gates.GATES, "boom", boom)
    assert gates.main(["boom"]) == 1
    assert "[FAIL] boom/error:" in capsys.readouterr().out
    (gate,) = _report(tmp_path)["gates"]
    assert gate["checks"] == [
        {"check": "error", "ok": False, "error": "RuntimeError: no baseline"}
    ]


def test_trace_gate_passes_end_to_end(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gates, "RESULTS_DIR", str(tmp_path))
    assert gates.main(["trace"]) == 0
    assert "[ok  ] trace/chrome-schema:" in capsys.readouterr().out
    report = _report(tmp_path)
    assert report["ok"] is True
    assert [g["name"] for g in report["gates"]] == ["trace"]
    assert (tmp_path / "trace_quick.json").exists()
