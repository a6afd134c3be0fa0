"""Alert rule engine tests: parsing, evaluation statuses, CLI exits."""

import json

import pytest

from repro import obs
from repro.obs import alerts
from repro.obs.alerts import (RuleError, evaluate, exit_code, load_rules,
                              normalize_rule, parse_rules)
from repro.obs.core import Histogram


def snapshot(counters=None, gauges=None, hist_samples=None):
    hists = {}
    for name, samples in (hist_samples or {}).items():
        h = Histogram()
        for v in samples:
            h.observe(v)
        hists[name] = h.to_dict()
    return {"schema": obs.SCHEMA_VERSION, "procs": ["t"],
            "counters": counters or {}, "gauges": gauges or {},
            "histograms": hists}


# ----------------------------------------------------------------------
# parsing


def test_compact_rule_forms():
    rule = normalize_rule("serve.point.seconds p95 < 120", 1)
    assert rule["metric"] == "serve.point.seconds"
    assert rule["stat"] == "p95" and rule["op"] == "<"
    assert rule["value"] == 120.0
    rule = normalize_rule("cache.hit_ratio >= 0.2", 1)
    assert rule["stat"] == "value" and rule["value"] == 0.2
    assert rule["name"] == "cache.hit_ratio >= 0.2"


def test_explicit_and_ratio_rules():
    rule = normalize_rule({"name": "fail-rate",
                           "ratio": {"num": "points.failed",
                                     "den": ["points.computed",
                                             "points.failed"]},
                           "op": "<", "value": 0.05, "on_missing": "ok"}, 1)
    assert rule["ratio"]["num"] == ["points.failed"]
    assert len(rule["ratio"]["den"]) == 2


@pytest.mark.parametrize("bad", [
    "only two",                                     # malformed compact
    {"metric": "x", "op": "~", "value": 1},         # unknown op
    {"metric": "x", "op": "<", "value": "NaNope"},  # non-numeric threshold
    {"metric": "x", "op": "<", "value": 1, "stat": "p42"},
    {"metric": "x", "op": "<", "value": 1, "on_missing": "explode"},
    {"op": "<", "value": 1},                        # no metric/rule/ratio
    {"ratio": {"num": "a"}, "op": "<", "value": 1},  # ratio without den
    42,
])
def test_bad_rules_raise(bad):
    with pytest.raises(RuleError):
        normalize_rule(bad, 1)


def test_parse_rules_document_shapes():
    rules = parse_rules({"rules": ["a.count >= 0"]})
    assert len(rules) == 1
    rules = parse_rules(["a.count >= 0", "b.count >= 0"])
    assert len(rules) == 2
    with pytest.raises(RuleError):
        parse_rules({"rules": []})
    with pytest.raises(RuleError):
        parse_rules("not a list")


def test_load_rules_json_and_yaml(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": ["x >= 1"]}))
    assert load_rules(str(path))[0]["metric"] == "x"
    yaml = pytest.importorskip("yaml")
    del yaml
    ypath = tmp_path / "rules.yaml"
    ypath.write_text("rules:\n  - rule: 'lat.seconds p95 < 2'\n"
                     "    name: latency\n")
    rules = load_rules(str(ypath))
    assert rules[0]["name"] == "latency" and rules[0]["stat"] == "p95"
    bad = tmp_path / "bad.yaml"
    bad.write_text("rules: [\n")
    with pytest.raises(RuleError):
        load_rules(str(bad))


# ----------------------------------------------------------------------
# evaluation statuses


def test_ok_breach_missing():
    snap = snapshot(counters={"hits": 10},
                    hist_samples={"lat.seconds": [0.1, 0.2, 5.0]})
    rules = parse_rules([
        "hits >= 5",                  # ok
        "hits >= 100",                # breach
        "lat.seconds p95 < 1",        # breach (p95 ~ 5s)
        "lat.seconds p50 < 1",        # ok
        "ghost.count > 0",            # missing
    ])
    out = evaluate(rules, snap)
    assert [o["status"] for o in out] == [
        "ok", "breach", "breach", "ok", "missing"]
    assert out[0]["value"] == 10
    assert exit_code(out) == 1
    assert exit_code(out[:1]) == 0
    assert exit_code([out[4]]) == 0       # missing alone is not a failure
    assert exit_code([out[4]], strict=True) == 1


def test_on_missing_mapping():
    rules = [normalize_rule({"metric": "ghost", "op": ">", "value": 0,
                             "on_missing": miss}, 1)
             for miss in ("ok", "breach", "missing")]
    out = evaluate(rules, snapshot())
    assert [o["status"] for o in out] == ["ok", "breach", "missing"]


def test_ratio_rules():
    snap = snapshot(counters={"failed": 1, "computed": 19})
    rule = normalize_rule({"ratio": {"num": "failed",
                                     "den": ["computed", "failed"]},
                           "op": "<", "value": 0.1}, 1)
    (out,) = evaluate([rule], snap)
    assert out["status"] == "ok" and out["value"] == 0.05
    # den == 0 with num == 0 -> 0.0; with num > 0 -> inf (breach)
    (out,) = evaluate([rule], snapshot(counters={"failed": 0, "computed": 0}))
    assert out["status"] == "ok" and out["value"] == 0.0
    (out,) = evaluate([rule], snapshot(counters={"failed": 2, "computed": 0}))
    assert out["status"] == "breach"
    # every name absent -> missing, not a division
    (out,) = evaluate([rule], snapshot(counters={"other": 1}))
    assert out["status"] == "missing"


def test_rule_kind_mismatches_are_errors():
    snap = snapshot(counters={"hits": 1},
                    hist_samples={"lat.seconds": [0.1]})
    out = evaluate(parse_rules(["lat.seconds > 1"]), snap)   # hist, no stat
    assert out[0]["status"] == "error"
    out = evaluate(parse_rules(["hits p95 > 1"]), snap)      # stat on counter
    assert out[0]["status"] == "error"
    assert exit_code(out) == 2


def test_gauges_resolve_like_counters():
    snap = snapshot(gauges={"queue.depth": 3})
    (out,) = evaluate(parse_rules(["queue.depth <= 8"]), snap)
    assert out["status"] == "ok" and out["value"] == 3


def test_non_numeric_gauge_is_a_rule_error():
    """A coordinator's snapshot keeps every gauge, lists included."""
    snap = snapshot(counters={"serve.points.failed": 1},
                    gauges={"flow.selected_budget": [4, 5]})
    rules = parse_rules(["flow.selected_budget > 1", {
        "name": "r", "op": "<", "value": 1,
        "ratio": {"num": "serve.points.failed",
                  "den": "flow.selected_budget"}}])
    assert [(o["status"], o["detail"]) for o in evaluate(rules, snap)] == [
        ("error", "flow.selected_budget is not a number: [4, 5]")] * 2


# ----------------------------------------------------------------------
# CLI


def _write_snapshot(tmp_path, snap, name="snap.json"):
    path = tmp_path / name
    path.write_text(json.dumps(snap))
    return str(path)


def test_check_cli_pass_breach_and_json(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": ["hits >= 5"]}))
    snap = _write_snapshot(tmp_path, snapshot(counters={"hits": 10}))
    assert alerts.main(["check", "--rules", str(rules),
                        "--snapshot", snap]) == 0
    assert "OK" in capsys.readouterr().out

    rules.write_text(json.dumps({"rules": ["hits >= 100"]}))
    assert alerts.main(["check", "--rules", str(rules),
                        "--snapshot", snap, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit"] == 1
    assert payload["outcomes"][0]["status"] == "breach"


def test_check_cli_accepts_saved_metrics_reply(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": ["hits >= 5"]}))
    reply = {"ok": True, "snapshot": snapshot(counters={"hits": 10})}
    snap = _write_snapshot(tmp_path, reply)
    assert alerts.main(["check", "--rules", str(rules),
                        "--snapshot", snap]) == 0


def test_check_cli_source_and_rule_errors(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text("{ not json")
    snap = _write_snapshot(tmp_path, snapshot())
    assert alerts.main(["check", "--rules", str(rules),
                        "--snapshot", snap]) == 2
    capsys.readouterr()
    rules.write_text(json.dumps({"rules": ["hits >= 5"]}))
    with pytest.raises(SystemExit):
        alerts.main(["check", "--rules", str(rules)])        # no source
    with pytest.raises(SystemExit):
        alerts.main(["check", "--rules", str(rules),
                     "--snapshot", snap, "--jsonl", "x"])    # two sources


def test_show_cli_prints_normalized_rules(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": ["lat.seconds p99 < 3"]}))
    assert alerts.main(["show", "--rules", str(rules)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed[0]["stat"] == "p99"
