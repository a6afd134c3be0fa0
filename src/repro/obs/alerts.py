"""Declarative SLO / alert rules evaluated against metric snapshots.

Rules live in a YAML (when PyYAML is importable) or JSON file::

    rules:
      - rule: "serve.point.seconds p95 < 120"
      - rule: "serve.cache.hit_ratio >= 0.2"
        name: cache-effective
      - name: point-failure-rate
        ratio: {num: serve.points.failed,
                den: [serve.points.computed, serve.points.failed]}
        op: "<"
        value: 0.05
        on_missing: ok

Each rule is either a compact string — ``<metric> [<stat>] <op>
<threshold>`` where ``stat`` (for histograms) is one of
``count/sum/mean/min/max/p50/p95/p99`` — or explicit
``metric``/``stat``/``op``/``value`` fields, or a ``ratio`` rule whose
value is ``sum(num) / sum(den)`` over counters/gauges (absent names
count as 0; the rule is *missing* only when every name is absent).

Evaluation statuses: ``ok``, ``breach``, ``missing`` (metric absent
from the snapshot; ``on_missing`` may map it to ``ok`` or ``breach``,
default leaves it as missing), ``error`` (mis-specified rule, e.g. a
histogram stat against a counter-only name).

The ``check`` CLI reads a snapshot from one of four sources — a live
serve socket (``--serve``, scrapes the ``metrics`` op), a JSONL obs
stream (``--jsonl``), a flushed snapshot directory (``--dir``), or a
merged-snapshot JSON file (``--snapshot``) — and exits 0 when every
rule is ok, 1 on any breach (missing counts as breach with
``--strict``), 2 on rule/source errors.
"""

import argparse
import json
import math
import os
import sys

from repro.obs import metrics as metrics_mod

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}
_HIST_STATS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")


class RuleError(ValueError):
    """A rule file (or one rule in it) is malformed."""


def _names(spec):
    if spec is None:
        return []
    if isinstance(spec, str):
        return [spec]
    if isinstance(spec, (list, tuple)):
        return [str(n) for n in spec]
    raise RuleError("expected metric name or list, got %r" % (spec,))


def _parse_compact(text):
    parts = str(text).split()
    if len(parts) == 3:
        metric, stat, op, value = parts[0], "value", parts[1], parts[2]
    elif len(parts) == 4:
        metric, stat, op, value = parts
    else:
        raise RuleError(
            "compact rule must be '<metric> [<stat>] <op> <threshold>', "
            "got %r" % text)
    return metric, stat, op, value


def normalize_rule(raw, index):
    """One raw rule entry -> canonical dict (raises RuleError)."""
    if isinstance(raw, str):
        raw = {"rule": raw}
    if not isinstance(raw, dict):
        raise RuleError("rule #%d is not a mapping or string" % index)
    rule = dict(raw)
    if "rule" in rule:
        metric, stat, op, value = _parse_compact(rule.pop("rule"))
        rule.setdefault("metric", metric)
        rule.setdefault("stat", stat)
        rule.setdefault("op", op)
        rule.setdefault("value", value)
    ratio = rule.get("ratio")
    if ratio is not None:
        if not isinstance(ratio, dict) or "num" not in ratio or "den" not in ratio:
            raise RuleError("rule #%d: ratio needs num and den" % index)
        rule["ratio"] = {"num": _names(ratio["num"]),
                         "den": _names(ratio["den"])}
    elif not rule.get("metric"):
        raise RuleError("rule #%d needs 'metric', 'rule' or 'ratio'" % index)
    op = rule.get("op")
    if op not in _OPS:
        raise RuleError("rule #%d: unknown op %r (use %s)"
                        % (index, op, "/".join(_OPS)))
    try:
        rule["value"] = float(rule["value"])
    except (KeyError, TypeError, ValueError):
        raise RuleError("rule #%d: threshold 'value' must be a number" % index)
    stat = rule.setdefault("stat", "value")
    if stat != "value" and stat not in _HIST_STATS:
        raise RuleError("rule #%d: unknown stat %r (use value or %s)"
                        % (index, stat, "/".join(_HIST_STATS)))
    on_missing = rule.setdefault("on_missing", "missing")
    if on_missing not in ("missing", "ok", "breach"):
        raise RuleError("rule #%d: on_missing must be missing/ok/breach"
                        % index)
    if not rule.get("name"):
        if ratio is not None:
            rule["name"] = "ratio(%s/%s)" % ("+".join(rule["ratio"]["num"]),
                                             "+".join(rule["ratio"]["den"]))
        else:
            rule["name"] = "%s %s %s %g" % (
                rule["metric"],
                "" if stat == "value" else stat + " ",
                op, rule["value"])
            rule["name"] = " ".join(rule["name"].split())
    return rule


def parse_rules(data):
    """Normalize a loaded rules document (list or ``{"rules": [...]}``)."""
    if isinstance(data, dict):
        data = data.get("rules")
    if not isinstance(data, list) or not data:
        raise RuleError("rules document must be a non-empty list "
                        "(or {'rules': [...]})")
    return [normalize_rule(raw, i + 1) for i, raw in enumerate(data)]


def load_rules(path):
    """Load + normalize a YAML/JSON rules file."""
    with open(path) as fh:
        text = fh.read()
    data = None
    try:
        data = json.loads(text)
    except ValueError:
        try:
            import yaml
        except ImportError:
            raise RuleError(
                "%s is not JSON and PyYAML is unavailable — rewrite the "
                "rules as JSON" % path)
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise RuleError("%s: %s" % (path, exc))
    return parse_rules(data)


# ----------------------------------------------------------------------
# evaluation


def _scalar(snapshot, name):
    """A counter's or gauge's value, None when absent; a gauge may hold
    any JSON value (``flow.selected_budget`` is a list), which no rule
    can compare."""
    for kind in ("counters", "gauges"):
        values = snapshot.get(kind) or {}
        if name in values:
            value = values[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RuleError("%s is not a number: %r" % (name, value))
            return value
    return None


def _resolve(rule, snapshot):
    """-> (value or None-if-missing); raises RuleError on bad rule/kind."""
    ratio = rule.get("ratio")
    if ratio is not None:
        values = [_scalar(snapshot, n) for n in ratio["num"] + ratio["den"]]
        if all(v is None for v in values):
            return None
        num = sum(_scalar(snapshot, n) or 0 for n in ratio["num"])
        den = sum(_scalar(snapshot, n) or 0 for n in ratio["den"])
        if den == 0:
            return 0.0 if num == 0 else math.inf
        return num / den
    metric, stat = rule["metric"], rule["stat"]
    hists = snapshot.get("histograms") or {}
    if metric in hists:
        if stat == "value":
            raise RuleError(
                "%s is a histogram; pick a stat (%s)"
                % (metric, "/".join(_HIST_STATS)))
        row = metrics_mod.summarize(hists[metric])
        return row[stat]
    value = _scalar(snapshot, metric)
    if value is None:
        return None
    if stat != "value":
        raise RuleError("%s is a %s; stat %r only applies to histograms"
                        % (metric, "counter/gauge", stat))
    return value


def evaluate(rules, snapshot):
    """Evaluate rules against a (merged) snapshot -> list of outcomes."""
    outcomes = []
    for rule in rules:
        out = {"name": rule["name"], "op": rule["op"],
               "threshold": rule["value"], "value": None}
        try:
            value = _resolve(rule, snapshot)
        except RuleError as exc:
            out["status"] = "error"
            out["detail"] = str(exc)
            outcomes.append(out)
            continue
        if value is None:
            on_missing = rule["on_missing"]
            out["status"] = on_missing if on_missing != "missing" else "missing"
            if on_missing == "ok":
                out["detail"] = "metric absent (on_missing: ok)"
            elif on_missing == "breach":
                out["detail"] = "metric absent (on_missing: breach)"
            else:
                out["detail"] = "metric absent"
            outcomes.append(out)
            continue
        out["value"] = value
        ok = _OPS[rule["op"]](value, rule["value"])
        out["status"] = "ok" if ok else "breach"
        outcomes.append(out)
    return outcomes


def exit_code(outcomes, strict=False):
    """0 ok, 1 breach (strict: missing too), 2 rule errors."""
    statuses = {o["status"] for o in outcomes}
    if "error" in statuses:
        return 2
    if "breach" in statuses or (strict and "missing" in statuses):
        return 1
    return 0


# ----------------------------------------------------------------------
# CLI


def _load_snapshot(args):
    sources = [bool(args.serve), bool(args.jsonl), bool(args.snapshot),
               bool(args.dir)]
    if sum(sources) != 1:
        raise SystemExit(
            "pick exactly one source: --serve / --jsonl / --snapshot / --dir")
    if args.serve:
        from repro.serve.client import ServeClient

        reply = ServeClient(args.serve).metrics()
        return reply["snapshot"]
    if args.jsonl:
        return metrics_mod.fold_jsonl(args.jsonl)
    if args.dir:
        return metrics_mod.merge(metrics_mod.read_snapshot_dir(args.dir))
    with open(args.snapshot) as fh:
        data = json.load(fh)
    if "snapshot" in data and "histograms" not in data:
        data = data["snapshot"]  # accept a saved serve `metrics` reply
    return data


def _fmt_value(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def render_outcomes(outcomes):
    width = max([len(o["name"]) for o in outcomes] + [4])
    lines = []
    for out in outcomes:
        line = "%-7s %-*s value=%s (want %s %s)" % (
            out["status"].upper(), width, out["name"],
            _fmt_value(out["value"]), out["op"], _fmt_value(out["threshold"]))
        if out.get("detail"):
            line += "  [%s]" % out["detail"]
        lines.append(line)
    return "\n".join(lines)


def cmd_check(args):
    try:
        rules = load_rules(args.rules)
    except (OSError, RuleError) as exc:
        print("alerts: bad rules file: %s" % exc, file=sys.stderr)
        return 2
    try:
        snapshot = _load_snapshot(args)
    except (OSError, ValueError, KeyError) as exc:
        print("alerts: cannot load snapshot: %s" % exc, file=sys.stderr)
        return 2
    outcomes = evaluate(rules, snapshot)
    code = exit_code(outcomes, strict=args.strict)
    if args.json:
        print(json.dumps({"outcomes": outcomes, "exit": code},
                         indent=2, sort_keys=True))
    else:
        print(render_outcomes(outcomes))
        counts = {}
        for out in outcomes:
            counts[out["status"]] = counts.get(out["status"], 0) + 1
        print("alerts: " + ", ".join(
            "%d %s" % (n, s) for s, n in sorted(counts.items())))
    return code


def cmd_show(args):
    try:
        rules = load_rules(args.rules)
    except (OSError, RuleError) as exc:
        print("alerts: bad rules file: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(rules, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.alerts",
        description="Evaluate SLO/alert rules against metric snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate rules; non-zero exit on breach")
    p.add_argument("--rules", required=True, help="YAML/JSON rules file")
    p.add_argument("--serve", default=None, metavar="ADDR",
                   help="scrape a live serve socket's metrics op")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="fold kind=metrics events from a JSONL obs stream")
    p.add_argument("--snapshot", default=None, metavar="FILE",
                   help="merged-snapshot JSON file (or saved metrics reply)")
    p.add_argument("--dir", default=None, metavar="PATH",
                   help="snapshot directory written by metrics.flush()")
    p.add_argument("--strict", action="store_true",
                   help="missing metrics fail the check too")
    p.add_argument("--json", action="store_true", help="JSON outcomes")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("show", help="parse + print normalized rules")
    p.add_argument("--rules", required=True, help="YAML/JSON rules file")
    p.set_defaults(func=cmd_show)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
