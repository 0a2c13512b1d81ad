#!/usr/bin/env python3
"""Span emission must not perturb the sweep report.

Usage: spans_identity_test.py /path/to/wsrs-sim /path/to/check_stats_schema.py

Runs the full sweep matrix twice on the in-process runner with two
threads (--all --jobs=2) — once with telemetry on (--spans-out +
--metrics-out), once with it off — and checks:

  1. the wsrs-sweep-report-v1 `jobs` and `summary` sections are
     byte-identical between the two runs once canonicalised (sorted
     keys, fixed separators): telemetry must observe, never perturb;
  2. the span log passes the wsrs-spans-v1 schema checker (nesting,
     non-negative durations) and holds exactly one `job` root span per
     sweep job;
  3. the timeline is rebased to ts 0 and carries the per-job stage
     spans (job, warmup, simulate);
  4. the metrics snapshot passes the wsrs-metrics-v1 schema checker.

Exit status 0 on success. Used by the `obs` labelled ctest.
"""

import json
import os
import subprocess
import sys
import tempfile

SWEEP = ["--all", "--uops=2000", "--warmup=500", "--reuse-warmup",
         "--jobs=2"]


def run_sweep(binary, tmp, tag, telemetry):
    report = os.path.join(tmp, f"report_{tag}.json")
    extra = []
    if telemetry:
        extra = [f"--spans-out={os.path.join(tmp, 'spans.json')}",
                 f"--metrics-out={os.path.join(tmp, 'metrics.json')}"]
    r = subprocess.run([binary, *SWEEP, f"--stats-json={report}", *extra],
                       stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"FAIL: {tag} sweep exited {r.returncode}: "
                 f"{r.stderr.strip()[-500:]}")
    with open(report) as f:
        return json.load(f)


def canonical(report):
    """The deterministic surface of a sweep report: jobs + summary."""
    return json.dumps({"jobs": report["jobs"],
                       "summary": report["summary"]},
                      sort_keys=True, separators=(",", ":"))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, schema_checker = sys.argv[1], sys.argv[2]

    with tempfile.TemporaryDirectory(prefix="wsrs_spans_") as tmp:
        traced = run_sweep(binary, tmp, "traced", telemetry=True)
        plain = run_sweep(binary, tmp, "plain", telemetry=False)

        a, b = canonical(traced), canonical(plain)
        if a != b:
            sys.exit("FAIL: telemetry changed the sweep report "
                     f"({len(a)} vs {len(b)} canonical bytes)")
        total = traced["summary"]["total"]
        print(f"ok: {total}-job report is byte-identical with and "
              "without telemetry")

        spans_path = os.path.join(tmp, "spans.json")
        metrics_path = os.path.join(tmp, "metrics.json")
        subprocess.run([sys.executable, schema_checker, spans_path,
                        metrics_path], check=True,
                       stdout=subprocess.DEVNULL)
        print("ok: span and metrics documents pass the schema checker")

        with open(spans_path) as f:
            spans = json.load(f)
        events = spans["traceEvents"]
        roots = [e for e in events
                 if e["ph"] == "X" and e["name"] == "job"]
        if len(roots) != total:
            sys.exit(f"FAIL: {len(roots)} job root spans for "
                     f"{total} jobs")
        if not any(e["ts"] == 0 for e in events if e["ph"] in "Xi"):
            sys.exit("FAIL: timeline is not rebased to ts 0")
        stages = {e["name"] for e in events if e["ph"] == "X"}
        for want in ("job", "warmup", "simulate"):
            if want not in stages:
                sys.exit(f"FAIL: no {want} spans (saw {sorted(stages)})")
        print(f"ok: one span tree per job ({sorted(stages)})")

    print("spans identity: all checks passed")


if __name__ == "__main__":
    main()
