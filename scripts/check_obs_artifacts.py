#!/usr/bin/env python3
"""CI validator for the observability artifacts (PR 6).

Each sub-command exits non-zero with a diagnostic on any
malformed artifact:

  check_obs_artifacts.py trace MERGED.json [--min-processes N]
      Validates a `twostep tracemerge` Chrome-trace: well-formed JSON,
      process-name metadata, complete ("X") span events from at least
      N distinct processes, every non-root parent id resolving to a
      recorded span, at least one cross-process causal flow arrow, and
      a WAL-fsync span (the acceptance criterion for wire-propagated
      tracing).

  check_obs_artifacts.py sim TRACE.json
      Validates a simulated run's Chrome trace (`twostep_cli run
      --trace-out`), written by the same exporter as a merged live trace:
      well-formed JSON, process-name metadata for at least 3 processes,
      complete ("X") events whose span ids are decimal strings, every
      non-root parent id resolving to a recorded span, and at least one
      message-hop flow arrow with "s" and "f" events balanced.

  check_obs_artifacts.py bench FILE.json [--require FIELD ...]
      Validates a BENCH_*.json artifact against the twostep-bench/1
      schema documented in EXPERIMENTS.md: schema tag, bench name,
      non-empty `rows` of flat objects, and (optionally) required row
      fields such as rtt_p50_us / rtt_p99_us.

  check_obs_artifacts.py n3 FILE.json [--min-speedup X]
      Validates BENCH_n3_saturation.json (the N3 saturation curve):
      twostep-bench/1 framing plus the curve's own shape — exactly one
      `baseline` row with a positive closed-loop rate, at least three
      `point` rows each carrying offered/achieved rates and an RTT
      histogram, and one `summary` row whose knee and speedup fields are
      consistent with the points.  With --min-speedup, additionally
      require summary.speedup >= X (the >= 50x acceptance gate; leave it
      off on shared CI runners, whose fsync behavior varies wildly).

  check_obs_artifacts.py n4 FILE.json [--min-placements N]
      Validates BENCH_n4_geo.json (per-region commit latency under
      emulated WAN links): twostep-bench/1 framing, rows for all four
      protocols (task/object/fastpaxos/epaxos) across at least N geo
      placements, each measured both with and without conflicts, every
      decided row carrying ordered rtt_p50/p90/p99 quantiles, and every
      (protocol, placement, conflict) cell deciding in at least one
      region.

  check_obs_artifacts.py n5 FILE.json [--max-rejoin-ratio X]
      Validates BENCH_n5_rejoin.json (wiped-replica rejoin: snapshot
      state transfer vs genesis decide replay): twostep-bench/1 framing,
      exactly one genesis_baseline / snapshot_rejoin / summary row, both
      runs clean with the applied-log audit passing, the snapshot run
      actually snapshotting + truncating + installing a transfer, and the
      snapshot rejoin strictly faster than genesis replay.  With
      --max-rejoin-ratio, additionally require summary.rejoin_ratio <= X.

  check_obs_artifacts.py n6 FILE.json [--max-unavailability-us U]
      Validates BENCH_n6_reconfig.json (live membership reconfiguration
      + leader failover under a closed-loop client): twostep-bench/1
      framing, exactly one steady / join / remove / leader_kill / summary
      row, every phase committing at least one command, the summary
      clean (ok, joiner_healed, audit_ok all true, client_lost == 0),
      and summary.unavailability_us consistent with the phase gaps.
      With --max-unavailability-us, additionally require the worst
      change-induced gap to stay under U microseconds.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_obs_artifacts: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def scan_chrome_trace(path: str):
    """Reads a Chrome trace written by obs::write_chrome_spans.  Returns
    (named pids, span id -> pid, span id -> parent id, slice names, flow
    starts, flow finishes); fails on a malformed event."""
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty traceEvents")

    named_pids = set()
    span_pids = {}  # span id -> pid
    parents = {}  # span id -> parent id
    names = set()
    flow_starts = flow_finishes = 0
    for ev in events:
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"{path}: event without a phase: {ev!r}")
        ph = ev["ph"]
        if ph == "M":
            if ev.get("name") == "process_name":
                named_pids.add(ev["pid"])
        elif ph == "X":
            args = ev.get("args", {})
            if "dur" not in ev or "ts" not in ev:
                fail(f"{path}: X event without ts/dur: {ev!r}")
            span = args.get("span")
            if not isinstance(span, str):
                fail(f"{path}: X event span id must be a decimal string: {ev!r}")
            span_pids[span] = ev["pid"]
            parents[span] = args.get("parent", "0")
            names.add(ev.get("name"))
        elif ph == "s":
            flow_starts += 1
        elif ph == "f":
            flow_finishes += 1
    return named_pids, span_pids, parents, names, flow_starts, flow_finishes


def check_trace(path: str, min_processes: int) -> None:
    named_pids, span_pids, parents, names, flow_starts, flow_finishes = scan_chrome_trace(path)
    if len(named_pids) < min_processes:
        fail(f"{path}: only {len(named_pids)} named processes, need {min_processes}")
    pids_with_spans = set(span_pids.values())
    if len(pids_with_spans) < min_processes:
        fail(f"{path}: spans from only {len(pids_with_spans)} processes, need {min_processes}")
    if "wal.fsync" not in names:
        fail(f"{path}: no wal.fsync span (storage tracing is broken)")
    dangling = [s for s, p in parents.items() if p != "0" and p not in span_pids]
    if dangling:
        fail(f"{path}: spans with dangling parents: {dangling[:5]}")
    cross = [s for s, p in parents.items() if p != "0" and span_pids[p] != span_pids[s]]
    if not cross:
        fail(f"{path}: no cross-process parent link — trace contexts did not propagate")
    if flow_starts == 0 or flow_starts != flow_finishes:
        fail(f"{path}: unbalanced causal flow arrows ({flow_starts} s / {flow_finishes} f)")
    print(
        f"{path}: OK — {len(span_pids)} spans, {len(pids_with_spans)} processes, "
        f"{len(cross)} cross-process links, {flow_starts} flow arrows"
    )


SIM_MIN_PROCESSES = 3  # the smallest simulated configuration (n = 3)


def check_sim(path: str) -> None:
    named_pids, span_pids, parents, _, flow_starts, flow_finishes = scan_chrome_trace(path)
    if len(named_pids) < SIM_MIN_PROCESSES:
        fail(f"{path}: only {len(named_pids)} named processes, need {SIM_MIN_PROCESSES}")
    if not span_pids:
        fail(f"{path}: no X events")
    bad_ids = [s for s in span_pids if not s.isdigit()]
    if bad_ids:
        fail(f"{path}: span ids that are not decimal strings: {bad_ids[:5]}")
    dangling = [s for s, p in parents.items() if p != "0" and p not in span_pids]
    if dangling:
        fail(f"{path}: spans with dangling parents: {dangling[:5]}")
    if flow_starts == 0 or flow_starts != flow_finishes:
        fail(f"{path}: no or unbalanced message flow arrows "
             f"({flow_starts} s / {flow_finishes} f)")
    print(
        f"{path}: OK — {len(span_pids)} spans, {len(named_pids)} processes, "
        f"{flow_starts} flow arrows"
    )


def check_bench(path: str, required: list) -> None:
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not an object")
    if doc.get("schema") != "twostep-bench/1":
        fail(f"{path}: schema is {doc.get('schema')!r}, expected 'twostep-bench/1'")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(f"{path}: missing bench name")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing or empty rows")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"{path}: row {i} is not an object")
        for field in required:
            if field not in row:
                fail(f"{path}: row {i} is missing required field {field!r}")
            if isinstance(row[field], str):
                fail(f"{path}: row {i} field {field!r} should be numeric, got a string")
    print(f"{path}: OK — bench {doc['bench']!r}, {len(rows)} rows")


def _numeric(path, row, i, field):
    v = row.get(field)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(f"{path}: row {i} field {field!r} must be numeric, got {v!r}")
    return v


def check_n3(path: str, min_speedup: float) -> None:
    doc = load(path)
    if not isinstance(doc, dict) or doc.get("schema") != "twostep-bench/1":
        fail(f"{path}: schema is {doc.get('schema') if isinstance(doc, dict) else doc!r}, "
             "expected 'twostep-bench/1'")
    if doc.get("bench") != "n3_saturation":
        fail(f"{path}: bench is {doc.get('bench')!r}, expected 'n3_saturation'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing or empty rows")

    baselines = [r for r in rows if isinstance(r, dict) and r.get("kind") == "baseline"]
    points = [r for r in rows if isinstance(r, dict) and r.get("kind") == "point"]
    summaries = [r for r in rows if isinstance(r, dict) and r.get("kind") == "summary"]
    if len(baselines) != 1:
        fail(f"{path}: expected exactly one baseline row, found {len(baselines)}")
    if len(points) < 3:
        fail(f"{path}: expected >= 3 curve points, found {len(points)}")
    if len(summaries) != 1:
        fail(f"{path}: expected exactly one summary row, found {len(summaries)}")

    base = baselines[0]
    base_rate = _numeric(path, base, "baseline", "closed_loop_rate")
    if base_rate <= 0:
        fail(f"{path}: baseline closed_loop_rate is {base_rate}, must be > 0")
    if base.get("ok") is not True:
        fail(f"{path}: baseline run did not complete cleanly (ok={base.get('ok')!r})")

    for i, row in enumerate(points):
        offered = _numeric(path, row, i, "offered_rate")
        achieved = _numeric(path, row, i, "achieved_rate")
        _numeric(path, row, i, "offered_target")
        _numeric(path, row, i, "lost")
        if offered <= 0:
            fail(f"{path}: point {i} offered_rate is {offered}, must be > 0")
        if achieved < 0 or achieved > offered * 1.5:
            fail(f"{path}: point {i} achieved_rate {achieved} implausible vs offered {offered}")
        if "rtt_us_p99" not in row and "rtt_us" not in row:
            fail(f"{path}: point {i} has no RTT histogram fields")

    summary = summaries[0]
    knee = _numeric(path, summary, "summary", "knee_achieved")
    speedup = _numeric(path, summary, "summary", "speedup")
    _numeric(path, summary, "summary", "knee_offered")
    best = max(p["achieved_rate"] for p in points)
    if knee > best * 1.01:
        fail(f"{path}: summary knee_achieved {knee} exceeds best point {best}")
    if abs(speedup - knee / base_rate) > 0.1 * max(1.0, speedup):
        fail(f"{path}: summary speedup {speedup} inconsistent with knee/baseline "
             f"{knee / base_rate:.2f}")
    if speedup < min_speedup:
        fail(f"{path}: speedup {speedup:.1f}x below the required {min_speedup}x")
    print(
        f"{path}: OK — baseline {base_rate:.0f} cmds/s, {len(points)} points, "
        f"knee {knee:.0f} cmds/s ({speedup:.1f}x)"
    )


def check_n4(path: str, min_placements: int) -> None:
    doc = load(path)
    if not isinstance(doc, dict) or doc.get("schema") != "twostep-bench/1":
        fail(f"{path}: schema is {doc.get('schema') if isinstance(doc, dict) else doc!r}, "
             "expected 'twostep-bench/1'")
    if doc.get("bench") != "n4_geo":
        fail(f"{path}: bench is {doc.get('bench')!r}, expected 'n4_geo'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing or empty rows")

    protocols = {"task", "object", "fastpaxos", "epaxos"}
    cells = {}  # (protocol, placement, conflict) -> decided sample count
    placements = set()
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"{path}: row {i} is not an object")
        protocol = row.get("protocol")
        placement = row.get("placement")
        conflict = row.get("conflict")
        if protocol not in protocols:
            fail(f"{path}: row {i} has unknown protocol {protocol!r}")
        if not isinstance(placement, str) or not placement:
            fail(f"{path}: row {i} missing placement")
        if not isinstance(conflict, bool):
            fail(f"{path}: row {i} conflict must be a boolean, got {conflict!r}")
        if not isinstance(row.get("region"), str) or not row["region"]:
            fail(f"{path}: row {i} missing region")
        if _numeric(path, row, i, "n") < 3:
            fail(f"{path}: row {i} cluster size {row['n']} too small")
        _numeric(path, row, i, "undecided")
        samples = _numeric(path, row, i, "samples")
        if samples > 0:
            p50 = _numeric(path, row, i, "rtt_p50_us")
            p90 = _numeric(path, row, i, "rtt_p90_us")
            p99 = _numeric(path, row, i, "rtt_p99_us")
            if not 0 < p50 <= p90 <= p99:
                fail(f"{path}: row {i} quantiles not ordered: "
                     f"p50={p50} p90={p90} p99={p99}")
        placements.add(placement)
        key = (protocol, placement, conflict)
        cells[key] = cells.get(key, 0) + (1 if samples > 0 else 0)

    if len(placements) < min_placements:
        fail(f"{path}: found {len(placements)} placement(s) {sorted(placements)}, "
             f"need >= {min_placements}")
    for protocol in sorted(protocols):
        for placement in sorted(placements):
            for conflict in (False, True):
                key = (protocol, placement, conflict)
                if key not in cells:
                    fail(f"{path}: missing cell protocol={protocol} "
                         f"placement={placement} conflict={conflict}")
                if cells[key] == 0:
                    fail(f"{path}: cell protocol={protocol} placement={placement} "
                         f"conflict={conflict} decided nothing in any region")
    print(
        f"{path}: OK — {len(rows)} rows, {len(placements)} placements, "
        f"all {len(protocols)} protocols measured with and without conflicts"
    )


def check_n5(path: str, max_rejoin_ratio: float) -> None:
    doc = load(path)
    if not isinstance(doc, dict) or doc.get("schema") != "twostep-bench/1":
        fail(f"{path}: schema is {doc.get('schema') if isinstance(doc, dict) else doc!r}, "
             "expected 'twostep-bench/1'")
    if doc.get("bench") != "n5_rejoin":
        fail(f"{path}: bench is {doc.get('bench')!r}, expected 'n5_rejoin'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing or empty rows")

    by_kind = {}
    for r in rows:
        if isinstance(r, dict):
            by_kind.setdefault(r.get("kind"), []).append(r)
    for kind in ("genesis_baseline", "snapshot_rejoin", "summary"):
        if len(by_kind.get(kind, [])) != 1:
            fail(f"{path}: expected exactly one {kind!r} row, "
                 f"found {len(by_kind.get(kind, []))}")

    genesis = by_kind["genesis_baseline"][0]
    snap = by_kind["snapshot_rejoin"][0]
    summary = by_kind["summary"][0]
    for name, row in (("genesis_baseline", genesis), ("snapshot_rejoin", snap)):
        if row.get("ok") is not True or row.get("audit_ok") is not True:
            fail(f"{path}: {name} run not clean (ok={row.get('ok')!r}, "
                 f"audit_ok={row.get('audit_ok')!r})")
        if _numeric(path, row, name, "commands") <= 0:
            fail(f"{path}: {name} applied no commands")
        if _numeric(path, row, name, "rejoin_us") <= 0:
            fail(f"{path}: {name} has no rejoin measurement")

    # The snapshot run must actually have exercised the machinery: real
    # checkpoints, real WAL truncation, and a real state transfer — else
    # the comparison silently degenerates to two genesis replays.
    if _numeric(path, snap, "snapshot_rejoin", "snapshots_written") <= 0:
        fail(f"{path}: snapshot run wrote no snapshots")
    if _numeric(path, snap, "snapshot_rejoin", "wal_truncated_records") <= 0:
        fail(f"{path}: snapshot run truncated no WAL records")
    if _numeric(path, snap, "snapshot_rejoin", "transfers_installed") <= 0:
        fail(f"{path}: reborn replica never installed a snapshot transfer")

    genesis_us = _numeric(path, summary, "summary", "genesis_rejoin_us")
    snap_us = _numeric(path, summary, "summary", "snapshot_rejoin_us")
    ratio = _numeric(path, summary, "summary", "rejoin_ratio")
    if summary.get("ok") is not True or summary.get("audit_ok") is not True:
        fail(f"{path}: summary not clean (ok={summary.get('ok')!r}, "
             f"audit_ok={summary.get('audit_ok')!r})")
    if genesis_us <= 0 or abs(ratio - snap_us / genesis_us) > 0.01 * max(1.0, ratio):
        fail(f"{path}: summary rejoin_ratio {ratio} inconsistent with "
             f"{snap_us}/{genesis_us}")
    if ratio >= 1.0:
        fail(f"{path}: snapshot rejoin ({snap_us:.0f} us) is not strictly faster "
             f"than genesis replay ({genesis_us:.0f} us)")
    if max_rejoin_ratio > 0 and ratio > max_rejoin_ratio:
        fail(f"{path}: rejoin_ratio {ratio:.3f} above the required "
             f"{max_rejoin_ratio}")
    print(
        f"{path}: OK — genesis {genesis_us / 1000:.0f} ms, snapshot "
        f"{snap_us / 1000:.0f} ms (ratio {ratio:.3f}), "
        f"{snap.get('snapshots_written')} snapshots, "
        f"{snap.get('transfer_bytes')} transfer bytes, audit clean"
    )


def check_n6(path: str, max_unavailability_us: float) -> None:
    doc = load(path)
    if not isinstance(doc, dict) or doc.get("schema") != "twostep-bench/1":
        fail(f"{path}: schema is {doc.get('schema') if isinstance(doc, dict) else doc!r}, "
             "expected 'twostep-bench/1'")
    if doc.get("bench") != "n6_reconfig":
        fail(f"{path}: bench is {doc.get('bench')!r}, expected 'n6_reconfig'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing or empty rows")

    by_kind = {}
    for r in rows:
        if isinstance(r, dict):
            by_kind.setdefault(r.get("kind"), []).append(r)
    phases = ("steady", "join", "remove", "leader_kill")
    for kind in phases + ("summary",):
        if len(by_kind.get(kind, [])) != 1:
            fail(f"{path}: expected exactly one {kind!r} row, "
                 f"found {len(by_kind.get(kind, []))}")

    # Every phase must have seen real traffic — a silent client (crashed,
    # never connected) would otherwise report a perfect zero-gap run.
    for kind in phases:
        row = by_kind[kind][0]
        if _numeric(path, row, kind, "commits") <= 0:
            fail(f"{path}: phase {kind!r} committed nothing")
        _numeric(path, row, kind, "max_gap_us")

    summary = by_kind["summary"][0]
    for flag in ("ok", "joiner_healed", "audit_ok"):
        if summary.get(flag) is not True:
            fail(f"{path}: summary.{flag} is {summary.get(flag)!r}, expected true")
    if _numeric(path, summary, "summary", "client_lost") != 0:
        fail(f"{path}: client lost {summary.get('client_lost')} request(s)")

    unavailability_us = _numeric(path, summary, "summary", "unavailability_us")
    worst_change_gap = max(
        _numeric(path, by_kind[k][0], k, "max_gap_us")
        for k in ("join", "remove", "leader_kill"))
    if unavailability_us != worst_change_gap:
        fail(f"{path}: summary.unavailability_us {unavailability_us} inconsistent "
             f"with worst phase gap {worst_change_gap}")
    if max_unavailability_us > 0 and unavailability_us > max_unavailability_us:
        fail(f"{path}: unavailability {unavailability_us:.0f} us above the required "
             f"{max_unavailability_us:.0f} us")
    print(
        f"{path}: OK — join gap {by_kind['join'][0].get('max_gap_us') / 1000:.0f} ms, "
        f"remove gap {by_kind['remove'][0].get('max_gap_us') / 1000:.0f} ms, "
        f"leader kill gap {by_kind['leader_kill'][0].get('max_gap_us') / 1000:.0f} ms, "
        f"joiner healed, audit clean"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    t = sub.add_parser("trace", help="validate a merged Chrome trace")
    t.add_argument("file")
    t.add_argument("--min-processes", type=int, default=3)
    sm = sub.add_parser("sim", help="validate a simulated run's Chrome trace")
    sm.add_argument("file")
    b = sub.add_parser("bench", help="validate a BENCH_*.json artifact")
    b.add_argument("file")
    b.add_argument("--require", nargs="*", default=[])
    n = sub.add_parser("n3", help="validate the N3 saturation-curve artifact")
    n.add_argument("file")
    n.add_argument("--min-speedup", type=float, default=0.0)
    n4 = sub.add_parser("n4", help="validate the N4 per-region geo-latency artifact")
    n4.add_argument("file")
    n4.add_argument("--min-placements", type=int, default=2)
    n5 = sub.add_parser("n5", help="validate the N5 wiped-replica rejoin artifact")
    n5.add_argument("file")
    n5.add_argument("--max-rejoin-ratio", type=float, default=0.0)
    n6 = sub.add_parser("n6", help="validate the N6 reconfig + failover artifact")
    n6.add_argument("file")
    n6.add_argument("--max-unavailability-us", type=float, default=0.0)
    args = parser.parse_args()
    if args.cmd == "trace":
        check_trace(args.file, args.min_processes)
    elif args.cmd == "sim":
        check_sim(args.file)
    elif args.cmd == "n3":
        check_n3(args.file, args.min_speedup)
    elif args.cmd == "n4":
        check_n4(args.file, args.min_placements)
    elif args.cmd == "n5":
        check_n5(args.file, args.max_rejoin_ratio)
    elif args.cmd == "n6":
        check_n6(args.file, args.max_unavailability_us)
    else:
        check_bench(args.file, args.require)


if __name__ == "__main__":
    main()
