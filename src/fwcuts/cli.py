"""Command-line front end.

Subcommands:
  separate   separate one point from one knapsack, print the cut or membership
  root-gap   run the root-node cutting-plane loop over an instance file and
             re-verify every run with the driver's independent audit checks

Exit codes: `separate` uses 0 = separated, 1 = membership (or undecided),
2 = error.  `root-gap` uses 0 = every audit check passed, 2 = error,
3 = an audit check failed (its names go to stderr, in JSON and CSV mode alike).

`--max-iters` is the separator's only setting; `separate --vanilla` swaps
the production solver for the plain one with agnostic steps.

File formats are whitespace-separated numbers throughout:
  point file      k floats
  knapsack file   k C w_1 ... w_k (integers, read like instance files)
  instance files  see `instances` module (mknap / gap)
JSON schemas are versioned; `root-gap --no-timings` omits wall-clock fields
so that identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from .driver import LoopConfig, RootRunReport, audit_report, root_cut_loop
from .errors import FwcutsError
from .instances import MkpInstance, _Tokens, load_gap_optima, parse_gap, parse_mknap
from .oracles import KnapsackOracle, KnapsackSubproblem
from .separation import (
    FwConfig,
    Membership,
    Separated,
    separate_lazy_afw,
    separate_vanilla,
)

SCHEMA_VERSION = 1
CSV_COLUMNS = ["name", "n", "m", "gap_closed", "time", "sepa_time", "calls", "cuts", "rounds"]

EXIT_SEPARATED = 0
EXIT_OK = 0
EXIT_MEMBERSHIP = 1
EXIT_ERROR = 2
EXIT_AUDIT_FAILED = 3


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_instances(args) -> list[MkpInstance]:
    with open(args.instances, "rb") as fh:
        data = fh.read()
    parse = parse_gap if args.format == "gap" else parse_mknap
    instances = parse(data, name=args.instances)
    if not args.optima:
        return instances
    with open(args.optima) as fh:
        values = load_gap_optima(fh.read())
    if len(values) != len(instances):
        raise FwcutsError(
            f"sidecar optima file has {len(values)} values for {len(instances)} instances"
        )
    return [
        dataclasses.replace(inst, known_optimum=value)
        for inst, value in zip(instances, values)
    ]


def cmd_separate(args) -> int:
    with open(args.point) as fh:
        point = np.array([float(t) for t in fh.read().split()])
    with open(args.knapsack, "rb") as fh:
        tokens = _Tokens(fh.read())
    k = tokens.next_int("item count k")
    cap = tokens.next_int("capacity C")
    if tokens.remaining() != k:
        raise FwcutsError(
            "knapsack file must hold: k C w_1 ... w_k with exactly k weights"
        )
    weights = tokens.next_ints(k, "weight w_j")
    if len(point) != k:
        raise FwcutsError(f"point has dimension {len(point)}, knapsack has {k} items")
    sub = KnapsackSubproblem.plain(weights, cap)
    separate = separate_vanilla if args.vanilla else separate_lazy_afw
    outcome = separate(point, KnapsackOracle(sub), FwConfig(max_iters=args.max_iters))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "separate",
        "stats": dataclasses.asdict(outcome.stats),
    }
    if isinstance(outcome.result, Separated):
        cut = outcome.result.cut
        if args.normalize:
            cut = cut.normalized()
        payload["result"] = "separated"
        payload["cut"] = {
            "alpha": [float(a) for a in cut.alpha],
            "beta": float(cut.beta),
            "sense": cut.sense,
            "violation_at_target": float(cut.violation_at_target),
            "source": cut.source,
        }
    elif isinstance(outcome.result, Membership):
        payload["result"] = "membership"
        payload["final_f"] = float(outcome.result.final_f)
    else:
        payload["result"] = "undecided"
        payload["final_f"] = float(outcome.result.final_f)
    _emit(_dump_json(payload), args.out)
    return EXIT_SEPARATED if payload["result"] == "separated" else EXIT_MEMBERSHIP


def _report_dict(report: RootRunReport, with_timings: bool) -> dict:
    d = {
        "name": report.name,
        "n": report.n,
        "m": report.m,
        "d_lp": report.d_lp,
        "d_r": report.d_r,
        "known_optimum": report.known_optimum,
        "gap_closed": report.gap_closed_pct,
        "integral_root": report.integral_root,
        "loop_stop": report.loop_stop,
        "rounds": report.rounds,
        "cuts": report.cuts_added,
        "calls": report.separation_calls,
        "stop_reasons": report.stop_reason_counts,
    }
    if with_timings:
        d["time"] = round(report.timings["total_s"], 3)
        d["sepa_time"] = round(report.timings["separation_s"], 3)
        d["lp_time"] = round(report.timings["lp_s"], 3)
    return d


def _block_averages(reports, with_timings: bool) -> list[dict]:
    blocks: dict[tuple[int, int], list[RootRunReport]] = {}
    for rep in reports:
        blocks.setdefault((rep.n, rep.m), []).append(rep)
    rows = []
    for (n, m), members in sorted(blocks.items()):
        gaps = [r.gap_closed_pct for r in members if r.gap_closed_pct is not None]
        row = {
            "name": f"block(n={n};m={m})",
            "n": n,
            "m": m,
            "instances": len(members),
            "gap_closed": sum(gaps) / len(gaps) if gaps else None,
            "cuts": sum(r.cuts_added for r in members) / len(members),
            "calls": sum(r.separation_calls for r in members) / len(members),
            "rounds": sum(r.rounds for r in members) / len(members),
        }
        if with_timings:
            row["time"] = round(
                sum(r.timings["total_s"] for r in members) / len(members), 3
            )
            row["sepa_time"] = round(
                sum(r.timings["separation_s"] for r in members) / len(members), 3
            )
        rows.append(row)
    return rows


def _csv_cell(column: str, value) -> str:
    """One CSV cell: absent values are empty, counts print as they are for an
    instance and with one decimal for a block average."""
    if value is None:
        return ""
    if column == "gap_closed":
        return f"{value:.2f}"
    if column in ("time", "sepa_time"):
        return f"{value:.3f}"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(col, row.get(col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def cmd_root_gap(args) -> int:
    instances = _read_instances(args)
    if not instances:
        sys.stderr.write("warning: no instances found; nothing audited\n")
    fw_config = FwConfig(max_iters=args.max_iters)
    loop_config = LoopConfig(max_rounds=args.max_rounds)
    reports = []
    checks = []
    for inst in instances:
        report = root_cut_loop(inst, fw_config, loop_config)
        reports.append(report)
        checks.extend(
            {
                "instance": inst.name,
                "check": c.name,
                "passed": c.passed,
                "checked": c.checked,
                "detail": "" if c.passed else c.detail,
            }
            for c in audit_report(inst, report)
        )
    failed = sorted({c["check"] for c in checks if not c["passed"]})

    with_timings = not args.no_timings
    rows = [_report_dict(r, with_timings) for r in reports]
    blocks = _block_averages(reports, with_timings)
    if args.csv:
        _emit(_csv_text(rows + blocks), args.out)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "root-gap",
            "instances": rows,
            "block_averages": blocks,
            "checks": checks,
            "failed": failed,
        }
        _emit(_dump_json(payload), args.out)
    if failed:
        sys.stderr.write(f"audit failed: {', '.join(failed)}\n")
        return EXIT_AUDIT_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwcuts",
        description="Oracle-driven separation and root-node cutting-plane experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sep = sub.add_parser("separate", help="separate a point from one knapsack")
    p_sep.add_argument("point", help="file with k whitespace-separated floats")
    p_sep.add_argument("knapsack", help="file with: k C w_1 ... w_k")
    p_sep.add_argument("--normalize", action="store_true", help="scale the cut to ||alpha||_inf = 1")
    p_sep.add_argument(
        "--vanilla",
        action="store_true",
        help="plain conditional gradients without away steps or an active set",
    )
    p_sep.set_defaults(func=cmd_separate)

    p_gap = sub.add_parser("root-gap", help="root-node cut loop over an instance file, audited")
    p_gap.add_argument("instances", help="instance file")
    p_gap.add_argument("--format", choices=["mknap", "gap"], default="mknap")
    p_gap.add_argument("--optima", default=None, help="sidecar file of known optima")
    p_gap.add_argument("--max-rounds", type=int, default=1000)
    p_gap.add_argument("--csv", action="store_true", help="emit CSV rows")
    p_gap.add_argument("--no-timings", action="store_true", help="omit wall-clock fields")
    p_gap.set_defaults(func=cmd_root_gap)

    for p in (p_sep, p_gap):
        p.add_argument("--max-iters", type=int, default=10_000)
        p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FwcutsError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
