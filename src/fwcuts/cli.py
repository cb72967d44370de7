"""Command-line front end.

Subcommands:
  separate   separate one point from one knapsack, print the cut or membership
  root-gap   run the root-node cutting-plane loop over an instance file
  audit      run a root loop and re-verify its cuts with independent checks

Exit codes: `separate` uses 0 = separated, 1 = membership (or undecided),
2 = error.  `root-gap` uses 0 = ok, 2 = error.  `audit` uses
0 = all checks passed, 3 = a named invariant failed, 2 = error.

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
import dataclasses
import csv
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from .driver import LoopConfig, RootRunReport, audit_report, root_cut_loop
from .errors import FwcutsError
from .instances import _Tokens, load_gap_optima, parse_gap, parse_mknap
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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--out", type=str, default=None, help="write to a file instead of stdout")


def _fw_config(args) -> FwConfig:
    return FwConfig(max_iters=args.max_iters)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_instances(path: str, fmt: str):
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "gap":
        return parse_gap(data, name=path)
    return parse_mknap(data, name=path)


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
    config = _fw_config(args)
    separate = separate_vanilla if args.vanilla else separate_lazy_afw
    outcome = separate(point, KnapsackOracle(sub), config)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "separate",
        "stats": asdict(outcome.stats),
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


def _block_key(report: RootRunReport) -> tuple[int, int]:
    return (report.n, report.m)


def _block_averages(reports, with_timings: bool) -> list[dict]:
    blocks: dict[tuple[int, int], list[RootRunReport]] = {}
    for rep in reports:
        blocks.setdefault(_block_key(rep), []).append(rep)
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


def _csv_text(reports, with_timings: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)

    def fmt(rep_dict):
        gap = rep_dict.get("gap_closed")
        return [
            rep_dict["name"],
            rep_dict["n"],
            rep_dict["m"],
            "" if gap is None else f"{gap:.2f}",
            f"{rep_dict['time']:.3f}" if with_timings else "",
            f"{rep_dict['sepa_time']:.3f}" if with_timings else "",
            rep_dict["calls"],
            rep_dict["cuts"],
            rep_dict["rounds"],
        ]

    dicts = [_report_dict(r, with_timings) for r in reports]
    for d in dicts:
        writer.writerow(fmt(d))
    for row in _block_averages(reports, with_timings):
        writer.writerow(
            [
                row["name"],
                row["n"],
                row["m"],
                "" if row["gap_closed"] is None else f"{row['gap_closed']:.2f}",
                f"{row['time']:.3f}" if with_timings else "",
                f"{row['sepa_time']:.3f}" if with_timings else "",
                f"{row['calls']:.1f}",
                f"{row['cuts']:.1f}",
                f"{row['rounds']:.1f}",
            ]
        )
    return buf.getvalue()


def _loop_config(args) -> LoopConfig:
    return LoopConfig(max_rounds=args.max_rounds)


def _attach_optima(instances, args) -> list:
    if not getattr(args, "optima", None):
        return instances
    with open(args.optima) as fh:
        values = load_gap_optima(fh.read())
    if len(values) < len(instances):
        raise FwcutsError("sidecar optima file has fewer values than instances")
    return [
        dataclasses.replace(inst, known_optimum=int(values[i]))
        for i, inst in enumerate(instances)
    ]


def _run_reports(args) -> list[RootRunReport]:
    instances = _read_instances(args.instances, args.format)
    instances = _attach_optima(instances, args)
    fw_config = _fw_config(args)
    loop_config = _loop_config(args)
    reports = []
    for inst in instances:
        reports.append(root_cut_loop(inst, fw_config, loop_config))
    return reports


def cmd_root_gap(args) -> int:
    reports = _run_reports(args)
    with_timings = not args.no_timings
    if args.csv:
        _emit(_csv_text(reports, with_timings), args.out)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "root-gap",
            "instances": [_report_dict(r, with_timings) for r in reports],
            "block_averages": _block_averages(reports, with_timings),
        }
        _emit(_dump_json(payload), args.out)
    return EXIT_OK


def run_audit(instances, fw_config, loop_config, cut_transform=None):
    """Run the loop per instance and re-verify invariants on each report.

    `cut_transform` is a test hook: it may replace the report's cut pool
    before auditing (used to prove the audit catches corrupted cuts).
    Returns (all_passed, results) with one (instance, checks) pair each.
    """
    results = []
    all_passed = True
    for inst in instances:
        report = root_cut_loop(inst, fw_config, loop_config)
        if cut_transform is not None:
            report = cut_transform(report)
        checks = audit_report(inst, report)
        all_passed &= all(c.passed for c in checks)
        results.append((inst, checks))
    return all_passed, results


def cmd_audit(args) -> int:
    instances = _read_instances(args.instances, args.format)
    instances = _attach_optima(instances, args)
    if not instances:
        sys.stderr.write("warning: no instances found; nothing audited\n")
        payload = {"schema_version": SCHEMA_VERSION, "command": "audit", "checks": []}
        _emit(_dump_json(payload), args.out)
        return EXIT_OK
    all_passed, results = run_audit(instances, _fw_config(args), _loop_config(args))
    check_rows = []
    failed_names = []
    for inst, checks in results:
        for c in checks:
            check_rows.append(
                {
                    "instance": inst.name,
                    "check": c.name,
                    "passed": c.passed,
                    "checked": c.checked,
                    "detail": "" if c.passed else c.detail,
                }
            )
            if not c.passed:
                failed_names.append(c.name)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "audit",
        "checks": check_rows,
        "failed": sorted(set(failed_names)),
    }
    _emit(_dump_json(payload), args.out)
    if not all_passed:
        sys.stderr.write(f"audit failed: {', '.join(sorted(set(failed_names)))}\n")
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
    _add_common_flags(p_sep)
    p_sep.set_defaults(func=cmd_separate)

    for name, func, help_text in (
        ("root-gap", cmd_root_gap, "root-node cutting-plane loop over an instance file"),
        ("audit", cmd_audit, "run and re-verify invariants on real instances"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instances", help="instance file")
        p.add_argument("--format", choices=["mknap", "gap"], default="mknap")
        p.add_argument("--optima", default=None, help="sidecar file of known optima")
        p.add_argument("--max-rounds", type=int, default=1000)
        _add_common_flags(p)
        if name == "root-gap":
            p.add_argument("--csv", action="store_true", help="emit CSV rows")
            p.add_argument("--no-timings", action="store_true", help="omit wall-clock fields")
        p.set_defaults(func=func)

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
