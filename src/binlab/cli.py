"""Command-line entry points.

Subcommands: simulate, drift-check, conductance, vector, plot, selftest.
Exit codes: 0 success, 1 validation/usage error, 2 a check ran and failed.
Output files land in $BINLAB_OUT (default: current directory).
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .checks import CertResult, CheckResult, PreconditionError
from .configfile import load_config
from .experiments import aggregate, certify, sweep
from .graphs import EXACT_LIMIT, conductance_bounds, conductance_exact, read_graph_file
from .processes import (UnsupportedProcessError, allocation_vector,
                        canonical_conditions, parse_process)
from .selftest import GROUPS, run_selftest
from .tableio import Table, read_csv, write_csv
from .vectors import check_conditions


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for failed checks
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out_path(name: str) -> str:
    base = os.environ.get("BINLAB_OUT", ".")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _frac(x: float) -> str:
    return str(Fraction(x).limit_denominator(10 ** 6))


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    table = sweep(cfg)
    out = _out_path(args.out)
    write_csv(table, out)
    print(f"simulate: {len(table)} rows -> {out}")
    if args.aggregate:
        agg = aggregate(table)
        agg_out = _out_path(args.aggregate)
        write_csv(agg, agg_out)
        print(f"simulate: {len(agg)} aggregated rows -> {agg_out}")
    return 0


def _tightest(results) -> str:
    """Smallest slack relative to |bound|, with its inputs hash."""
    def relative(res):
        return res.slack / (abs(res.bound) or 1.0)

    worst = min(results, key=relative)
    return f"{relative(worst):.3g} of |bound| (inputs {worst.inputs})"


def _cmd_drift_check(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    certs, checks = certify(cfg)
    cert_out, checks_out = _out_path(args.out), _out_path(args.checks_out)
    for path, rec, rows in ((cert_out, CertResult, certs), (checks_out, CheckResult, checks)):
        write_csv(Table(rec.COLUMNS, [r.row() for r in rows]), path)
    n_fail = sum(not res.passed for res in certs + checks)
    print(f"drift-check: {len(certs)} certificates + {len(checks)} step-bound checks, "
          f"{n_fail} failures -> {cert_out}, {checks_out}")
    print(f"drift-check: smallest certificate slack {_tightest(certs)}")
    print(f"drift-check: smallest step-bound slack {_tightest(checks)}")
    return 2 if n_fail else 0


def _cmd_conductance(args) -> int:
    g = read_graph_file(args.graph_file)
    if g.n <= EXACT_LIMIT:
        print(f"phi = {conductance_exact(g):.6g} (exact)")
    else:
        lo, hi = conductance_bounds(g)
        print(f"phi in [{lo:.6g}, {hi:.6g}] (spectral bounds)")
    return 0


def _cmd_vector(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    spec = parse_process(args.process)
    try:
        p = allocation_vector(spec, args.n)
    except UnsupportedProcessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(",".join(f"{v:.9g}" for v in p.probs))
    try:
        cond = canonical_conditions(spec, args.n)
    except UnsupportedProcessError:
        print("no canonical conditions (uniform process)")
        return 0
    res = check_conditions(p, cond)
    c1 = "pass" if res["C1"] else "FAIL"
    c2 = "pass" if res["C2"] else "FAIL"
    print(f"C1: {c1} (δ={_frac(cond.delta)}, ε={_frac(cond.epsilon)}), "
          f"C2: {c2} (C={cond.c_cap:g})")
    d0 = "pass" if res["D0"] else "FAIL"
    d1 = "pass" if res["D1"] else "FAIL"
    print(f"D0: {d0}, D1: {d1}")
    return 0


def _cmd_plot(args) -> int:
    from .svgplot import PlotSpec, render_svg  # the one command that draws

    table = read_csv(args.table)
    for name in (args.x, args.y, args.group_by):
        if name is not None and name not in table.headers:
            raise ValueError(f"no column {name!r}; the table has columns "
                             f"{', '.join(table.headers)}")
    spec = PlotSpec(x=args.x, y=args.y, group_by=args.group_by,
                    scale=args.scale, title=args.title or "")
    out = _out_path(args.out)
    render_svg(table, spec, out)
    print(f"plot: {out}")
    return 0


def _cmd_selftest(args) -> int:
    failures = run_selftest(groups=args.group or None)
    print(f"selftest: {failures} failures")
    return 2 if failures else 0


def main(argv=None) -> int:
    """Run one binlab command and return its exit code.

    Once the arguments parse, the heap built at start-up (modules, classes,
    numpy's and binlab's import-time state) is frozen out of the cyclic
    garbage collector.  No output waits for a collection, so nothing is
    lost: every output file is written and closed inside a ``with`` block
    (``tableio.write_csv``, ``graphs.write_graph_file``, ``svgplot``), the
    interpreter still flushes stdout and stderr and runs atexit handlers,
    and a fanned-out sweep joins its worker threads before it returns.
    Objects a command creates stay collectable, so a file the command
    leaks is still reported as a ``ResourceWarning``.
    """
    parser = _Parser(prog="binlab",
                     description="balanced-allocation simulations and checks")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="run a sweep from a config file")
    p_sim.add_argument("config")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_sim.add_argument("--out", default="runs.csv")
    p_sim.add_argument("--aggregate", default="",
                       help="also write per-point medians to this file")

    p_dc = sub.add_parser("drift-check",
                          help="certify the drift inequality along runs")
    p_dc.add_argument("config")
    p_dc.add_argument("--seed", type=int, default=None)
    p_dc.add_argument("--out", default="drift-certs.csv")
    p_dc.add_argument("--checks-out", default="drift-checks.csv")

    p_cond = sub.add_parser("conductance",
                            help="conductance of a graph file (exact if small)")
    p_cond.add_argument("graph_file")

    p_vec = sub.add_parser("vector",
                           help="print a process's allocation vector and checks")
    p_vec.add_argument("process")
    p_vec.add_argument("n", type=int)

    p_plot = sub.add_parser("plot", help="render a CSV table to SVG")
    p_plot.add_argument("table")
    p_plot.add_argument("--x", required=True)
    p_plot.add_argument("--y", required=True)
    p_plot.add_argument("--group-by", default=None)
    p_plot.add_argument("--scale", default="linear",
                        choices=["linear", "log-x", "log-y", "log-log"])
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--out", default="plot.svg")

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--group", action="append", choices=sorted(GROUPS),
                        help="restrict to one module group (repeatable)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # Frozen, the ~24k start-up objects are left for the OS to reclaim at
    # exit; otherwise the final collection walks and frees them one by one,
    # 30-50 ms per process and as long as many a command's work.  A fanned-out
    # sweep's worker threads share the heap, so their collections skip it too.
    gc.freeze()

    handlers = {
        "simulate": _cmd_simulate,
        "drift-check": _cmd_drift_check,
        "conductance": _cmd_conductance,
        "vector": _cmd_vector,
        "plot": _cmd_plot,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.cmd](args)
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
