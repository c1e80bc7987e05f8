#!/usr/bin/env python3
"""End-to-end benchmark of the binlab command line.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs to be installed.  Each
binlab command runs in a fresh interpreter (``perfbench/launch.py``, which
calls ``binlab.cli.main`` like the ``binlab`` entry point) with
``PYTHONPATH=src``, one command at a time, so the load stays at one
interpreter plus numpy's BLAS threads.

A pass runs every command of the workload once.  Passes repeat until the
next one would end after ``--seconds``, but at least twice; every metric is
the median over passes.  Every command's outputs are checked (row counts, certificate
verdicts, known conductances) and hashed; a hash that differs between
passes breaks the determinism contract and counts as a failed command.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Their times
are in units of a reference command's time, taken just before each binlab
command (see REFERENCE); the raw seconds go to the details file.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self times, counts and rates of binlab's public
functions, recorded by wrappers from perfbench/tracing.py, plus the
tracing overhead.

``--seed`` goes to ``binlab simulate/drift-check --seed`` and seeds the
generated graph files; without it the configs keep their own seeds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details (host, per-pass figures,
output hashes) go to .bench_results/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

sys.path.insert(0, str(SRC))  # binlab.experiments.scaled_count, for expected counts

RUN_DEADLINE_S = 170.0     # a run must end within 180 s
MIN_PASSES = 2             # the determinism check compares at least two passes
GRAPHICAL_SEED = 1         # own seed of the generated graphical configs
ENGINE_KINDS = ("one-plus-beta", "twinning", "penalty", "reset-memory", "graphical")

# The reference command runs just before every binlab command.  It does no
# binlab work: interpreter start and the numpy and scipy imports that make up
# most of binlab's own set-up.  On a shared 2-vCPU Xeon VM, CPU speed drifted
# by up to 2x from one minute to the next; the reference's time follows that
# drift, so times divided by it are steady across runs where raw times are not.
REFERENCE = "import numpy, scipy.integrate"


# -- configs ---------------------------------------------------------------------

def read_config(path: Path) -> dict[str, str]:
    kv = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


def write_config(path: Path, kv: dict[str, str]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))


def _items(kv: dict[str, str], key: str, default: str = "") -> list[str]:
    return [v.strip() for v in kv.get(key, default).split(",") if v.strip()]


# -- commands and their output checks ------------------------------------------------

@dataclass
class Command:
    key: str                        # stable id of the invocation within a workload
    args: list[str]                 # binlab arguments
    outputs: list[str]              # files under BINLAB_OUT, or "stdout"
    check: Callable[[dict[str, bytes]], tuple[list[str], int]]  # -> (problems, balls)


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def simulate(key: str, cfg_path: Path, kv: dict[str, str], seed: int | None,
             aggregate: bool = False) -> Command:
    if kv.get("keep", "final") != "final":
        raise ValueError(f"{cfg_path}: the benchmark expects keep = final")
    cells = (len(_items(kv, "processes")) * len(_items(kv, "ns"))
             * len(_items(kv, "batches", "0")))
    reps = int(kv.get("reps", "1"))
    cycle = kv.get("graph") == "cycle"
    raw, med = f"{key}.csv", f"{key}-median.csv"
    args = ["simulate", str(cfg_path), "--out", raw]
    if aggregate:
        args += ["--aggregate", med]
    if seed is not None:
        args += ["--seed", str(seed)]

    def check(out: dict[str, bytes]) -> tuple[list[str], int]:
        problems = []
        rows = _csv_rows(out[raw])
        if len(rows) != cells * reps:
            problems.append(f"{raw}: {len(rows)} rows, expected {cells} cells x {reps} reps")
        if aggregate:
            # a group is (cell, step); multi-ball steps can split a cell by one ball
            agg = _csv_rows(out[med])
            if len({(r["point"], r["n"], r["b"]) for r in agg}) != cells \
                    or sum(int(r["reps"]) for r in agg) != cells * reps:
                problems.append(f"{med}: does not cover {cells} cells x {reps} reps")
        for r in rows:
            # the cycle's true conductance is 2/n; a lower bound above it is wrong
            if cycle and not float(r["cond_epsilon"]) <= 2 / int(r["n"]):
                problems.append(f"{raw}: cond_epsilon {r['cond_epsilon']} > 2/n at n={r['n']}")
        return problems, sum(int(r["step"]) for r in rows)

    return Command(key, args, [raw, med] if aggregate else [raw], check)


def drift_check(key: str, cfg_path: Path, kv: dict[str, str], seed: int | None) -> Command:
    from binlab.experiments import scaled_count

    probes = balls = 0
    for n in (int(v) for v in _items(kv, "ns")):
        per_n = scaled_count(kv.get("m", "100n"), n) // n
        probes += (per_n + 1) * len(_items(kv, "processes"))
        balls += per_n * n * len(_items(kv, "processes"))
    certs, checks = f"{key}-certs.csv", f"{key}-checks.csv"
    args = ["drift-check", str(cfg_path), "--out", certs, "--checks-out", checks]
    if seed is not None:
        args += ["--seed", str(seed)]

    def check(out: dict[str, bytes]) -> tuple[list[str], int]:
        problems = []
        for name, expect in ((certs, probes), (checks, 2 * probes)):
            rows = _csv_rows(out[name])
            if len(rows) != expect:
                problems.append(f"{name}: {len(rows)} rows, expected {expect}")
            failed = sum(r["passed"] != "1" for r in rows)
            if failed:
                problems.append(f"{name}: {failed} rows with passed = 0")
        return problems, balls

    return Command(key, args, [certs, checks], check)


def conductance(key: str, graph_path: Path, phi: float | None) -> Command:
    def check(out: dict[str, bytes]) -> tuple[list[str], int]:
        m = re.fullmatch(r"phi = (\S+) \(exact\)\n", out["stdout"].decode())
        if not m:
            return [f"{key}: unexpected output {out['stdout'][:200]!r}"], 0
        value = float(m.group(1))
        if phi is not None and abs(value - phi) > 1e-6:
            return [f"{key}: phi = {value}, expected {phi}"], 0
        if not 0 < value <= 1:
            return [f"{key}: phi = {value} outside (0, 1]"], 0
        return [], 0

    return Command(key, ["conductance", str(graph_path)], ["stdout"], check)


# -- workloads -----------------------------------------------------------------------
# Each workload puts most of its time into the layers one ROADMAP item changes
# and little or none into another's; perfbench/README.md has the table.

ENGINE_REPS = 5      # of the shipped 50: a pass takes about 7 s
GRAPHICAL_REPS = 8   # the graphical engine takes about 0.4 s of a 17 s pass


def _shipped(name: str, work: Path, **overrides: str) -> tuple[Path, dict[str, str]]:
    kv = read_config(CONFIGS / f"{name}.cfg")
    kv.update(overrides)
    path = work / f"{name}.cfg"
    write_config(path, kv)
    return path, kv


def sweep_engines(work: Path, seed: int | None) -> list[Command]:
    """Per-ball engines: one-plus-beta, twinning, penalty, reset-memory."""
    cmds = []
    for name in ("gap_vs_beta", "theta_log_n"):
        path, kv = _shipped(name, work, reps=str(ENGINE_REPS))
        cmds.append(simulate(name, path, kv, seed, aggregate=True))
    return cmds


def sweep_batched(work: Path, seed: int | None) -> list[Command]:
    """numpy run_batched: no per-ball engine runs."""
    path, kv = _shipped("batched_scaling", work, ns="1024,4096")
    return [simulate("batched_scaling", path, kv, seed)]


def certify(work: Path, seed: int | None) -> list[Command]:
    """Exact path: step, sample_round, certify_drift, step-bound checks."""
    shipped = CONFIGS / "drift_two_choice.cfg"
    path, kv = _shipped("drift_two_choice", work,
                        processes="two-choice,quantile:delta=0.5,reset-memory",
                        ns="256,1024")
    return [drift_check("drift_two_choice", shipped, read_config(shipped), seed),
            drift_check("drift_three_kinds", path, kv, seed)]


def conductance_workload(work: Path, seed: int | None) -> list[Command]:
    """Spectral bounds (gamma = auto on graphical sweeps) and exact conductance.

    The random 4-regular sweep keeps its own seed: the config seed is also
    the graph seed, and power-iteration time on random 4-regular graphs of
    1024 vertices ranges from 1.0 s to 6.8 s across graph seeds, which would
    swamp any change being measured.  The cycle sweep takes the workload seed.
    """
    cmds = []
    for key, graph, ns, run_seed in (("graphical_cycle", "cycle", "256,512", seed),
                                     ("graphical_rr4", "random-regular:d=4", "1024", None)):
        kv = {"processes": "graphical", "graph": graph, "ns": ns, "m": "10nlogn",
              "reps": str(GRAPHICAL_REPS), "seed": str(GRAPHICAL_SEED),
              "weights": "exp1", "gamma": "auto"}
        path = work / f"{key}.cfg"
        write_config(path, kv)
        cmds.append(simulate(key, path, kv, run_seed))
    cmds.append(conductance("conductance_cycle24", work / "cycle24.graph", 1 / 12))
    cmds.append(conductance("conductance_rr3_24", work / "rr3-24.graph", None))
    return cmds


WORKLOADS = {
    "sweep-engines": sweep_engines,
    "sweep-batched": sweep_batched,
    "certify": certify,
    "conductance": conductance_workload,
}


# -- running commands -------------------------------------------------------------------

@dataclass
class Invocation:
    key: str
    rc: int
    ref_s: float
    wall_s: float
    setup_s: float
    rss_mb: float
    balls: int
    hashes: dict[str, str]
    problems: list[str]
    spans: dict[str, dict[str, float]] = field(default_factory=dict)


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["BINLAB_OUT"] = str(work / "out")
    env.pop("PERFBENCH_SPANS", None)
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float,
              stdout=subprocess.DEVNULL, stderr=None
              ) -> tuple[int, resource.struct_rusage, float, float]:
    """Run argv to its end: (exit code, resource usage, spawn time, exit time).
    os.wait4 blocks until the child exits, so the times have no polling delay."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, t0, t1


def invoke(cmd: Command, work: Path, trace: bool, deadline: float) -> Invocation:
    rc, _, r0, r1 = run_child([sys.executable, "-c", REFERENCE], child_env(work), deadline)
    if rc != 0:
        raise RuntimeError(f"reference command exited with {rc}")
    marks, spans = work / "marks.json", work / "spans.bin"
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    stale = [marks, spans] + [work / "out" / n for n in cmd.outputs if n != "stdout"]
    for p in stale:
        p.unlink(missing_ok=True)
    env = child_env(work)
    env["PERFBENCH_MARKS"] = str(marks)
    if trace:
        env["PERFBENCH_SPANS"] = str(spans)
    argv = [sys.executable, str(BENCH / "launch.py"), *cmd.args]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        rc, usage, t0, t1 = run_child(argv, env, deadline, out, err)

    problems = []
    if rc != 0:
        err_tail = stderr_path.read_text(errors="replace")[-500:]
        problems.append(f"{cmd.key}: exit code {rc}: {err_tail}")
    setup_end = json.loads(marks.read_text()).get("setup_end") if marks.exists() else None
    if setup_end is None:
        problems.append(f"{cmd.key}: no set-up mark")
    outputs, hashes = {}, {}
    for name in cmd.outputs:
        path = stdout_path if name == "stdout" else work / "out" / name
        if path.exists():
            outputs[name] = path.read_bytes()
            hashes[name] = hashlib.sha256(outputs[name]).hexdigest()
        else:
            problems.append(f"{cmd.key}: missing output {name}")
    balls = 0
    if not problems:
        found, balls = cmd.check(outputs)
        problems += found
    return Invocation(
        key=cmd.key, rc=rc, ref_s=r1 - r0, wall_s=t1 - t0,
        setup_s=(setup_end - t0) if setup_end is not None else 0.0,
        rss_mb=usage.ru_maxrss / 1024, balls=balls, hashes=hashes,
        problems=problems,
        spans=tracing.span_totals(spans) if trace and spans.exists() else {})


# -- metrics -------------------------------------------------------------------------------

def end_to_end(invs: list[Invocation]) -> dict[str, float]:
    """Per pass.  wall_ref and balls_per_ref measure time in reference-command
    units; wall_s, balls_per_s and reference_s are the raw figures."""
    ref = sum(i.ref_s for i in invs)
    wall = sum(i.wall_s for i in invs)
    setup = sum(i.setup_s for i in invs)
    balls = sum(i.balls for i in invs)
    return {
        "wall_ref": wall / ref,
        "setup_s": setup,
        "balls_per_ref": balls / ((wall - setup) / ref),
        "peak_rss_mb": max(i.rss_mb for i in invs),
        "wall_s": wall,
        "balls_per_s": balls / (wall - setup),
        "reference_s": ref,
    }


def per_layer(invs: list[Invocation]) -> dict[str, float]:
    tot: dict[str, dict[str, float]] = {}
    for inv in invs:
        for name, t in inv.spans.items():
            acc = tot.setdefault(name, dict.fromkeys(t, 0.0))
            for k, v in t.items():
                acc[k] += v

    def get(name: str, what: str) -> float:
        return tot.get(name, {}).get(what, 0.0)

    def rate(count: float, secs: float) -> float:
        return count / secs if secs > 0 else 0.0

    m = {
        "cli.import_s": get("cli.import", "self_s"),
        "configfile.load_config_s": get("configfile.load_config", "self_s"),
        "experiments.sweep_self_s": get("experiments.sweep", "self_s"),
        "experiments.run_calls": get("processes.run", "calls")
        + get("processes.run_batched", "calls"),
        "experiments.aggregate_s": get("experiments.aggregate", "self_s"),
        "processes.engine_advance_s": sum(
            t["self_s"] for name, t in tot.items()
            if name.startswith("processes.engine_advance.")),
    }
    for kind in ENGINE_KINDS:
        name = f"processes.engine_advance.{kind}"
        m[f"processes.engine_balls_per_s.{kind}"] = rate(get(name, "count"),
                                                         get(name, "self_s"))
    probe_rows = get("processes.snapshot", "calls")
    m.update({
        # run's own time with advance as a child is the probe loop; batched
        # runs probe through the same snapshot function
        "processes.probe_s": get("processes.run", "self_s")
        + get("processes.snapshot", "self_s"),
        "processes.probe_rows": probe_rows,
        "processes.probe_useful_ratio": rate(get("experiments.sweep", "count"), probe_rows),
        "processes.run_batched_s": get("processes.run_batched", "self_s"),
        "processes.batched_balls_per_s": rate(get("processes.run_batched", "count"),
                                              get("processes.run_batched", "self_s")),
        "processes.step_calls": get("processes.step", "calls"),
        "processes.step_s": get("processes.step", "self_s"),
        "processes.sample_round_calls": get("processes.sample_round", "calls"),
        "processes.sample_round_s": get("processes.sample_round", "self_s"),
        "core.apply_allocation_calls": get("core.apply_allocation", "calls"),
        "core.apply_allocation_s": get("core.apply_allocation", "self_s"),
        "rng.make_generator_calls": get("rng.make_generator", "calls"),
        "rng.make_generator_s": get("rng.make_generator", "self_s"),
        "potentials.step_bound_check_self_s": get("potentials.drift_step_bound_check", "self_s"),
        "potentials.step_bound_trials_per_s": rate(
            get("potentials.drift_step_bound_check", "count"),
            get("potentials.drift_step_bound_check", "total_s")),
        "potentials.certify_drift_s": get("potentials.certify_drift", "self_s"),
        "graphs.conductance_bounds_s": get("graphs.conductance_bounds", "self_s"),
        "graphs.conductance_exact_s": get("graphs.conductance_exact", "self_s"),
        "graphs.build_graph_s": get("graphs.build_graph", "self_s"),
        "tableio.write_csv_s": get("tableio.write_csv", "self_s"),
        "tableio.csv_bytes": get("tableio.write_csv", "count"),
    })
    return m


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# -- host ------------------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def prepare(work: Path, seed: int | None) -> dict:
    """Untimed: warm the bytecode cache, write graph files, read library versions."""
    graph_seed = GRAPHICAL_SEED if seed is None else seed
    res = subprocess.run(
        [sys.executable, str(BENCH / "prep.py"), str(work), str(graph_seed)],
        cwd=ROOT, env=child_env(work), capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"preparation failed: {res.stderr[-2000:]}")
    libs = json.loads(res.stdout.strip().splitlines()[-1])
    if not Path(libs.pop("binlab_file")).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("binlab was not imported from this checkout's src/")
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), **libs,
            "git_revision": git_revision(), "source_sha256": source_digest(),
            "workload_seed": seed}


# -- main ------------------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    for need in (SRC / "binlab" / "cli.py", CONFIGS, ROOT / "BENCHMARK.json"):
        if not need.exists():
            print(f"perfbench: {need} not found; run from a binlab source checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    host = prepare(work, args.seed)
    cmds = WORKLOADS[args.workload](work, args.seed)

    # trace 1: untraced and traced passes alternate, so that the overhead
    # figure compares passes run under the same host load.  A run makes at
    # least MIN_PASSES passes, even where they take longer than --seconds.
    passes: list[tuple[bool, list[Invocation]]] = []
    measure_start = time.monotonic()
    while True:
        traced = bool(args.trace and len(passes) % 2)
        t0 = time.monotonic()
        passes.append((traced, [invoke(c, work, traced, deadline) for c in cmds]))
        now = time.monotonic()
        if now + (now - t0) > deadline:
            break
        if len(passes) >= MIN_PASSES and (traced or not args.trace) \
                and now - measure_start + (now - t0) > seconds:
            break
    if len(passes) < MIN_PASSES:
        raise RuntimeError(f"only {len(passes)} pass(es) fit before the deadline; "
                           f"the determinism check needs {MIN_PASSES}")

    attempted = sum(len(invs) for _, invs in passes)
    first = {}
    for _, invs in passes:
        for inv in invs:
            ref = first.setdefault(inv.key, inv.hashes)
            if inv.hashes != ref:
                inv.problems.append(f"{inv.key}: output differs from the first pass "
                                    f"(determinism contract)")
    problems = [p for _, invs in passes for inv in invs for p in inv.problems]
    failed = sum(bool(inv.problems) for _, invs in passes for inv in invs)

    e2e = medians([end_to_end(invs) for tr, invs in passes if not tr])
    metrics = e2e
    if args.trace:
        traced = [invs for tr, invs in passes if tr]
        if not traced:
            raise RuntimeError("no time left for a traced pass")
        metrics = medians([per_layer(invs) for invs in traced])
        # compared in reference units, then put back into seconds at the
        # untraced passes' host speed
        traced_wall_ref = statistics.median(end_to_end(invs)["wall_ref"] for invs in traced)
        metrics["trace.overhead_s"] = (traced_wall_ref - e2e["wall_ref"]) * e2e["reference_s"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "host": host, "attempted": attempted, "failed": failed,
        "failed_ops_share": failed / attempted, "problems": problems,
        "end_to_end": e2e, "per_layer": metrics if args.trace else None,
        "passes": [{"traced": tr, "invocations": [
            {k: v for k, v in vars(inv).items() if k != "spans"} for inv in invs]}
            for tr, invs in passes],
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    seed_tag = "default" if args.seed is None else str(args.seed)
    out_path = out_dir / f"{args.workload}-seed{seed_tag}-trace{args.trace}.json"
    out_path.write_text(json.dumps(results, indent=1) + "\n")

    for p in problems:
        print(f"FAILED {p}")
    print(f"{args.workload}: {len(passes)} passes, {attempted} commands, {failed} failed, "
          f"{time.monotonic() - started:.1f} s; details in {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
