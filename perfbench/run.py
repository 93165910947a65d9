"""End-to-end benchmark of gtsfit, with an optional traced run per layer.

    python3 perfbench/run.py --workload fit_spy --seed 1 --seconds 20 --trace 0

Workloads (closed loop: one process, one operation at a time):

  fit_spy      `gtsfit fit` on a 3000-point spy draw, started at the truth
  fit_near_vg  `gtsfit fit` on a 3046-point spy draw whose fit ends near beta+ = 0
  validate     `gtsfit gof` on a 3046-point draw, then `gtsfit simulate` of 262144 draws
  ks_null      `ks_null_summary(3048)`, the exact KS null at the paper's m

CLI commands run in-process through gtsfit.cli.main, so argument parsing,
CSV reading and writing and exit codes are on the measured path. A round is
one pass over the workload's operations; rounds repeat until the next one
would end after --seconds, and at least one round runs.

--trace 0 prints the end-to-end metrics: round_cpu_s (median CPU time of a
round), setup_s (median CPU time of several set-ups in fresh interpreters)
and peak_rss_mb (peak resident set of this process over the timed rounds).
--trace 1 runs untraced rounds for half of --seconds, then one round with
every layer boundary wrapped (tracer.py), and prints the per-layer metrics
of that round plus trace.overhead_s, the traced round's CPU time minus the
untraced median.

The two times are CPU times of a process that runs one thread of gtsfit
work (BLAS pinned to one thread), scaled to a fixed machine speed by the
speed sampler (speed.py). On a virtual machine that shares its host, the
same round took up to a third longer in one run than in another, in CPU
time as well as in wall time; the sampler, which runs no gtsfit code,
takes that out. Raw CPU times, wall times and the scale of every round are
kept in the details line.

Outputs are checked (checks.py) after the timed rounds. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it holds details: per-operation times, every check, machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

# One BLAS thread, set before numpy loads and inherited by the set-up
# interpreters. On a 2-core machine shared with other jobs, the default
# second OpenBLAS thread made ks_null (Durbin matrix products) vary by 20%
# from run to run; single-threaded it is steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import inputs  # noqa: E402  (imports no gtsfit code at module level)
import speed  # noqa: E402

SETUPS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="gtsfit end-to-end benchmark")
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--draw-seed", type=int, default=None,
                    help="recheck a fit workload on another fixed draw (README)")
    return ap.parse_args(argv)


# -- set-up ----------------------------------------------------------------


def timed_setups(args, work):
    """Run the set-up SETUPS times in fresh interpreters; the inputs must come
    out byte-identical each time. Returns ([(CPU seconds, wall start, wall
    end)] of each set-up, input dir)."""
    times, contents = [], []
    for i in range(SETUPS):
        d = work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(d)]
        if args.draw_seed is not None:
            cmd += ["--draw-seed", str(args.draw_seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append((json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], t0, t1))
        contents.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
    if any(c != contents[0] for c in contents[1:]):
        raise RuntimeError("set-up is not deterministic: inputs differ between runs")
    return times, work / "setup0"


# -- operations --------------------------------------------------------------


class Workload:
    """The operations of one round. Each op is (name, call, output files);
    call() returns an exit code, or the result of a library call."""

    def __init__(self, name, ctx):
        from gtsfit import cli, gof

        inp, res = ctx["inputs"], ctx["results"]
        truth = ",".join(repr(x) for x in ctx["truth"])
        returns = str(inp / "returns.csv")
        spy = str(inp / "spy.json")
        if name in inputs.FIT_WORKLOADS:
            files = [res / "params.json", res / "trace.csv"]
            argv = ["fit", returns, f"--init={truth}", "--trace", str(files[1]),
                    "--out", str(files[0])]
            self.ops = [("fit", lambda: cli.main(argv), files)]
        elif name == "validate":
            gof_out = res / "gof.json"
            draws = res / "draws.csv"
            gof_argv = ["gof", returns, "--params", spy, "--out", str(gof_out)]
            sim_argv = ["simulate", "--params", spy, "--n", str(inputs.SIM_DRAWS),
                        "--seed", str(ctx["sim_seed"]), "--out", str(draws)]
            self.ops = [("gof", lambda: cli.main(gof_argv), [gof_out]),
                        ("simulate", lambda: cli.main(sim_argv), [draws])]
        else:
            self.ops = [("null_summary", lambda: gof.ks_null_summary(inputs.NULL_M), [])]

    def round(self, tracer=None):
        rec = {}
        for name, call, files in self.ops:
            for f in files:
                f.unlink(missing_ok=True)
            if tracer is not None:
                tracer.begin(f"op.{name}")
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                value, error = call(), None
            except Exception:
                value, error = None, traceback.format_exc()
            cpu = time.thread_time() - c0
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end()
            if files:
                out = {f.name: f.read_bytes() for f in files if f.exists()}
            else:
                out = {"result": value}
            rec[name] = {"t0": t0, "t1": t1, "dt": t1 - t0, "cpu": cpu,
                         "value": value, "error": error, "out": out}
        return rec


def keep(rounds, rec):
    """Append a round, keeping only the first round's outputs in memory (so
    that peak RSS does not grow with the round count); a later round keeps
    whether its outputs equal the first round's."""
    for name, op in rec.items():
        op["same"] = not rounds or op["out"] == rounds[0][name]["out"]
        if rounds:
            op["out"] = op["value"] = None
    rounds.append(rec)


def round_time(rec):
    return sum(op["dt"] for op in rec.values())


def round_cpu(rec):
    return sum(op["cpu"] for op in rec.values())


def round_span(rec):
    ops = list(rec.values())
    return ops[0]["t0"], ops[-1]["t1"]


def run_rounds(wl, budget, rounds):
    """Append whole rounds until the next one would end after `budget` s."""
    t0 = time.perf_counter()
    done = 0
    while True:
        keep(rounds, wl.round())
        done += 1
        if (time.perf_counter() - t0) * (done + 1) / done > budget:
            return


# -- correctness -------------------------------------------------------------


def _parse_fit(out):
    """(params vector, trace rows) from the fit's output files."""
    import numpy as np

    doc = json.loads(out["params.json"])
    lines = out["trace.csv"].decode().strip().splitlines()
    rows = [np.array([float(c) for c in ln.split(",")]) for ln in lines[1:]]
    return [doc[k] for k in inputs.PARAM_NAMES], rows


def _parse_draws(out):
    import numpy as np

    lines = out["draws.csv"].decode().split("\n")
    if lines[0] != "sample":
        raise ValueError("draws CSV lacks its header")
    return np.array([float(s) for s in lines[1:] if s])


def check_outputs(ctx, first):
    """Independent checks of one round's outputs: {op: [(name, ok, detail)]}."""
    import numpy as np

    import checks

    res = {}
    y = None
    if (ctx["inputs"] / "returns.csv").exists():
        y = np.loadtxt(ctx["inputs"] / "returns.csv", skiprows=1)
    for name, rec in first.items():
        if rec["error"] is not None:
            res[name] = [("no_exception", False, rec["error"].strip().splitlines()[-1])]
            continue
        rc, out = rec["value"], rec["out"]
        try:
            if name == "fit":
                params, rows = _parse_fit(out)
                res[name] = checks.check_fit(rc, params, rows, y, ctx["truth"])
                if rows:
                    ctx["final_params"] = [float(x) for x in params]
                    ctx["final_log_ml"] = float(rows[-1][8])
                    ctx["iterations"] = len(rows)
            elif name == "gof":
                res[name] = checks.check_gof(rc, json.loads(out["gof.json"]), y, ctx["truth"])
            elif name == "simulate":
                res[name] = checks.check_simulate(rc, _parse_draws(out), inputs.SIM_DRAWS,
                                                  ctx["sim_seed"], ctx["truth"])
            else:
                ref = checks.kstwo_reference(inputs.NULL_M)
                res[name] = checks.check_null(tuple(out["result"]), ref)
        except (KeyError, ValueError) as exc:
            res[name] = [("exit_code", rc == 0, f"rc={rc}"),
                         ("outputs_readable", False, f"{type(exc).__name__}: {exc}")]
    return res


def tally(rounds, verdicts):
    """(attempted, failed, correct). An operation fails on an exception, a
    nonzero exit code, a failed check, or output that differs from the
    checked first round. correct is False when a check on an output fails;
    an operation that raised or exited nonzero only counts as failed."""
    attempted = failed = 0
    for rec in rounds:
        for name, op in rec.items():
            attempted += 1
            ok = (op["error"] is None
                  and op["same"]
                  and all(r[1] for r in verdicts[name]))
            failed += not ok
    correct = all(r[1] for rows in verdicts.values() for r in rows
                  if r[0] not in ("no_exception", "exit_code"))
    return attempted, failed, correct


# -- reporting -------------------------------------------------------------


def machine_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    threads = {k: os.environ[k] for k in thread_vars if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "unset: library default",
        "machine": platform.machine(),
    }


def op_medians(rounds):
    """Per-operation medians of wall time and, suffixed _cpu, CPU time."""
    out = {}
    for name in rounds[0]:
        for key, suffix in (("dt", ""), ("cpu", "_cpu")):
            med = statistics.median(r[name][key] for r in rounds)
            if name == "simulate":
                out[f"simulate_draws_per{suffix}_s"] = inputs.SIM_DRAWS / med
            else:
                out[f"{name}{suffix}_s"] = med
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    inputs.use_source_tree()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    args.tag = f"{args.workload}-seed{args.seed}"
    if args.draw_seed is not None:
        args.tag += f"-draw{args.draw_seed}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work):
    speed.pin_to_one_cpu()
    with speed.Sampler() as sampler:
        setups, ctx, rounds, tracer, overhead = _measure(args, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(cpu * sampler.scale(t0, t1) for cpu, t0, t1 in setups)
    scales = [sampler.scale(*round_span(r)) for r in rounds]

    verdicts = check_outputs(ctx, rounds[0])
    attempted, failed, correct = tally(rounds, verdicts)

    if args.trace:
        import tracer as tracing

        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = (overhead, "s")
        metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
        tracer.dump(OUT / f"spans-{args.tag}.json")
    else:
        metrics = {
            "round_cpu_s": metric(statistics.median(
                round_cpu(r) * k for r, k in zip(rounds, scales)), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "draw_seed": args.draw_seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_times_s": [round_time(r) for r in rounds],
        "round_cpu_raw_s": [round_cpu(r) for r in rounds],
        "speed_scale": scales,
        "speed_samples": len(sampler.cpu),
        "operations": op_medians(rounds[:-1] if args.trace else rounds),
        "setup_raw_s": [cpu for cpu, _, _ in setups],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": {k: [list(r) for r in v] for k, v in verdicts.items()},
        "machine": machine_facts(),
    }
    for key in ("final_params", "final_log_ml", "iterations"):
        if key in ctx:
            details[key] = ctx[key]
    if tracer is not None:
        details["absent_wrappers"] = tracer.absent
        details["spans"] = tracer.span_table()
    with open(OUT / f"result-{args.tag}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _measure(args, work):
    """Set-ups and timed rounds, while the speed sampler runs."""
    setups, inp = timed_setups(args, work)
    results = work / "results"
    results.mkdir()
    ctx = {"inputs": inp, "results": results, "truth": inputs.spy_vector(),
           "sim_seed": inputs.sim_seed(args.seed)}
    wl = Workload(args.workload, ctx)

    rounds = []
    tracer = overhead = None
    if args.trace:
        import tracer as tracing

        run_rounds(wl, args.seconds / 2.0, rounds)
        untraced = statistics.median(round_cpu(r) for r in rounds)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            keep(rounds, wl.round(tracer))
        finally:
            tracer.uninstall()
        overhead = round_cpu(rounds[-1]) - untraced
    else:
        run_rounds(wl, args.seconds, rounds)
    return setups, ctx, rounds, tracer, overhead


if __name__ == "__main__":
    sys.exit(main())
