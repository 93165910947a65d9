"""Show that every correctness check can fail.

Runs one real round of fit_spy, validate and ks_null, confirms the checks
pass on the real outputs, then feeds each check a corrupted copy (a
perturbed parameter, D, p-value, draw or null mean, or a nonzero exit code)
and confirms the operation is then counted as failed. Exits 1 if a real
output fails or a corruption goes unnoticed. Takes about half a minute.

    python3 perfbench/selftest.py
"""

import copy
import json
import os
import shutil
import sys

import run

import inputs


def _fit_files(out, shift_trace):
    """Move mu by 1e-3 in the params JSON and, optionally, in the trace's
    last row, so that the two still agree."""
    doc = json.loads(out["params.json"])
    doc["mu"] += 1e-3
    files = dict(out, **{"params.json": json.dumps(doc).encode()})
    if shift_trace:
        lines = out["trace.csv"].decode().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(doc["mu"])
        files["trace.csv"] = ("\n".join(lines[:-1] + [",".join(cells)]) + "\n").encode()
    return files


def _json_shift(name, key, delta):
    def corrupt(out):
        doc = json.loads(out[name])
        doc[key] += delta
        return dict(out, **{name: json.dumps(doc).encode()})
    return corrupt


def _draw_shift(out):
    lines = out["draws.csv"].decode().split("\n")
    lines[1000] = repr(float(lines[1000]) + 1e-3)
    return dict(out, **{"draws.csv": "\n".join(lines).encode()})


def _null_shift(out):
    s = out["result"]
    return {"result": s._replace(mean=s.mean + 1e-6)}


CORRUPTIONS = {
    "fit_spy": [
        ("fit", "mu + 1e-3 in params and trace", lambda o: _fit_files(o, True), None),
        ("fit", "mu + 1e-3 in params only", lambda o: _fit_files(o, False), None),
        ("fit", "exit code 3", None, 3),
    ],
    "validate": [
        ("gof", "D + 1e-4", _json_shift("gof.json", "d_m", 1e-4), None),
        ("gof", "p-value + 1e-4", _json_shift("gof.json", "p_value", 1e-4), None),
        ("simulate", "one draw + 1e-3", _draw_shift, None),
    ],
    "ks_null": [
        ("null_summary", "null mean + 1e-6", _null_shift, None),
    ],
}


def main():
    inputs.use_source_tree()
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / f"selftest-{os.getpid()}"
    bad = 0
    try:
        for workload, cases in CORRUPTIONS.items():
            inp = work / workload
            inputs.make_inputs(workload, 1, inp)
            (inp / "results").mkdir()
            ctx = {"inputs": inp, "results": inp / "results", "truth": inputs.spy_vector(),
                   "sim_seed": inputs.sim_seed(1)}
            real = run.Workload(workload, ctx).round()
            run.keep([], real)
            _, failed, correct = run.tally([real], run.check_outputs(ctx, real))
            print(f"{workload}: real outputs -> failed {failed}, correct {correct}")
            bad += failed != 0 or not correct
            for op, label, corrupt, rc in cases:
                fake = copy.deepcopy(real)
                if corrupt is not None:
                    fake[op]["out"] = corrupt(real[op]["out"])
                if rc is not None:
                    fake[op]["value"] = rc
                verdicts = run.check_outputs(ctx, fake)
                _, failed, _ = run.tally([fake], verdicts)
                caught = [r[0] for r in verdicts[op] if not r[1]]
                print(f"  {op:12s} {label:32s} failed {failed}  by {caught}")
                bad += failed != 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
