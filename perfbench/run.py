#!/usr/bin/env python3
"""feqt benchmark: drive the ``feqt`` CLI on one workload and report metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tost-grouped --seed 3 --seconds 10 --trace 0

Each pass runs in a fresh interpreter (``worker.py``), so its peak RSS is its
own and its start-up is one ``setup_s`` sample. Passes repeat until
``--seconds`` have elapsed, with at least two, and every pass is checked
against a reference recorded for the same case (see ``README.md``). With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics. ``--record`` writes the reference for a case instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: The workload seed selects one of this many recorded cases (seed mod CASES).
CASES = 16
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
#: Emitted TOST floats may move by this much relative to the reference, so a
#: kernel that reorders sums (error ~1e-10) still passes.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12
#: Largest absolute change of a posterior equivalence probability accepted
#: as Monte Carlo noise; twice the largest spread seen across sampler seeds
#: on one dataset (~0.09 on psi).
PROB_TOL = 0.2
#: The program's own seed in the bayes workload. Calibration's QMC point
#: count depends only on it and the grid, so a fixed seed keeps that work
#: the same in every case while the data vary.
BAYES_SEED = 1

WORKLOADS = ("tost-grouped", "simulate-size", "bayes-calibrated", "ingest-matched")

SIZES = {
    "full": {
        "grid": 25,
        "groups": 20, "group_size": 20, "B": 10000,
        "sim": {"groups": 10, "group_size": 10, "replicates": 50, "B": 100},
        "bayes": {"chains": 2, "iters": 3500, "burnin": 1000, "thin": 10},
        "pairs": 10000, "ingest_B": 200,
    },
    "tiny": {
        "grid": 8,
        "groups": 12, "group_size": 4, "B": 200,
        "sim": {"groups": 3, "group_size": 4, "replicates": 50, "B": 100},
        "bayes": {"chains": 2, "iters": 2000, "burnin": 700, "thin": 5},
        "pairs": 50, "ingest_B": 100,
    },
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio", "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


# ----- inputs ---------------------------------------------------------------


def prepare(workload, case, size, work):
    """Write the inputs of ``case``; return ``make(passdir) -> (argv, write)``."""
    import numpy as np
    from feqt import curvefile
    from feqt.fdata import equispaced_grid
    from feqt.simlab import default_truth, generate_dataset

    z = SIZES[size]
    grid = equispaced_grid(z["grid"])
    if workload in ("tost-grouped", "bayes-calibrated"):
        truth = default_truth(grid, z["groups"], z["group_size"])
        sample = generate_dataset(truth, np.random.SeedSequence(entropy=case, spawn_key=(0,)))
        path = work / "grouped.csv"
        curvefile.write_curves(sample, path)
        if workload == "tost-grouped":
            args = ["tost", "--design", "grouped", "-B", str(z["B"]), "--seed", str(case)]
        else:
            b = z["bayes"]
            args = ["bayes", "--chains", str(b["chains"]), "--iters", str(b["iters"]),
                    "--burnin", str(b["burnin"]), "--thin", str(b["thin"]),
                    "--seed", str(BAYES_SEED)]
        return lambda passdir: (args + ["--input", str(path), "--out", str(passdir)], None)

    if workload == "simulate-size":
        s = z["sim"]
        args = ["simulate", "--scenarios", "size-theta", "--groups", str(s["groups"]),
                "--group-size", str(s["group_size"]), "--replicates", str(s["replicates"]),
                "--replicates-bootstrap", str(s["B"]), "--grid-size", str(z["grid"]),
                "--seed", str(case)]
        return lambda passdir: (args + ["--out", str(passdir)], None)

    if workload == "ingest-matched":
        truth = default_truth(grid, 2, 1)
        truth = replace(truth, group_sizes=np.array([z["pairs"], 1]))
        pairs = generate_dataset(truth, np.random.SeedSequence(entropy=case, spawn_key=(1,)))
        g = pairs.groups[0]
        npz = work / "matched.npz"
        np.savez(npz, grid=grid.points, curves_1=g.curves_1, curves_2=g.curves_2)
        args = ["tost", "--design", "matched", "-B", str(z["ingest_B"]), "--seed", str(case)]

        def make(passdir):
            csv = passdir / "input.csv"
            return (args + ["--input", str(csv), "--out", str(passdir)],
                    {"npz": str(npz), "csv": str(csv)})

        return make


# ----- output checks ---------------------------------------------------------


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(workload, passdir, code, size):
    """The fields of a pass's output that the reference pins."""
    if workload in ("tost-grouped", "ingest-matched"):
        rep = _load(passdir / "tost_report.json")
        return {
            "exit": code,
            "decision": rep["decision"],
            "lambda_noninferiority": rep["lambda_noninferiority"],
            "metrics": rep["metrics"],
        }
    if workload == "bayes-calibrated":
        post = _load(passdir / "posterior_summary.json")
        return {
            "exit": code,
            "gamma": post["gamma"],
            "n_draws": post["n_draws"],
            "rhat_warning": post["rhat_warning"],
            "probabilities": post["equivalence_probabilities"],
        }
    study = _load(passdir / "study_result.json")
    return {
        "exit": code,
        "attempted": len(study["scenarios"]) * SIZES[size]["sim"]["replicates"],
        "replicates": study["replicates"],
        "rejections": study["rejections"],
        "errors": len(study["errors"]),
    }


def _close(a, b):
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL) for x, y in zip(a, b)
    )


def compare(workload, obs, ref):
    """Problems of an observed pass summary against its reference."""
    problems = []
    if workload == "bayes-calibrated":
        p = obs["probabilities"]
        decided = all(p[m] >= obs["gamma"] for m in ("theta", "lambda", "psi"))
        if obs["exit"] != (0 if decided else 2):
            problems.append(f"exit {obs['exit']} disagrees with the probabilities {p}")
        if obs["rhat_warning"]:
            problems.append("split R-hat warning set")
        if obs["n_draws"] != ref["n_draws"]:
            problems.append(f"n_draws {obs['n_draws']} != {ref['n_draws']}")
        for key, want in ref["probabilities"].items():
            if abs(p.get(key, math.inf) - want) > PROB_TOL:
                problems.append(f"P[{key}] {p.get(key)} not within {PROB_TOL} of {want}")
        return problems

    if obs["exit"] != ref["exit"]:
        problems.append(f"exit {obs['exit']} != {ref['exit']}")
    if workload == "simulate-size":
        for key in ("replicates", "rejections"):
            if obs[key] != ref[key]:
                problems.append(f"{key} {obs[key]} != {ref[key]}")
        return problems

    for key in ("decision", "lambda_noninferiority"):
        if obs[key] != ref[key]:
            problems.append(f"{key} {obs[key]} != {ref[key]}")
    rejects = all(m["reject"] for m in obs["metrics"].values())
    if (obs["decision"] == "reject_nonequivalence") != rejects:
        problems.append("decision disagrees with the per-metric rejections")
    if sorted(obs["metrics"]) != sorted(ref["metrics"]):
        return problems + [f"metrics {sorted(obs['metrics'])} != {sorted(ref['metrics'])}"]
    for name, want in ref["metrics"].items():
        got = obs["metrics"][name]
        for key, value in want.items():
            if key in ("violations", "reject"):
                ok = got[key] == value
            else:
                ok = _close(got[key], value)
            if not ok:
                problems.append(f"{name}.{key} differs from the reference")
    return problems


def digest(passdir):
    """sha256 over the names and bytes of every file a pass wrote."""
    h = hashlib.sha256()
    for path in sorted(p for p in passdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(passdir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ----- processes ---------------------------------------------------------------


def child_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # workers read the bytecode caches the parent wrote, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def run_child(spec, work, env):
    """Run one worker; return (setup seconds, result dict or None)."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / "worker.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(ROOT),
        )
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ran over {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        log.write(rest)
    if first != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}); see {work / 'worker.log'}")
    if spec.get("setup_only"):
        return setup, None
    return setup, _load(spec["result"])


def machine_record(nproc):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    config = str(blas.get("openblas configuration", ""))
    cap = re.search(r"MAX_THREADS=(\d+)", config)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_max_threads": int(cap.group(1)) if cap else None,
        "blas_threads": nproc,
        "loadavg_1m": os.getloadavg()[0],
    }


def _stats(values):
    return {"n": len(values), "median": statistics.median(values), "max": max(values)}


# ----- main ---------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--refdir", type=Path, default=HERE / "reference")
    p.add_argument("--record", action="store_true",
                   help="write the reference for this case instead of checking it")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "feqt" / "cli.py").is_file():
        print(f"error: no feqt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    import feqt.cli  # noqa: F401 - fills the bytecode caches before any timing
    case = args.seed % CASES
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = OUT / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = machine_record(nproc)
    (work / "machine.json").write_text(json.dumps(machine, indent=2) + "\n", encoding="utf-8")

    make = prepare(args.workload, case, args.size, work)
    refpath = args.refdir / args.workload / f"{args.size}-{case}.json"
    ref = None if args.record else (_load(refpath) if refpath.is_file() else None)

    setup_samples, untraced, traced, layers = [], [], [], []
    ok_units = attempted_units = failed = 0
    first_digest = None
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < args.seconds:
        is_traced = bool(args.trace) and k % 2 == 1
        passdir = work / f"pass{k}"
        passdir.mkdir()
        argv_cli, write = make(passdir)
        spec = {"argv": argv_cli, "write": write, "trace": is_traced,
                "result": str(work / f"result{k}.json"), "spans": str(work / f"spans{k}.jsonl")}
        setup, res = run_child(spec, work, env)
        setup_samples.append(setup)
        (traced if is_traced else untraced).append(res)
        if is_traced:
            layers.append(res["layers"])

        problems = []
        try:
            obs = summarize(args.workload, passdir, res["exit"], args.size)
        except (OSError, ValueError, KeyError) as exc:
            obs = None
            problems.append(f"unreadable output: {exc}")
        if args.record and obs is not None:
            refpath.parent.mkdir(parents=True, exist_ok=True)
            refpath.write_text(json.dumps(obs, sort_keys=True) + "\n", encoding="utf-8")
            print(f"recorded {refpath}: exit {obs['exit']}")
            if args.workload == "bayes-calibrated" and obs["rhat_warning"]:
                print("warning: this case sets the R-hat warning", file=sys.stderr)
            return 0
        if obs is not None:
            problems += compare(args.workload, obs, ref) if ref else [f"no reference {refpath.name}"]
        d = digest(passdir)
        first_digest = first_digest or d
        if d != first_digest:
            problems.append("output files differ from the first pass")

        if args.workload == "simulate-size" and obs is not None:
            attempted_units += obs["attempted"]
            ok_units += 0 if problems else sum(obs["replicates"])
            pass_failed = bool(problems) or obs["errors"] > 0
        else:
            attempted_units += 1
            ok_units += 0 if problems else 1
            pass_failed = bool(problems)
        failed += pass_failed
        for msg in problems:
            print(f"pass {k}: {msg}", file=sys.stderr)
        if k > 0:
            shutil.rmtree(work / f"pass{k - 1}")
        k += 1

    while len(setup_samples) < MIN_SETUP_SAMPLES:
        setup_samples.append(run_child({"setup_only": True}, work, env)[0])

    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        metrics = {}
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
        )
        units = LAYER_METRICS
        detail = {"missing": traced[0]["missing"]}
    else:
        samples = {
            "wall_s": walls,
            "cpu_s": [r["cpu_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": setup_samples,
        }
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["ok_frac"] = ok_units / attempted_units
        units = END_TO_END_UNITS
        detail = {name: _stats(v) for name, v in samples.items()}
    detail.update(workload=args.workload, seed=args.seed, case=case, passes=k,
                  ok_units=ok_units, attempted_units=attempted_units, machine=machine)
    (work / "detail.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and ok_units == attempted_units,
        "attempted": k,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
