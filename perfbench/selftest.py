#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints a result line with exactly
    the contract's keys and every metric of ``BENCHMARK.json`` with its unit,
    and passes its output check against a freshly recorded tiny reference;
  * a deliberately perturbed reference is reported as a failure;
  * without the ``src/`` tree the benchmark exits non-zero and prints no result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "selftest"
RUN = [sys.executable, str(HERE / "run.py")]


def bench(workload, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "0", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    return result


def check_metrics(result, declared, label):
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in declared), f"{label}: {sorted(got)}"
    for m in declared:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {m['name']}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    refs = WORK / "ref"
    for w in (w["name"] for w in spec["workloads"]):
        rec = bench(w, "--record", "--refdir", str(refs))
        assert rec.returncode == 0 and "warning" not in rec.stderr, rec.stderr[-2000:]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result = result_line(bench(w, "--seconds", "1", "--trace", trace,
                                       "--refdir", str(refs)))
            label = f"{w} --trace {trace}"
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            check_metrics(result, declared, label)
            print(f"ok: {label}")

    bad = WORK / "perturbed"
    shutil.copytree(refs, bad)
    tost = bad / "tost-grouped" / "tiny-0.json"
    ref = json.loads(tost.read_text(encoding="utf-8"))
    ref["metrics"]["theta"]["estimate"][0] *= 1.0 + 1e-4
    tost.write_text(json.dumps(ref), encoding="utf-8")
    sim = bad / "simulate-size" / "tiny-0.json"
    ref = json.loads(sim.read_text(encoding="utf-8"))
    ref["rejections"][0] += 1
    sim.write_text(json.dumps(ref), encoding="utf-8")
    for w in ("tost-grouped", "simulate-size"):
        result = result_line(bench(w, "--seconds", "1", "--trace", "0", "--refdir", str(bad)))
        assert not result["correct"] and result["failed"] == result["attempted"], result
        assert result["metrics"]["ok_frac"]["value"] == 0.0, result
        print(f"ok: perturbed {w} reference reported as a failure")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bare / "perfbench" / "run.py"),
                           "--workload", "tost-grouped", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: no result without the sources")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
