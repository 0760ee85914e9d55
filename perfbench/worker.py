"""One benchmark pass in a fresh interpreter.

Usage: ``python worker.py SPEC.json`` with ``src`` on ``PYTHONPATH``.

The worker imports ``feqt.cli`` before anything else and then prints
``ready``, so the parent's clock on that line measures what every ``feqt``
invocation pays before work starts. The pass itself is timed here; its
result (CLI exit code, wall and CPU time, peak RSS of this process and, when
traced, the per-layer metrics) goes to the JSON file the spec names.
"""

import sys


def main(spec_path):
    import json
    import resource
    import time

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec.get("setup_only"):
        return 0

    import numpy as np
    import feqt.cli
    from feqt import curvefile
    from feqt.fdata import Grid, PairedFunctionalSample

    sample = None
    if spec.get("write"):
        with np.load(spec["write"]["npz"]) as z:
            sample = PairedFunctionalSample(Grid(z["grid"]), z["curves_1"], z["curves_2"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if sample is not None:
        curvefile.write_curves(sample, spec["write"]["csv"])
    code = feqt.cli.run_cli(spec["argv"])
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    result = {
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["missing"] = tracer.missing
        tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    import feqt.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.exit(main(sys.argv[1]))
