"""The size/power study loop that the batched one replaced: one
``generate_dataset`` and one ``run_tost`` per replicate, under the same
(seed, scenario, replicate) keys. Tests compare ``run_study`` against it."""

import warnings

import numpy as np

from feqt.simlab import _REPLICATE_ERRORS, StudyResult, generate_dataset
from feqt.tost import BootstrapConfig, run_tost


def reference_study(seq, replicates, cfg, eq_bands, seed=0):
    metric = seq.metric
    n = len(seq.truths)
    counts = np.zeros(n, dtype=int)
    done = np.zeros(n, dtype=int)
    errors = []
    for s, truth in enumerate(seq.truths, start=1):
        for r in range(replicates):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(s, r))
            data = generate_dataset(truth, ss)
            rep_seed = int(ss.generate_state(1)[0] >> 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep_cfg = BootstrapConfig(cfg.replicates, cfg.alpha, rep_seed, cfg.design)
            try:
                reject = run_tost(data, rep_cfg, eq_bands).results[metric].reject
            except _REPLICATE_ERRORS as exc:
                errors.append((s, r, f"{type(exc).__name__}: {exc}"))
                continue
            done[s - 1] += 1
            counts[s - 1] += int(reject)
    return StudyResult(
        method="frequentist",
        metric=metric.value,
        scenarios=np.arange(1, n + 1),
        replicates=done,
        rejections=counts,
        errors=tuple(errors),
    )
