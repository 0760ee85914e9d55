"""Command line interface.

Modes: ``tost`` (bootstrap equivalence test), ``bayes`` (posterior engine),
``simulate`` (size/power studies), ``bands`` (emit equivalence band curves),
``report`` (re-render saved TOST JSON as SVG/CSV).

Exit codes: 0 success (and, for decision modes, nonequivalence rejected);
2 ran fine but failed to reject; 1 any error, usage errors included. The seed
falls back to the ``FEQT_SEED`` environment variable when no --seed flag is
given; it must lie in [0, 2**64). A ``--config`` file supplies defaults;
flags given explicitly win.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .fdata import GroupedPairedSample, PairedFunctionalSample, equispaced_grid, make_cosine_bands
from .tost import BootstrapConfig, Design, Metric, TostDecision, run_tost
from . import curvefile, report as report_mod
from .bayes import (
    PriorSpec,
    calibrate_prior_scale,
    posterior_equivalence_prob,
    run_mwg,
    simultaneous_bands,
)
from .bayes.posterior import MIN_POSTERIOR_DRAWS
from .bayes.sampler import check_chain_draws, kept_draws
from .simlab import (
    MIN_STUDY_REPLICATES,
    boundary_violation_scenarios,
    default_truth,
    interior_scenarios,
    run_study,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL_TO_REJECT = 2

#: ``--design`` value -> its design, the sample that design takes, and the file that holds one.
_DESIGNS = {
    "matched": (Design.MATCHED_PAIRS, PairedFunctionalSample, "single-group paired file"),
    "grouped": (Design.RANDOM_EFFECTS_MATCHED, GroupedPairedSample, "multi-group curve file"),
}

#: Each mode's outputs: ``--emit`` flag -> file name, in write order.
_OUTPUTS = {
    "tost": {"json": "tost_report.json", "csv": "tost_report.csv", "svg": "tost_report.svg"},
    "bayes": {"json": "posterior_summary.json", "svg": "posterior_bands.svg"},
    "simulate": {"csv": "study_result.csv", "json": "study_result.json"},
    "bands": {"csv": "bands.csv", "json": "bands.json"},
    "report": {"svg": "tost_report.svg", "csv": "tost_report.csv"},
}


class CliError(Exception):
    """User-facing CLI failure with a stable error code string."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read_config_file(path):
    """Key-value config: one ``key = value`` per line, ``#`` comments. Text
    that is not UTF-8 is refused as ``config-parse``."""
    try:
        with _file_errors("config", path):
            text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise CliError("config-parse", f"{path}:{lineno}: not UTF-8 text") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError("config-parse", f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _parse_args(parser, argv):
    """Parse ``argv``; a ``--config`` file preloads the chosen mode's defaults,
    so argparse types its values and explicit flags override them.

    Config keys must name one of the mode's own options (``--config`` itself
    excluded), and a value must be one of the option's choices, if it has
    any: argparse checks choices only for values given as flags.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    mode = parser.modes[args.mode]
    options = {
        a.dest: a for a in mode._actions if a.option_strings and a.dest not in ("help", "config")
    }
    values = _read_config_file(args.config)
    for key, value in values.items():
        if key not in options:
            raise CliError("config-key", f"unknown config key {key!r}")
        choices = options[key].choices
        if choices is not None and value not in choices:
            raise CliError(
                "config-value",
                f"config key {key!r}: invalid choice {value!r} (choose from {', '.join(choices)})",
            )
    mode.set_defaults(**values)
    return parser.parse_args(argv)


def _resolve_seed(args):
    """The run's seed: ``--seed`` (or its ``--config`` value), else
    ``FEQT_SEED``, else 0. The engines key their streams by a 64-bit word, so
    a seed outside [0, 2**64) is refused as ``bad-seed``."""
    if args.seed is not None:
        seed, source = int(args.seed), "--seed"
    else:
        env = os.environ.get("FEQT_SEED")
        if env is None:
            return 0
        try:
            seed, source = int(env), "FEQT_SEED"
        except ValueError:
            raise CliError("bad-seed", f"FEQT_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < 2**64:
        raise CliError("bad-seed", f"{source} must lie in [0, 2**64), got {seed}")
    return seed


def _emit_flags(mode, emit):
    flags = {f.strip() for f in emit.split(",") if f.strip()}
    bad = flags - {f for outputs in _OUTPUTS.values() for f in outputs}
    if bad:
        raise CliError("bad-emit", f"unknown emit flags: {sorted(bad)}")
    outputs = _OUTPUTS[mode]
    bad = flags - set(outputs)
    if bad:
        raise CliError("bad-emit", f"{mode} has no {','.join(sorted(bad))} output; "
                       f"it emits {','.join(outputs)}")
    return flags


def _check_out(out):
    """Refuse an ``--out`` that cannot become a directory: the path, or the
    nearest of its ancestors that exists, is not one."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise CliError("bad-out", f"--out {out}: {path} exists and is not a directory")
            return


def _emit(args, renders):
    """Write, in table order, each of the mode's outputs that ``--emit``
    names; ``renders`` maps each flag of the mode to its render."""
    outdir = Path(args.out)
    for flag, name in _OUTPUTS[args.mode].items():
        if flag in args.emit:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / name).write_text(renders[flag](), encoding="utf-8")


@contextlib.contextmanager
def _argument_errors():
    """Report the ``ValueError`` of an object refusing its arguments as
    ``bad-argument``."""
    try:
        yield
    except ValueError as exc:
        raise CliError("bad-argument", str(exc)) from None


@contextlib.contextmanager
def _file_errors(role, path):
    """Report the ``role`` file (``input`` or ``config``) at ``path`` that
    cannot be opened as ``missing-<role>`` or ``unreadable-<role>``."""
    try:
        yield
    except FileNotFoundError:
        raise CliError(f"missing-{role}", f"{role} file not found: {path}") from None
    except OSError as exc:
        raise CliError(f"unreadable-{role}", f"cannot read {role} {path}: {exc.strerror}") from None


def _eq_bands(grid, metrics=Metric):
    return {m: make_cosine_bands(grid, m.band_kind) for m in metrics}


def _load_sample(args, kind, refusal):
    """The sample in ``--input``; one that is not a ``kind`` is refused with ``refusal``."""
    try:
        with _file_errors("input", args.input):
            sample = curvefile.read_curves(args.input)
    except curvefile.CurveFileError as exc:
        raise CliError("curve-parse", str(exc)) from exc
    if not isinstance(sample, kind):
        raise CliError("design-mismatch", refusal)
    return sample


# ----- mode implementations ----------------------------------------------


def _mode_tost(args):
    seed = _resolve_seed(args)
    design, kind, needs = _DESIGNS[args.design]
    with _argument_errors():
        cfg = BootstrapConfig(args.replicates, args.alpha, seed, design)
    sample = _load_sample(args, kind, f"{args.design} design requires a {needs}")
    grouped = design is Design.RANDOM_EFFECTS_MATCHED
    if grouped:
        for i, n in enumerate(sample.group_sizes, start=1):
            if n < 2:
                raise CliError(
                    "design-mismatch",
                    f"grouped design needs at least 2 pairs per group; group {i} "
                    f"(in group id order) has {n}",
                )
    elif sample.n < 2:
        raise CliError("design-mismatch",
                       f"matched design needs at least 2 pairs; the file has {sample.n}")
    bands = _eq_bands(sample.grid, Metric if grouped else (Metric.THETA, Metric.LAMBDA))
    rep = run_tost(sample, cfg, bands)
    _emit(args, {
        "json": lambda: report_mod.tost_report_json(rep),
        "csv": lambda: report_mod.tost_report_csv(rep),
        "svg": lambda: report_mod.tost_report_svg(rep),
    })
    print(f"decision: {rep.decision.value}")
    if rep.lambda_noninferiority is not None:
        print(f"lambda noninferiority: {rep.lambda_noninferiority.value}")
    return (
        EXIT_OK if rep.decision is TostDecision.REJECT_NONEQUIVALENCE else EXIT_FAIL_TO_REJECT
    )


def _mode_bayes(args):
    # refuse before any work a run the sampler or its summaries would refuse late
    if not 0.0 < args.gamma < 1.0:
        raise CliError("bad-argument", f"--gamma must lie in (0, 1), got {args.gamma}")
    if args.thin < 1:
        raise CliError("bad-argument", f"--thin must be at least 1, got {args.thin}")
    if args.burnin < 0:
        raise CliError("bad-argument", f"--burnin must be at least 0, got {args.burnin}")
    if args.chains < 1:
        raise CliError("bad-argument", f"--chains must be at least 1, got {args.chains}")
    per_chain = kept_draws(args.iters, args.burnin, args.thin)
    draws = args.chains * per_chain
    if draws < MIN_POSTERIOR_DRAWS:
        raise CliError("bad-argument", f"the chains keep {draws} posterior draws; "
                       f"need at least {MIN_POSTERIOR_DRAWS}")
    with _argument_errors():
        check_chain_draws(per_chain)
    seed = _resolve_seed(args)
    sample = _load_sample(args, GroupedPairedSample, "bayes mode requires a multi-group curve file")
    eq = _eq_bands(sample.grid)
    with _argument_errors():
        if args.scale is not None:
            s2 = args.scale
        else:
            s2 = calibrate_prior_scale(
                args.range_a, eq[Metric.THETA], args.calibrate_target, seed=seed
            )
        prior = PriorSpec(args.range_a, s2, eq)
    draws = run_mwg(
        sample, prior, chains=args.chains, iters=args.iters,
        burnin=args.burnin, thin=args.thin, seed=seed,
    )
    probs = posterior_equivalence_prob(draws, eq)
    sim = lambda: {m: simultaneous_bands(draws.metric(m), args.gamma) for m in eq}
    _emit(args, {
        "json": lambda: report_mod.posterior_summary_json(draws, probs, args.gamma),
        "svg": lambda: report_mod.posterior_bands_svg(draws, sim(), eq),
    })
    for key in sorted(probs):
        print(f"P[equivalence | data] {key}: {probs[key]:.4f}")
    if draws.rhat_warning:
        print("warning: split R-hat above 1.1; treat results as unconverged", file=sys.stderr)
    decided = all(probs[m.value] >= args.gamma for m in Metric)
    return EXIT_OK if decided else EXIT_FAIL_TO_REJECT


_SCENARIO_KINDS = {
    "size-theta": ("size", Metric.THETA),
    "power-theta": ("power", Metric.THETA),
    "size-lambda": ("size", Metric.LAMBDA),
    "power-lambda": ("power", Metric.LAMBDA),
}


def _mode_simulate(args):
    seed = _resolve_seed(args)
    study, metric = _SCENARIO_KINDS[args.scenarios]
    if args.replicates < MIN_STUDY_REPLICATES:
        raise CliError("bad-argument", f"--replicates must be at least {MIN_STUDY_REPLICATES}, "
                       f"got {args.replicates}")
    if args.group_size < 2:  # the grouped bootstrap needs 2 pairs per group
        raise CliError("bad-argument", f"--group-size must be at least 2, got {args.group_size}")
    with _argument_errors():
        cfg = BootstrapConfig(
            args.replicates_bootstrap, args.alpha, 0, Design.RANDOM_EFFECTS_MATCHED
        )
        grid = equispaced_grid(args.grid_size)
        truth = default_truth(grid, args.groups, args.group_size)
    bands = make_cosine_bands(grid, metric.band_kind)
    # looked up per run, so a wrapper set on this module's name is the one called
    builder = boundary_violation_scenarios if study == "size" else interior_scenarios
    seq = builder(truth, bands, metric)
    result = run_study(seq, args.replicates, cfg, {metric: bands}, seed=seed)
    _emit(args, {"csv": result.to_csv_text, "json": result.to_json_text})
    for s, rate, se in zip(result.scenarios, result.rates, result.standard_errors):
        print(f"scenario {s}: rate {rate:.4f} (se {se:.4f})")
    print(f"replicate errors: {len(result.errors)}")
    return EXIT_OK


def _mode_bands(args):
    with _argument_errors():
        bands = _eq_bands(equispaced_grid(args.grid_size))
    _emit(args, {
        "csv": lambda: report_mod.bands_csv(bands),
        "json": lambda: report_mod.bands_json(bands),
    })
    print(f"emitted bands for a {args.grid_size}-point grid")
    return EXIT_OK


def _mode_report(args):
    try:
        with _file_errors("input", args.input):
            payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError("report-parse", f"bad report JSON: {exc}") from exc
    try:
        rep = report_mod.tost_report_from_json(payload)
    except ValueError as exc:
        raise CliError("report-schema", str(exc)) from exc
    _emit(args, {
        "svg": lambda: report_mod.tost_report_svg(rep),
        "csv": lambda: report_mod.tost_report_csv(rep),
    })
    print(f"re-rendered report ({rep.decision.value})")
    return EXIT_OK


# ----- argument parsing ---------------------------------------------------


def _add_common(p, mode):
    outputs = ",".join(_OUTPUTS[mode])
    p.add_argument("--config", help="key = value config file of defaults; flags override it")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: FEQT_SEED or 0)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--emit", default=outputs, help=f"comma list of {outputs} (default: all)")


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on usage errors; argparse's own code 2 would
    read as a failure to reject."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="feqt", description="Equivalence testing for functional data")
    sub = parser.add_subparsers(dest="mode", required=True)
    parser.modes = sub.choices  # mode name -> its subparser

    p = sub.add_parser("tost", help="bootstrap TOST equivalence test")
    p.add_argument("--input", required=True, help="curve file")
    p.add_argument("--design", choices=sorted(_DESIGNS), default="grouped")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--replicates", "-B", type=int, default=10000)

    p = sub.add_parser("bayes", help="Bayesian posterior equivalence analysis")
    p.add_argument("--input", required=True, help="curve file (grouped)")
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--chains", type=int, default=3)
    p.add_argument("--iters", type=int, default=10500)
    p.add_argument("--burnin", type=int, default=500)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--range-a", type=float, default=0.3, dest="range_a")
    p.add_argument("--scale", type=float, default=None,
                   help="prior scale s2 (default: calibrate)")
    p.add_argument("--calibrate-target", type=float, default=0.01, dest="calibrate_target")

    p = sub.add_parser("simulate", help="size/power simulation study")
    p.add_argument("--scenarios", choices=sorted(_SCENARIO_KINDS), required=True)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--replicates-bootstrap", type=int, default=1000, dest="replicates_bootstrap")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--groups", type=int, default=20)
    p.add_argument("--group-size", type=int, default=20, dest="group_size")
    p.add_argument("--grid-size", type=int, default=25, dest="grid_size")

    p = sub.add_parser("bands", help="emit the cosine equivalence band curves")
    p.add_argument("--grid-size", type=int, default=25, dest="grid_size")

    p = sub.add_parser("report", help="re-render a saved TOST JSON report")
    p.add_argument("--input", required=True, help="tost_report.json")
    for mode, p in sub.choices.items():
        _add_common(p, mode)
    return parser


_MODES = {
    "tost": _mode_tost,
    "bayes": _mode_bayes,
    "simulate": _mode_simulate,
    "bands": _mode_bands,
    "report": _mode_report,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        args.emit = _emit_flags(args.mode, args.emit)
        if args.emit:
            _check_out(args.out)
        return _MODES[args.mode](args)
    except CliError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - surface engine failures as exit 1
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli())
