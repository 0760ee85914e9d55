import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feqt.cli import EXIT_ERROR, EXIT_FAIL_TO_REJECT, EXIT_OK, _parse_args, build_parser, run_cli
from feqt.curvefile import write_curves
from feqt.fdata import equispaced_grid
from feqt.report import tost_report_from_json, tost_report_json
from feqt.simlab import default_truth, generate_dataset
from feqt.tost import tost_decide


@pytest.fixture(scope="module")
def equivalent_file(tmp_path_factory):
    """Grouped data whose channels truly agree, sized so the test rejects.

    The variance-ratio legs need many groups for a tight interval, so the
    design is wide (100 groups) and shallow (6 pairs each).
    """
    from dataclasses import replace

    grid = equispaced_grid(8)
    truth = default_truth(grid, n_groups=100, group_size=6)
    truth = replace(
        truth,
        s2_alpha=np.full((2, 8), 0.05),
        s2_eps=np.full((2, 8), 0.01),
    )
    path = tmp_path_factory.mktemp("data") / "equivalent.csv"
    write_curves(generate_dataset(truth, 42), path)
    return str(path)


@pytest.fixture(scope="module")
def separated_file(tmp_path_factory):
    """Grouped data with a mean shift far beyond the additive band."""
    grid = equispaced_grid(8)
    truth = default_truth(grid, n_groups=6, group_size=6)
    data = generate_dataset(truth, 7)
    shifted = type(data)(
        data.grid,
        tuple(
            type(g)(g.grid, g.curves_1 + 5.0, g.curves_2) for g in data.groups
        ),
    )
    path = tmp_path_factory.mktemp("data") / "separated.csv"
    write_curves(shifted, path)
    return str(path)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A matched file of 40 pairs and a grouped file of 8 groups of 5 pairs,
    on an 8-point grid."""
    grid = equispaced_grid(8)
    root = tmp_path_factory.mktemp("small")
    write_curves(generate_dataset(default_truth(grid, 2, 40), 3).groups[0], root / "matched.csv")
    write_curves(generate_dataset(default_truth(grid, 8, 5), 4), root / "grouped.csv")
    return root


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestTostMode:
    def test_reject_exits_zero_and_emits(self, equivalent_file, tmp_path, capsys):
        code = run_cli([
            "tost", "--input", equivalent_file, "--seed", "1",
            "--replicates", "300", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "decision: reject" in out
        for name in ("tost_report.json", "tost_report.csv", "tost_report.svg"):
            assert (tmp_path / name).exists()

    def test_fail_to_reject_exits_two(self, separated_file, tmp_path):
        code = run_cli([
            "tost", "--input", separated_file, "--seed", "1",
            "--replicates", "200", "--out", str(tmp_path), "--emit", "json",
        ])
        assert code == EXIT_FAIL_TO_REJECT

    def test_byte_identical_reruns(self, equivalent_file, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli([
                "tost", "--input", equivalent_file, "--seed", "3",
                "--replicates", "200", "--out", str(out),
            ]) == EXIT_OK
            outs.append(out)
        for name in ("tost_report.json", "tost_report.csv", "tost_report.svg"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name)

    def test_seed_env_fallback(self, equivalent_file, tmp_path, monkeypatch):
        a, b = tmp_path / "flag", tmp_path / "env"
        run_cli(["tost", "--input", equivalent_file, "--seed", "9",
                 "--replicates", "200", "--out", str(a), "--emit", "json"])
        monkeypatch.setenv("FEQT_SEED", "9")
        run_cli(["tost", "--input", equivalent_file,
                 "--replicates", "200", "--out", str(b), "--emit", "json"])
        assert read_bytes(a / "tost_report.json") == read_bytes(b / "tost_report.json")

    def test_largest_seed_runs(self, equivalent_file, tmp_path):
        code = run_cli(["tost", "--input", equivalent_file, "--seed", str(2**64 - 1),
                        "--replicates", "100", "--out", str(tmp_path), "--emit", "json"])
        assert code in (EXIT_OK, EXIT_FAIL_TO_REJECT)
        assert (tmp_path / "tost_report.json").exists()

    def test_bad_env_seed_is_error(self, equivalent_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FEQT_SEED", "not-a-number")
        code = run_cli(["tost", "--input", equivalent_file, "--out", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "bad-seed" in capsys.readouterr().err

    def test_missing_input_is_error(self, tmp_path, capsys):
        code = run_cli(["tost", "--input", str(tmp_path / "nope.csv")])
        assert code == EXIT_ERROR
        assert "missing-input" in capsys.readouterr().err

    def test_bad_curve_file_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("#feqt-curves v1; grid=0.5,0.2\n1,1,1,0.0,0.0\n")
        assert run_cli(["tost", "--input", str(bad), "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [curve-parse]: line 1: grid points must be strictly increasing" in err

    def test_non_utf8_curve_file_names_its_line(self, small_files, tmp_path, capsys):
        lines = read_bytes(small_files / "matched.csv").splitlines(keepends=True)[:5]
        lines[2] = lines[2][:20] + b"\xff" + lines[2][21:]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        code = run_cli(["tost", "--design", "matched", "--input", str(bad), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error [curve-parse]: line 3: byte 0xff is not UTF-8\n"
        assert not out.exists()

    def test_design_mismatch_is_error(self, equivalent_file, tmp_path, capsys):
        code = run_cli([
            "tost", "--input", equivalent_file, "--design", "matched",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_ERROR
        assert "design-mismatch" in capsys.readouterr().err

    def test_one_pair_group_is_design_mismatch(self, tmp_path, capsys):
        rows = [(1, 1, 1), (1, 2, 1)] + [(2, c, b) for b in (1, 2) for c in (1, 2)]
        data = tmp_path / "one_pair.csv"
        data.write_text(
            "#feqt-curves v1; grid=0.25,0.75\n"
            + "".join(f"{g},{c},{b},{0.1 * b + c},{0.2 * g - b}\n" for g, c, b in rows)
        )
        out = tmp_path / "out"
        code = run_cli(["tost", "--input", str(data), "--design", "grouped", "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [design-mismatch]" in err and "group 1 (in group id order) has 1" in err
        assert not out.exists()

    def test_one_pair_file_is_matched_design_mismatch(self, tmp_path, capsys):
        data = tmp_path / "one_pair.csv"
        data.write_text("#feqt-curves v1; grid=0.25,0.75\n1,1,1,0.1,0.2\n1,2,1,0.3,0.4\n")
        out = tmp_path / "out"
        code = run_cli(["tost", "--input", str(data), "--design", "matched", "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [design-mismatch]: matched design needs at least 2 pairs" in err
        assert "the file has 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("design, code, digests", [
        ("matched", EXIT_FAIL_TO_REJECT, (
            "7db4e1fc9ce56dac746958e274e31d5f9a96e5ec4962cee2ce8f0082cbbee084",
            "8c8c705e6b4026255aa61fc398e5000ba807384fc94299388850e996fbfc6bfc",
        )),
        ("grouped", EXIT_FAIL_TO_REJECT, (
            "86a2e9606cce008d0fcffbc8f9a25fd9edbc826af684755e89af2ef10873ddb7",
            "4692a71913d1334d99133b5a5f198bf9338bdd4ff6f959b12ec277fce2a70473",
        )),
    ])
    def test_report_bytes_pinned(self, small_files, tmp_path, design, code, digests):
        # the whole path of each design a curve file reaches, read to emitted bytes
        out = tmp_path / "out"
        assert run_cli([
            "tost", "--input", str(small_files / f"{design}.csv"), "--design", design,
            "-B", "500", "--seed", "9", "--out", str(out), "--emit", "json,csv",
        ]) == code
        got = tuple(hashlib.sha256(read_bytes(out / f"tost_report.{ext}")).hexdigest()
                    for ext in ("json", "csv"))
        assert got == digests

    def test_paired_file_is_grouped_design_mismatch(self, small_files, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["tost", "--input", str(small_files / "matched.csv"),
                        "--design", "grouped", "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [design-mismatch]: grouped design requires a multi-group curve file" in err
        assert not out.exists()

    def test_bad_emit_flag_is_error(self, equivalent_file, capsys):
        code = run_cli([
            "tost", "--input", equivalent_file, "--emit", "csv,pdf",
        ])
        assert code == EXIT_ERROR
        assert "bad-emit" in capsys.readouterr().err


ENGINES = ("run_tost", "calibrate_prior_scale", "run_mwg", "run_study")


def cli_never(*args, **kwargs):
    raise AssertionError("engine ran before the arguments were checked")


def refuse_engines(monkeypatch, names=ENGINES):
    """Make the named engine entry points of the CLI fail the test if they run."""
    import feqt.cli as cli

    for name in names:
        monkeypatch.setattr(cli, name, cli_never)


class TestArgumentsCheckedFirst:
    @pytest.mark.parametrize("argv", [
        ["tost", "--replicates", "200"],
        ["bayes", "--chains", "2", "--iters", "1200"],
        ["simulate", "--scenarios", "size-theta", "--replicates", "50"],
    ])
    def test_bad_emit_before_the_engine(self, equivalent_file, tmp_path, capsys, monkeypatch, argv):
        refuse_engines(monkeypatch)
        if argv[0] != "simulate":
            argv = argv + ["--input", equivalent_file]
        out = tmp_path / "out"
        code = run_cli(argv + ["--emit", "csv,pdf", "--out", str(out)])
        assert code == EXIT_ERROR
        assert "error [bad-emit]: unknown emit flags: ['pdf']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["report", "--input", "tost_report.json"], "json"),
        (["bayes", "--chains", "2", "--iters", "1200"], "csv"),
        (["bands"], "svg"),
        (["simulate", "--scenarios", "size-theta", "--replicates", "50"], "svg"),
    ])
    def test_emit_flag_without_output_in_the_mode(
        self, equivalent_file, tmp_path, capsys, monkeypatch, argv, flag
    ):
        refuse_engines(monkeypatch)
        if argv[0] == "bayes":
            argv = argv + ["--input", equivalent_file]
        out = tmp_path / "out"
        code = run_cli(argv + ["--emit", flag, "--out", str(out)])
        assert code == EXIT_ERROR
        assert f"error [bad-emit]: {argv[0]} has no {flag} output; it emits" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["tost", "-B", "50"], "at least 100 bootstrap replicates are required"),
        (["tost", "--alpha", "0.7"], "alpha must lie in (0, 0.5)"),
        (["simulate", "--replicates", "10"], "--replicates must be at least 50, got 10"),
        (["simulate", "--replicates-bootstrap", "50"], "at least 100 bootstrap replicates"),
        (["simulate", "--alpha", "0.6"], "alpha must lie in (0, 0.5)"),
        (["simulate", "--groups", "1"], "need at least 2 groups"),
        (["simulate", "--grid-size", "0"], "grid must be nonempty"),
        (["bands", "--grid-size", "0"], "grid must be nonempty"),
        (["bayes", "--range-a", "0"], "kernel range must be positive"),
        (["bayes", "--scale", "-1"], "prior range and scale must be positive"),
        (["bayes", "--calibrate-target", "2"], "target probability must lie in (0, 1)"),
        (["simulate", "--group-size", "1"], "--group-size must be at least 2, got 1"),
        (["bayes", "--scale", "nan"], "prior range and scale must be positive and finite"),
        (["bayes", "--scale", "inf"], "prior range and scale must be positive and finite"),
        (["bayes", "--burnin", "-5"], "--burnin must be at least 0, got -5"),
        (["simulate", "--grid-size", "-3"], "grid must be nonempty, got -3 points"),
        (["bands", "--grid-size", "-3"], "grid must be nonempty, got -3 points"),
    ])
    def test_bad_argument_before_the_work(
        self, equivalent_file, tmp_path, capsys, monkeypatch, argv, message
    ):
        # bayes needs the input's grid for its prior; tost must refuse before
        # it reads a file that does not exist
        refuse_engines(monkeypatch, ("run_tost", "run_mwg", "run_study"))
        extra = {
            "tost": ["--input", str(tmp_path / "missing.csv")],
            "simulate": ["--scenarios", "size-theta"],
            "bayes": ["--input", equivalent_file, "--chains", "2", "--iters", "1200"],
        }.get(argv[0], [])
        out = tmp_path / "out"
        code = run_cli(argv + extra + ["--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error [bad-argument]: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--gamma", "1.5"], "--gamma must lie in (0, 1), got 1.5"),
        (["--chains", "1", "--iters", "700", "--burnin", "500", "--thin", "10"],
         "keep 20 posterior draws; need at least 100"),
        (["--iters", "500", "--burnin", "500"], "keep 0 posterior draws"),
        (["--thin", "0"], "--thin must be at least 1, got 0"),
        (["--scale", "0.05", "--chains", "100", "--iters", "2", "--burnin", "1", "--thin", "1"],
         "each chain keeps 1 draws; split R-hat needs at least 4"),
        (["--scale", "0.05", "--chains", "50", "--iters", "3", "--burnin", "1", "--thin", "1"],
         "each chain keeps 2 draws; split R-hat needs at least 4"),
        (["--chains", "-2"], "--chains must be at least 1, got -2"),
    ])
    def test_bad_bayes_argument_before_calibration(
        self, equivalent_file, tmp_path, capsys, monkeypatch, flags, message
    ):
        refuse_engines(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(["bayes", "--input", equivalent_file, "--out", str(out), *flags])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error [bad-argument]: ") and message in err
        assert not out.exists()

    def test_paired_file_is_bayes_design_mismatch(self, small_files, tmp_path, capsys,
                                                  monkeypatch):
        refuse_engines(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(["bayes", "--input", str(small_files / "matched.csv"),
                        "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error [design-mismatch]: bayes mode requires a multi-group curve file" in err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["tost", "--design", "matched", "-B", "200"],
        ["bayes", "--chains", "2", "--iters", "1200"],
        ["report"],
    ])
    def test_directory_input_is_unreadable_input(self, tmp_path, capsys, monkeypatch, argv):
        refuse_engines(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(argv + ["--input", str(tmp_path), "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error [unreadable-input]: cannot read input {tmp_path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["tost", "-B", "200"],
        ["bayes", "--chains", "2", "--iters", "1200"],
        ["simulate", "--scenarios", "size-theta", "--replicates", "50"],
        ["bands"],
        ["report", "--input", "tost_report.json"],
    ])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_is_a_file_before_the_engine(
        self, equivalent_file, tmp_path, capsys, monkeypatch, argv, below
    ):
        # an existing file as --out, or as the directory --out would go in
        refuse_engines(monkeypatch)
        if argv[0] in ("tost", "bayes"):
            argv = argv + ["--input", equivalent_file]
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if below else taken
        code = run_cli(argv + ["--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error [bad-out]: --out {out}: {taken} exists and is not a directory\n"
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [
        ["tost", "-B", "200"],
        ["bayes", "--scale", "0.1", "--chains", "2", "--iters", "1200"],
        ["bayes", "--chains", "2", "--iters", "1200"],
        ["simulate", "--scenarios", "size-theta", "--replicates", "50"],
    ], ids=["tost", "bayes-scale", "bayes-calibrated", "simulate"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("via", ["flag", "config", "env"])
    def test_seed_outside_64_bits_is_bad_seed(
        self, equivalent_file, tmp_path, capsys, monkeypatch, argv, seed, via
    ):
        # a seed taken mod 2**64 would give two seeds one stream
        refuse_engines(monkeypatch)
        monkeypatch.delenv("FEQT_SEED", raising=False)
        if argv[0] != "simulate":
            argv = argv + ["--input", equivalent_file]
        source = "FEQT_SEED" if via == "env" else "--seed"
        if via == "flag":
            argv = argv + ["--seed", str(seed)]
        elif via == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"seed = {seed}\n")
            argv = argv + ["--config", str(cfg)]
        else:
            monkeypatch.setenv("FEQT_SEED", str(seed))
        out = tmp_path / "out"
        code = run_cli(argv + ["--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error [bad-seed]: {source} must lie in [0, 2**64), got {seed}\n"
        )
        assert not out.exists()


class TestPriorRange:
    """A range whose correlation matrix has its smallest eigenvalue below
    10 * JITTER is refused; on the 8-point grid the bound falls between the
    ranges 11 (1.2e-9) and 12 (8.5e-10)."""

    @pytest.mark.parametrize("range_a, flags", [
        ("12", []), ("1e8", []), ("1e300", []), ("12", ["--scale", "0.1"]),
    ])
    def test_singular_range_refused_before_calibration(
        self, equivalent_file, tmp_path, capsys, monkeypatch, range_a, flags
    ):
        import feqt.bayes.mvnprob as mvnprob

        refuse_engines(monkeypatch, ("run_mwg",))
        monkeypatch.setattr(mvnprob, "prior_equivalence_prob", cli_never)
        out = tmp_path / "out"
        code = run_cli(["bayes", "--input", equivalent_file, "--range-a", range_a,
                        *flags, "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error [bad-argument]: prior range ")
        assert "numerically singular" in err
        assert not out.exists()

    @pytest.mark.parametrize("range_a", ["nan", "inf"])
    def test_nonfinite_range_refused_before_calibration(
        self, equivalent_file, tmp_path, capsys, monkeypatch, range_a
    ):
        import feqt.bayes.mvnprob as mvnprob

        refuse_engines(monkeypatch, ("run_mwg",))
        monkeypatch.setattr(mvnprob, "prior_equivalence_prob", cli_never)
        out = tmp_path / "out"
        code = run_cli(["bayes", "--input", equivalent_file, "--range-a", range_a,
                        "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error [bad-argument]: kernel range must be positive and finite")
        assert not out.exists()

    def test_range_inside_the_bound_runs(self, equivalent_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["bayes", "--input", equivalent_file, "--range-a", "11",
                        "--scale", "0.1", "--chains", "1", "--iters", "1100",
                        "--burnin", "100", "--thin", "1", "--emit", "json",
                        "--out", str(out)])
        assert code in (EXIT_OK, EXIT_FAIL_TO_REJECT), capsys.readouterr().err
        assert (out / "posterior_summary.json").exists()


class TestUsageErrors:
    """argparse usage errors exit 1, never the fail-to-reject code 2."""

    @pytest.mark.parametrize("argv", [
        ["tost"],
        ["tost", "--input", "data.csv", "--design", "bogus"],
        ["tost", "--input", "data.csv", "--design", "independent"],
        ["bayes", "--input", "data.csv", "--chains", "two"],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == EXIT_ERROR
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["tost", "--help"])
        assert exc.value.code == EXIT_OK
        assert "--design {grouped,matched}" in capsys.readouterr().out


def parse_with_config(path, text, *flags):
    path.write_text(text)
    return _parse_args(build_parser(), ["bayes", "--input", "x.csv", "--config", str(path), *flags])


class TestConfigPrecedence:
    def test_flag_overrides_config(self, tmp_path):
        args = parse_with_config(tmp_path / "run.cfg", "chains = 2\n", "--chains", "5")
        assert args.chains == 5

    def test_config_values_are_typed(self, tmp_path):
        args = parse_with_config(tmp_path / "run.cfg", "scale = 0.1\nchains = 2\nseed = 4\n")
        assert args.scale == 0.1 and isinstance(args.scale, float)
        assert args.chains == 2 and isinstance(args.chains, int)
        assert args.seed == 4

    def test_bad_config_value_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_with_config(tmp_path / "run.cfg", "chains = many\n")
        assert exc.value.code == EXIT_ERROR

    @settings(max_examples=40, deadline=None)
    @given(
        config=st.integers(1, 10_000),
        flag=st.one_of(st.none(), st.integers(1, 10_000)),
        alpha=st.floats(0.001, 0.5),
    )
    def test_flag_wins_else_config_else_default(self, tmp_path_factory, config, flag, alpha):
        cfg = tmp_path_factory.getbasetemp() / "precedence.cfg"
        flags = [] if flag is None else ["--iters", str(flag)]
        args = parse_with_config(cfg, f"iters = {config}\ngamma = {alpha!r}\n", *flags)
        assert args.iters == (config if flag is None else flag)
        assert args.gamma == alpha
        assert args.burnin == 500  # untouched default


class TestConfigFile:
    def test_config_values_applied(self, equivalent_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# study configuration\n"
            "replicates = 200\n"
            "seed = 3\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["tost", "--input", equivalent_file, "--config", str(cfg),
                 "--out", str(a), "--emit", "json"])
        run_cli(["tost", "--input", equivalent_file, "--seed", "3",
                 "--replicates", "200", "--out", str(b), "--emit", "json"])
        assert read_bytes(a / "tost_report.json") == read_bytes(b / "tost_report.json")

    def test_unknown_key_is_error(self, equivalent_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bootstrap_goes_brr = 10\n")
        code = run_cli(["tost", "--input", equivalent_file, "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert "config-key" in capsys.readouterr().err

    def test_bad_choice_value_is_error(self, equivalent_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("design = bogus\n")
        code = run_cli(["tost", "--input", equivalent_file, "--config", str(cfg)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "config-value" in err and "'bogus'" in err

    @pytest.mark.parametrize("key", ["mode", "config"])
    def test_key_outside_the_mode_is_error(self, equivalent_file, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = bayes\n")
        code = run_cli(["tost", "--input", equivalent_file, "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert "config-key" in capsys.readouterr().err

    def test_malformed_line_is_error(self, equivalent_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals\n")
        code = run_cli(["tost", "--input", equivalent_file, "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert "config-parse" in capsys.readouterr().err

    def test_missing_file_is_missing_config(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        assert run_cli(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error [missing-config]: config file not found: {cfg}\n"

    def test_directory_is_unreadable_config(self, tmp_path, capsys):
        code = run_cli(["bands", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error [unreadable-config]: cannot read config {tmp_path}: ")

    def test_non_utf8_text_is_config_parse(self, tmp_path, capsys):
        """The line holding the first byte that is not UTF-8 is named."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"grid_size = 10\n# r\xe9sum\xe9\nseed = 2\n")
        code = run_cli(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error [config-parse]: {cfg}:2: not UTF-8 text\n"
        assert not (tmp_path / "o").exists()


class TestBandsMode:
    def test_emit_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["bands", "--grid-size", "10", "--out", str(out)]) == EXIT_OK
        assert (a / "bands.csv").exists() and (a / "bands.json").exists()
        assert read_bytes(a / "bands.csv") == read_bytes(b / "bands.csv")
        assert read_bytes(a / "bands.json") == read_bytes(b / "bands.json")
        import json

        payload = json.loads(read_bytes(a / "bands.json"))
        assert set(payload) == {"theta", "lambda", "psi", "grid"}
        assert len(payload["grid"]) == 10


class TestSimulateMode:
    def test_small_study_runs_and_is_deterministic(self, tmp_path):
        args = [
            "simulate", "--scenarios", "size-theta", "--replicates", "50",
            "--replicates-bootstrap", "150", "--groups", "3",
            "--group-size", "3", "--grid-size", "5", "--seed", "2",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(a)]) == EXIT_OK
        assert run_cli(args + ["--out", str(b)]) == EXIT_OK
        assert read_bytes(a / "study_result.csv") == read_bytes(b / "study_result.csv")
        text = read_bytes(a / "study_result.csv").decode()
        assert text.splitlines()[0] == "scenario,replicates,rejections,rate,se"
        assert len(text.splitlines()) == 10  # header + 9 scenarios


    def test_replicate_error_count_printed(self, tmp_path, capsys, monkeypatch):
        import feqt.simlab as simlab

        real = simlab._draw_values

        def every_third_degenerate(truth, seeds):
            y = real(truth, seeds)
            for j, ss in enumerate(seeds):
                s, r = ss.spawn_key
                if ((s - 1) * 50 + r) % 3 == 2:
                    y[j, :, 1] = 0.0  # channel 2's SSE is 0
            return y

        monkeypatch.setattr(simlab, "_draw_values", every_third_degenerate)
        args = [
            "simulate", "--scenarios", "size-theta", "--replicates", "50",
            "--replicates-bootstrap", "100", "--groups", "3",
            "--group-size", "3", "--grid-size", "5", "--seed", "2",
            "--out", str(tmp_path),
        ]
        assert run_cli(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "replicate errors: 150\n" in out  # 9 scenarios x 50 replicates / 3
        for path in tmp_path.iterdir():
            assert b"replicate errors" not in path.read_bytes()

    def test_scenario_builder_looked_up_when_the_mode_runs(self, tmp_path, capsys, monkeypatch):
        import feqt.cli as cli

        monkeypatch.setattr(cli, "boundary_violation_scenarios", cli_never)
        code = run_cli(["simulate", "--scenarios", "size-theta", "--replicates", "50",
                        "--replicates-bootstrap", "100", "--groups", "2", "--group-size", "2",
                        "--grid-size", "4", "--out", str(tmp_path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error [AssertionError]: ")


_METRIC_NAMES = st.sampled_from(["lambda", "psi", "theta"])
_DECISIONS = st.sampled_from(["reject_nonequivalence", "fail_to_reject"])

#: One edit of a saved report on the 8-point grid: toggle a metric's
#: ``reject``, add or drop one of its ``violations``, set ``decision`` or
#: ``lambda_noninferiority``, or move an overlap endpoint onto its band or one
#: ulp across it.
_REPORT_EDITS = st.one_of(
    st.tuples(st.just("reject"), _METRIC_NAMES),
    st.tuples(st.just("violation"), _METRIC_NAMES, st.integers(0, 7)),
    st.tuples(st.just("decision"), _DECISIONS),
    st.tuples(st.just("lambda_noninferiority"), st.one_of(st.none(), _DECISIONS)),
    st.tuples(st.just("overlap"), _METRIC_NAMES, st.sampled_from(["lower", "upper"]),
              st.integers(0, 7), st.booleans()),
)


def _edit_report(payload, kind, *args):
    """Apply one :data:`_REPORT_EDITS` edit to ``payload`` in place."""
    if kind in ("decision", "lambda_noninferiority"):
        payload[kind] = args[0]
        return
    m = payload["metrics"][args[0]]
    if kind == "reject":
        m["reject"] = not m["reject"]
    elif kind == "violation":
        m["violations"] = sorted(set(m["violations"]) ^ {args[1]})
    else:
        side, i, across = args[1:]
        edge = m[f"band_{side}"][i]
        outward = -math.inf if side == "lower" else math.inf
        m[f"overlap_{side}"][i] = math.nextafter(edge, outward) if across else edge


@pytest.fixture(scope="module")
def saved_report(equivalent_file, tmp_path_factory):
    """The parsed ``tost_report.json`` of ``equivalent_file``: theta and lambda
    reject at every grid point, psi fails at grid point 4."""
    out = tmp_path_factory.mktemp("saved")
    run_cli(["tost", "--input", equivalent_file, "--seed", "5",
             "--replicates", "200", "--out", str(out), "--emit", "json"])
    return json.loads(read_bytes(out / "tost_report.json"))


class TestReportMode:
    def test_rerender_matches_original(self, equivalent_file, tmp_path, capsys):
        first = tmp_path / "first"
        run_cli(["tost", "--input", equivalent_file, "--seed", "5",
                 "--replicates", "200", "--out", str(first)])
        second = tmp_path / "second"
        code = run_cli([
            "report", "--input", str(first / "tost_report.json"),
            "--out", str(second), "--emit", "csv,svg",
        ])
        assert code == EXIT_OK
        assert "re-rendered report" in capsys.readouterr().out
        assert read_bytes(second / "tost_report.csv") == read_bytes(first / "tost_report.csv")
        assert read_bytes(second / "tost_report.svg") == read_bytes(first / "tost_report.svg")

    def test_missing_input_is_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["report", "--input", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == EXIT_ERROR
        assert "error [missing-input]: input file not found: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_json_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"grid": "\xff"}')
        assert run_cli(["report", "--input", str(bad)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error [report-parse]: bad report JSON: ")

    def test_bad_json_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["report", "--input", str(bad)]) == EXIT_ERROR
        assert "report-parse" in capsys.readouterr().err

    def test_missing_schema_field_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": [0.0, 1.0]}')
        assert run_cli(["report", "--input", str(bad)]) == EXIT_ERROR
        assert "report-schema" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ['[1, 2]', '{"grid": [0.5], "metrics": []}'])
    def test_wrong_json_types_are_schema_errors(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert run_cli(["report", "--input", str(bad)]) == EXIT_ERROR
        assert "error [report-schema]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("estimate", [0.0]),
        ("band_upper", [[1.0], [2.0]]),
        ("violations", [8]),
        ("estimate", [math.nan] * 8),
        ("overlap_upper", [0.0] * 7 + [math.inf]),
    ])
    def test_arrays_off_the_grid_are_schema_errors(
        self, equivalent_file, tmp_path, capsys, field, value
    ):
        import json

        first = tmp_path / "first"
        run_cli(["tost", "--input", equivalent_file, "--seed", "5",
                 "--replicates", "200", "--out", str(first), "--emit", "json"])
        payload = json.loads(read_bytes(first / "tost_report.json"))
        assert len(payload["grid"]) == 8
        payload["metrics"]["theta"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli(["report", "--input", str(bad), "--out", str(out)]) == EXIT_ERROR
        assert f"error [report-schema]: report JSON missing or bad field: theta.{field}" in (
            capsys.readouterr().err
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("changes, message", [
        ({"metrics.theta.violations": [1.5, True], "metrics.theta.reject": False},
         "theta.violations must be [] (from the curves), got [1.5, true]"),
        ({"metrics.theta.violations": [True], "metrics.theta.reject": False},
         "theta.violations must be [] (from the curves), got [true]"),
        ({"metrics.psi.violations": [4, 4]},
         "psi.violations must be [4] (from the curves), got [4, 4]"),
        ({"metrics.psi.violations": [5, 4]},
         "psi.violations must be [4] (from the curves), got [5, 4]"),
        ({"metrics.theta.reject": "no"}, 'theta.reject must be true (from the curves), got "no"'),
        ({"metrics.theta.reject": 1}, "theta.reject must be true (from the curves), got 1"),
        ({"metrics.theta.reject": False}, "theta.reject must be true (from the curves), got false"),
        ({"metrics.psi.reject": True}, "psi.reject must be false (from the curves), got true"),
        ({"decision": "reject_nonequivalence"},
         'decision must be "fail_to_reject" (from the curves), got "reject_nonequivalence"'),
        ({"metrics.psi.violations": [], "metrics.psi.reject": True},
         "psi.violations must be [4] (from the curves), got []"),
        ({"bootstrap_replicates": 12.9}, "bootstrap_replicates must be a non-negative integer"),
        ({"bootstrap_replicates": -1}, "bootstrap_replicates must be a non-negative integer"),
        ({"bootstrap_replicates": True}, "bootstrap_replicates must be a non-negative integer"),
        ({"bootstrap_replicates": "200"}, "bootstrap_replicates must be a non-negative integer"),
        ({"alpha": "0.05"}, "alpha must be a number in (0, 0.5), got '0.05'"),
        ({"alpha": True}, "alpha must be a number in (0, 0.5), got True"),
        ({"alpha": 0.7}, "alpha must be a number in (0, 0.5), got 0.7"),
        ({"lambda_noninferiority": "fail_to_reject"},
         'lambda_noninferiority must be "reject_nonequivalence" (from the curves), '
         'got "fail_to_reject"'),
        ({"metrics.lambda.violations": [0], "metrics.lambda.reject": False,
          "decision": "fail_to_reject"},
         "lambda.violations must be [] (from the curves), got [0]"),
        ({"metrics.psi.band_lower": [1e-3] * 8, "metrics.psi.band_upper": [1e3] * 8},
         "psi.violations must be [] (from the curves), got [4]"),
    ])
    def test_values_no_report_holds_are_schema_errors(
        self, equivalent_file, tmp_path, capsys, changes, message
    ):
        # the saved report: theta and lambda reject, psi fails at grid point 4
        first = tmp_path / "first"
        run_cli(["tost", "--input", equivalent_file, "--seed", "5",
                 "--replicates", "200", "--out", str(first), "--emit", "json"])
        payload = json.loads(read_bytes(first / "tost_report.json"))
        assert payload["metrics"]["psi"]["violations"] == [4]
        for path, value in changes.items():
            *parents, key = path.split(".")
            node = payload
            for name in parents:
                node = node[name]
            node[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run_cli(["report", "--input", str(bad), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(
            f"error [report-schema]: report JSON missing or bad field: {message}"
        )
        assert not out.exists()

    @given(edits=st.lists(_REPORT_EDITS, min_size=1, max_size=3))
    @example(edits=[("violation", "lambda", 0), ("reject", "lambda"),
                    ("decision", "fail_to_reject")])
    def test_reader_takes_only_what_tost_writes(self, saved_report, edits):
        """Edited payloads are refused, or are exactly what the writer makes
        of the report the reader returns, and of a fresh TOST decision on its
        curves."""
        payload = copy.deepcopy(saved_report)
        for edit in edits:
            _edit_report(payload, *edit)
        try:
            rep = tost_report_from_json(payload)
        except ValueError:
            return
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert tost_report_json(rep) == text
        res = rep.results
        decided = tost_decide(
            {m: r.bands for m, r in res.items()}, {m: r.eq_band for m, r in res.items()},
            {m: r.estimate for m, r in res.items()}, alpha=rep.alpha, replicates=rep.replicates,
        )
        assert tost_report_json(decided) == text


#: Runs every mode on tiny inputs (``data.csv`` in the given directory) in a
#: fresh interpreter, ending with a bayes run at a given scale and a
#: calibrated one, and prints which of the scipy packages feqt once imported
#: were loaded after each step; "scipy" itself marks any scipy import.
STARTUP_SCRIPT = """
import json, sys
from pathlib import Path

WATCHED = ("scipy", "scipy.special", "scipy.linalg", "scipy.stats", "scipy.optimize")
loaded = lambda: [m for m in WATCHED if m in sys.modules]
steps = []

import feqt
steps.append(("import feqt", None, loaded()))
import feqt.cli
steps.append(("import feqt.cli", None, loaded()))

out = Path(sys.argv[1])
data = out / "data.csv"
runs = [
    ["tost", "--input", str(data), "--replicates", "100", "--out", str(out / "tost")],
    ["bands", "--grid-size", "5", "--out", str(out / "bands")],
    ["report", "--input", str(out / "tost" / "tost_report.json"), "--out", str(out / "report")],
    ["simulate", "--scenarios", "size-theta", "--replicates", "50",
     "--replicates-bootstrap", "100", "--groups", "2", "--group-size", "2",
     "--grid-size", "4", "--out", str(out / "simulate")],
]
bayes = ["bayes", "--input", str(data), "--chains", "1", "--iters", "150", "--burnin", "50",
         "--thin", "1", "--emit", "json"]
runs += [
    bayes + ["--scale", "0.1", "--out", str(out / "bayes-scale")],
    bayes + ["--out", str(out / "bayes")],
]
for argv in runs:
    label = argv[0] + (" --scale" if "--scale" in argv else "")
    steps.append((label, feqt.cli.run_cli(argv), loaded()))
print(json.dumps(steps))
"""

#: The scipy packages loaded after each step: none. Every routine feqt calls
#: comes from a compiled extension loaded without its package
#: (``feqt._scipyext``); calibration's ``stats/_sobol`` imports ``scipy``
#: itself (its ``__init__`` alone) through Cython's utility module.
SCIPY_BY_STEP = [
    ("import feqt", []),
    ("import feqt.cli", []),
    ("tost", []),
    ("bands", []),
    ("report", []),
    ("simulate", []),
    ("bayes --scale", []),
    ("bayes", ["scipy"]),
]


def test_each_step_loads_only_the_scipy_packages_it_calls(tmp_path):
    import feqt

    src = str(Path(feqt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    write_curves(generate_dataset(default_truth(equispaced_grid(5), 6, 3), 1), tmp_path / "data.csv")
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    steps = json.loads(proc.stdout.splitlines()[-1])
    for step, code, _ in steps:
        assert code in (None, EXIT_OK, EXIT_FAIL_TO_REJECT), (step, proc.stderr)
    assert [(step, loaded) for step, _, loaded in steps] == SCIPY_BY_STEP


@pytest.mark.parametrize("module", ["feqt", "feqt.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    import feqt

    src = str(Path(feqt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "tost", "--input", "missing.csv"],
        env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_ERROR
    assert "error [missing-input]: input file not found: missing.csv" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
