"""Command-line contract: exit codes, manifests, byte-stable outputs."""

import argparse
import ast
import gc
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import walkmax
from walkmax import lattice
from walkmax.cli import build_parser, main

REF = "polyexp:gamma=1,beta=2,shift=1.3862943611198906"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyClass:
    def test_reference_model_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify-class", "--model", REF, "--x", "20,40,80"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["middle_band_mass"]["passed"]
        assert payload["manifest"]["model"] == REF

    def test_lattice_family_notice(self, capsys):
        code, out, err = run(
            capsys, "verify-class", "--model", "twopoint:u=1,pu=0.25,v=-1"
        )
        assert code == 0
        assert json.loads(out)["middle_band_mass"]["not_in_class"]
        assert "not_in_class" in err

    def test_invalid_parameter_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify-class", "--model", "polyexp:gamma=-1,beta=2,shift=0"
        )
        assert code == 1
        assert "gamma" in err

    @pytest.mark.parametrize("spec,field", [
        ("polyexp:gamma=1,beta=2,shift=1.3862943611198906,bta=7", "bta"),
        ("twopoint:u=1,pu=0.25,v=-1,u=5", "u"),
        ("pointmass:v=nan", "v"),
        ("polyexp:gamma=inf,beta=2,shift=1", "gamma"),
    ], ids=["unknown", "repeated", "nan", "inf"])
    def test_bad_field_is_usage_error(self, capsys, monkeypatch, tmp_path, spec, field):
        from walkmax import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work ran on a refused model spec")

        monkeypatch.setattr(cli, "discretize", no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "constants", "--model", spec, "--step", "0.05",
                             "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert re.match(rf"walkmax: .*field '{field}'", err)
        assert not out_dir.exists()

    def test_missing_model_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify-class")
        assert code == 1


class TestConstants:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "constants", "--model", REF)
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["phg"] == pytest.approx(0.5, abs=1e-12)
        c = payload["constants"]["constant"]["value"]
        assert 2.0 < c < 4.0

    def test_degenerate_pointmass(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--model", "pointmass:v=-1",
            "--gamma", str(math.log(2.0)), "--step", "1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["constant"]["value"] == pytest.approx(2.0, abs=1e-9)
        assert payload["oracle"]["notice"] == "maximum is identically 0"

    def test_supercritical_refused(self, capsys):
        code, _, err = run(
            capsys, "constants", "--model", "polyexp:gamma=1,beta=2,shift=0"
        )
        assert code == 2
        assert "constants:" in err

    @pytest.mark.parametrize("spec,fine", [
        ("polyexp:gamma=1,beta=2,shift=0.8", 29.0114),
        ("polyexp:gamma=1,beta=1.5,shift=1.3862943611198906", 8.7894),
    ])
    def test_heavy_far_tail_gets_a_constant(self, capsys, spec, fine):
        # a sum of e^{gamma x} over the law of M refused both: its certified
        # remainder past the grid top was 3.6 and 0.29; ``fine`` is C at h = 0.01
        code, out, _ = run(capsys, "constants", "--model", spec, "--step", "0.05")
        assert code == 0
        consts = json.loads(out)["constants"]
        c = consts["constant"]
        assert consts["c_lo"] <= c["lo"] <= c["value"] <= c["hi"] <= consts["c_hi"]
        assert c["value"] == pytest.approx(fine, rel=1e-3)


class TestTailReport:
    def test_oracle_verdict_converging(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run(
            capsys, "tail-report", "--model", REF,
            "--x", "4.1,5.2,6.7,8.5,10.8,13.7", "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads((out_dir / "tail_report.json").read_text())
        assert payload["report"]["verdict"] == "converging"
        header = (out_dir / "tail_report.csv").read_text().splitlines()[0]
        assert header == "x,measured,predicted,ratio,dev"

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_written_as_repr(self, capsys, tol):
        code, out, _ = run(
            capsys, "tail-report", "--model", REF, "--x", "5,10,15",
            "--tol", tol, "--step", "0.02",
        )
        assert code in (0, 2)
        assert json.loads(out)["report"]["tol"] == tol

    def test_needs_x(self, capsys):
        code, _, _ = run(capsys, "tail-report", "--model", REF)
        assert code == 1

    def test_mc_trace_file(self, capsys, tmp_path):
        out_dir = tmp_path / "mc"
        code, _, _ = run(
            capsys, "tail-report", "--model", REF, "--x", "1,2,3",
            "--measured", "mc", "--n-paths", "3000", "--trace",
            "--out", str(out_dir),
        )
        trace = (out_dir / "tail_report_trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 3 * 3000
        assert trace[0] == "x,path,outcome,steps,final_s"
        # a coarse mc grid rarely satisfies the strict verdict; the files and
        # the exit contract are what this test pins
        assert code in (0, 2)

    def test_mc_level_without_hits_is_a_report_row(self, capsys, tmp_path):
        # P(M > 20) is about 1e-9: none of 500 paths gets there
        out_dir = tmp_path / "mc"
        code, _, err = run(
            capsys, "tail-report", "--model", REF, "--x", "1,2,20", "--tol", "inf",
            "--measured", "mc", "--n-paths", "500", "--out", str(out_dir),
        )
        assert code == 2
        assert "no path of 500 exceeded x = 20; raise --n-paths" in err
        report = json.loads((out_dir / "tail_report.json").read_text())["report"]
        assert report["rows"][-1] == {"x": 20.0, "measured": 0.0, "ratio": 0.0, "dev": 1.0}

    def test_oracle_level_above_grid_top_is_refused(self, capsys):
        code, out, err = run(capsys, "tail-report", "--model", REF, "--x", "20,40,80",
                             "--step", "0.02")
        assert (code, out) == (2, "")
        assert "tail-report: level 80 is at or above the grid top 75" in err

    def test_trace_needs_an_output_directory(self, capsys, monkeypatch):
        from walkmax import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the usage was checked")

        for name in ("estimate_tail_crude", "discretize", "constants_pipeline"):
            monkeypatch.setattr(cli, name, no_work)
        code, out, err = run(capsys, "tail-report", "--model", REF, "--x", "1,2,3",
                             "--measured", "mc", "--trace")
        assert (code, out) == (1, "")
        assert "tail-report: --trace writes its per-path rows to --out DIR" in err


class TestLevelGridCheckedFirst:
    """A level grid the report cannot judge is refused before any work."""

    @pytest.mark.parametrize("levels,message", [
        ("2,3", "need at least 3 grid points, got 2"),
        ("6,4,5", "level grid must be strictly increasing"),
    ])
    @pytest.mark.parametrize("argv", [
        ["tail-report", "--measured", "mc", "--trace"],
        ["local-report"],
        ["stopped"],
        ["convolution-check"],
    ], ids=lambda argv: argv[0])
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv,
                                     levels, message):
        from walkmax import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the level grid was checked")

        for name in ("estimate_tail_crude", "discretize", "constants_pipeline"):
            monkeypatch.setattr(cli, name, no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--model", REF, "--x", levels,
                             "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert message in err
        assert not out_dir.exists()


BAD_USAGE = [
    (["local-report", "--x", "2,4,6", "--t", "-1", "--step", "0.05"],
     "argument --t: window must be > 0"),
    (["local-report", "--x", "2,4,6", "--t", "nan"], "argument --t: window must be > 0"),
    (["convolution-check", "--n=-1,2"], "summand counts must be >= 1, got -1"),
    (["convolution-check", "--n", "0"], "summand counts must be >= 1, got 0"),
    (["renewal-diag", "--n-paths", "0"], "argument --n-paths: must be an integer >= 1"),
    (["tail-report", "--measured", "mc", "--x", "1,2,3", "--shards", "0"],
     "argument --shards: must be an integer >= 1"),
    (["renewal-diag", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
    (["tail-report", "--measured", "mc", "--x", "1,2,3", "--seed", "-1"],
     "argument --seed: must be an integer >= 0"),
    (["bigjump", "--measured", "mc", "--seed", "-1"],
     "argument --seed: must be an integer >= 0"),
    # the middle band [h(x), x - h(x)] is empty where h(x) = sqrt(x) > x/2
    (["verify-class", "--h-choice", "sqrt", "--x", "1,2,3"],
     "walkmax: h(x)=1.0 exceeds x/2 at x=1.0"),
    # sqrt has no h(x) below 0: x > 0 is checked first
    (["verify-class", "--h-choice", "sqrt", "--x=-1,20"],
     "walkmax: levels must be > 0 for a middle band, got x=-1.0"),
    # a single-jump split needs the band (h(x), x - h(x)) to be nonempty
    (["bigjump", "--measured", "mc", "--h-choice", "sqrt", "--x", "1.5,2,3"],
     "walkmax: bigjump: no single-jump split at x = 1.5, h(x) = 1.22474 with --h-choice sqrt"
     ": levels need x > 0 and h(x) < x/2"),
    (["bigjump", "--h-choice", "sqrt", "--x", "1.5,2,3"],
     "walkmax: bigjump: no single-jump split at x = 1.5, h(x) = 1.22474 with --h-choice sqrt"),
    (["bigjump", "--measured", "mc", "--x=-1,2,3"],
     "walkmax: bigjump: no single-jump split at x = -1 with --h-choice quarter"),
    (["bigjump", "--h-choice", "sqrt", "--x=-1,2,3"],
     "walkmax: bigjump: no single-jump split at x = -1 with --h-choice sqrt"),
] + [
    # an option only the other --measured mode reads
    ([*argv, option, *value], f"{argv[0]}: {option} is read only by --measured {mode}")
    for argv, mode, options in [
        (["tail-report", "--x", "2,4,6"], "mc", ["--seed", "--n-paths", "--shards", "--trace"]),
        (["tail-report", "--measured", "oracle", "--x", "2,4,6"], "mc", ["--seed", "--trace"]),
        (["bigjump"], "mc", ["--seed", "--n-paths", "--shards"]),
        (["bigjump", "--measured", "mc"], "oracle", ["--step", "--gamma"]),
    ]
    for option in options
    for value in [[] if option == "--trace" else ["1"]]
] + [
    # a twist rate must be finite and > 0, whatever the command
    ([*argv, "--gamma", gamma], "argument --gamma: must be finite and > 0")
    for argv in [["constants"], ["tail-report", "--x", "2,4,6"],
                 ["local-report", "--x", "2,4,6"], ["finite", "--N", "1,2"],
                 ["stopped", "--x", "2,4,6"], ["bigjump"], ["renewal-diag"],
                 ["convolution-check"]]
    for gamma in ["nan", "inf", "0", "-1"]
]


class TestUsageCheckedFirst:
    """A bad count, seed or window is a usage error raised before any work."""

    @pytest.mark.parametrize("argv,message", BAD_USAGE,
                             ids=[" ".join(argv) for argv, _ in BAD_USAGE])
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv, message):
        from walkmax import cli, montecarlo

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the usage was checked")

        for name in ("estimate_tail_crude", "discretize", "constants_pipeline",
                     "renewal_diagnostics", "bigjump_conditional_ratio",
                     "lgamma_diagnostic", "sgamma_diagnostic"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(montecarlo, "_simulate", no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--model", REF, "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert message in err
        assert not out_dir.exists()

    # the manifest of each --measured mode records exactly the options it reads
    @pytest.mark.parametrize("argv,params", [
        (["tail-report", "--x", "2,4,6", "--step", "0.05"],
         {"step", "gamma", "tol", "x", "measured"}),
        (["tail-report", "--measured", "mc", "--x", "1,2,3", "--step", "0.05",
          "--n-paths", "1000"],
         {"step", "gamma", "tol", "x", "measured", "seed", "n_paths", "shards", "trace"}),
        (["bigjump", "--x", "2,3,4", "--step", "0.05"],
         {"step", "gamma", "x", "h_choice", "measured"}),
        (["bigjump", "--measured", "mc", "--x", "2,3,4", "--n-paths", "1000"],
         {"seed", "n_paths", "shards", "x", "h_choice", "measured"}),
    ], ids=["tail-report-oracle", "tail-report-mc", "bigjump-oracle", "bigjump-mc"])
    def test_manifest_records_the_mode_options(self, capsys, argv, params):
        code, out, _ = run(capsys, *argv, "--model", REF)
        assert code in (0, 2)  # 2: a failed verdict at this coarse step
        got = json.loads(out)["manifest"]["params"]
        assert set(got) == {"command", "model"} | params
        # the mode that reads an option records its resolved default
        assert all(got[k] == v for k, v in {"seed": 0, "shards": 1, "trace": False,
                                            "gamma": None}.items() if k in got)

    def test_quadrature_failure_is_a_refusal(self, capsys, monkeypatch):
        from walkmax import QuadratureError, cli

        def fail(*args, **kwargs):
            raise QuadratureError("tail quadrature at rate 1 did not converge "
                                  "(achieved tolerance nan)")

        monkeypatch.setattr(cli, "constants_pipeline", fail)
        code, out, err = run(capsys, "constants", "--model", REF)
        assert (code, out) == (2, "")
        assert "constants: tail quadrature at rate 1 did not converge" in err
        assert "Traceback" not in err


class TestOneRefusalPath:
    """Every computing command reports a refusal the same way: exit 2, one
    ``<command>: <reason>`` line, no payload and no output directory."""

    @pytest.mark.parametrize("argv", [
        ["constants", "--model", "polyexp:gamma=1,beta=2,shift=0"],
        ["tail-report", "--model", REF, "--x", "10,20,80", "--step", "0.05"],
        ["local-report", "--model", REF, "--x", "60,66,72", "--t", "5", "--step", "0.05"],
        ["finite", "--model", REF, "--N", "1,5", "--x", "10,75", "--step", "0.05"],
        ["stopped", "--model", REF, "--x", "4,6,75", "--step", "0.05"],
        ["bigjump", "--model", REF, "--x", "10,20,100", "--step", "0.05"],
        ["renewal-diag", "--model", REF, "--R", "2,4", "--n-paths", "20000",
         "--gamma", "1.5"],
        ["convolution-check", "--model", "twopoint:u=1,pu=0.25,v=-1", "--gamma", "0.9",
         "--step", "1", "--x", "0.25,0.5,1"],
    ], ids=lambda argv: argv[0])
    def test_refusal_is_one_line_without_payload(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert not out_dir.exists()
        assert len([line for line in err.splitlines() if line.startswith(f"{argv[0]}: ")]) == 1
        assert "walkmax: " not in err and "Traceback" not in err


class TestZeroTailCheckedFirst:
    """A level the increment never exceeds is refused before any work."""

    @pytest.mark.parametrize("argv", [
        ["tail-report", "--measured", "mc", "--trace", "--n-paths", "300000"],
        ["local-report"],
        ["stopped"],
        ["convolution-check"],
        ["finite", "--N", "1,2"],
    ], ids=lambda argv: argv[0])
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        from walkmax import cli, montecarlo

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the level tails were checked")

        for name in ("discretize", "lindley_fixed_point", "horizon_pass", "convolve"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(montecarlo, "_simulate", no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--model", TP, "--gamma", "0.9",
                             "--step", "1", "--x", "0.25,0.5,1", "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "P(xi > 1) = 0 for twopoint:u=1,pu=0.25,v=-1" in err
        assert not out_dir.exists()


SUPERCRITICAL = {
    "negative-mean": "polyexp:gamma=1,beta=2,shift=0.65",  # phi(1) = 1.044
    "positive-mean": "polyexp:gamma=1,beta=2,shift=0",  # phi(1) = 2
}


class TestSupercriticalRefusedFirst:
    """A model with phi(gamma) >= 1 has no tail constant: every walk command
    refuses it before any sweep or walk, and verify-class still runs."""

    @pytest.mark.parametrize("spec", SUPERCRITICAL.values(), ids=SUPERCRITICAL.keys())
    @pytest.mark.parametrize("argv", [
        ["constants", "--step", "0.05"],
        ["tail-report", "--x", "2,4,6", "--step", "0.05"],
        ["tail-report", "--measured", "mc", "--x", "2,4,6", "--n-paths", "2000"],
        ["local-report", "--x", "2,4,6", "--step", "0.05"],
        ["finite", "--N", "1,5", "--x", "2", "--step", "0.05"],
        ["stopped", "--x", "2,4,6", "--step", "0.05"],
        ["bigjump", "--x", "10,20,40", "--step", "0.05"],
        ["bigjump", "--measured", "mc", "--x", "10,20,40", "--n-paths", "2000"],
        ["renewal-diag", "--n-paths", "2000"],
        ["convolution-check", "--x", "2,4,6", "--step", "0.05"],
    ], ids=lambda argv: "-".join(argv[:3 if "--measured" in argv else 1]))
    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv, spec):
        from walkmax import cli, montecarlo

        def no_work(*args, **kwargs):
            raise AssertionError("work ran on a model with phi(gamma) >= 1")

        monkeypatch.setattr(cli, "discretize", no_work)
        monkeypatch.setattr(montecarlo, "_simulate", no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--model", spec, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert not out_dir.exists()
        assert len([line for line in err.splitlines() if line.startswith(f"{argv[0]}: ")]) == 1
        assert "walkmax: " not in err and "Traceback" not in err

    @pytest.mark.parametrize("spec", SUPERCRITICAL.values(), ids=SUPERCRITICAL.keys())
    def test_verify_class_runs(self, capsys, spec):
        code, out, _ = run(capsys, "verify-class", "--model", spec)
        assert code == 0
        assert json.loads(out)["manifest"]["model"] == spec


class TestLevelsBelowTheGridTop:
    """Every oracle command refuses a level, or a finite window end, at or
    above the top cell of its grid (75 here) before any sweep."""

    @pytest.mark.parametrize("argv,level", [
        (["tail-report", "--x", "10,20,80"], "80"),
        (["local-report", "--x", "60,66,72", "--t", "5"], "77"),
        (["finite", "--N", "1,5", "--x", "10,75"], "75"),
        (["stopped", "--x", "4,6,75"], "75"),
        (["bigjump", "--x", "10,20,100"], "100"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_refused_before_any_sweep(self, capsys, monkeypatch, argv, level):
        from walkmax import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the levels were checked")

        for name in ("lindley_fixed_point", "horizon_pass", "stopped_max_sigma1",
                     "bigjump_flow"):
            monkeypatch.setattr(cli, name, no_sweep)
        code, out, err = run(capsys, *argv, "--model", REF, "--step", "0.05")
        assert (code, out) == (2, "")
        assert (f"{argv[0]}: level {level} is at or above the grid top 75: "
                "choose levels below the grid top") in err


class TestByteStability:
    def test_rerun_is_identical(self, capsys, tmp_path):
        args = ["tail-report", "--model", REF, "--x", "4.1,6.7,10.8"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        for name in ("tail_report.json", "tail_report.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_shard_count_is_invisible(self, capsys, tmp_path):
        base = [
            "renewal-diag", "--model", REF, "--R", "2,4",
            "--n-paths", "20000", "--seed", "5",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *base, "--shards", "1", "--out", str(a))[0] == 0
        assert run(capsys, *base, "--shards", "4", "--out", str(b))[0] == 0
        got_a = json.loads((a / "renewal_diag.json").read_text())
        got_b = json.loads((b / "renewal_diag.json").read_text())
        assert got_a["table"] == got_b["table"]
        csv_a = (a / "renewal_diag.csv").read_bytes()
        assert csv_a == (b / "renewal_diag.csv").read_bytes()

    def test_payload_bytes_ignore_blas_threads(self):
        # the sweeps and every moment reduction must not depend on how a
        # threaded BLAS splits its work
        src = str(Path(walkmax.__file__).resolve().parents[1])
        for argv in (
            ["constants", "--step", "0.005"],
            ["bigjump", "--x", "10,20,40", "--step", "0.005"],
            ["stopped", "--x", "4,8,12", "--step", "0.005"],
            ["finite", "--N", "1,5,50", "--step", "0.005"],
            ["renewal-diag", "--R", "2,4", "--n-paths", "70000", "--shards", "2"],
        ):
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "walkmax.cli", *argv, "--model", REF],
                    env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n,
                             OMP_NUM_THREADS=n, MKL_NUM_THREADS=n),
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                )
                for n in ("1", "2")
            ]
            outs = [p.communicate(timeout=300)[0] for p in procs]
            assert [p.returncode for p in procs] == [0, 0], argv
            assert outs[0] == outs[1], argv


class TestOtherCommands:
    def test_finite_negative_horizon_is_usage_error(self, capsys, monkeypatch):
        from walkmax import cli

        def no_work(*args, **kwargs):
            raise AssertionError("lattice work ran before the horizons were checked")

        monkeypatch.setattr(cli, "discretize", no_work)
        code, out, err = run(capsys, "finite", "--model", REF, "--N=-1,2", "--x", "5")
        assert (code, out) == (1, "")
        assert "horizons must be >= 0, got -1" in err

    def test_finite_horizon_beyond_the_sweep_limit_is_refused(self, capsys, monkeypatch):
        # 10^10 horizons would need 224 GiB of boundary terms and as many sweeps
        monkeypatch.setattr(lattice, "_sweep", None)
        code, out, err = run(capsys, "finite", "--model", REF, "--N", "1,10000000000",
                             "--x", "5", "--step", "0.05")
        assert (code, out) == (2, "")
        assert "finite: horizon 10000000000 needs as many sweeps, more than 1e+06" in err

    @pytest.mark.parametrize("levels,level", [("10,80,200", "80"), ("10,75", "75")])
    def test_finite_level_at_or_above_grid_top_is_refused(self, capsys, monkeypatch,
                                                          levels, level):
        from walkmax import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the levels were checked")

        for name in ("horizon_pass", "lindley_fixed_point"):
            monkeypatch.setattr(cli, name, no_sweep)
        code, out, err = run(capsys, "finite", "--model", REF, "--N", "1,5", "--x", levels,
                             "--step", "0.05")
        assert (code, out) == (2, "")
        assert f"finite: level {level} is at or above the grid top 75" in err

    def test_finite(self, capsys, tmp_path):
        out_dir = tmp_path / "fin"
        code, _, _ = run(
            capsys, "finite", "--model", REF, "--N", "1,5", "--x", "10",
            "--out", str(out_dir),
        )
        assert code == 0
        payload = json.loads((out_dir / "finite.json").read_text())
        assert payload["rows"][0]["predicted"] == pytest.approx(1.0, abs=1e-12)

    def test_stopped(self, capsys):
        code, out, _ = run(
            capsys, "stopped", "--model", REF, "--x", "6,9,13.7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["final_dev"] <= 0.1

    def test_stopped_level_above_grid_top_is_refused(self, capsys):
        code, out, err = run(capsys, "stopped", "--model", REF, "--x", "4,6,80",
                             "--step", "0.02")
        assert code == 2
        assert out == ""
        assert "stopped: level 80 is at or above the grid top 75" in err

    def test_renewal_atomic_mgf_past_float_range_is_refused(self, capsys):
        # the slack search tries twists up to 20, where e^{20 * 40} overflows
        code, out, err = run(capsys, "renewal-diag", "--model",
                             "twopoint:u=40,pu=0.001,v=-1", "--gamma", "0.1",
                             "--n-paths", "2000")
        assert code == 2
        assert out == ""
        assert "no usable twist" in err

    def test_local_report_infinite_window(self, capsys):
        # an infinite window is the whole tail, predicted by C itself
        code, out, _ = run(capsys, "local-report", "--model", REF, "--x", "5,10,15",
                           "--t", "inf", "--step", "0.02")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["predicted"] == payload["constants"]["constant"]["value"]
        assert payload["window"] == payload["manifest"]["params"]["t"] == "inf"

    def test_bigjump_oracle_default_grid(self, capsys):
        code, out, _ = run(capsys, "bigjump", "--model", REF)
        assert code == 0
        rows = json.loads(out)["rows"]
        ratios = [r["ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] >= 0.9

    def test_convolution_check(self, capsys):
        code, out, _ = run(capsys, "convolution-check", "--model", REF)
        assert code == 0

    def test_convolution_check_refuses_a_level_past_the_grid_top(self, capsys, monkeypatch):
        from walkmax import cli

        # cut the increment span at 12, so the one-summand law ends there
        monkeypatch.setattr(cli, "discretize", lambda model, h, span:
                            lattice.discretize(model, h, span=(span[0], 12.0)))
        code, out, err = run(capsys, "convolution-check", "--model", REF, "--x", "2,4,20",
                             "--n", "1,2", "--step", "0.05")
        assert (code, out) == (2, "")
        assert "oracle value at x = 20 is 0 on the grid (top 12)" in err

    def test_convolution_check_refuses_an_oversized_support_before_convolving(
            self, capsys, monkeypatch, tmp_path):
        from walkmax import cli

        def no_work(*args, **kwargs):
            raise AssertionError("convolved before the support was checked")

        monkeypatch.setattr(cli, "convolve", no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "convolution-check", "--model", REF, "--n", "2,1000000",
                             "--step", "0.02", "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert ("convolution-check: grid step 0.02 needs about 2.02e+09 cells for the law "
                "of S_1000000, above the limit of 10000000") in err
        assert not out_dir.exists()

    def test_renewal_runs(self, capsys):
        code, out, _ = run(
            capsys, "renewal-diag", "--model", REF, "--R", "2,4",
            "--n-paths", "5000",
        )
        assert code == 0
        rows = json.loads(out)["table"]["rows"]
        assert rows[0]["delta"] > rows[1]["delta"]

    @pytest.mark.parametrize(
        "model,gamma", [(REF, "1.5"), ("twopoint:u=1,pu=0.25,v=-1", "1.2")],
        ids=["ref-phi-infinite", "twopoint-phi-above-one"],
    )
    def test_renewal_refuses_unbounded_miss_bias(self, capsys, model, gamma):
        # phi(gamma) >= 1 leaves the bias of certified misses unbounded; it
        # used to be reported as a certified-looking 0
        code, out, err = run(
            capsys, "renewal-diag", "--model", model, "--R", "2,4",
            "--n-paths", "20000", "--gamma", gamma,
        )
        assert (code, out) == (2, "")
        assert "phi(gamma) < 1" in err and f"phi({gamma}) = " in err and "--gamma" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["finite", "--N", ","],
            ["tail-report", "--x", "1,2,x"],
            ["tail-report", "--x", "nan,1,2"],
            ["renewal-diag", "--R", "a"],
        ],
        ids=["finite-empty", "tail-report-malformed", "tail-report-nan",
             "renewal-diag-malformed"],
    )
    def test_bad_list_is_usage_error(self, argv):
        src = str(Path(walkmax.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "walkmax.cli", *argv, "--model", REF],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "list" in proc.stderr

    @pytest.mark.parametrize("step", ["nan", "inf", "1e-300"])
    def test_bad_step_refused_before_allocating(self, step):
        src = str(Path(walkmax.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "walkmax.cli", "constants", "--model", REF, "--step", step],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "grid step" in proc.stderr


TP = "twopoint:u=1,pu=0.25,v=-1"


class TestTwistOverride:
    """Atomic families have no decay rate: --gamma must reach every oracle."""

    @pytest.mark.parametrize(
        "command,extra,constants_key",
        [
            ("finite", ["--N", "1,2", "--x", "0.5"], "constant_limit"),
            ("stopped", ["--x", "0.25,0.5,0.75"], "constants"),
            ("tail-report", ["--x", "0.25,0.5,0.75"], "constants"),
            ("local-report", ["--x", "0.25,0.5,0.75", "--t", "0.5"], "constants"),
        ],
    )
    def test_atomic_model_takes_gamma(self, capsys, command, extra, constants_key):
        code, out, err = run(capsys, command, "--model", TP, "--gamma", "0.9",
                             "--step", "1", *extra)
        assert "pass the twist" not in err
        assert code in (0, 2)  # 2: a recorded verdict on the atomic walk
        consts = json.loads(out)[constants_key]
        assert consts["gamma"] == 0.9
        # ruin chain: E e^{0.9 M} = (2/3) / (1 - e^{0.9}/3)
        expected = (2.0 / 3.0) / (1.0 - math.exp(0.9) / 3.0)
        assert consts["exp_moment_m"]["value"] == pytest.approx(expected, rel=1e-12)

    def test_finite_ratios_use_the_twist_top(self, capsys):
        code, out, _ = run(capsys, "finite", "--model", TP, "--gamma", "0.9",
                           "--step", "1", "--N", "1,2", "--x", "0.5")
        assert code == 0
        rows = json.loads(out)["rows"]
        # M_1 exceeds 0.5 iff the first step goes up: ratio 1
        assert rows[0]["ratio_at_0.5"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["finite", "tail-report"])
    def test_level_beyond_support_is_refused(self, capsys, command):
        extra = ["--N", "1,2", "--x", "1"] if command == "finite" else ["--x", "0.25,0.5,1"]
        code, out, err = run(capsys, command, "--model", TP, "--gamma", "0.9",
                             "--step", "1", *extra)
        assert code == 2
        assert out == ""
        assert "P(xi > 1) = 0" in err

    def test_bigjump_level_above_grid_top_is_refused(self, capsys):
        # grid top 83 (75/0.9 rounded to cells)
        code, out, err = run(capsys, "bigjump", "--model", TP, "--gamma", "0.9",
                             "--step", "1", "--x", "10,20,100")
        assert code == 2
        assert out == ""
        assert "bigjump: level 100 is at or above the grid top 83" in err

    def test_bigjump_flow_reads_the_twist(self, capsys, monkeypatch):
        from walkmax import cli

        seen, flow = [], cli.bigjump_flow

        def spy(*args, **kwargs):
            seen.append(kwargs["gamma"])
            return flow(*args, **kwargs)

        monkeypatch.setattr(cli, "bigjump_flow", spy)
        code, out, _ = run(capsys, "bigjump", "--model", TP, "--gamma", "0.9",
                           "--step", "1", "--x", "1,2,3")
        assert code in (0, 2)
        assert len(json.loads(out)["rows"]) == 3
        assert seen == [0.9] * 3
        # a smooth family's flow takes --gamma too; the twist moves only
        # where the certified flow stops, so the ratios agree
        ratios = {}
        for gamma in ("0.5", None):
            seen.clear()
            extra = ["--gamma", gamma] if gamma else []
            code, out, _ = run(capsys, "bigjump", "--model", REF, "--step", "0.05",
                               "--x", "10,20", *extra)
            assert code in (0, 2)
            assert seen == [float(gamma or 1.0)] * 2
            ratios[gamma] = [row["ratio"] for row in json.loads(out)["rows"]]
        assert ratios["0.5"] == pytest.approx(ratios[None], rel=1e-12, abs=0.0)

    def test_zero_flow_writes_its_ratios(self, capsys):
        # one +1 step from at most h(x) never passes x - h(x): the flow is
        # exactly 0, which no relative stop certifies, and its remainder is far
        # below the share of P(M > x) that could move a ratio
        code, out, err = run(capsys, "bigjump", "--model", "twopoint:u=1,pu=0.45,v=-1",
                             "--gamma", "0.15", "--x", "4,8,12", "--step", "0.5")
        assert code == 2  # the verdict: no ratio reaches 0.9
        assert [row["ratio"] for row in json.loads(out)["rows"]] == [0.0, 0.0, 0.0]
        assert "n_max" not in err

    @pytest.mark.parametrize("argv", [
        ["constants"],
        ["tail-report", "--x", "0.25,0.5,0.75"],
        ["local-report", "--x", "0.25,0.5,0.75"],
        ["finite", "--N", "1,2", "--x", "0.5"],
        ["stopped", "--x", "0.25,0.5,0.75"],
        ["bigjump"],
        ["convolution-check", "--x", "0.25,0.5,0.75"],
        ["renewal-diag"],
    ], ids=lambda argv: argv[0])
    def test_no_twist_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        from walkmax import cli, montecarlo

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the twist was resolved")

        monkeypatch.setattr(cli, "discretize", no_work)
        monkeypatch.setattr(montecarlo, "_simulate", no_work)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, argv[0], "--model", TP, *argv[1:], "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert (f"{argv[0]}: model family has no intrinsic decay rate; "
                "pass the twist explicitly") in err
        assert not out_dir.exists()


class TestOracleWorkOnce:
    @pytest.mark.parametrize("Ns, reads", [("1,2,5,10,50", True), ("1,5", False)],
                             ids=["reads", "resumes"])
    def test_finite_sweeps_once(self, capsys, monkeypatch, Ns, reads):
        # the fixed point is read on the way to M_N (N >= n_iter) or swept on
        # past it, so the reflected recursion runs max(N, n_iter) sweeps
        from walkmax import cli

        reflected, counts = [0], []
        sweep, one_pass = lattice._sweep, cli.horizon_pass

        def counting(V, pmf, reflect=False, **kwargs):
            for step in sweep(V, pmf, reflect, **kwargs):
                reflected[0] += reflect
                yield step

        def counted(*args, **kwargs):
            law, laws, boundary = one_pass(*args, **kwargs)
            counts.append(law.n_iter)
            return law, laws, boundary

        monkeypatch.setattr(lattice, "_sweep", counting)
        monkeypatch.setattr(cli, "horizon_pass", counted)
        monkeypatch.setattr(cli, "lindley_fixed_point", None)
        code, out, _ = run(capsys, "finite", "--N", Ns, "--model", REF, "--step", "0.05")
        assert code == 0
        N = int(Ns.split(",")[-1])
        assert (N >= counts[0]) == reads
        assert reflected[0] == max(N, counts[0])

    def test_finite_memory_does_not_grow_with_the_horizon(self, capsys):
        # one law is 3751 cells (30 kB) here, and each horizon up to 400 adds
        # three floats: the peak stays within two laws of that of horizon 5.
        # Python keeps freed small objects for reuse, up to a fixed count of
        # each kind, and tracemalloc counts them: every sweep leaves a few, so
        # one untraced run of 2,000 sweeps fills those lists first, and the
        # collector, whose full passes empty them, stays off meanwhile
        def peak(Ns, traced=True):
            if traced:
                tracemalloc.start()
            try:
                code, _, _ = run(capsys, "finite", "--N", Ns, "--model", REF, "--x", "5",
                                 "--step", "0.02")
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gc.disable()
        try:
            peak("1,2000", traced=False)
            (code_short, short), (code_long, long) = peak("1,5"), peak("1,400")
        finally:
            gc.enable()
        assert (code_short, code_long) == (0, 0)
        assert long - short <= 2 * 3751 * 8, (short, long)

    def test_convolution_memory_grows_with_the_largest_sum_only(self, capsys):
        # the increment law has 2021 cells here and S_n's law n times that.
        # Keeping only the sums at --n, the peak above --n 2,3 is the law of
        # S_30 and the convolution's working copies of it (about four); every
        # law S_1 ... S_30 would be fifteen
        def peak(ns):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "convolution-check", "--n", ns, "--model", REF,
                                 "--step", "0.02")
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (code_short, short), (code_long, long) = peak("2,3"), peak("2,30")
        assert code_short == 0 and code_long in (0, 2)  # 2: a failed verdict
        assert long - short <= 6 * 30 * 2021 * 8, (short, long)

    def test_stopped_sweeps_only_level_passages(self, capsys, monkeypatch):
        # the overshoot law is read from the fixed point: apart from the
        # reflected sweep, every window is a level's, below the grid top
        windows, sweep = [], lattice._sweep

        def spy(V, pmf, reflect=False, **kwargs):
            windows.append((V.size, reflect))
            return sweep(V, pmf, reflect, **kwargs)

        monkeypatch.setattr(lattice, "_sweep", spy)
        code, _, _ = run(capsys, "stopped", "--x", "4,6,8", "--model", REF, "--step", "0.05")
        assert code == 0
        assert windows == [(1501, True), (81, False), (121, False), (161, False)]

    def test_every_command_runs_without_scipy(self):
        # scipy is a test-only dependency: with its import blocked, the
        # quadrature behind the polyexp moments and every command still run
        script = textwrap.dedent(f"""
            import contextlib, io, json, math, sys
            sys.modules["scipy"] = None
            from walkmax import PolyExp
            from walkmax.cli import main
            assert 0.4 < PolyExp(1.0, 2.0, 0.0).mean() < 0.41
            assert abs(PolyExp(1.0, 2.0, math.log(4.0)).mgf(0.6) - 0.586977979077) < 1e-12
            step, paths = ["--step", "0.05"], ["--n-paths", "2000"]
            for argv in (["renewal-diag", *paths], ["bigjump", "--measured", "mc", *paths],
                         ["verify-class"], ["constants", *step], ["finite", "--N", "1,5", *step],
                         ["tail-report", "--x", "2,4,6", *step],
                         ["tail-report", "--measured", "mc", "--x", "1,2,3", *step, *paths],
                         ["local-report", "--x", "2,4,6", *step],
                         ["stopped", "--x", "2,4,6", *step],
                         ["bigjump", *step], ["convolution-check", "--x", "2,4,6", *step]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv + ["--model", "{REF}"])
                # exit 2 here is a failed verdict at this coarse step, never a
                # refusal: the payload is written either way
                assert code in (0, 2) and "manifest" in json.loads(out.getvalue()), argv
        """)
        src = str(Path(walkmax.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


ROOT = Path(__file__).resolve().parents[1]

# the options (argparse dests, besides -h) each command reads
OPTIONS = {
    "verify-class": {"model", "out", "x", "k", "h_choice"},
    "constants": {"model", "out", "step", "gamma"},
    "tail-report": {"model", "out", "step", "gamma", "tol", "seed", "n_paths", "shards",
                    "x", "measured", "trace"},
    "local-report": {"model", "out", "step", "gamma", "tol", "x", "t"},
    "finite": {"model", "out", "step", "gamma", "N", "x"},
    "stopped": {"model", "out", "step", "gamma", "tol", "x"},
    "bigjump": {"model", "out", "step", "gamma", "seed", "n_paths", "shards", "x",
                "h_choice", "measured"},
    "renewal-diag": {"model", "out", "gamma", "seed", "n_paths", "shards", "R"},
    "convolution-check": {"model", "out", "step", "gamma", "tol", "x", "n"},
}

# options a command does not read: each is refused as unrecognized
REMOVED = {
    "verify-class": ["--step", "--gamma", "--tol", "--seed", "--n-paths", "--shards"],
    "constants": ["--tol", "--seed", "--n-paths", "--shards"],
    "local-report": ["--seed", "--n-paths", "--shards", "--measured"],
    "finite": ["--tol", "--seed", "--n-paths", "--shards"],
    "stopped": ["--seed", "--n-paths", "--shards", "--measured"],
    "bigjump": ["--tol"],
    "renewal-diag": ["--step", "--tol"],
    "convolution-check": ["--seed", "--n-paths", "--shards"],
}
VALUES = {"--step": "0.05", "--gamma": "1", "--tol": "0.1", "--seed": "1",
          "--n-paths": "1000", "--shards": "1", "--measured": "oracle"}
REQUIRED = {"tail-report": ["--x", "2,4,6"], "local-report": ["--x", "2,4,6"],
            "finite": ["--N", "1,2"], "stopped": ["--x", "2,4,6"]}


def parses(argv) -> bool:
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


class TestOptionSets:
    """Each command takes only the options it reads."""

    def test_each_command_declares_what_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()
        }
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 63

    @pytest.mark.parametrize("command,option", [
        (command, option) for command, options in REMOVED.items() for option in options
    ])
    def test_unread_option_is_usage_error(self, capsys, command, option):
        code, out, err = run(capsys, command, *REQUIRED.get(command, []), "--model", REF,
                             option, VALUES[option])
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {option} {VALUES[option]}" in err

    def test_benchmark_argv_lists_parse(self):
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        argvs = [argv for w in workloads.WORKLOADS for seed in (1, 2, 3)
                 for argv in workloads.commands(w, seed)]
        argvs.append(workloads.oracle_reference("mc-ref"))
        assert [argv for argv in argvs if not parses(argv)] == []

    def test_ci_argv_lists_parse(self):
        text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
        names = {"ref": re.search(r'ref = "([^"]+)"', text).group(1)}
        argvs = [shlex.split(line) for line in re.findall(r"^\s*walkmax (\w.*)$", text, re.M)]
        for literal in re.findall(r"main\((\[[^\]]*\])\)", text):
            argvs.append([names[e.id] if isinstance(e, ast.Name) else e.value
                          for e in ast.parse(literal, mode="eval").body.elts])
        assert len(argvs) >= 3
        assert [argv for argv in argvs if not parses(argv)] == []


def test_traced_cli_targets_exist():
    # bench/traced_cli.py wraps each target by name: a module attribute, or a
    # function in a class's own __dict__, which install() reads
    spec = importlib.util.spec_from_file_location("bench_traced_cli",
                                                  ROOT / "bench" / "traced_cli.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = []
    for name, module_name, path, _, _ in traced.TARGETS:
        module = importlib.import_module(module_name)
        owner, _, attr = path.rpartition(".")
        if owner:
            found = attr in vars(getattr(module, owner, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append((name, module_name, path))
    assert len(traced.TARGETS) > 10
    assert missing == []
