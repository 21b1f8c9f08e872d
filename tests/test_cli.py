import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import curstat
from curstat import (
    ObservationSample,
    SampleFormatError,
    npmle_maxmin,
    read_sample,
    write_sample,
)
from curstat.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def read_document(path):
    header = {}
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line and line != "x,value":
            x, v = line.split(",")
            rows.append((float(x), float(v)))
    return header, rows


class TestEstimateCommand:
    def test_npmle_matches_library(self, tmp_path):
        data = tmp_path / "obs.csv"
        write_lines(data, ["u,delta", "0.2,1", "0.5,0", "0.8,1"])
        out = tmp_path / "fit.csv"
        assert run(["estimate", data, "--method", "npmle", "--grid", "9", "--out", out]) == 0
        header, rows = read_document(out)
        assert header["method"] == "npmle"
        step = npmle_maxmin(ObservationSample([0.2, 0.5, 0.8], [1, 0, 1]))
        for x, v in rows:
            assert v == step(x)

    def test_bad_status_names_line(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.1,0", "0.2,1", "0.3,0", "0.4,1", "0.5,2"])
        assert run(["estimate", data]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("")
        assert run(["estimate", data]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["estimate", tmp_path / "nope.csv"]) == 2

    def test_quotient_grid_in_range(self, tmp_path):
        data = tmp_path / "obs.csv"
        rng = np.random.default_rng(5)
        u = rng.random(80)
        d = (rng.random(80) < u).astype(int)
        write_lines(data, ["u,delta"] + [f"{ui:.17g},{di}" for ui, di in zip(u, d)])
        out = tmp_path / "fit.csv"
        assert run(["estimate", data, "--method", "quotient", "--out", out]) == 0
        _, rows = read_document(out)
        values = np.array([v for _, v in rows])
        assert len(rows) == 512
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_collection_too_small_is_numerical_error(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.1,0", "0.9,1"])
        # trig regression needs dimension 3, impossible at n = 2
        assert run(["estimate", data, "--method", "regression", "--family", "trig"]) == 3
        assert "collection empty" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert run(["estimate"]) == 1  # missing input
        assert run(["frobnicate"]) == 1

    def test_grid_must_be_positive(self, tmp_path):
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.1,0", "0.9,1"])
        for grid in (0, -5, "x"):
            assert run(["estimate", data, "--method", "npmle", "--grid", grid]) == 1
            assert run(["simulate", "--model", 1, "--n", 10, "--grid", grid,
                        "--out", tmp_path / "g"]) == 1
        assert not (tmp_path / "g.estimate.csv").exists()

    @pytest.mark.parametrize("method", ["quotient", "regression", "npmle", "birge"])
    def test_no_time_in_unit_interval_is_numerical_error(self, tmp_path, capsys, method):
        data = tmp_path / "obs.csv"
        write_lines(data, ["2,1", "3,0", "4,1", "5,0"])
        assert run(["estimate", data, "--method", method, "--out", tmp_path / "f"]) == 3
        assert "no examination time in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_rmax_must_be_non_negative(self, tmp_path):
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.1,0", "0.9,1"])
        assert run(["estimate", data, "--method", "npmle", "--rmax", -1]) == 1
        assert run(["simulate", "--model", 1, "--n", 60, "--rmax", -1,
                    "--out", tmp_path / "r"]) == 1
        assert not (tmp_path / "r.sample.csv").exists()
        assert run(["simulate", "--model", 1, "--n", 60, "--rmax", 0,
                    "--out", tmp_path / "r"]) == 0

    @pytest.mark.parametrize("method", ["quotient", "regression", "npmle", "birge"])
    @pytest.mark.parametrize("flag", ["--kappa", "--kappa0"])
    def test_penalty_constants_must_be_positive_and_finite(
        self, tmp_path, capsys, flag, method
    ):
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.1,0", "0.9,1"])
        for value in ("0", "-1", "nan", "inf"):
            assert run(["estimate", data, "--method", method, flag, value]) == 1
            assert run(["simulate", "--model", 1, "--n", 60, "--method", method,
                        flag, value, "--out", tmp_path / "k"]) == 1
            assert f"argument {flag}: must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "k.sample.csv").exists()

    def test_non_finite_time_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.1,0", "0.2,1", "nan,0"])
        assert run(["estimate", data]) == 2
        assert "line 3" in capsys.readouterr().err


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--model", 1, "--n", 60, "--seed", 7,
                "--method", "regression", "--out", tmp_path / "a"]
        assert run(args) == 0
        first_sample = (tmp_path / "a.sample.csv").read_bytes()
        first_fit = (tmp_path / "a.estimate.csv").read_bytes()
        assert run(args) == 0
        assert (tmp_path / "a.sample.csv").read_bytes() == first_sample
        assert (tmp_path / "a.estimate.csv").read_bytes() == first_fit

    def test_beta_model_sample_in_unit_interval(self, tmp_path):
        assert run(["simulate", "--model", 5, "--n", 200, "--seed", 2,
                    "--out", tmp_path / "b"]) == 0
        sample = read_sample(tmp_path / "b.sample.csv")
        assert sample.u.min() >= 0.0 and sample.u.max() <= 1.0

    def test_exponential_model_keeps_points_beyond_one(self, tmp_path):
        assert run(["simulate", "--model", 4, "--n", 1000, "--seed", 3,
                    "--method", "npmle", "--out", tmp_path / "c"]) == 0
        sample = read_sample(tmp_path / "c.sample.csv")
        assert np.sum(sample.u > 1.0) >= 1

    def test_unknown_model_is_usage_error(self, tmp_path):
        assert run(["simulate", "--model", 9, "--n", 10, "--out", tmp_path / "d"]) == 1

    def test_n_must_be_positive(self, tmp_path):
        for n in (0, -1):
            assert run(["simulate", "--model", 1, "--n", n, "--out", tmp_path / "z"]) == 1
        assert not (tmp_path / "z.sample.csv").exists()

    @pytest.mark.parametrize("method", ["quotient", "regression", "npmle", "birge"])
    def test_no_time_in_unit_interval_is_numerical_error(self, tmp_path, capsys, method):
        # model 4 at seed 17 and n = 2 draws the times 1.70 and 1.21
        assert run(["simulate", "--model", 4, "--n", 2, "--seed", 17, "--method", method,
                    "--out", tmp_path / "o"]) == 3
        assert "no examination time in [0, 1]" in capsys.readouterr().err
        assert read_sample(tmp_path / "o.sample.csv").u.min() > 1.0
        assert not (tmp_path / "o.estimate.csv").exists()

    def test_round_trip_matches_in_memory(self, tmp_path):
        from curstat import estimate_sample, generate, replication_rng, SimModel

        assert run(["simulate", "--model", 2, "--n", 80, "--seed", 11,
                    "--method", "regression", "--out", tmp_path / "e"]) == 0
        reread = read_sample(tmp_path / "e.sample.csv")
        direct = generate(SimModel(2), 80, replication_rng(11, 2, 80, 0))
        np.testing.assert_array_equal(reread.u, direct.u)
        np.testing.assert_array_equal(reread.delta, direct.delta)
        _, rows = read_document(tmp_path / "e.estimate.csv")
        est = estimate_sample("regression", direct)
        xs = np.array([x for x, _ in rows])
        np.testing.assert_array_equal(np.array([v for _, v in rows]), est(xs))


class TestBenchCommand:
    def test_single_cell_single_rep(self, tmp_path):
        assert run(["bench", "--model", "1", "--n", "60", "--method", "npmle",
                    "--reps", 1, "--seed", 4, "--out", tmp_path / "r"]) == 0
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "model,n,method,J,mean_mse,std_mse,seed"
        assert len(lines) == 2
        assert (tmp_path / "r.table.txt").exists()

    def test_full_grid_cell_count(self, tmp_path):
        assert run(["bench", "--reps", 1, "--seed", 8, "--out", tmp_path / "g"]) == 0
        lines = (tmp_path / "g.csv").read_text().strip().splitlines()
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data_rows) == 5 * 4 * 4  # models x sizes x methods

    def test_reps_must_be_positive(self, tmp_path):
        for reps in (0, -2):
            assert run(["bench", "--reps", reps, "--out", tmp_path / "r"]) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_jobs_must_be_positive(self, tmp_path):
        for jobs in (0, -3):
            assert run(["bench", "--reps", 1, "--jobs", jobs, "--out", tmp_path / "j"]) == 1
        assert not (tmp_path / "j.csv").exists()

    def test_bins_must_be_positive(self, tmp_path):
        for bins in (0, -3):
            assert run(["bench", "--model", 1, "--n", 60, "--method", "birge", "--reps", 1,
                        "--bins", bins, "--out", tmp_path / "b"]) == 1
        assert not (tmp_path / "b.csv").exists()

    def test_rmax_must_be_non_negative(self, tmp_path):
        assert run(["bench", "--model", 1, "--n", 60, "--method", "quotient", "--reps", 1,
                    "--rmax", -1, "--out", tmp_path / "r"]) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_penalty_constants_must_be_positive_and_finite(self, tmp_path):
        for flag in ("--kappa", "--kappa0"):
            for value in ("0", "-1", "nan", "inf"):
                assert run(["bench", "--model", 1, "--n", 60, "--method", "birge",
                            "--reps", 1, flag, value, "--out", tmp_path / "k"]) == 1
        assert not (tmp_path / "k.csv").exists()

    def test_sizes_must_be_positive(self, tmp_path):
        for sizes in ("0", "60,-1", "60,x"):
            assert run(["bench", "--model", 1, "--n", sizes, "--method", "npmle",
                        "--reps", 1, "--out", tmp_path / "n"]) == 1
        assert not (tmp_path / "n.csv").exists()

    def test_model_ids_must_be_known(self, tmp_path):
        for models in ("0", "9", "1,6", "1,x"):
            assert run(["bench", "--model", models, "--n", 60, "--method", "npmle",
                        "--reps", 1, "--out", tmp_path / "m"]) == 1
        assert not (tmp_path / "m.csv").exists()
        assert build_parser().parse_args(["bench", "--model", "1,5"]).model == [1, 5]

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--n", [(",", "empty list"), (" , ", "empty list"), ("60,,200", "empty item"),
                     ("60,60", "repeated item"), ("60,200,60", "repeated item")]),
            ("--model", [(",", "empty list"), (",1", "empty item"), ("1,1", "repeated item"),
                         ("1,2,1", "repeated item")]),
            ("--method", [(",", "empty list"), ("birge,", "empty item"),
                          ("npmle,npmle", "repeated item"), ("birge, birge", "repeated item")]),
        ],
        ids=["n", "model", "method"],
    )
    def test_list_flags_need_distinct_items(self, tmp_path, capsys, flag, bad):
        base = {"--model": "1", "--n": "60", "--method": "npmle"}
        for text, message in bad:
            argv = ["bench", "--reps", 1, "--out", tmp_path / "l"]
            for name, value in base.items():
                argv += [name, text if name == flag else value]
            assert run(argv) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    def test_estimator_flags(self):
        args = build_parser().parse_args(
            ["bench", "--family", "poly", "--kappa", "2.5", "--kappa0", "6",
             "--rmax", "3", "--clamp", "--method", "quotient,birge", "--bins", "7"]
        )
        assert (args.family, args.kappa, args.kappa0, args.rmax, args.clamp) == (
            "poly", 2.5, 6.0, 3, True
        )
        assert (args.method, args.bins) == (["quotient", "birge"], 7)
        defaults = build_parser().parse_args(["bench"])
        assert (defaults.family, defaults.kappa, defaults.kappa0, defaults.rmax) == (
            "dyadic", 4.0, 4.0, 9
        )
        assert not defaults.clamp and defaults.jobs == 1 and defaults.reps is None

    def test_fixed_seed_reports_identical(self, tmp_path):
        args = ["bench", "--model", "1", "--n", "60,200", "--reps", 2,
                "--seed", 12, "--out", tmp_path / "s"]
        assert run(args) == 0
        first = (tmp_path / "s.csv").read_bytes()
        assert run(args + ["--jobs", 2]) == 0
        assert (tmp_path / "s.csv").read_bytes() == first


class TestSampleFiles:
    def test_write_read_round_trip(self, tmp_path):
        sample = ObservationSample([0.123456789012345, 1.75], [1.0, 0.0])
        path = tmp_path / "sample.csv"
        write_sample(sample, path)
        back = read_sample(path)
        np.testing.assert_array_equal(back.u, sample.u)
        np.testing.assert_array_equal(back.delta, sample.delta)

    def test_whitespace_delimited_accepted(self, tmp_path):
        path = tmp_path / "sample.txt"
        for text in ["0.25 1\n0.5 0\n", "  0.25 \t1\r\n\r\n0.5\t0", "u delta\n0.25 1\n \n0.5 0\n"]:
            path.write_bytes(text.encode())
            sample = read_sample(path)
            np.testing.assert_array_equal(sample.u, [0.25, 0.5])
            np.testing.assert_array_equal(sample.delta, [1.0, 0.0])

    @pytest.mark.parametrize(
        "text", ["# exported by site A\nu,delta\n0.25,1\n", "\nu,delta\n0.25,1\n"]
    )
    def test_header_after_comments_and_blank_lines(self, tmp_path, text):
        path = tmp_path / "sample.csv"
        path.write_text(text)
        sample = read_sample(path)
        np.testing.assert_array_equal(sample.u, [0.25])
        np.testing.assert_array_equal(sample.delta, [1.0])

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("u,delta\n-0.5,1\n")
        with pytest.raises(Exception, match="line 2"):
            read_sample(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_time_rejected(self, tmp_path, text):
        path = tmp_path / "sample.csv"
        path.write_text(f"u,delta\n0.5,1\n{text},0\n")
        with pytest.raises(SampleFormatError, match="line 3"):
            read_sample(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("u,delta\n0.5,1 # x\n", "line 2: could not parse"),
            ("u,delta\n0.5,,1\n", "line 2: expected two fields, got 3"),
            ("u,delta\n0.5 1,0\n", "line 2: could not parse"),
            ("u,delta\n0.5,1\n0.25,2\n", "line 3: status must be 0 or 1"),
            ("u,delta\n\n# only comments\n", "no observations found in file"),
            # a malformed first observation is not a header
            ("0.5,,1\n0.25,1\n0.75,0\n", "line 1: expected two fields, got 3"),
            ("0.5;1\n0.25,1\n0.75,0\n", "line 1: expected two fields, got 1"),
        ],
    )
    def test_bad_rows_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "sample.csv"
        path.write_text(text)
        with pytest.raises(SampleFormatError, match=message):
            read_sample(path)

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_bytes(b"\xef\xbb\xbf0.5,1\n0.25,0\n0.75,1\n")
        sample = read_sample(path)
        assert sample.n == 3
        np.testing.assert_array_equal(sample.u, [0.5, 0.25, 0.75])
        out = tmp_path / "fit.csv"
        assert run(["estimate", path, "--method", "npmle", "--grid", "9", "--out", out]) == 0
        header, rows = read_document(out)
        assert header["n"] == "3"
        step = npmle_maxmin(ObservationSample([0.5, 0.25, 0.75], [1, 0, 1]))
        assert rows == [(x, step(x)) for x, _ in rows]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys, newline):
        path = tmp_path / "sample.csv"
        path.write_bytes(newline.join([b"u,delta", b"0.5,1", b"0.25,0", b"\xe9,1", b""]))
        with pytest.raises(SampleFormatError, match="^line 4: byte 0xe9 is not UTF-8$"):
            read_sample(path)
        assert run(["estimate", path]) == 2
        assert capsys.readouterr().err == "curstat: data error: line 4: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize(
        "tail, error", [("# x\n0.5,1\n", None), ("0.5,1 # x\n", "line 62: could not parse")]
    )
    def test_blank_lines_of_spaces_and_tabs_read_in_linear_time(self, tmp_path, tail, error):
        # a parser that lets a blank line match in several ways (say, one
        # backtracking regex over the whole text) takes exponential time here
        path = tmp_path / "sample.csv"
        path.write_text("u,delta\n" + " \n\t\n" * 30 + tail)
        start = time.perf_counter()
        if error is None:
            assert read_sample(path).n == 1
        else:
            with pytest.raises(SampleFormatError, match=error):
                read_sample(path)
        assert time.perf_counter() - start < 0.5


def test_module_entry_point_runs():
    # `python -m curstat` from a checkout, with only the source on the path
    env = dict(os.environ, PYTHONPATH=str(Path(curstat.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "curstat", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: curstat")
