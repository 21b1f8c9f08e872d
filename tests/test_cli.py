import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curstat
from curstat import (
    ObservationSample,
    SampleFormatError,
    SimModel,
    generate,
    npmle_maxmin,
    read_sample,
    write_sample,
)
from curstat import data
from curstat.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


# plain rows that parse, and odd lines: plain bytes that do not parse or
# fail a check, and what only the loop reads (underscores, words, spaces,
# extra or empty fields, a form feed, non-ASCII digits and spaces, comments)
# or refuses (a byte that is not UTF-8, written as the surrogate "\udce9")
TIMES = st.one_of(
    st.sampled_from(["0", "1", "0.5", ".25", "+0.75", "1e-3", "2.5E+1", "-0", "1.", "7"]),
    st.floats(0.0, 2.0).map(lambda u: f"{u:.17g}"),
    st.floats(0.0, 2.0).map(repr),
)
PLAIN_ROWS = st.builds("{},{}".format, TIMES, st.sampled_from(["0", "1"]))
ODD_FIELDS = st.one_of(
    st.text("0123456789.eE+-", max_size=4),
    st.sampled_from([".", "e", "+", "2", "-0.5", "nan", "inf", "1e400", "0_5", "0_1", "\u0661"]),
    st.just("0." + "1" * 40),
)
ODD_ROWS = st.one_of(
    st.builds("{},{}".format, ODD_FIELDS, st.sampled_from(["0", "1"])),
    st.builds("{},{}".format, TIMES, ODD_FIELDS),
    st.builds("{}{}{}".format, TIMES, st.sampled_from([" ", "\t", " , ", ",,", ";"]), TIMES),
    st.builds("{}\x0c{}".format, PLAIN_ROWS, PLAIN_ROWS),
    st.sampled_from(["", " ", "\t", " \t ", "# a comment", "0.5,1 # x", "0.5", ","]),
    st.sampled_from(["\u30000.5,1", "\udce9,1"]),
)
HEADERS = st.sampled_from(
    ["", "u,delta", "u,delta", "time status", "u,delta,x", "e5,1", "Infinity,1", "# c", " u , d"]
    + ["\u00fc,\u03b4", "\udce9,d"]
)


@st.composite
def sample_files(draw):
    """The bytes of an observation file: plain rows, now and then an odd line."""
    header = draw(HEADERS)
    lines = draw(st.lists(PLAIN_ROWS, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_ROWS))
    if header:
        lines.insert(0, header)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):
        ends = st.just(draw(ends))  # one line end for the whole file
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8", "surrogateescape")


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

    def test_seed_must_be_non_negative(self, tmp_path, capsys):
        # a negative seed once failed in SeedSequence, as a numerical failure
        for seed in (-3, "x"):
            assert run(["simulate", "--model", 1, "--n", 10, "--seed", seed,
                        "--out", tmp_path / "s"]) == 1
        assert "--seed: must be at least 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "s.sample.csv").exists()

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

    def test_seed_must_be_non_negative(self, tmp_path, capsys):
        # a negative seed once failed in SeedSequence, as a numerical failure
        for seed in (-1, "1.5"):
            assert run(["bench", "--model", 1, "--n", 60, "--method", "npmle", "--reps", 1,
                        "--seed", seed, "--out", tmp_path / "s"]) == 1
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

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


class TestOutDirectory:
    def test_missing_directory_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        # a mistyped --out directory is a data error found before anything is
        # drawn, fitted or written
        import curstat.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("ran before --out was checked")

        for name in ("monte_carlo", "estimate_sample", "generate"):
            monkeypatch.setattr(cli, name, never)
        data = tmp_path / "obs.csv"
        write_lines(data, ["0.2,1", "0.5,0", "0.8,1"])
        missing = tmp_path / "missing"
        commands = [
            ["bench", "--model", 1, "--n", 60, "--reps", 2, "--method", "birge",
             "--out", missing / "bench"],
            ["estimate", data, "--out", missing / "e.csv"],
            ["simulate", "--model", 1, "--n", 60, "--out", missing / "s"],
        ]
        for args in commands:
            assert run(args) == 2
            assert repr(str(missing)) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]


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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "1e400"])
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
            # a form feed splits no line
            ("u,delta\n0.5,1\x0c0.25,0\n", "line 2: expected two fields, got 3"),
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

    @pytest.mark.parametrize("row", ["0_5,1", "0.5,0_1"])
    def test_underscores_do_not_parse(self, tmp_path, row):
        # float() reads "0_5" as 5.0 and "0_1" as 1.0
        path = tmp_path / "sample.csv"
        path.write_text(f"u,delta\n0.25,0\n{row}\n")
        with pytest.raises(SampleFormatError, match=f"^line 3: could not parse '{row}'$"):
            read_sample(path)

    def test_write_sample_refuses_what_read_sample_refuses(self, tmp_path):
        path = tmp_path / "sample.csv"
        with pytest.raises(ValueError, match="read_sample refuses examination times below 0"):
            write_sample(ObservationSample([0.5, -0.25], [1.0, 0.0]), path)
        assert not path.exists()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sample_files())
    @example(b"u,delta\n.,1\n")  # one byte, no digit
    def test_plain_files_read_as_the_loop_reads_them(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("files") / "sample.csv"
        path.write_bytes(text)
        outcomes = []
        for reader in (data._read_lines, read_sample):
            try:
                sample = reader(path)
                outcomes.append((sample.u.tobytes(), sample.delta.tobytes()))
            except Exception as exc:  # compared, type and message, below
                outcomes.append((type(exc), str(exc)))
        assert outcomes[1] == outcomes[0]

    def test_plain_files_never_reach_the_loop(self, tmp_path, monkeypatch):
        loop = mock.Mock(wraps=data._read_lines)
        monkeypatch.setattr(data, "_read_lines", loop)
        sample = generate(SimModel(4), 5000, 3)  # times above 1 too
        written = tmp_path / "written.csv"
        write_sample(sample, written)
        text = written.read_bytes()
        copies = {
            "crlf.csv": text.replace(b"\n", b"\r\n"),
            "headless.csv": text.partition(b"\n")[2],
            "unended.csv": text.rstrip(b"\n"),
        }
        for name, copy in copies.items():
            (tmp_path / name).write_bytes(copy)
        for path in [written, *(tmp_path / name for name in copies)]:
            back = read_sample(path)
            assert back == sample
            # two contiguous arrays that own their values, not views of one table
            assert all(a.flags.c_contiguous and a.base is None for a in (back.u, back.delta))
        # a plain file whose only fault is a value raises the loop's message itself
        lines = text.split(b"\n")
        bad = {
            "status.csv": (
                b"\n".join([*lines[:99], b"0.5,2", *lines[100:]]),
                "^line 100: status must be 0 or 1, got '2'$",
            ),
            "time.csv": (  # headless
                b"\n".join([*lines[1:99], b"-0.5,1", *lines[100:]]),
                "^line 99: examination time must be >= 0, got -0.5$",
            ),
            "finite.csv": (
                b"\r\n".join([*lines[:3], b"1e999,0", *lines[3:]]),
                "^line 4: examination time must be finite, got '1e999'$",
            ),
        }
        for name, (copy, message) in bad.items():
            (tmp_path / name).write_bytes(copy)
            with pytest.raises(SampleFormatError, match=message):
                read_sample(tmp_path / name)
        assert loop.call_count == 0
        (tmp_path / "comment.csv").write_bytes(b"# a comment\n" + text)
        assert read_sample(tmp_path / "comment.csv") == sample
        assert loop.call_count == 1


def test_module_entry_point_runs():
    # `python -m curstat` from a checkout, with only the source on the path
    env = dict(os.environ, PYTHONPATH=str(Path(curstat.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "curstat", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: curstat")
