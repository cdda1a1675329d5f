"""File-format and command-line tests."""

import json
import math

import numpy as np
import pytest

from unipol.baselines import generate
from unipol.cli import main
from unipol.io import (
    SequenceFileError,
    read_run_record,
    read_sequence_file,
    run_record_dict,
    sequence_file_text,
    write_run_record,
    write_sequence_file,
)
from unipol.metrics import isl_time
from unipol.solver import SolverConfig, init_random, run


class TestSequenceFile:
    def test_round_trip_within_1e12(self, tmp_path):
        path = tmp_path / "seq.csv"
        seq = init_random(37, 5)
        write_sequence_file(path, seq)
        back = read_sequence_file(path)
        assert np.max(np.abs(back.phases - seq.phases)) <= 1e-12

    def test_text_shape(self):
        text = sequence_file_text(generate("barker", 5))
        lines = text.strip().split("\n")
        assert lines[0] == "index,phase,re,im"
        assert len(lines) == 6

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0.0,1.0,0.0\n")
        with pytest.raises(SequenceFileError, match="header"):
            read_sequence_file(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n0,0.0,1.0\n")
        with pytest.raises(SequenceFileError, match="row 2"):
            read_sequence_file(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n0,zero,1.0,0.0\n")
        with pytest.raises(SequenceFileError, match="row 2, column 2"):
            read_sequence_file(path)

    def test_inconsistent_re_im(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n0,0.0,0.5,0.0\n")
        with pytest.raises(SequenceFileError, match="inconsistent"):
            read_sequence_file(path)

    @pytest.mark.parametrize("column", [2, 3, 4])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell(self, tmp_path, column, cell):
        cells = ["0", "0.0", "1.0", "0.0"]
        cells[column - 1] = cell
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n" + ",".join(cells) + "\n")
        with pytest.raises(SequenceFileError, match=f"row 2, column {column}: not a finite"):
            read_sequence_file(path)

    @pytest.mark.parametrize("column, cell", [
        (1, "0_0"), (1, "\uff10"), (2, "0_0"), (3, "1.0_0"), (3, "\uff11.0"), (4, "\uff10"),
    ])
    def test_python_only_spelling(self, tmp_path, column, cell):
        # int()/float() read each of these as the valid value of its column
        cells = ["0", "0.0", "1.0", "0.0"]
        cells[column - 1] = cell
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n" + ",".join(cells) + "\n", encoding="utf-8")
        with pytest.raises(SequenceFileError, match=f"row 2, column {column}: not an ASCII decimal"):
            read_sequence_file(path)

    def test_underflowing_decimal_reads_as_zero(self, tmp_path):
        # 1e-400 is a plain decimal whose correctly rounded value is 0.0
        path = tmp_path / "tiny.csv"
        path.write_text("index,phase,re,im\n0,1e-400,1.0,1e-400\n")
        assert read_sequence_file(path).phases[0] == 0.0

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        seq = init_random(5, 3)
        path.write_bytes(sequence_file_text(seq).encode("utf-8-sig"))
        assert np.max(np.abs(read_sequence_file(path).phases - seq.phases)) <= 1e-12

    def test_bad_index_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n1,0.0,1.0,0.0\n")
        with pytest.raises(SequenceFileError, match="index"):
            read_sequence_file(path)


class TestRunRecord:
    def test_round_trip(self, tmp_path):
        cfg = SolverConfig(n=12, max_iterations=8, seed=3)
        record = run_record_dict("unipol", run(cfg))
        path = tmp_path / "run.json"
        write_run_record(path, record)
        back = read_run_record(path)
        assert back == json.loads(json.dumps(record))
        assert back["algorithm"] == "unipol"
        assert back["N"] == 12
        assert len(back["islTrace"]) == back["maxIterations"] + 1
        assert len(back["timeTraceSeconds"]) == len(back["islTrace"])
        assert len(back["finalPhases"]) == 12

    def test_merit_factor_null_for_n1(self, tmp_path):
        record = run_record_dict("unipol", run(SolverConfig(n=1, max_iterations=2)))
        assert record["meritFactor"] is None

    def test_unipol_trace_non_increasing(self):
        record = run_record_dict("unipol", run(SolverConfig(n=50, max_iterations=30, seed=2)))
        isl = np.asarray(record["islTrace"])
        assert np.all(isl[1:] <= isl[:-1] * (1 + 1e-9) + 1e-9)


class TestDesignCommand:
    def test_writes_record_and_sequence(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main(
            ["design", "--algo", "unipol", "-N", "100", "--iters", "40", "--seed", "7",
             "-o", str(out)]
        )
        assert rc == 0
        record = read_run_record(out)
        assert record["islTrace"][-1] < record["islTrace"][0]
        seq_path = tmp_path / "run.seq.csv"
        assert seq_path.exists()
        seq = read_sequence_file(seq_path)
        assert isl_time(seq) == pytest.approx(record["finalIsl"], rel=1e-9)

    def test_n1_trace_all_zero(self, capsys):
        rc = main(["design", "--algo", "unipol", "-N", "1", "--iters", "5", "--seed", "1"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["islTrace"] == [0.0] * 6

    def test_zero_length_is_usage_error(self, capsys):
        rc = main(["design", "-N", "0", "--iters", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_can_algo(self, tmp_path):
        out = tmp_path / "can.json"
        rc = main(["design", "--algo", "can", "-N", "50", "--iters", "30", "-o", str(out)])
        assert rc == 0
        assert read_run_record(out)["algorithm"] == "can"

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["design", "-N", "10", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_usage_error(self, tmp_path, capsys, tol):
        out = tmp_path / "tol.json"
        rc = main(["design", "-N", "8", "--iters", "3", f"--tol={tol}", "-o", str(out)])
        assert rc == 2
        assert "rel_tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_stop_shortens_trace(self, tmp_path):
        out = tmp_path / "tol.json"
        rc = main(["design", "-N", "30", "--iters", "2000", "--tol", "1e-3", "--seed", "4",
                   "-o", str(out)])
        assert rc == 0
        record = read_run_record(out)
        assert len(record["islTrace"]) < 2001
        assert len(record["timeTraceSeconds"]) == len(record["islTrace"])
        assert record["relTolerance"] == 1e-3


class TestMetricsCommand:
    def test_barker13_report(self, tmp_path, capsys):
        path = tmp_path / "b13.csv"
        write_sequence_file(path, generate("barker", 13))
        rc = main(["metrics", str(path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["N"] == 13
        assert report["isl"] == pytest.approx(6.0, abs=1e-9)
        assert report["psl"] == pytest.approx(1.0, abs=1e-9)
        assert report["meritFactor"] == pytest.approx(169 / 12, rel=1e-9)
        assert report["sidelobeDb"][0] == pytest.approx(0.0, abs=1e-9)

    def test_all_ones_isl(self, tmp_path, capsys):
        path = tmp_path / "ones.csv"
        write_sequence_file(path, np.ones(4, dtype=complex))
        rc = main(["metrics", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["isl"] == pytest.approx(14.0, abs=1e-9)

    def test_human_report(self, tmp_path, capsys):
        path = tmp_path / "b5.csv"
        write_sequence_file(path, generate("barker", 5))
        rc = main(["metrics", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ISL:" in out and "merit factor:" in out

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("index,phase,re,im\n0,0.0,0.9,0.0\n")
        rc = main(["metrics", str(path)])
        assert rc == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
    def test_non_finite_phase_exits_1(self, tmp_path, capsys, phase):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,phase,re,im\n0,0.0,1.0,0.0\n1,{phase},1.0,0.0\n")
        rc = main(["metrics", str(path), "--json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "row 3, column 2" in captured.err

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("index,phase,re,im\n0,0.0,1.0,0.0 \u00e9\n".encode("latin-1"))
        rc = main(["metrics", str(path)])
        assert rc == 1
        assert "UTF-8" in capsys.readouterr().err

    def test_byte_order_mark_file(self, tmp_path, capsys):
        path = tmp_path / "b13.csv"
        path.write_bytes(sequence_file_text(generate("barker", 13)).encode("utf-8-sig"))
        rc = main(["metrics", str(path), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["isl"] == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("row", [f"0,1_0,{math.cos(10)!r},{math.sin(10)!r}", "\uff10,0.0,1.0,0.0"],
                             ids=["underscore_phase", "full_width_index"])
    def test_python_only_spelling_exits_1(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,phase,re,im\n{row}\n", encoding="utf-8")
        rc = main(["metrics", str(path)])
        assert rc == 1
        assert "row 2, column" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        rc = main(["metrics", str(tmp_path / "nope.csv")])
        assert rc == 1


class TestGenerateCommand:
    def test_frank16_file(self, tmp_path):
        out = tmp_path / "frank.csv"
        rc = main(["generate", "--family", "frank", "-N", "16", "-o", str(out)])
        assert rc == 0
        seq = read_sequence_file(out)
        assert len(seq) == 16
        assert np.max(np.abs(np.abs(seq.values) - 1.0)) <= 1e-12

    def test_barker6_usage_error(self, capsys):
        rc = main(["generate", "--family", "barker", "-N", "6"])
        assert rc == 2

    def test_chu100_metrics_round_trip(self, tmp_path, capsys):
        out = tmp_path / "chu.csv"
        assert main(["generate", "--family", "chu", "-N", "100", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meritFactor"] > 3.0

    def test_stdout_table(self, capsys):
        rc = main(["generate", "--family", "golomb", "-N", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,phase,re,im"
        assert len(lines) == 8


class TestBenchCommand:
    def test_row_count_and_content(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            ["bench", "--algos", "unipol", "--lengths", "50,100", "--runs", "3",
             "--iters", "20", "--seed", "11", "-o", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "algo,N,seed,iterations,finalIsl,totalSeconds,perIterSeconds"
        assert len(lines) == 7
        for line in lines[1:]:
            algo, n, seed, iters, final_isl, total_s, per_iter = line.split(",")
            assert algo == "unipol"
            assert int(n) in (50, 100)
            assert float(final_isl) >= 0.0
            init = isl_time(init_random(int(n), int(seed)))
            assert float(final_isl) <= init

    def test_deterministic_apart_from_timing(self, tmp_path):
        args = ["bench", "--algos", "unipol,can", "--lengths", "16", "--runs", "2",
                "--iters", "10", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "-o", str(out1)]) == 0
        assert main([*args, "-o", str(out2)]) == 0
        rows1 = [line.split(",")[:5] for line in out1.read_text().strip().split("\n")]
        rows2 = [line.split(",")[:5] for line in out2.read_text().strip().split("\n")]
        assert rows1 == rows2

    def test_bad_length_usage_error(self, capsys):
        rc = main(["bench", "--lengths", "1,50", "--runs", "2", "--iters", "5"])
        assert rc == 2

    def test_bad_runs_usage_error(self, capsys):
        rc = main(["bench", "--lengths", "50", "--runs", "0", "--iters", "5"])
        assert rc == 2

    @pytest.mark.parametrize("algos", [",", "", " , "])
    def test_empty_algos_usage_error(self, capsys, algos):
        rc = main(["bench", "--algos", algos, "--lengths", "16", "--runs", "1", "--iters", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "empty algorithm list" in captured.err
        assert captured.out == ""

    def test_stdout_csv(self, capsys):
        rc = main(["bench", "--algos", "can", "--lengths", "16,32", "--runs", "1", "--iters", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNIPOL_THREADS", "2")
        out = tmp_path / "t.csv"
        args = ["bench", "--algos", "unipol", "--lengths", "16", "--runs", "4",
                "--iters", "5", "--seed", "0", "-o", str(out)]
        assert main(args) == 0
        threaded = [line.split(",")[:5] for line in out.read_text().strip().split("\n")]
        monkeypatch.setenv("UNIPOL_THREADS", "1")
        assert main(args) == 0
        sequential = [line.split(",")[:5] for line in out.read_text().strip().split("\n")]
        assert threaded == sequential

    @pytest.mark.parametrize("value", ["abc", "2.5", ""])
    def test_malformed_thread_cap_env_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("UNIPOL_THREADS", value)
        rc = main(["bench", "--algos", "can", "--lengths", "16", "--runs", "1", "--iters", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "UNIPOL_THREADS" in captured.err
        assert captured.out == ""
