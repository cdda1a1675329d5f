"""File-format and command-line tests."""

import json
import math

import numpy as np
import pytest

from unipol import bench as bench_mod
from unipol import cli
from unipol import io as io_mod
from unipol.baselines import can_run, generate
from unipol.bench import run_bench
from unipol.cli import main
from unipol.io import (
    SequenceFileError,
    read_run_record,
    read_sequence_file,
    run_record_dict,
    run_record_text,
    sequence_file_text,
    write_run_record,
    write_sequence_file,
)
from unipol.metrics import UnimodularSequence, isl_time, merit_factor, psl
from unipol.solver import SolverConfig, init_random, run


class TestSequenceFile:
    def test_round_trip_within_1e12(self, tmp_path):
        path = tmp_path / "seq.csv"
        seq = init_random(37, 5)
        write_sequence_file(path, seq)
        back = read_sequence_file(path)
        assert np.max(np.abs(back.phases - seq.phases)) <= 1e-12
        # the writer emits phases in [0, 2*pi); the reader takes any finite phase
        # whose re/im match it
        theta = [7.0, -1.0]
        path.write_text("index,phase,re,im\n" + "".join(
            f"{i},{t!r},{math.cos(t)!r},{math.sin(t)!r}\n" for i, t in enumerate(theta)))
        assert np.max(np.abs(read_sequence_file(path).values - np.exp(1j * np.array(theta)))) <= 1e-12

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


BLOCK = io_mod._BLOCK


def per_row_text(seq):
    """The sequence table rendered one row at a time: the reference for the block writer."""
    rows = ["index,phase,re,im"]
    rows += [f"{i},{t:.17g},{math.cos(t):.17g},{math.sin(t):.17g}" for i, t in enumerate(seq.phases)]
    return "\n".join(rows) + "\n"


def table_rows(n):
    """Data rows of a valid n-row table; row number i + 2 is rows[i]."""
    return sequence_file_text(init_random(n, 11)).split("\n")[1:-1]


def row_by_row_phases(rows):
    """The data rows checked and parsed one at a time: the reference for the block reader."""
    phases = []
    for rownum, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise SequenceFileError(f"row {rownum}: expected 4 columns, got {len(parts)}")
        for colnum, text in enumerate(parts, start=1):
            if "_" in text or not text.isascii():
                raise SequenceFileError(f"row {rownum}, column {colnum}: not an ASCII decimal: {text!r}")
        try:
            idx = int(parts[0])
        except ValueError:
            raise SequenceFileError(f"row {rownum}, column 1: bad index {parts[0]!r}") from None
        values = []
        for colnum, text in enumerate(parts[1:], start=2):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise SequenceFileError(f"row {rownum}, column {colnum}: not a finite number: {text!r}")
            values.append(value)
        theta, re, im = values
        if idx != rownum - 2:
            raise SequenceFileError(f"row {rownum}, column 1: index {idx}, expected {rownum - 2}")
        if abs(re - math.cos(theta)) > 1e-12 or abs(im - math.sin(theta)) > 1e-12:
            raise SequenceFileError(f"row {rownum}: re/im inconsistent with phase {theta!r}")
        phases.append(theta)
    return phases


def read_rows(tmp_path, rows):
    path = tmp_path / "seq.csv"
    path.write_text("index,phase,re,im\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return read_sequence_file(path)


class TestBlockWrite:
    def test_barker5_golden_text(self):
        assert sequence_file_text(generate("barker", 5)) == (
            "index,phase,re,im\n"
            "0,0,1,0\n"
            "1,0,1,0\n"
            "2,0,1,0\n"
            "3,3.1415926535897931,-1,1.2246467991473532e-16\n"
            "4,0,1,0\n"
        )

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_equals_per_row_rendering(self, n):
        seq = init_random(n, n)
        assert sequence_file_text(seq) == per_row_text(seq)

    def test_record_file_is_one_json_document(self, tmp_path):
        record = run_record_dict("unipol", run(SolverConfig(n=100, max_iterations=6, seed=4)))
        path = tmp_path / "run.json"
        write_run_record(path, record)
        assert path.read_text(encoding="utf-8") == json.dumps(record, indent=2) + "\n"

    def test_design_stdout_is_the_record_text(self, capsys):
        assert main(["design", "-N", "70", "--iters", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out == run_record_text(json.loads(out))

    def test_record_text_rejects_non_finite(self):
        with pytest.raises(ValueError):
            run_record_text({"finalIsl": math.nan})


class TestBlockReadErrors:
    """Every message names the file's first bad row, wherever the blocks fall."""

    ROW = BLOCK + 7  # 0-based data row in the second block; its row number is ROW + 2
    # spellings that int() reads as the row's own index, so only the ASCII rule rejects them
    FULL_WIDTH = "".join(chr(ord(c) + 0xFEE0) for c in str(ROW))
    UNDERSCORE = f"{ROW // 10}_{ROW % 10}"

    @pytest.mark.parametrize("cell, column, message", [
        (None, None, "expected 4 columns, got 3"),
        (FULL_WIDTH, 1, f"not an ASCII decimal: {FULL_WIDTH!r}"),
        (UNDERSCORE, 1, f"not an ASCII decimal: {UNDERSCORE!r}"),
        ("1_0", 3, "not an ASCII decimal: '1_0'"),
        ("x", 1, "bad index 'x'"),
        ("7", 1, f"index 7, expected {ROW}"),
        ("zero", 2, "not a finite number: 'zero'"),
        ("inf", 2, "not a finite number: 'inf'"),
        ("nan", 3, "not a finite number: 'nan'"),
        ("1e400", 4, "not a finite number: '1e400'"),
        ("0.5", 3, None),
    ], ids=["columns", "full_width", "underscore_index", "underscore", "bad_index", "index_order",
            "non_numeric", "inf_phase", "nan", "overflow", "re_im"])
    def test_row_past_the_first_block(self, tmp_path, cell, column, message):
        rows = table_rows(2 * BLOCK + 3)
        cells = rows[self.ROW].split(",")
        theta = cells[1]
        if column is None:
            cells = cells[:3]
        else:
            cells[column - 1] = cell
        rows[self.ROW] = ",".join(cells)
        rownum = self.ROW + 2
        if message is None:
            expected = f"row {rownum}: re/im inconsistent with phase {float(theta)!r}"
        elif column is None:
            expected = f"row {rownum}: {message}"
        else:
            expected = f"row {rownum}, column {column}: {message}"
        with pytest.raises(SequenceFileError) as err:
            read_rows(tmp_path, rows)
        assert str(err.value) == expected

    @pytest.mark.parametrize("offset, accepted", [(5e-13, True), (5e-12, False)])
    def test_re_im_tolerance(self, tmp_path, offset, accepted):
        rows = table_rows(2 * BLOCK + 3)
        index, theta, re, im = rows[self.ROW].split(",")
        rows[self.ROW] = f"{index},{theta},{float(re) + offset!r},{im}"
        if accepted:
            assert len(read_rows(tmp_path, rows)) == 2 * BLOCK + 3
        else:
            with pytest.raises(SequenceFileError, match=f"^row {self.ROW + 2}: re/im inconsistent"):
                read_rows(tmp_path, rows)

    def test_row_boundary_moved(self, tmp_path):
        # the cells, read in order, are a valid table; only the comma count per row rejects it
        rows = table_rows(2 * BLOCK + 3)
        index, rest = rows[self.ROW + 1].split(",", 1)
        rows[self.ROW] += "," + index
        rows[self.ROW + 1] = rest
        with pytest.raises(SequenceFileError, match=f"^row {self.ROW + 2}: expected 4 columns, got 5$"):
            read_rows(tmp_path, rows)

    @pytest.mark.parametrize("first, second", [
        (BLOCK - 1, BLOCK), (3, 2 * BLOCK + 1), (BLOCK + 2, BLOCK + 3),
    ], ids=["across_an_edge", "far_blocks", "same_block"])
    def test_earlier_bad_row_wins(self, tmp_path, first, second):
        # the later row breaks a rule checked earlier within a row: the row order still decides
        rows = table_rows(2 * BLOCK + 3)
        rows[first] = f"{first},0,0.5,0"
        rows[second] = "a,b"
        with pytest.raises(SequenceFileError, match=f"^row {first + 2}: re/im inconsistent"):
            read_rows(tmp_path, rows)

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_the_row_by_row_reader(self, tmp_path, seed):
        # random cell edits across the blocks: same message, or same phases, as one row at a time
        rng = np.random.default_rng(seed)
        rows = table_rows(2 * BLOCK + 3)
        # two blank-padded cells, which int() and float() accept, then seed % 4 bad cells
        bad = ["", "1_0", "\uff11", "x", "nan", "-inf", "1e999", "0.5", "1e-400", "0,0", "7"]
        for j in range(2 + seed % 4):
            i, k = int(rng.integers(len(rows))), int(rng.integers(4))
            cells = rows[i].split(",")
            cells[k] = f" {cells[k]} " if j < 2 else bad[int(rng.integers(len(bad)))]
            rows[i] = ",".join(cells)
        path = tmp_path / "seq.csv"
        path.write_text("index,phase,re,im\n" + "\n".join(rows) + "\n", encoding="utf-8")
        try:
            expected = UnimodularSequence.from_phases(row_by_row_phases(rows))
        except SequenceFileError as exc:
            with pytest.raises(SequenceFileError) as err:
                read_sequence_file(path)
            assert str(err.value) == str(exc)
        else:
            assert read_sequence_file(path).values.tobytes() == expected.values.tobytes()

    def test_blank_and_padded_rows_keep_their_numbers(self, tmp_path):
        # blank lines are skipped, surrounding whitespace stripped, as row by row
        rows = table_rows(BLOCK + 5)
        rows[BLOCK + 1] = "  " + rows[BLOCK + 1] + "\t"
        rows.insert(4, "")
        seq = read_rows(tmp_path, rows)
        assert len(seq) == BLOCK + 5

    def test_form_feed_inside_a_row_is_not_a_line_break(self, tmp_path):
        # a file iterates by "\n" only; float() strips the \f from its cell
        rows = table_rows(3)
        cells = rows[1].split(",")
        rows[1] = ",".join([cells[0], cells[1] + "\f", *cells[2:]])
        assert len(read_rows(tmp_path, rows)) == 3


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

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=np.int64(8)), dict(n=8, max_iterations=np.int32(2)),
         dict(n=8, rel_tolerance=np.float32(0)), dict(n=8, seed=np.int64(1))],
    )
    def test_numpy_scalar_config_writes_json(self, tmp_path, kwargs):
        cfg = SolverConfig(**{"max_iterations": 2, **kwargs})
        path = tmp_path / "run.json"
        write_run_record(path, run_record_dict("unipol", run(cfg)))
        back = read_run_record(path)
        assert (back["N"], back["maxIterations"], back["relTolerance"], back["seed"]) == (
            cfg.n, cfg.max_iterations, cfg.rel_tolerance, cfg.seed
        )

    @pytest.mark.parametrize("algo, runner", [("unipol", run), ("can", can_run)])
    def test_psl_and_merit_factor_of_the_final_sequence(self, algo, runner):
        trace = runner(SolverConfig(n=100, max_iterations=4, seed=6))
        record = run_record_dict(algo, trace)
        assert record["finalPsl"] == psl(trace.final_sequence.values)
        assert record["meritFactor"] == merit_factor(trace.final_sequence.values)

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

    @pytest.mark.parametrize("accel", ["squarem", "none"])
    def test_accel_recorded_and_matches_library_run(self, tmp_path, accel):
        out = tmp_path / "run.json"
        rc = main(["design", "-N", "20", "--iters", "9", "--seed", "2", "--accel", accel,
                   "-o", str(out)])
        assert rc == 0
        record = read_run_record(out)
        assert record["accel"] == accel
        expected = run(SolverConfig(n=20, max_iterations=9, seed=2, accel=accel))
        assert record["islTrace"] == expected.isl_per_iteration.tolist()

    def test_can_record_says_plain(self, tmp_path):
        out = tmp_path / "can.json"
        assert main(["design", "--algo", "can", "-N", "20", "--iters", "5", "-o", str(out)]) == 0
        assert read_run_record(out)["accel"] == "none"

    def test_unknown_accel_exits_2(self, tmp_path):
        out = tmp_path / "run.json"
        with pytest.raises(SystemExit) as exc:
            main(["design", "-N", "10", "--accel", "bogus", "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("output", ["", ".", "/"])
    def test_output_without_file_name_usage_error(self, monkeypatch, capsys, output):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *args: calls.append(args))
        rc = main(["design", "-N", "8", "--iters", "3", "-o", output])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []

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
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["table", "json"])
    def test_one_forward_transform_per_file(self, tmp_path, capsys, monkeypatch, flags):
        # N = 100 takes the FFT route; every figure reads the file's one cached spectrum
        path = tmp_path / "chu.csv"
        write_sequence_file(path, generate("chu", 100))
        calls = []
        fft = np.fft.fft

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        assert main(["metrics", str(path), *flags]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("runs", [2.5, 2.0, "2", None])
    def test_non_integer_runs_value_error(self, runs):
        with pytest.raises(ValueError, match="runs must be an integer"):
            run_bench(["unipol"], [16], runs=runs, iters=2)

    @pytest.mark.parametrize(
        "lengths, message",
        [(["16"], "length must be an integer"), ([16.0], "length must be an integer"),
         ([16, 1], "length must be >= 2"), ([], "empty length list")],
    )
    def test_bad_lengths_value_error(self, lengths, message):
        with pytest.raises(ValueError, match=message):
            run_bench(["can"], lengths, runs=1, iters=1)

    @pytest.mark.parametrize("lengths", [",", " , "])
    def test_empty_lengths_usage_error(self, capsys, lengths):
        rc = main(["bench", "--algos", "can", "--lengths", lengths, "--runs", "1", "--iters", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "empty length list" in captured.err
        assert captured.out == ""

    def test_narrow_numpy_base_seed(self):
        rows = run_bench(["can"], [8], runs=8, iters=1, base_seed=np.uint8(250))
        assert [row.seed for row in rows] == list(range(250, 258))

    def test_numpy_integer_runs(self):
        rows = run_bench(["unipol"], [16], runs=np.int64(2), iters=2)
        assert [row.seed for row in rows] == [0, 1]

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

    @pytest.mark.parametrize("value", ["abc", "2.5", "", "-1"])
    def test_malformed_thread_cap_env_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("UNIPOL_THREADS", value)
        rc = main(["bench", "--algos", "can", "--lengths", "16", "--runs", "1", "--iters", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "UNIPOL_THREADS" in captured.err
        assert captured.out == ""


class TestOutputPathsCheckedFirst:
    """Every output path is checked before any solve or bench starts, and nothing is written."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the output paths were checked")

        for name in ("run", "can_run"):
            monkeypatch.setattr(cli, name, fail)
        monkeypatch.setattr(cli.bench_mod, "run_bench", fail)

    def _design(self, *flags):
        return main(["design", "-N", "8", "--iters", "3", *flags])

    @pytest.mark.parametrize("seq_out", ["", "/", "sub/"])
    def test_seq_out_without_file_name(self, tmp_path, capsys, seq_out):
        out = tmp_path / "r.json"
        assert self._design("-o", str(out), "--seq-out", seq_out) == 2
        assert "no file name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_record_with_seq_out(self, tmp_path, capsys):
        assert self._design("-o", "", "--seq-out", str(tmp_path / "x.csv")) == 2
        assert list(tmp_path.iterdir()) == []

    def test_record_in_missing_directory(self, tmp_path, capsys):
        assert self._design("-o", str(tmp_path / "missing" / "r.json")) == 1
        assert "no such directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seq_out_in_missing_directory_without_record(self, tmp_path, capsys):
        assert self._design("--seq-out", str(tmp_path / "missing" / "x.csv")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no such directory" in captured.err

    def test_seq_out_names_a_directory(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert self._design("-o", str(out), "--seq-out", str(tmp_path)) == 1
        assert "is a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_output_in_missing_directory(self, tmp_path, capsys):
        rc = main(["bench", "--algos", "can", "--lengths", "16", "--runs", "1", "--iters", "2",
                   "-o", str(tmp_path / "missing" / "b.csv")])
        assert rc == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("seq_out", ["same.json", "./same.json", "sub/../same.json"])
    def test_outputs_naming_the_same_file(self, tmp_path, monkeypatch, capsys, seq_out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert self._design("-o", "same.json", "--seq-out", seq_out) == 2
        assert "same file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_seq_out_linked_to_the_record(self, tmp_path, capsys):
        (tmp_path / "link.csv").symlink_to(tmp_path / "r.json")
        out = tmp_path / "r.json"
        assert self._design("-o", str(out), "--seq-out", str(tmp_path / "link.csv")) == 2
        assert "same file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["record first", "sequence first"])
    def test_seq_out_hard_linked_to_the_record(self, tmp_path, capsys, order):
        out, seq = tmp_path / "r.json", tmp_path / "h.csv"
        first, second = (out, seq) if order == "record first" else (seq, out)
        first.write_text("keep\n")
        second.hardlink_to(first)
        assert self._design("-o", str(out), "--seq-out", str(seq)) == 2
        assert "same file" in capsys.readouterr().err
        assert out.read_text() == seq.read_text() == "keep\n"

    def _generate(self, monkeypatch, output):
        def fail(*args, **kwargs):
            raise AssertionError("generate ran before the output path was checked")

        monkeypatch.setattr(cli, "generate", fail)
        return main(["generate", "--family", "chu", "-N", "8", "-o", output])

    @pytest.mark.parametrize("output", ["", ".", "dir/"])
    def test_generate_output_without_file_name(self, tmp_path, monkeypatch, capsys, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        assert self._generate(monkeypatch, output) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no file name" in captured.err
        assert list((tmp_path / "dir").iterdir()) == []
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]

    def test_generate_output_in_missing_directory(self, tmp_path, monkeypatch, capsys):
        assert self._generate(monkeypatch, str(tmp_path / "missing" / "g.csv")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no such directory" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestErrorBranches:
    def test_unknown_bench_algorithm(self, capsys):
        rc = main(["bench", "--algos", "foo", "--lengths", "16", "--runs", "1", "--iters", "2"])
        assert rc == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_bad_length_list(self, capsys):
        rc = main(["bench", "--lengths", "1,x", "--runs", "1", "--iters", "2"])
        assert rc == 2
        assert "bad length list" in capsys.readouterr().err

    def test_header_only_sequence_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("index,phase,re,im\n")
        assert main(["metrics", str(path)]) == 1
        assert "row 2: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("kwargs", [{"iters": 0}, {"iters": 2.5}, {"tol": -1.0},
                                        {"tol": math.nan}, {"base_seed": -1}])
    def test_run_bench_rejects_config_before_any_trial(self, monkeypatch, kwargs):
        calls = []
        monkeypatch.setattr(bench_mod, "_one_trial", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            run_bench(["unipol"], [8], runs=2, **{"iters": 2, **kwargs})
        assert calls == []
