"""Command-line surface: schemas, exit codes, goldens, round-trips."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_estimate import _counting_grams

import rcreg
from rcreg import cli, estimate, simulate
from rcreg.cli import dump_json, main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDumpJson:
    def test_float_digits(self):
        assert dump_json(1 / 3) == "0.33333333333333331"
        assert dump_json(4.0) == "4"
        assert dump_json({"a": [True, None, 2]}) == '{\n  "a": [\n    true,\n    null,\n    2\n  ]\n}'

    def test_numpy_types(self):
        assert dump_json(np.float64(0.5)) == "0.5"
        assert dump_json(np.array([1.0, 2.0])) == "[\n  1,\n  2\n]"
        assert dump_json(np.bool_(True)) == "true"


IDENTIFIED_GOLDEN = (
    '{\n  "identified": true,\n  "rank": 6,\n  "full_dim": 6,\n  "deficient_coordinates": [],\n'
    '  "witness_points": [\n'
    '    [\n      0,\n      0\n    ],\n    [\n      -1,\n      1\n    ],\n'
    '    [\n      -1,\n      0\n    ],\n    [\n      0,\n      1\n    ],\n'
    '    [\n      1,\n      0\n    ],\n    [\n      -1,\n      2\n    ]\n'
    '  ]\n}\n'
)


class TestIdentify:
    def test_identified_exit_zero(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", '{"supports": [[-1, 0, 1], [0, 1, 2]]}')
        code, out, _ = run_cli(["identify", "--spec", spec], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["identified"] is True
        assert payload["rank"] == payload["full_dim"] == 6
        assert len(payload["witness_points"]) == 6
        assert out == IDENTIFIED_GOLDEN

    def test_twenty_binary_coordinates_exit_two(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", json.dumps({"supports": [[0, 1]] * 20}))
        code, out, _ = run_cli(["identify", "--spec", spec], capsys)
        assert code == 2
        payload = json.loads(out)
        assert (payload["rank"], payload["full_dim"]) == (211, 231)
        assert len(payload["witness_points"]) == 211

    def test_binary_coordinate_exit_two(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", '{"supports": [[0, 1], [-1, 0, 1]]}')
        code, out, _ = run_cli(["identify", "--spec", spec], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["identified"] is False
        assert payload["deficient_coordinates"] == [1]

    def test_empty_file_exit_one(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", "")
        code, _, err = run_cli(["identify", "--spec", spec], capsys)
        assert code == 1
        assert "malformed JSON" in err

    def test_bad_coordinate_named(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", '{"supports": [[0, 1, 2], ["x", 1]]}')
        code, _, err = run_cli(["identify", "--spec", spec], capsys)
        assert code == 1
        assert "coordinate 2" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
    def test_bad_tol_exit_one(self, tmp_path, capsys, tol):
        spec = write(tmp_path / "s.json", '{"supports": [[-1, 0, 1], [0, 1, 2]]}')
        code, out, err = run_cli(["identify", "--spec", spec, f"--tol={tol}"], capsys)
        assert (code, out) == (1, "")
        assert "tol must be finite and positive" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
    def test_non_finite_point_named(self, tmp_path, capsys, value):
        spec = write(tmp_path / "s.json", f'{{"supports": [[0, 1, 2], [0, {value}, 2]]}}')
        code, _, err = run_cli(["identify", "--spec", spec], capsys)
        assert code == 1
        assert "coordinate 2 has a non-finite support point" in err

    def test_duplicate_points_named(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", '{"supports": [[1, 1, 2]]}')
        code, _, err = run_cli(["identify", "--spec", spec], capsys)
        assert code == 1
        assert "coordinate 1" in err


class TestBounds:
    def test_interval_case(self, tmp_path, capsys):
        blocks = write(
            tmp_path / "b.json",
            '{"cov_b0_b2": [[1.0]], "cov_b1_b2": [], "var_b0_plus_b1": 1.0}',
        )
        code, out, _ = run_cli(["bounds", "--blocks", blocks], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "INTERVAL"
        assert payload["lower"] == 0.0
        assert payload["upper"] == pytest.approx(4.0, abs=1e-6)

    def test_forced_zero_case(self, tmp_path, capsys):
        blocks = write(
            tmp_path / "b.json",
            '{"cov_b0_b2": [[1.0, 1.0], [1.0, 1.0]], "cov_b1_b2": [0.0],'
            ' "var_b0_plus_b1": 1.0}',
        )
        code, out, _ = run_cli(["bounds", "--blocks", blocks], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"lower": 0, "upper": 0, "classification": "FORCED_ZERO"}

    def test_infeasible_exit_one(self, tmp_path, capsys):
        blocks = write(
            tmp_path / "b.json",
            '{"cov_b0_b2": [[1.0, 0.0], [0.0, 1.0]], "cov_b1_b2": [10.0],'
            ' "var_b0_plus_b1": 1.0}',
        )
        code, _, err = run_cli(["bounds", "--blocks", blocks], capsys)
        assert code == 1
        assert "PSD completion" in err

    def test_non_psd_input_exit_one_with_diagnostic(self, tmp_path, capsys):
        blocks = write(
            tmp_path / "b.json",
            '{"cov_b0_b2": [[1.0, 2.0], [2.0, 1.0]], "cov_b1_b2": [0.0],'
            ' "var_b0_plus_b1": 1.0}',
        )
        code, _, err = run_cli(["bounds", "--blocks", blocks], capsys)
        assert code == 1
        assert "min eigenvalue" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tol_exit_one(self, tmp_path, capsys, tol):
        blocks = write(
            tmp_path / "b.json",
            '{"cov_b0_b2": [[1.0]], "cov_b1_b2": [], "var_b0_plus_b1": 1.0}',
        )
        code, out, err = run_cli(["bounds", "--blocks", blocks, f"--tol={tol}"], capsys)
        assert (code, out) == (1, "")
        assert "tol must be finite and positive" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"cov_b0_b2": [[NaN]], "var_b0_plus_b1": 1.0}', "cov_b0_b2"),
            ('{"cov_b0_b2": [[1.0, 0.0], [0.0, 1.0]], "cov_b1_b2": [Infinity],'
             ' "var_b0_plus_b1": 1.0}', "cov_b1_b2"),
            ('{"cov_b0_b2": [[1.0]], "var_b0_plus_b1": NaN}', "var_b0_plus_b1"),
            ('{"cov_b0_b2": [[1.0]], "var_b0_plus_b1": 1e999}', "var_b0_plus_b1"),
        ],
    )
    def test_non_finite_field_named(self, tmp_path, capsys, text, field):
        code, out, err = run_cli(["bounds", "--blocks", write(tmp_path / "b.json", text)], capsys)
        assert (code, out) == (1, "")
        assert f"rcreg: {field}" in err and "finite" in err
        assert len(err.splitlines()) == 1

    def test_missing_field_exit_one(self, tmp_path, capsys):
        blocks = write(tmp_path / "b.json", '{"cov_b0_b2": [[1.0]]}')
        code, _, err = run_cli(["bounds", "--blocks", blocks], capsys)
        assert code == 1
        assert "var_b0_plus_b1" in err

    @pytest.mark.parametrize("text, field", [
        ('{"cov_b0_b2": [[1.0]], "var_b0_plus_b1": [1.0]}', "var_b0_plus_b1"),
        ('{"cov_b0_b2": [[1.0]], "var_b0_plus_b1": null}', "var_b0_plus_b1"),
        ('{"cov_b0_b2": [[1.0]], "var_b0_plus_b1": "1.0"}', "var_b0_plus_b1"),
        ('{"cov_b0_b2": {"a": 1}, "var_b0_plus_b1": 1.0}', "cov_b0_b2"),
        ('{"cov_b0_b2": [[1.0], [1.0, 2.0]], "var_b0_plus_b1": 1.0}', "cov_b0_b2"),
        ('{"cov_b0_b2": [[1.0, 0.0], [0.0, 1.0]], "cov_b1_b2": [null],'
         ' "var_b0_plus_b1": 1.0}', "cov_b1_b2"),
    ])
    def test_non_numeric_field_named(self, tmp_path, capsys, text, field):
        code, out, err = run_cli(["bounds", "--blocks", write(tmp_path / "b.json", text)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"rcreg: {field} ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


def _noiseless_csv(tmp_path, n=120, seed=0):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1, 1, (n, 2))
    mu = np.array([2.0, -1.0, 0.5])
    Y = mu[0] + W @ mu[1:]
    lines = ["y,w1,w2"] + [f"{y},{w1},{w2}" for y, (w1, w2) in zip(Y, W)]
    return write(tmp_path / "d.csv", "\n".join(lines) + "\n"), mu


def _random_coefficient_csv(tmp_path, n=800, p=5, seed=1, y_scale=1.0):
    data = rcreg.dgp_sample(rcreg.SimConfig(n=n, p=p, seed=seed), 0)
    rows = np.column_stack([y_scale * data.Y, data.X[:, 1:]])
    lines = ["y," + ",".join(f"w{k}" for k in range(1, p))]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return write(tmp_path / "d.csv", "\n".join(lines) + "\n")


_ROWS = [[1.0, 2.0], [3.0, 4.0]]


_CONTRACT = pytest.mark.parametrize("body, expected", [
    ("y,w1\n1,2\n\n3,4\n", _ROWS),
    ("y,w1\n1,2\n   \n3,4\n", "row at line 3 has 1 fields, expected 2"),
    ("y,w1\r\n1,2\r\n3,4\r\n", _ROWS),
    ('y,w1\n"1",2\n3,4\n', _ROWS),
    ("y,w1\n1,2\n#3,4\n", "malformed numeric value at line 3"),
    ("y,w1\n 1 , 2 \n3,4\n", _ROWS),
    ("y,w1\n1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
    ("y,w1\n1,2,\n3,4\n", "row at line 2 has 3 fields, expected 2"),
    ("y,w1\n1,2\n3,\n", "malformed numeric value at line 3"),
    ("y,w1\n1,2\nnan,4\n", "non-finite value at line 3"),
    ("y,w1\n1,2\n3,Infinity\n", "non-finite value at line 3"),
    ("y,w1\n0x1p3,2\n3,4\n", "malformed numeric value at line 2"),
    ("y,w1\n1,2\n3,4", _ROWS),
    ("y,w1\n", "no data rows"),
    ("\ufeffy,w1\n1,2\n3,4\n", f"header must be 'y,w1,...,w{{p-1}}', got {chr(0xFEFF) + 'y,w1'!r}"),
    ("y,w1\n1,2\n", None),
    ("y,w1\r1,2\r3,4\r", _ROWS),
    ('"y\n",w1\n1,2\n3,4\n', _ROWS),
], ids=["blank", "whitespace", "crlf", "quoted", "hash", "padded", "underscore",
        "trailing-comma", "empty-field", "nan", "infinity", "hex", "no-final-newline",
        "header-only", "bom", "single-row", "cr", "quoted-newline-in-header"])


@pytest.mark.filterwarnings("error")
@_CONTRACT
def test_csv_reader_contract(tmp_path, capsys, body, expected):
    """What ``rcreg fit`` reads from a CSV, and the one stderr line it gives otherwise."""
    path = tmp_path / "d.csv"
    path.write_bytes(body.encode("utf-8"))
    _read_as_contracted(path, capsys, expected)


def _read_as_contracted(path, capsys, expected):
    if isinstance(expected, list):
        data = cli._read_dataset_csv(str(path))
        assert np.column_stack([data.Y, data.X[:, 1:]]).tolist() == expected
        return
    line = f"rcreg: {path}: {expected}" if expected else "rcreg: need n >= p, got n=1, p=2"
    assert run_cli(["fit", "--data", str(path), "--lambda", "0"], capsys) == (1, "", line + "\n")


@pytest.mark.filterwarnings("error")
@_CONTRACT
def test_csv_reader_contract_in_byte_ranges(tmp_path, capsys, monkeypatch, body, expected):
    """The same contract when two pool workers parse ranges cut a few bytes apart."""
    monkeypatch.setattr(cli, "_RANGE_BYTES", 3)
    monkeypatch.setenv("RCREG_THREADS", "2")
    test_csv_reader_contract(tmp_path, capsys, body, expected)


@pytest.mark.filterwarnings("error")
@_CONTRACT
def test_csv_reader_contract_through_a_fifo(tmp_path, capsys, body, expected):
    """The same contract, messages and line numbers included, for a pipe: it cannot be
    read twice."""
    path = tmp_path / "d.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(body.encode("utf-8"),), daemon=True)
    writer.start()
    _read_as_contracted(path, capsys, expected)
    writer.join(timeout=10)
    assert not writer.is_alive()


def _parse_in_ranges(monkeypatch, path, ranges):
    """``_read_dataset_csv(path)`` on two workers, with ``_RANGE_BYTES`` set so that the
    body after the header line is cut into ``ranges`` ranges."""
    raw = Path(path).read_bytes()
    with monkeypatch.context() as m:
        m.setattr(cli, "_RANGE_BYTES", (len(raw) - raw.index(b"\n") - 1) // ranges)
        m.setenv("RCREG_THREADS", "2")
        return cli._read_dataset_csv(path)


class TestByteRanges:
    def test_ranges_parse_bit_identical_to_one(self, tmp_path, monkeypatch):
        path = _random_coefficient_csv(tmp_path, n=300, p=5)
        jobs, readers = [], []
        run, reader = cli._run_jobs, cli.csv.reader
        monkeypatch.setattr(cli, "_run_jobs", lambda fn, js: jobs.append(js) or run(fn, js))
        monkeypatch.setattr(cli.csv, "reader", lambda fh: readers.append(1) or reader(fh))
        one = _parse_in_ranges(monkeypatch, path, 1)
        split = _parse_in_ranges(monkeypatch, path, 3)
        assert len(readers) == 2  # each parse read its header, and no line-numbered scan ran
        (whole,), ranges = jobs
        assert len(ranges) == 3 and ranges[0][1] == whole[1] and ranges[-1][2] == whole[2]
        assert all(a[2] == b[1] for a, b in zip(ranges, ranges[1:]))
        for ours, theirs in [(split.X, one.X), (split.Y, one.Y)]:
            assert ours.tobytes() == theirs.tobytes()

    def test_fit_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys, monkeypatch):
        data = _random_coefficient_csv(tmp_path, n=600, p=5)
        monkeypatch.setattr(cli, "_RANGE_BYTES", 1024)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("RCREG_THREADS", threads)
            fit, path = tmp_path / f"fit{threads}.json", tmp_path / f"path{threads}.csv"
            code, _, err = run_cli(["fit", "--data", data, "--auto", "--path-csv", str(path),
                                    "--out", str(fit)], capsys)
            assert (code, err) == (0, "")
            outputs.append((fit.read_bytes(), path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_fifo_is_read_whole(self, tmp_path):
        regular = _random_coefficient_csv(tmp_path, n=200, p=5)
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(Path(regular).read_bytes(),),
                                  daemon=True)
        writer.start()
        try:
            piped = cli._read_dataset_csv(str(fifo))
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        expected = cli._read_dataset_csv(regular)
        assert np.array_equal(piped.X, expected.X) and np.array_equal(piped.Y, expected.Y)

    def test_small_csv_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a CSV of one range must be parsed in this process")

        monkeypatch.delenv("RCREG_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        assert cli._read_dataset_csv(_random_coefficient_csv(tmp_path, n=2000, p=5)).n == 2000

    def test_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parse_range", _die)
        monkeypatch.setattr(cli, "_RANGE_BYTES", 64)
        monkeypatch.setenv("RCREG_THREADS", "2")
        data = _random_coefficient_csv(tmp_path, n=50)
        code, out, err = run_cli(["fit", "--data", data, "--lambda", "1"], capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "RCREG_THREADS=1" in err


def _die(*args):
    os._exit(3)


class TestFit:
    @pytest.mark.parametrize("columns,stage_cols,reason", [
        (lambda w, k: [w, k % 2], 6, "w2 takes 2 distinct values"),
        (lambda w, k: [w, 0.0 * k + 3.0], 3, "w2 takes 1 distinct value"),
        (lambda w, k: [k % 2, w, 0.0 * k], 4,
         "w1 takes 2 distinct values, w3 takes 1 distinct value"),
        (lambda w, k: [w, k % 3 - 1.0, 2.0 * (k % 3) - 2.0], 4, None),
        (lambda w, k: [w, np.array([0.0, 1e-12, 1.0])[k.astype(int) % 3]], 6, None),
    ], ids=["binary", "constant", "binary-and-constant", "collinear-three-level",
            "three-levels-two-close"])
    def test_singular_design_names_a_covariate_with_too_few_levels(self, tmp_path, capsys,
                                                                  columns, stage_cols, reason):
        """A covariate with fewer than three levels leaves the variances unidentified, and
        the error says so; collinear three-level covariates keep the bare message."""
        rng = np.random.default_rng(6)
        k = np.arange(2000.0)
        W = np.column_stack(columns(rng.uniform(-1.0, 1.0, k.size), k))
        Y = 1.0 + W.sum(axis=1) + rng.normal(size=k.size)
        head = "y," + ",".join(f"w{j}" for j in range(1, W.shape[1] + 1))
        lines = [head] + [",".join(map(repr, row)) for row in np.column_stack([Y, W]).tolist()]
        code, out, err = run_cli(["fit", "--data", write(tmp_path / "d.csv", "\n".join(lines)),
                                  "--auto"], capsys)
        singular = f"rcreg: design with shape (2000, {stage_cols}) is numerically singular"
        assert code == 1 and out == ""
        assert err == (f"{singular}\n" if reason is None else f"{singular}: {reason}; a covariate "
                       "needs 3 for its variance to be identified; see rcreg bounds\n")

    def test_noiseless_recovers_means(self, tmp_path, capsys):
        data, mu = _noiseless_csv(tmp_path)
        code, out, _ = run_cli(["fit", "--data", data, "--lambda", "0.001"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert np.asarray(payload["mu_hat"]) == pytest.approx(mu, abs=1e-8)
        assert payload["lambda_used"] == 0.001
        assert payload["psd"] is True

    def test_auto_dispatch(self, tmp_path, capsys):
        data, _ = _noiseless_csv(tmp_path, seed=1)
        code, out, _ = run_cli(["fit", "--data", data, "--auto"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_used"] >= 0.0

    def test_lambda_and_auto_conflict(self, tmp_path, capsys):
        data, _ = _noiseless_csv(tmp_path, seed=2)
        code, _, err = run_cli(
            ["fit", "--data", data, "--lambda", "1.0", "--auto"], capsys
        )
        assert code == 1
        assert "mutually exclusive" in err

    def test_lambda_and_auto_conflict_reported_before_the_data_are_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run_cli(["fit", "--data", missing, "--lambda", "1.0", "--auto"], capsys)
        assert code == 1
        assert "mutually exclusive" in err and "No such file" not in err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "y,w1\n1.0,2.0\n3.0,oops\n")
        code, _, err = run_cli(["fit", "--data", data, "--lambda", "0"], capsys)
        assert code == 1
        assert "line 3" in err

    def test_short_row_names_line(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "y,w1,w2\n1.0,2.0,1.0\n3.0,1.0\n")
        code, _, err = run_cli(["fit", "--data", data, "--lambda", "0"], capsys)
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        rows = [f"{1.0 + k},{0.1 * k - 0.5},{0.3 - 0.05 * k}" for k in range(12)]
        rows[5] = f"2.0,{bad},0.1"
        data = write(tmp_path / "d.csv", "y,w1,w2\n" + "\n".join(rows) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "rcreg", "fit", "--data", data, "--lambda", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"rcreg: {data}: non-finite value at line 7"]

    @staticmethod
    def _overflowing_csv(tmp_path, scaled):
        """A finite CSV whose covariate w2, response, or residual spread (as 1 + w1^2) is huge;
        ``walk`` spreads the residuals so far that the path's first breakpoint overflows."""
        rng = np.random.default_rng(7)
        spread = {"residual": 1e76, "walk": 3e77}.get(scaled)
        y, w1, w2 = rng.normal(size=(3000 if spread else 50, 3)).T
        if spread:
            y = 1.0 + 2.0 * w1 + 3.0 * w2 + spread * y * (1.0 + w1 * w1)
        columns = (1e160 * y if scaled == "y" else y, w1, 1e160 * w2 if scaled == "w2" else w2)
        rows = [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
        return write(tmp_path / "d.csv", "y,w1,w2\n" + "\n".join(rows) + "\n")

    def test_overflowing_cross_products_one_line(self, tmp_path):
        """A Gram (w2), the squared residuals (y), the BIC's sum of their squares (residual)
        or the walk's first breakpoint (walk) overflow: one error line, no numpy warning."""
        for scaled, level in [("w2", ["--lambda", "0"]), ("y", ["--lambda", "0"]),
                              ("residual", ["--auto"]), ("walk", ["--auto"]),
                              ("walk", ["--lambda", "1"])]:
            data = self._overflowing_csv(tmp_path, scaled)
            proc = subprocess.run(
                [sys.executable, "-m", "rcreg", "fit", "--data", data, *level],
                capture_output=True, text=True,
            )
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr.splitlines() == [
                "rcreg: the data are finite, but their cross products overflow; rescale the "
                "covariates"
            ]

    def test_a_level_fits_where_the_auto_bic_overflows(self, tmp_path):
        data = self._overflowing_csv(tmp_path, "residual")
        proc = subprocess.run(
            [sys.executable, "-m", "rcreg", "fit", "--data", data, "--lambda", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["lambda_used"] == 1

    def test_nonconvergence_exit_one(self, tmp_path, capsys, monkeypatch):
        data, _ = _noiseless_csv(tmp_path, seed=4)
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 1)
        code, out, err = run_cli(["fit", "--data", data, "--lambda", "0"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "did not converge" in err

    def test_response_in_other_units_converges(self, tmp_path, capsys):
        data = _random_coefficient_csv(tmp_path, n=5000, p=6, seed=1, y_scale=1e3)
        code, out, err = run_cli(["fit", "--data", data, "--lambda", "3.5"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["lambda_used"] == 3.5

    def test_non_finite_lambda_exit_one(self, tmp_path):
        data, _ = _noiseless_csv(tmp_path, seed=5)
        proc = subprocess.run(
            [sys.executable, "-m", "rcreg", "fit", "--data", data, "--lambda", "inf"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == ["rcreg: lambda must be finite and nonnegative, got inf"]

    @pytest.mark.parametrize("flag", [[], ["--penalize-intercept-variance"]])
    def test_auto_fit_is_a_path_row(self, tmp_path, capsys, flag):
        data = _random_coefficient_csv(tmp_path)
        path_csv = tmp_path / "path.csv"
        code, out, _ = run_cli(
            ["fit", "--data", data, "--auto", "--path-csv", str(path_csv)] + flag, capsys
        )
        assert code == 0
        payload = json.loads(out)
        rows = path_csv.read_text().splitlines()[1:]
        picked = [r.split(",") for r in rows if float(r.split(",")[0]) == payload["lambda_used"]]
        assert len(picked) == 1
        assert picked[0][3:] == [cli._format_float(v) for v in payload["sigma_hat"]]
        if flag:
            assert all(float(v) == 0.0 for v in rows[0].split(",")[3:])

    def test_auto_with_path_builds_the_second_stage_once(self, tmp_path, capsys, monkeypatch):
        data = _random_coefficient_csv(tmp_path)
        calls = []
        transform = rcreg.estimate.v_transform_rows

        def counted(X):
            calls.append(X.shape)
            return transform(X)

        monkeypatch.setattr(rcreg.estimate, "v_transform_rows", counted)
        code, _, _ = run_cli(
            ["fit", "--data", data, "--auto", "--path-csv", str(tmp_path / "path.csv")], capsys
        )
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("mode, path_csv", [(["--auto"], True), (["--lambda", "3.5"], False),
                                                (["--lambda", "3.5"], True)],
                             ids=["auto-path", "lambda", "lambda-path"])
    def test_fit_forms_one_second_stage_gram(self, tmp_path, capsys, monkeypatch, mode, path_csv):
        data = _random_coefficient_csv(tmp_path, n=800, p=5)
        shapes = _counting_grams(monkeypatch)
        extra = ["--path-csv", str(tmp_path / "path.csv")] if path_csv else []
        code, _, _ = run_cli(["fit", "--data", data] + mode + extra, capsys)
        assert code == 0 and shapes == [(5, 5), (15, 15)]  # one form per stage

    @pytest.mark.parametrize("penalize", [False, True])
    @pytest.mark.parametrize("n, p", [(800, 5), (3000, 6), (20_000, 8), (60_000, 10)])
    def test_gram_form_bic_picks_as_the_direct_rss(self, n, p, penalize):
        for seed in range(1, 6):
            data = rcreg.dgp_sample(rcreg.SimConfig(n=n, p=p, seed=seed), 0)
            stage = rcreg.SecondStage.from_data(data, penalize)
            _, sols, best = cli._fit_path(stage, pick=True)
            xsig = rcreg.build_second_stage(data, stage.mu_hat).xsig
            bic = [n * np.log(max(np.sum((stage.ysig - xsig @ s.beta) ** 2), 1e-300) / n)
                   + np.log(n) * s.active_set.size for s in sols]
            assert best == int(np.argmin(bic)), (seed, best, int(np.argmin(bic)))

    def test_clean_csv_takes_the_numpy_path(self, tmp_path, monkeypatch):
        """For LF, CRLF and bare-CR line ends alike, ``csv`` reads only the header."""
        data = _random_coefficient_csv(tmp_path, n=50)
        lines = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines()
        expected = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        reader = cli.csv.reader
        for end in ["\n", "\r\n", "\r"]:
            (tmp_path / "d.csv").write_bytes(end.join(lines + [""]).encode("utf-8"))
            readers = []
            monkeypatch.setattr(cli.csv, "reader", lambda fh: readers.append(1) or reader(fh))
            parsed = cli._read_dataset_csv(data)
            assert len(readers) == 1, repr(end)
            assert np.array_equal(np.column_stack([parsed.Y, parsed.X[:, 1:]]), expected)

    def test_bad_header_rejected(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "resp,w1\n1.0,2.0\n")
        code, _, err = run_cli(["fit", "--data", data, "--lambda", "0"], capsys)
        assert code == 1
        assert "header" in err

    def test_path_csv_written(self, tmp_path, capsys):
        data, _ = _noiseless_csv(tmp_path, seed=3)
        path_csv = tmp_path / "path.csv"
        code, _, _ = run_cli(
            ["fit", "--data", data, "--lambda", "0.01", "--path-csv", str(path_csv)],
            capsys,
        )
        assert code == 0
        lines = path_csv.read_text().splitlines()
        assert lines[0].startswith("lambda,n_active,kkt_residual,beta_0")
        assert len(lines) == 51


SIM_CONFIG = """{
  "p": 5,
  "covariate_law": "uniform_interval",
  "lambda": 20.0,
  "replications": 5,
  "seed": 7,
  %s
}"""


class TestSimulate:
    def test_golden_stability(self, tmp_path, capsys):
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": 600')
        code1, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r1")], capsys)
        code2, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r2")], capsys)
        assert code1 == code2 == 0
        for name in ("summary.json", "replications.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b
        rows = (tmp_path / "r1" / "replications.csv").read_text().splitlines()
        assert rows[0] == "rep,sign_ok,fp,fn,block_psd"
        assert len(rows) == 6

    def test_sweep_mode(self, tmp_path, capsys):
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": [400, 500, 600]')
        code, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert [s["n"] for s in summary] == [400, 500, 600]
        rows = (tmp_path / "r" / "replications.csv").read_text().splitlines()
        assert rows[0] == "n,rep,sign_ok,fp,fn,block_psd"
        assert len(rows) == 16

    def test_psd_among_recoveries_is_criterion_6s_share(self, tmp_path, capsys):
        """``psd_among_recoveries`` and the ``block_psd`` column read each study's
        replications as criterion 6 does, and no recovery reads null."""
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": [400, 600, 2000]')
        code, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        rows = [line.split(",") for line in
                (tmp_path / "r" / "replications.csv").read_text().splitlines()[1:]]
        shares = []
        for s in summary:
            report = simulate.monte_carlo(simulate.SimConfig(
                n=s["n"], p=5, lam=20.0, replications=5, seed=7))
            ok = [r for r in report.per_rep if r.sign_ok]
            shares.append(sum(r.block_psd for r in ok) / len(ok) if ok else None)
            assert [int(r[-1]) for r in rows if r[0] == str(s["n"])] == [
                int(r.block_psd) for r in report.per_rep]
        assert [s["psd_among_recoveries"] for s in summary] == shares
        assert shares[0] is None and 0.0 < max(shares[1:]) < 1.0

    def test_seed_and_replications_override(self, tmp_path, capsys):
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": 500')
        code, _, _ = run_cli(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "r"),
             "--seed", "9", "--replications", "3"],
            capsys,
        )
        assert code == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["seed"] == 9 and summary["replications"] == 3

    @pytest.mark.parametrize("field, flag", [
        ('"n": 500, "replications": 1e15', []),
        ('"n": 500, "pilot_replications": 1e15', []),
        ('"n": 500', ["--replications", str(10**15)]),
    ])
    def test_replication_count_beyond_bound_exit_one(self, tmp_path, capsys, monkeypatch,
                                                     field, flag):
        def study_started(cfg):
            raise AssertionError("the study started")

        monkeypatch.setattr(cli, "monte_carlo", study_started)
        cfg = write(tmp_path / "sim.json", SIM_CONFIG.replace('"replications": 5,', "") % field)
        start = time.perf_counter()
        code, out, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r"),
                                  *flag], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "") and f"at most {simulate.MAX_REPLICATIONS}" in err
        assert not (tmp_path / "r").exists()

    def test_invalid_sigma1_exit_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "sim.json",
            '{"n": 500, "sigma1": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,-1]],'
            ' "replications": 2, "seed": 1, "lambda": 1.0}',
        )
        code, _, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 1
        assert "positive semidefinite" in err

    def test_out_of_memory_exit_one(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(simulate, "dgp_sample", no_memory)
        monkeypatch.setenv("RCREG_THREADS", "1")
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": 500')
        code, out, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 1 and out == ""
        assert err == "rcreg: the input needs more memory than is available\n"

    def test_empty_n_exit_one_before_writing(self, tmp_path, capsys):
        for field, named in [('"n": []', "'n'"), ('"n": [3000, 0]', "n, ")]:
            cfg = write(tmp_path / "sim.json", SIM_CONFIG % field)
            code, out, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")],
                                     capsys)
            assert (code, out) == (1, "")
            assert err.startswith("rcreg: ") and err.count("\n") == 1 and named in err
            assert not (tmp_path / "r").exists()

    def test_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "run_replication", _die)
        monkeypatch.setenv("RCREG_THREADS", "2")
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": 500')
        code, out, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "RCREG_THREADS=1" in err

    def test_unknown_field_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "sim.json", '{"n": 500, "bogus": 1}')
        code, _, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("field", [
        '"p": 6.5', '"replications": 2.5', '"grid_size": 2.5', '"seed": 2.5', '"seed": true',
        '"pilot_replications": false', '"solver_tol": 0', '"solver_tol": NaN', '"grid_size": 50',
        '"solver_max_iter": 0', '"lambda": -1', '"lambda": Infinity', '"n": 600.7',
        '"lambda": true', '"b4": true', '"b4": null', '"b4": Infinity', '"b4": "x"',
        '"b4": [1, 2]', '"mu1": [1, 2, 3, NaN]', '"mu1": [true, 2, 3, 4]', '"mu1": {"a": 1}',
        pytest.param('"mu1": [1, 2, 3, %s]' % ("9" * 400), id="mu1-int-beyond-float"),
        '"sigma1": "x"',
        '"sigma1": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Infinity]]',
        '"sigma1": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, false]]',
        pytest.param('"b4": %s' % ("9" * 400), id="b4-int-beyond-float"),
    ])
    def test_bad_field_exit_one(self, tmp_path, field):
        raw = {"n": 500, "lambda": 1.0, **json.loads("{%s}" % field)}
        cfg = write(tmp_path / "sim.json", json.dumps(raw))
        proc = subprocess.run(
            [sys.executable, "-m", "rcreg", "simulate", "--config", cfg,
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        if '"b4"' in field:
            assert "b4 must be a finite real" in proc.stderr
        for retired in ("grid_size", "solver_tol", "solver_max_iter"):
            if f'"{retired}"' in field:
                assert f"unknown fields ['{retired}']" in proc.stderr
        for name in ("mu1", "sigma1"):
            if f'"{name}"' in field:
                assert f"{name} entries must be finite reals" in proc.stderr


class TestRoundTrip:
    def test_identify_json_reparses(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", '{"supports": [[0, 1], [0, 1, 2]]}')
        _, out, _ = run_cli(["identify", "--spec", spec], capsys)
        payload = json.loads(out)
        assert set(payload) == {
            "identified", "rank", "full_dim", "deficient_coordinates", "witness_points",
        }
        assert isinstance(payload["identified"], bool)
        assert all(isinstance(w, list) for w in payload["witness_points"])

    def test_fit_json_reparses(self, tmp_path, capsys):
        data, _ = _noiseless_csv(tmp_path, seed=4)
        _, out, _ = run_cli(["fit", "--data", data, "--lambda", "0.5"], capsys)
        payload = json.loads(out)
        p = len(payload["mu_hat"])
        assert len(payload["sigma_hat"]) == p * (p + 1) // 2
        assert np.asarray(payload["Sigma_hat"]).shape == (p, p)
        assert all(isinstance(k, int) for k in payload["active_set"])

    def test_usage_error_exit_one(self, capsys):
        assert run_cli(["identify"], capsys)[0] == 1
        assert run_cli(["bogus-subcommand"], capsys)[0] == 1


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text('{"supports": [[-1, 0, 1]]}')
        proc = subprocess.run(
            [sys.executable, "-m", "rcreg", "identify", "--spec", str(spec)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["identified"] is True
