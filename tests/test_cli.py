"""Command-line surface: schemas, exit codes, goldens, round-trips."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import rcreg
from rcreg import cli
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


class TestIdentify:
    def test_identified_exit_zero(self, tmp_path, capsys):
        spec = write(tmp_path / "s.json", '{"supports": [[-1, 0, 1], [0, 1, 2]]}')
        code, out, _ = run_cli(["identify", "--spec", spec], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["identified"] is True
        assert payload["rank"] == payload["full_dim"] == 6
        assert len(payload["witness_points"]) == 6

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


def _random_coefficient_csv(tmp_path, n=800, p=5, seed=1):
    data = rcreg.dgp_sample(rcreg.SimConfig(n=n, p=p, seed=seed), 0)
    rows = np.column_stack([data.Y, data.X[:, 1:]])
    lines = ["y," + ",".join(f"w{k}" for k in range(1, p))]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return write(tmp_path / "d.csv", "\n".join(lines) + "\n")


_ROWS = [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, expected", [
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
], ids=["blank", "whitespace", "crlf", "quoted", "hash", "padded", "underscore",
        "trailing-comma", "empty-field", "nan", "infinity", "hex", "no-final-newline",
        "header-only", "bom", "single-row"])
def test_csv_reader_contract(tmp_path, capsys, body, expected):
    """What ``rcreg fit`` reads from a CSV, and the one stderr line it gives otherwise."""
    path = tmp_path / "d.csv"
    path.write_bytes(body.encode("utf-8"))
    if isinstance(expected, list):
        data = cli._read_dataset_csv(str(path))
        assert np.column_stack([data.Y, data.X[:, 1:]]).tolist() == expected
        return
    line = f"rcreg: {path}: {expected}" if expected else "rcreg: need n >= p, got n=1, p=2"
    assert run_cli(["fit", "--data", str(path), "--lambda", "0"], capsys) == (1, "", line + "\n")


class TestFit:
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

    def test_nonconvergence_exit_one(self, tmp_path, capsys, monkeypatch):
        data, _ = _noiseless_csv(tmp_path, seed=4)
        solve = cli.adaptive_lasso
        monkeypatch.setattr(cli, "adaptive_lasso",
                            lambda Y, X, cfg: solve(Y, X, dataclasses.replace(cfg, max_iter=1)))
        code, out, err = run_cli(["fit", "--data", data, "--lambda", "0"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "did not converge" in err

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

    def test_auto_with_path_forms_one_second_stage_gram(self, tmp_path, capsys, monkeypatch):
        data = _random_coefficient_csv(tmp_path, n=800, p=5)
        shapes = []
        cross = rcreg.estimate._cross

        def counted(Y, X, *use):
            shapes.append(np.shape(X))
            return cross(Y, X, *use)

        monkeypatch.setattr(rcreg.estimate, "_cross", counted)
        code, _, _ = run_cli(
            ["fit", "--data", data, "--auto", "--path-csv", str(tmp_path / "path.csv")], capsys
        )
        assert code == 0 and shapes == [(800, 5), (800, 15)]

    @pytest.mark.parametrize("penalize", [False, True])
    @pytest.mark.parametrize("n, p", [(800, 5), (3000, 6), (20_000, 8), (60_000, 10)])
    def test_gram_form_bic_picks_as_the_direct_rss(self, n, p, penalize):
        for seed in range(1, 6):
            data = rcreg.dgp_sample(rcreg.SimConfig(n=n, p=p, seed=seed), 0)
            stage = rcreg.SecondStage.from_data(data, penalize)
            _, sols, best = cli._fit_path(stage, pick=True)
            bic = [n * np.log(max(np.sum((stage.ysig - stage.xsig @ s.beta) ** 2), 1e-300) / n)
                   + np.log(n) * s.active_set.size for s in sols]
            assert best == int(np.argmin(bic)), (seed, best, int(np.argmin(bic)))

    def test_clean_csv_takes_the_numpy_path(self, tmp_path, monkeypatch):
        data = _random_coefficient_csv(tmp_path, n=50)
        readers = []
        reader = cli.csv.reader
        monkeypatch.setattr(cli.csv, "reader", lambda fh: readers.append(1) or reader(fh))
        parsed = cli._read_dataset_csv(data)
        lines = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines()[1:]
        expected = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert len(readers) == 1
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
        assert rows[0] == "rep,sign_ok,fp,fn"
        assert len(rows) == 6

    def test_sweep_mode(self, tmp_path, capsys):
        cfg = write(tmp_path / "sim.json", SIM_CONFIG % '"n": [400, 500, 600]')
        code, _, _ = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert [s["n"] for s in summary] == [400, 500, 600]
        rows = (tmp_path / "r" / "replications.csv").read_text().splitlines()
        assert rows[0] == "n,rep,sign_ok,fp,fn"
        assert len(rows) == 16

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

    def test_invalid_sigma1_exit_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "sim.json",
            '{"n": 500, "sigma1": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,-1]],'
            ' "replications": 2, "seed": 1, "lambda": 1.0}',
        )
        code, _, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 1
        assert "positive semidefinite" in err

    def test_unknown_field_exit_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "sim.json", '{"n": 500, "bogus": 1}')
        code, _, err = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "r")], capsys)
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("field", [
        '"p": 6.5', '"replications": 2.5', '"grid_size": 2.5', '"seed": 2.5', '"seed": true',
        '"pilot_replications": false', '"solver_tol": 0', '"solver_tol": NaN',
        '"solver_max_iter": 0', '"lambda": -1', '"lambda": Infinity', '"n": 600.7',
        '"lambda": true',
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
