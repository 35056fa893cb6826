import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mlpgp.cli import build_parser, main
from mlpgp.kernels import arccos_reference


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_kernel_curve_zero_mean_matches_reference(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["kernel-curve", "--depth", "3", "--mu", "0", "--sigma2", "2",
               "--n-theta", "9", "--seed", "1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["theta0", "kernel"]
    assert len(rows) == 9
    for theta_s, val_s in rows:
        want = arccos_reference(float(theta_s), 0.0, 3)
        assert abs(float(val_s) - want) < 1e-10


def test_kernel_curve_empirical_column(tmp_path):
    out = tmp_path / "curve.csv"
    main(["kernel-curve", "--depth", "1", "--mu", "0", "--sigma2", "2",
          "--n-theta", "5", "--empirical-width", "2000", "--seed", "0",
          "--out", str(out)])
    header, rows = _read_csv(out)
    assert header == ["theta0", "kernel", "kernel_empirical"]
    for _, theory_s, emp_s in rows:
        assert abs(float(theory_s) - float(emp_s)) < 0.1


def test_fit_mle_and_constrained(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["fit", "--dataset", "sine", "--estimator", "mle",
               "--depth", "2", "--grid=-2.5:1.0:0.1:8.0:25",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["estimator"] == "mle"
    assert report["test_mse"] < 1.0
    assert "hyperparameters" in report
    header, rows = _read_csv(tmp_path / "report.csv")
    assert header == ["x1", "y_true", "pred_mean", "pred_var"]
    assert len(rows) == 100

    out0 = tmp_path / "report0.json"
    main(["fit", "--dataset", "sine", "--estimator", "mle-mu0",
          "--depth", "2", "--grid=-2.5:1.0:0.1:8.0:25",
          "--seed", "1", "--out", str(out0)])
    report0 = json.loads(out0.read_text())
    # constrained estimate sits on the mu-row nearest zero
    step = 3.5 / 24
    assert abs(report0["hyperparameters"]["mu"]) <= step / 2 + 1e-12
    assert report0["hyperparameters"]["objective"] <= \
        report["hyperparameters"]["objective"]


def test_fit_marginal(tmp_path):
    out = tmp_path / "marg.json"
    rc = main(["fit", "--dataset", "sine", "--estimator", "marginal",
               "--depth", "2", "--grid=-2.5:1.0:0.1:8.0:20",
               "--mh-samples", "20", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["chain"]["n_samples"] == 20
    assert 0 <= report["chain"]["neg_inf_proposals"] <= 20 + 20 * 20
    assert 0.0 <= report["chain"]["acceptance_rate"] <= 1.0
    assert np.isfinite(report["test_mse"])


def test_fit_unknown_estimator_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["fit", "--dataset", "sine", "--estimator", "bogus",
              "--out", str(tmp_path / "x.json")])
    assert err.value.code != 0


def test_grid_outputs(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["grid", "--dataset", "sine", "--depth", "2",
               "--grid=-2.0:1.0:0.2:6.0:12", "--target", "log-ml",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header[0] == "mu/sigma2"
    assert len(header) == 1 + 12
    assert len(rows) == 12
    meta = json.loads((tmp_path / "grid.json").read_text())
    assert meta["argmax"]["value"] >= meta["argmax_mu0"]["value"]
    assert meta["resolution"] == 12
    assert "jitter_events" in meta and "failed_cells" in meta
    assert meta["vanished_cells"] == 0


def test_grid_names_why_cells_failed(tmp_path, capsys):
    # both -inf cells of this grid (mu = -2.5 and -2.316 at sigma^2 = 0.1)
    # are vanished signals, and the JSON and the warning say so
    out = tmp_path / "grid.csv"
    rc = main(["grid", "--dataset", "sine", "--depth", "8",
               "--grid=-2.5:1.0:0.1:8.0:20", "--seed", "0", "--out", str(out)])
    assert rc == 0
    meta = json.loads((tmp_path / "grid.json").read_text())
    assert meta["failed_cells"] == meta["vanished_cells"] == 2
    assert "warning: 2 grid cells are -inf (2 signal vanished, 0 not " \
           "factorisable or non-finite)" in capsys.readouterr().err


def test_failed_run_is_a_one_line_error(tmp_path, capsys):
    # every cell of this grid vanishes, so grid_eval raises FactorizationError;
    # main reports it on one line with exit 1, not as a traceback
    rc = main(["grid", "--dataset", "sine", "--depth", "16",
               "--grid=-2.5:-2.4:0.001:0.002:2", "--seed", "0",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "mlpgp grid: error: every grid cell is -inf (4 signal " \
                  "vanished, 0 not factorisable or non-finite)\n"


def test_mh_chain_output(tmp_path):
    out = tmp_path / "chain.csv"
    rc = main(["mh", "--dataset", "sine", "--depth", "2",
               "--grid=-2.0:1.0:0.2:6.0:10", "--mh-samples", "15",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["mu", "sigma2", "log_density"]
    assert len(rows) == 15
    assert all(float(r[1]) > 0 for r in rows)


def test_mmd_curve_output(tmp_path):
    out = tmp_path / "mmd.csv"
    rc = main(["mmd", "--scheme", "f1", "--depth", "3",
               "--widths", "8,32", "--mmd-samples", "100",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["width", "mmd2", "null_low", "null_high"]
    assert [int(r[0]) for r in rows] == [8, 32]
    for row in rows:
        assert float(row[2]) <= float(row[3])


def test_prior_draws_output(tmp_path):
    out = tmp_path / "draws.csv"
    rc = main(["prior-draws", "--dim", "5", "--depth", "4", "--mu", "-0.5",
               "--sigma2", "2.0", "--n-points", "16", "--n-draws", "3",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "draw_1", "draw_2", "draw_3"]
    assert len(rows) == 16
    assert float(rows[0][0]) == 0.0


def test_prior_draws_depth_one_uses_hyperparameters(tmp_path):
    # depth 1 is a single linear layer with (--mu, --sigma2); at mu = 0 its
    # draws scale with sqrt(sigma2)
    cols = {}
    for s2 in ("1", "4"):
        out = tmp_path / f"draws{s2}.csv"
        main(["prior-draws", "--dim", "3", "--depth", "1", "--mu", "0",
              "--sigma2", s2, "--n-points", "12", "--n-draws", "2",
              "--seed", "1", "--out", str(out)])
        _, rows = _read_csv(out)
        cols[s2] = np.array(rows, dtype=float)[:, 1:]
    assert np.allclose(cols["4"], 2.0 * cols["1"], rtol=1e-12, atol=0)
    assert np.any(cols["1"] != 0.0)


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["mh", "--dataset", "sine", "--depth", "2",
            "--grid=-2.0:1.0:0.2:6.0:8", "--mh-samples", "10",
            "--seed", "11"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["mh", "--dataset", "sine", "--depth", "2",
          "--grid=-2.0:1.0:0.2:6.0:8", "--mh-samples", "10",
          "--seed", "12", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_flag_validation(tmp_path):
    with pytest.raises(SystemExit):
        main(["grid", "--dataset", "sine", "--grid=bad:spec",
              "--out", str(tmp_path / "g.csv")])
    with pytest.raises(SystemExit):
        main(["mmd", "--scheme", "nope", "--out", str(tmp_path / "m.csv")])
    with pytest.raises(SystemExit):
        main(["fit", "--dataset", "mystery", "--estimator", "mle",
              "--out", str(tmp_path / "f.json")])


@pytest.mark.parametrize("argv", [
    # fit, grid and mh take (mu, sigma2) from the grid and the chain
    ["grid", "--dataset", "sine", "--mu", "1"],
    ["fit", "--dataset", "sine", "--estimator", "mle", "--sigma2", "3"],
    ["mh", "--dataset", "sine", "--mu", "1", "--mh-samples", "2"],
    # the MMD experiment needs a hidden layer
    ["mmd", "--scheme", "f1", "--depth", "1", "--widths", "4",
     "--mmd-samples", "10"],
    # out-of-range values are rejected when the flags are parsed
    ["prior-draws", "--n-draws", "0"],
    ["prior-draws", "--n-points", "0"],
    ["prior-draws", "--dim", "1"],
    ["mmd", "--scheme", "f1", "--widths", "64,8", "--mmd-samples", "10"],
    ["mmd", "--scheme", "f2", "--widths", "8", "--mmd-samples", "1"],
    ["mmd", "--scheme", "f2", "--widths", "8", "--mmd-samples", "10",
     "--probes", "0"],
    ["fit", "--dataset", "sine", "--estimator", "mle", "--slope", "1.5"],
    ["mh", "--dataset", "sine", "--thin", "0", "--mh-samples", "2"],
    ["grid", "--dataset", "sine", "--noise-var", "-1"],
    ["kernel-curve", "--empirical-width", "-3", "--n-theta", "2"],
    ["kernel-curve", "--n-theta", "0"],
    ["prior-draws", "--sigma2", "nan"],
    ["kernel-curve", "--mu", "inf"],
])
def test_usage_errors_exit_two(tmp_path, argv):
    grid = ["--grid=-1.0:0.0:1.0:2.0:2"] \
        if argv[0] in ("fit", "grid", "mh") else []
    with pytest.raises(SystemExit) as err:
        main(argv + grid + ["--out", str(tmp_path / "out.csv")])
    assert err.value.code == 2


REASONS = [
    (["grid", "--dataset", "sine", "--grid=0:-1:1:2:3"],
     "mu_range must be increasing"),
    (["grid", "--dataset", "sine", "--grid=0:nan:1:2:3"],
     "grid range ends must be finite"),
    (["grid", "--dataset", "sine", "--grid=-1:0:1:inf:3"],
     "grid range ends must be finite"),
    (["fit", "--dataset", "sine", "--estimator", "mle", "--slope=1.5"],
     "argument --slope: must be in (-1, 1), got 1.5"),
    (["grid", "--dataset", "sine", "--noise-var=nan"],
     "argument --noise-var: must be >= 0 and finite, got nan"),
    (["kernel-curve", "--mu=-inf"], "argument --mu: must be finite, got -inf"),
    (["prior-draws", "--sigma2=0"],
     "argument --sigma2: must be positive and finite, got 0.0"),
    (["mmd", "--scheme", "f1", "--depth=1"],
     "argument --depth: must be >= 2, got 1"),
]


@pytest.mark.parametrize("argv, reason", REASONS,
                         ids=[f"{a[-1]}-{reason}" for a, reason in REASONS])
def test_grid_usage_errors_name_reason(tmp_path, capsys, argv, reason):
    # every flag is checked where it is parsed, and the message says why
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert err.value.code == 2
    assert reason in capsys.readouterr().err


def test_readme_commands_parse():
    # every `mlpgp ...` line of README's bash blocks, continuations joined;
    # flags are checked at parse time, so parsing checks the documented values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "".join(re.findall(r"```bash\n(.*?)```", readme, re.S))
    commands = [shlex.split(line, comments=True)[1:]
                for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("mlpgp ")]
    assert {argv[0] for argv in commands} == {
        "kernel-curve", "grid", "fit", "mh", "mmd", "prior-draws"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_snelson_dataset_via_cli(tmp_path):
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0, 6, 200))
    y = np.sin(x) + 0.1 * rng.standard_normal(200)
    data_path = tmp_path / "snelson.txt"
    with open(data_path, "w") as fh:
        for xi, yi in zip(x, y):
            fh.write(f"{xi} {yi}\n")
    out = tmp_path / "snelson_fit.json"
    rc = main(["fit", "--dataset", f"snelson:{data_path}", "--estimator",
               "mle", "--depth", "2", "--grid=-1.0:1.0:0.2:6.0:15",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert np.isfinite(report["test_mse"])


@pytest.mark.parametrize("text", [None, "1.0 2.0\n3.0\n", "nan 1.0\n"],
                         ids=["missing", "one-column", "non-finite"])
def test_bad_snelson_file_is_a_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "snelson.txt"
    if text is not None:
        path.write_text(text)
    rc = main(["fit", "--dataset", f"snelson:{path}", "--estimator", "map",
               "--out", str(tmp_path / "fit.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("mlpgp fit: error: ") and str(path) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "fit.json").exists()
