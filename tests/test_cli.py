import csv
import json
import os

import numpy as np
import pytest

from trapwalk import cli, coins


def run(*argv):
    return cli.main(list(argv))


def test_coin_subcommand_builds_grover(tmp_path, capsys):
    out = tmp_path / "grover.json"
    quarter = repr(np.pi / 4)
    status = run("coin", "--family", "IIa", "--delta1", quarter, "--delta2", quarter,
                 "--delta3", quarter, "--eta", repr(np.pi), "-o", str(out))
    assert status == 0
    coin = coins.read_coin_json(out)
    assert np.max(np.abs(coin - coins.grover_coin())) < 1e-15
    doc = json.loads(out.read_text())
    assert doc["family"] == "TypeIIa"


def test_coin_to_stdout_roundtrip(capsys):
    status = run("coin", "--family", "I", "--delta1", "1.0", "--delta2", "0.5",
                 "--phi-d", "0.25")
    assert status == 0
    text = capsys.readouterr().out
    coin = coins.coin_from_json(text)
    expected = coins.coin_type_i(coins.TypeIParams(1.0, 0.5, phi_d=0.25))
    assert np.array_equal(coin, expected)


def test_degrees_flag():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run("coin", "--family", "I", "--delta1", "60", "--delta2", "45",
                   "--degrees") == 0
    coin = coins.coin_from_json(buf.getvalue())
    expected = coins.coin_type_i(coins.TypeIParams(np.pi / 3, np.pi / 4))
    assert np.max(np.abs(coin - expected)) < 1e-15


def test_classify_and_escape_pipeline(tmp_path):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    cls_path = tmp_path / "cls.json"
    assert run("classify", "-i", str(coin_path), "-o", str(cls_path)) == 0
    doc = json.loads(cls_path.read_text())
    assert doc["family"] == "TypeIIa"
    assert doc["escaping_dim"] == 1
    esc_path = tmp_path / "esc.json"
    assert run("escape", "-i", str(coin_path), "-o", str(esc_path)) == 0
    esc = json.loads(esc_path.read_text())
    assert esc["dimension"] == 1
    vec = np.array([complex(re, im) for re, im in esc["basis"][0]])
    expected = np.array([1, -1, -1, 1]) / 2
    assert abs(abs(np.vdot(expected, vec)) - 1) < 1e-9


def test_classify_deterministic_with_seed(tmp_path):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert run("classify", "-i", str(coin_path), "--seed", "5", "-o", str(path)) == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1]


def test_simulate_writes_artifacts(tmp_path):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outdir = tmp_path / "run"
    status = run("simulate", "-i", str(coin_path),
                 "--initial", "[[0.5,0],[0,0.5],[0,0.5],[0.5,0]]",
                 "--steps", "8", "--snapshots", "4,8", "--outdir", str(outdir))
    assert status == 0
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "dist_t4.csv").exists() and (outdir / "dist_t8.csv").exists()
    with open(outdir / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 10  # header + t = 0..8


def test_region_from_parameters(capsys):
    status = run("region", "--family", "I",
                 "--delta1", repr(np.pi / 3), "--delta2", repr(np.pi / 4))
    assert status == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a1"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert doc["S"] == pytest.approx(np.pi / 6 + np.sqrt(3) * np.pi / 8, abs=1e-12)


def test_region_from_coin_file(tmp_path, capsys):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    assert run("region", "-i", str(coin_path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a1"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert doc["S"] == pytest.approx(np.pi / 2, abs=1e-9)


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spectrum.csv"
    status = run("spectrum", "--family", "I", "--delta1", repr(np.pi / 3),
                 "--delta2", repr(np.pi / 4), "--grid", "8", "-o", str(out))
    assert status == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kx", "ky", "omega", "vx", "vy", "detH"]
    assert len(rows) == 65
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.all(values[:, 2] <= 0) and np.all(values[:, 2] >= -np.pi)


def test_spectrum_from_quasi_1d_coin(tmp_path):
    coin_path = tmp_path / "coin.json"
    params = coins.TypeIIbParams(variant=1, delta=0.7, phi=0.8, alpha=0.2, beta=0.4, gamma=1.0)
    coins.write_coin_json(coin_path, coins.coin_type_iib(params))
    out = tmp_path / "spec.csv"
    assert run("spectrum", "-i", str(coin_path), "--grid", "6", "-o", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    # omega depends only on kx for the variant-1 arrangement
    by_kx = {}
    for row in rows[1:]:
        by_kx.setdefault(row[0], set()).add(row[2])
    assert all(len(s) == 1 for s in by_kx.values())


def _read_spectrum(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r[:2] for r in rows[1:]], np.array([[float(v) for v in r[2:]] for r in rows[1:]])


@pytest.mark.parametrize("params", [
    coins.TypeIIbParams(variant=1, delta=0.7, phi=0.8, alpha=0.2, beta=0.4, gamma=1.0),
    coins.TypeIIbParams(variant=2, delta=0.4, phi=2.1, alpha=2.6, beta=5.0, phi_f=0.3),
])
def test_spectrum_from_quasi_1d_coin_matches_parameters(tmp_path, params):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.coin_type_iib(params))
    from_coin, from_params = tmp_path / "coin.csv", tmp_path / "params.csv"
    assert run("spectrum", "-i", str(coin_path), "--grid", "32", "-o", str(from_coin)) == 0
    assert run("spectrum", "--family", "IIb", "--variant", str(params.variant),
               "--delta", repr(params.delta), "--phi", repr(params.phi),
               "--alpha", repr(params.alpha), "--beta", repr(params.beta),
               "--gamma", repr(params.gamma), "--phi-f", repr(params.phi_f),
               "--grid", "32", "-o", str(from_params)) == 0
    head_c, ks_c, vals_c = _read_spectrum(from_coin)
    head_p, ks_p, vals_p = _read_spectrum(from_params)
    assert head_c == head_p and ks_c == ks_p
    np.testing.assert_array_equal(np.isnan(vals_c), np.isnan(vals_p))
    finite = ~np.isnan(vals_c)
    assert np.max(np.abs(vals_c[finite] - vals_p[finite])) <= 1e-15


def test_areasweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("areasweep", "--n", "10", "-o", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta1", "delta2", "S"]
    assert len(rows) == 1 + 10 * 9  # diagonal entries are excluded
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.all(values[:, 2] >= 0)


def test_figure_fig2_outputs(tmp_path):
    outdir = tmp_path / "fig2"
    assert run("figure", "fig2", "--outdir", str(outdir), "--floor", "1e-9") == 0
    region = json.loads((outdir / "region.json").read_text())
    assert region["a1"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert region["b2"] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert (outdir / "dist_t50.csv").exists()
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "coin.json").exists()


def test_figure_fig6_strip_output(tmp_path):
    outdir = tmp_path / "fig6"
    assert run("figure", "fig6", "--outdir", str(outdir), "--floor", "1e-9") == 0
    with open(outdir / "dist_t50.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ys = [int(r[1]) for r in rows]
    assert max(abs(y) for y in ys) <= 1  # spreading confined to the strip
    region = json.loads((outdir / "region.json").read_text())
    assert region["b1"] == 0.0 and region["S"] == 0.0
    assert region["a1"] == pytest.approx(np.cos(np.pi / 4))


def test_error_json_on_invalid_parameters(capsys):
    status = run("coin", "--family", "I", "--delta1", "0.5", "--delta2", "0.5")
    assert status == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterDomainError"
    assert "delta" in err["message"]


def test_error_json_on_missing_file(capsys):
    status = run("classify", "-i", "/nonexistent/coin.json")
    assert status == 1
    err = json.loads(capsys.readouterr().err)
    assert "message" in err


def _assert_json_error(capsys, status):
    assert status == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    return err


def test_error_json_on_non_pair_matrix_entries(tmp_path, capsys):
    coin_path = tmp_path / "coin.json"
    coin_path.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}))
    _assert_json_error(capsys, run("classify", "-i", str(coin_path)))


def test_error_json_on_short_matrix_entry(tmp_path, capsys):
    doc = json.loads(coins.coin_to_json(coins.grover_coin()))
    doc["matrix"][2][1] = [1]
    coin_path = tmp_path / "coin.json"
    coin_path.write_text(json.dumps(doc))
    _assert_json_error(capsys, run("classify", "-i", str(coin_path)))


@pytest.mark.parametrize("basis", [5, "LDUR"])
def test_error_json_on_non_list_basis(tmp_path, capsys, basis):
    doc = json.loads(coins.coin_to_json(coins.grover_coin()))
    doc["basis"] = basis
    coin_path = tmp_path / "coin.json"
    coin_path.write_text(json.dumps(doc))
    err = _assert_json_error(capsys, run("classify", "-i", str(coin_path)))
    assert err["error"] == "ValueError" and "basis" in err["message"]


def test_error_json_on_non_numeric_initial_state(tmp_path, capsys):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    status = run("simulate", "-i", str(coin_path), "--initial",
                 '[["nan",0],[0,0],[0,0],[0,0]]', "--steps", "2",
                 "--outdir", str(tmp_path / "run"))
    _assert_json_error(capsys, status)


def test_error_json_on_nan_initial_state(tmp_path, capsys):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[NaN,0],[0,0],[0,0],[0,0]]", "--steps", "2",
                 "--outdir", str(tmp_path / "run"))
    _assert_json_error(capsys, status)
    assert not (tmp_path / "run" / "trajectory.csv").exists()


@pytest.mark.parametrize("argv", [
    ("region", "--family", "IIa", "--delta1", "0.3", "--delta2", "0.2", "--delta3", "0.2",
     "--eta", "nan"),
    ("spectrum", "--family", "I", "--delta1", "1.0", "--delta2", "0.5", "--phi-g", "nan",
     "--grid", "4"),
])
def test_error_json_on_non_finite_angle(tmp_path, capsys, argv):
    out = tmp_path / "out"
    err = _assert_json_error(capsys, run(*argv, "-o", str(out)))
    assert err["error"] == "ParameterDomainError"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_error_json_on_non_finite_rank_tol(tmp_path, capsys, tol):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    err = _assert_json_error(capsys, run("classify", "-i", str(coin_path), "--rank-tol", tol))
    # the range check, not a misleading rank-0 classification failure
    assert err["error"] == "ValueError" and "tol" in err["message"]


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_error_json_on_empty_spectrum_grid(tmp_path, capsys, grid):
    out = tmp_path / "spec.csv"
    status = run("spectrum", "--family", "I", "--delta1", "1.0", "--delta2", "0.5",
                 "--grid", grid, "-o", str(out))
    _assert_json_error(capsys, status)
    assert not out.exists()


def test_error_json_on_snapshot_after_last_step(tmp_path, capsys):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", "--steps", "3", "--snapshots", "2,9",
                 "--outdir", str(tmp_path / "run"))
    _assert_json_error(capsys, status)
    assert not (tmp_path / "run" / "trajectory.csv").exists()


def test_failed_distribution_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def broken_writer(path, snapshot, floor=0.0):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,P\n0,0,")
        raise OSError("disk full")

    monkeypatch.setattr(cli._walk, "write_distribution_csv", broken_writer)
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outdir = tmp_path / "run"
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", "--steps", "3", "--outdir", str(outdir))
    err = _assert_json_error(capsys, status)
    assert err == {"error": "OSError", "message": "disk full"}
    assert sorted(os.listdir(outdir)) == ["trajectory.csv"]


def test_outputs_share_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        assert run("figure", "fig2", "--outdir", str(tmp_path)) == 0
    finally:
        os.umask(old)
    modes = {name: os.stat(tmp_path / name).st_mode & 0o777 for name in os.listdir(tmp_path)}
    assert sorted(modes) == ["coin.json", "dist_t50.csv", "region.json", "trajectory.csv"]
    assert set(modes.values()) == {0o644}
