import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from trapwalk import _text, classify, cli, coins, spectral

from conftest import DRAWERS, draw_type_i, draw_type_iia, draw_type_iib, perturbed


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


def test_consecutive_calls_do_not_share_options(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    out = tmp_path / "coin.json"
    assert run("coin", "--family", "I", "--delta1", "60", "--delta2", "45", "--degrees",
               "--phi-d", "30", "-o", str(out)) == 0
    assert capsys.readouterr().out == ""
    # no --degrees, --phi-d or -o this time: radians, phi_d = 0, stdout
    assert run("coin", "--family", "I", "--delta1", "1.0", "--delta2", "0.5") == 0
    coin = coins.coin_from_json(capsys.readouterr().out)
    assert np.array_equal(coin, coins.coin_type_i(coins.TypeIParams(1.0, 0.5)))
    expected = coins.coin_type_i(coins.TypeIParams(np.pi / 3, np.pi / 4, phi_d=np.pi / 6))
    assert np.max(np.abs(coins.read_coin_json(out) - expected)) < 1e-15


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


@pytest.mark.parametrize("family", ["Grover", *DRAWERS])
def test_classify_and_escape_json_decode_bit_for_bit(tmp_path, family):
    rng = np.random.default_rng(29)
    coin = coins.grover_coin() if family == "Grover" else coins.coin_for(DRAWERS[family](rng))
    coin_path, cls_path, esc_path = (tmp_path / name for name in ("c.json", "cls.json", "e.json"))
    coins.write_coin_json(coin_path, coin)
    assert run("classify", "-i", str(coin_path), "-o", str(cls_path)) == 0
    assert run("escape", "-i", str(coin_path), "-o", str(esc_path)) == 0
    pairs = json.loads(cls_path.read_text())["eigenphases"]
    phases = coins.complex_from_pairs(pairs, len(pairs), "eigenphases")
    expected = [lam for lam, mult in classify.classify_coin(coin).eigenphases
                for _ in range(mult)]
    assert phases.tobytes() == np.array(expected, dtype=np.complex128).tobytes()
    esc = json.loads(esc_path.read_text())
    basis = np.array([coins.complex_from_pairs(column, 4, "basis vector")
                      for column in esc["basis"]]).T.reshape(4, esc["dimension"])
    assert basis.tobytes() == classify.escaping_subspace(coin).tobytes()


def test_classify_deterministic_with_seed(tmp_path):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert run("classify", "-i", str(coin_path), "-o", str(path)) == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1]
    # the closed form samples nothing, so there is no seed to pass
    with pytest.raises(SystemExit):
        run("classify", "-i", str(coin_path), "--seed", "5")


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


def test_dispersion_of_a_coin_without_params(tmp_path, capsys):
    # a Type I draw perturbed by 5e-10 traps, but its recovered parameters
    # miss it by more than 1e-9; its dispersion is read off the coin
    rng = np.random.default_rng(3)
    params = draw_type_i(rng)
    coin = perturbed(coins.coin_for(params), 5e-10, rng)
    result = classify.classify_coin(coin)
    assert result.family == "TypeI" and result.params is None
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coin)
    assert run("spectrum", "-i", str(coin_path), "--grid", "4") == 0
    assert run("region", "-i", str(coin_path)) == 0
    capsys.readouterr()
    spec, reference = cli._dispersion_from_coin(coin), spectral.dispersion_spec(params)
    assert spec.kind == reference.kind
    assert max(abs(spec.rho_x - reference.rho_x), abs(spec.rho_y - reference.rho_y)) < 1e-8


def test_region_of_a_coin_just_past_the_amplitude_budget(tmp_path, capsys):
    # Grover perturbed by 1e-9 still traps, but its diagonal reads
    # rho_x + rho_y = 1 + 1e-10; the region is Grover's, on the boundary
    coin = perturbed(coins.grover_coin(), 1e-9, np.random.default_rng(0))
    assert classify.classify_coin(coin).family == "TypeIIa"
    assert abs(coin[3, 3]) + abs(coin[2, 2]) > 1.0 + 1e-11
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coin)
    assert run("region", "-i", str(coin_path)) == 0
    assert json.loads(capsys.readouterr().out)["S"] == pytest.approx(np.pi / 2, abs=1e-8)


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


def reference_spectrum_text(coin, n):
    """The spectrum CSV as it was written row by row, kept as reference."""
    spec = cli._dispersion_from_coin(coin)
    ks = -np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    kx, ky = (k.ravel() for k in np.meshgrid(ks, ks, indexing="ij"))
    columns = (kx, ky, spectral.omega(spec, kx, ky), *spectral.group_velocity(spec, kx, ky),
               spectral.hessian_det(spec, kx, ky))
    lines = ["kx,ky,omega,vx,vy,detH"]
    lines.extend(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
    return "\n".join(lines) + "\n"


_SPECTRUM_RNG = np.random.default_rng(12)
SPECTRUM_COINS = {
    "grover": coins.grover_coin(),
    "fig2": coins.coin_for(coins.TypeIParams(np.pi / 3, np.pi / 4)),
    "phased-I": coins.coin_for(draw_type_i(_SPECTRUM_RNG)),
    "IIa": coins.coin_for(draw_type_iia(_SPECTRUM_RNG)),
    "IIb": coins.coin_for(draw_type_iib(_SPECTRUM_RNG)),
}


def _stdout_text(*argv) -> str:
    """What ``run`` writes to a ``sys.stdout`` that is a plain ``io.StringIO``."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(*argv) == 0
    return out.getvalue()


# grid 128 (the benchmark's size) spans more than one block of formatted rows, and
# blocks of 7 values split grid 7 into 7 blocks of one row
SPECTRUM_CASES = [(name, grid, None) for name in sorted(SPECTRUM_COINS)
                  for grid in (1, 2, 7, 64)] + [("phased-I", 128, None), ("fig2", 7, 7)]


@pytest.mark.parametrize("name, grid, block", SPECTRUM_CASES, ids=[
    f"{name}-{grid}" + (f"-blocks-of-{block}" if block else "")
    for name, grid, block in SPECTRUM_CASES])
def test_spectrum_matches_row_by_row_text(tmp_path, capsys, monkeypatch, name, grid, block):
    if block:
        monkeypatch.setattr(_text, "_BLOCK_VALUES", block)
    coin = SPECTRUM_COINS[name]
    coin_path, out = tmp_path / "coin.json", tmp_path / "spectrum.csv"
    coins.write_coin_json(coin_path, coin)
    expected = reference_spectrum_text(coin, grid).encode()
    assert run("spectrum", "-i", str(coin_path), "--grid", str(grid), "-o", str(out)) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert run("spectrum", "-i", str(coin_path), "--grid", str(grid)) == 0
    assert capsys.readouterr().out.encode() == expected
    assert _stdout_text("spectrum", "-i", str(coin_path), "--grid", str(grid)).encode() == expected


# blocks of 7 values put each row of n = 7 in a block of its own, so the
# off-diagonal mask is cut across blocks
@pytest.mark.parametrize("n, block", [(2, None), (7, None), (7, 7)],
                         ids=["2", "7", "7-blocks-of-7"])
def test_areasweep_matches_row_by_row_text(tmp_path, capsys, monkeypatch, n, block):
    if block:
        monkeypatch.setattr(_text, "_BLOCK_VALUES", block)
    grid, table = spectral.area_sweep(n)
    lines = ["delta1,delta2,S"]
    for i, d1 in enumerate(grid):
        for j, d2 in enumerate(grid):
            if i != j:
                lines.append(f"{float(d1)!r},{float(d2)!r},{float(table[i, j])!r}")
    expected = ("\n".join(lines) + "\n").encode()
    out = tmp_path / "sweep.csv"
    assert run("areasweep", "--n", str(n), "-o", str(out)) == 0
    assert out.read_bytes() == expected
    assert run("areasweep", "--n", str(n)) == 0
    assert capsys.readouterr().out.encode() == expected
    assert _stdout_text("areasweep", "--n", str(n)).encode() == expected


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


def test_error_json_on_coin_without_matrix(tmp_path, capsys):
    coin_path = tmp_path / "coin.json"
    coin_path.write_text(json.dumps({"basis": ["L", "D", "U", "R"]}))
    err = _assert_json_error(capsys, run("classify", "-i", str(coin_path)))
    assert err == {"error": "ValueError",
                   "message": "coin JSON must be an object with a 'matrix' field"}


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


def test_classify_has_no_rank_tol_option(tmp_path, capsys):
    # RANK_TOL is the one rank threshold; argparse rejects the retired option
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    with pytest.raises(SystemExit) as exc:
        run("classify", "-i", str(coin_path), "--rank-tol", "1e-8")
    assert exc.value.code == 2
    assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err


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


@pytest.mark.parametrize("bad", [("--steps", "0"), ("--steps", "-1"),
                                 ("--steps", "3", "--snapshots", "9"),
                                 ("--steps", "3", "--snapshots", "1,,2"),
                                 ("--steps", "3", "--snapshots", "1.5"),
                                 ("--steps", "3", "--snapshots", "x")])
def test_rejected_simulation_creates_no_outdir(tmp_path, capsys, bad):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outdir = tmp_path / "run"
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", *bad, "--outdir", str(outdir))
    err = _assert_json_error(capsys, status)
    assert err["error"] == "ValueError"
    if not bad[-1].lstrip("-").isdigit():   # no list of integers: the option is named
        assert err["message"] == f"--snapshots must be comma-separated integers, got {bad[-1]!r}"
    assert not outdir.exists()


def test_empty_outdir_fails_before_the_walk(tmp_path, capsys, monkeypatch):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    monkeypatch.setattr(cli._walk, "simulate", lambda *args, **kwargs: pytest.fail("walked"))
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", "--steps", "3", "--outdir", "")
    err = _assert_json_error(capsys, status)
    assert err == {"error": "ValueError", "message": "--outdir must name a directory, got ''"}


@pytest.mark.parametrize("below", [(), ("run",), ("run", "t")])
def test_simulation_into_a_file_fails_before_the_walk(tmp_path, capsys, monkeypatch, below):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    monkeypatch.setattr(cli._walk, "simulate", lambda *args, **kwargs: pytest.fail("walked"))
    outdir = str(coin_path.joinpath(*below))   # the file, or a path under it
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", "--steps", "3", "--outdir", outdir)
    err = _assert_json_error(capsys, status)
    assert err["error"] == "NotADirectoryError" and repr(outdir) in err["message"]


def test_error_json_on_a_walk_too_large_to_hold(tmp_path, capsys):
    # the buffers of 10^8 steps (~568 PiB) cannot be granted, not even lazily
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outdir = tmp_path / "run"
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", "--steps", "100000000", "--outdir", str(outdir))
    err = _assert_json_error(capsys, status)
    assert err["error"] == "MemoryError"
    assert not outdir.exists()


@pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
def test_error_json_on_bad_floor_simulate(tmp_path, capsys, floor):
    coin_path = tmp_path / "coin.json"
    coins.write_coin_json(coin_path, coins.grover_coin())
    outdir = tmp_path / "run"
    status = run("simulate", "-i", str(coin_path), "--initial",
                 "[[1,0],[0,0],[0,0],[0,0]]", "--steps", "3", "--floor", floor,
                 "--outdir", str(outdir))
    err = _assert_json_error(capsys, status)
    assert err["error"] == "ValueError" and "floor" in err["message"]
    assert not outdir.exists()


@pytest.mark.parametrize("outdir", ["", "taken"])
def test_figure_into_an_empty_or_file_outdir_creates_nothing(tmp_path, capsys, monkeypatch,
                                                             outdir):
    # simulate's outdir check, run before coin.json is written: "" is not the
    # preset name's default, and a file is not a directory
    monkeypatch.chdir(tmp_path)
    if outdir:
        (tmp_path / outdir).write_text("kept\n")
    err = _assert_json_error(capsys, run("figure", "fig6", "--outdir", outdir))
    if outdir:
        assert err["error"] == "NotADirectoryError" and repr(outdir) in err["message"]
        assert (tmp_path / outdir).read_text() == "kept\n"
    else:
        assert err == {"error": "ValueError", "message": "--outdir must name a directory, got ''"}
    assert sorted(os.listdir(tmp_path)) == ([outdir] if outdir else [])


@pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
def test_error_json_on_bad_floor_figure(tmp_path, capsys, floor):
    outdir = tmp_path / "fig2"
    err = _assert_json_error(capsys, run("figure", "fig2", "--outdir", str(outdir),
                                         "--floor", floor))
    assert err["error"] == "ValueError" and "floor" in err["message"]
    assert not outdir.exists()


def test_error_json_on_output_that_is_a_directory(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    err = _assert_json_error(capsys, run("areasweep", "--n", "2", "-o", str(target)))
    # the path given, not a temp file's, and no temp file beside the directory or in it
    assert err["error"] == "IsADirectoryError" and err["message"].endswith(repr(str(target)))
    assert ".tmp-trapwalk" not in err["message"]
    assert os.listdir(tmp_path) == ["out"] and os.listdir(target) == []


def test_error_json_on_output_in_a_missing_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = _assert_json_error(capsys, run("areasweep", "--n", "2", "-o", "nodir/x.csv"))
    # the path given, not a temp file's, and nothing left behind
    assert err["error"] == "FileNotFoundError" and err["message"].endswith("'nodir/x.csv'")
    assert ".tmp-trapwalk" not in err["message"]
    assert os.listdir(tmp_path) == []


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


def test_entry_point_runs_as_a_process_and_the_package_loads_the_library():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "trapwalk.cli",
                               *argv], env=env, capture_output=True, text=True, timeout=120)

    made = run_module("coin", "--family", "I", "--delta1", "1.0", "--delta2", "0.5")
    assert (made.returncode, made.stderr) == (0, "")
    expected = coins.coin_type_i(coins.TypeIParams(1.0, 0.5))
    assert np.array_equal(coins.coin_from_json(made.stdout), expected)
    failed = run_module("classify", "-i", "/nonexistent/coin.json")
    assert (failed.returncode, failed.stdout) == (1, "")
    lines = failed.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "FileNotFoundError"

    import trapwalk
    from trapwalk import cli as entry
    assert entry is cli
    for name in ("linalg", "coins", "laurent", "classify", "spectral", "walk", "errors"):
        assert getattr(trapwalk, name).__name__ == f"trapwalk.{name}"
