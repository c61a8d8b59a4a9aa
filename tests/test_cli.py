"""Command-line surface: config round-trips, exit codes, file outputs."""

import json

import numpy as np
import pytest

from plasticwalk.cli import RunConfig, main


def write_config(tmp_path, **fields):
    cfg = RunConfig(**fields)
    path = tmp_path / "config.json"
    path.write_text(cfg.serialize())
    return path, cfg


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize(
    "profile",
    [
        {"name": "flat", "c0": 0.5},
        {"name": "sine-bump", "c0": 0.5, "a": 0.3, "length": 64.0},
        {"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 32.0, "width": 8.0},
    ],
)
def test_config_round_trip(profile):
    cfg = RunConfig(profile=profile)
    again = RunConfig.parse(cfg.serialize())
    assert again == cfg


def test_config_rejects_bad_alpha(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alpha": 1.5}))
    rc = main(["sweep", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha" in err and "[0, 1]" in err


def test_config_rejects_unknown_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alhpa": 1.0}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "alhpa" in capsys.readouterr().err


def test_threads_flag_overrides_config(tmp_path):
    path, _ = write_config(tmp_path, command="dispersion", out=str(tmp_path / "o"), threads=3)
    from plasticwalk.cli import build_parser, load_config

    args = build_parser().parse_args(["dispersion", "--config", str(path)])
    assert load_config(args).threads == 3
    args = build_parser().parse_args(["dispersion", "--config", str(path), "--threads", "2"])
    assert load_config(args).threads == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_identity_case(tmp_path, capsys):
    out = tmp_path / "run"
    path, _ = write_config(
        tmp_path,
        command="simulate",
        out=str(out),
        alpha=0.0,
        m=0.0,
        profile={"name": "flat", "c0": 0.0},
        length=16.0,
        T=1.0,
        epsilon=0.25,
        snapshot_stride=2,
        initial={"x0": 8.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.5},
    )
    rc = main(["simulate", "--config", str(path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "final norm" in printed
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) >= 2
    first = np.loadtxt(snaps[0], delimiter=",", skiprows=1)
    last = np.loadtxt(snaps[-1], delimiter=",", skiprows=1)
    n = int(round(16.0 / 0.25))
    assert first.shape == (n, 6) and last.shape == (n, 6)
    assert np.max(np.abs(first - last)) <= 1e-12
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["norm_drift"] <= 1e-10


def test_simulate_snapshot_fields_round_trip(tmp_path):
    out = tmp_path / "run"
    path, _ = write_config(
        tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
        epsilon=0.0625, snapshot_stride=4,
        profile={"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 8.0, "width": 2.0},
        initial={"x0": 8.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
    )
    assert main(["simulate", "--config", str(path)]) == 0
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) >= 2
    for snap in snaps:
        rows = snap.read_text().splitlines()[1:]
        assert len(rows) == 64
        for field in (s for row in rows for s in row.split(",")):
            assert f"{float(field):.17g}" == field


def test_simulate_single_site_ring_exits_one(tmp_path, capsys):
    # alpha = 1 fixes dx = 1, so length 1 snaps to a one-site ring, as in sweep
    path, _ = write_config(
        tmp_path, command="simulate", out=str(tmp_path / "o"), alpha=1.0, length=1.0, T=0.5,
        initial={"x0": 0.5, "w": 4.0, "k0": 0.0, "chirality_mix": 0.5},
    )
    assert main(["simulate", "--config", str(path)]) == 1
    assert "at least 2 sites" in capsys.readouterr().err


def test_simulate_packet_defaults_match_default_config(tmp_path):
    # a missing initial key falls back to the default config's value (k0 = pi/8)
    common = {"command": "simulate", "length": 64.0, "T": 0.5, "epsilon": 0.25, "alpha": 1.0}
    outs = []
    for label, extra in (("partial", {"initial": {"x0": 32.0}}), ("none", {})):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(dict(common, **extra)))
        outs.append(tmp_path / label)
        assert main(["simulate", "--config", str(path), "--out", str(outs[-1])]) == 0
    snaps = sorted(p.name for p in outs[0].glob("snapshot_*.csv"))
    assert snaps == sorted(p.name for p in outs[1].glob("snapshot_*.csv")) and snaps
    for name in snaps:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_flag_overrides_out(tmp_path):
    path, _ = write_config(
        tmp_path,
        command="simulate",
        out=str(tmp_path / "ignored"),
        length=16.0,
        T=0.5,
        epsilon=0.25,
        alpha=1.0,
        initial={"x0": 8.0, "w": 4.0, "k0": 0.0, "chirality_mix": 1.0},
    )
    target = tmp_path / "actual"
    assert main(["simulate", "--config", str(path), "--out", str(target)]) == 0
    assert (target / "simulate.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_outputs_and_exit(tmp_path):
    out = tmp_path / "sweep"
    path, _ = write_config(
        tmp_path,
        command="sweep",
        out=str(out),
        alpha=1.0,
        m=0.2,
        length=32.0,
        T=2.0,
        epsilon_list=[0.2, 0.1, 0.05],
        min_order=0.9,
        initial={"x0": 16.0, "w": 4.0, "k0": float(np.pi / 8), "chirality_mix": 0.5},
    )
    assert main(["sweep", "--config", str(path)]) == 0
    csv_text = (out / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == "epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"
    assert len(csv_text.strip().splitlines()) == 4
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["fitted_order"] >= 0.9
    assert all(chk["passed"] for chk in payload["checks"])


@pytest.mark.parametrize(
    "raw",
    [
        {"reference": "bogus"},
        {"alpha": 1.0, "length": 64.5},
        {"alpha": 0.0, "reference": "dirac_momentum",
         "profile": {"name": "sine-bump", "c0": 0.5, "a": 0.3, "length": 64.0}},
        {"alpha": 1.0, "reference": "dirac_momentum"},
        {"alpha": 0.5, "length": 32.0, "initial": {"x0": 16.0, "w": 4.0},
         "epsilon_list": [0.1, 0.0999, 0.05]},
    ],
    ids=["unknown_reference", "fractional_length", "dirac_momentum_on_bump",
         "dirac_momentum_at_alpha_one", "snapped_duplicate_epsilon"],
)
def test_sweep_invalid_spec_exits_two(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "o").exists()


def test_sweep_min_order_failure_exits_one(tmp_path):
    out = tmp_path / "sweep"
    path, _ = write_config(
        tmp_path,
        command="sweep",
        out=str(out),
        alpha=1.0,
        length=32.0,
        T=2.0,
        epsilon_list=[0.2, 0.1, 0.05],
        min_order=5.0,
        initial={"x0": 16.0, "w": 4.0, "k0": 0.4, "chirality_mix": 0.5},
    )
    assert main(["sweep", "--config", str(path)]) == 1
    assert (out / "sweep.json").exists()  # outputs still written


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_outputsode(tmp_path, capsys):
    out = tmp_path / "disp"
    path, _ = write_config(
        tmp_path,
        command="dispersion",
        out=str(out),
        m=0.0,
        alpha=1.0,
        epsilon=0.01,
        k_count=16,
        profile={"name": "flat", "c0": 1.0},
    )
    assert main(["dispersion", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "zone edge" in printed
    summary = json.loads((out / "dispersion.json").read_text())
    assert summary["zone_edge_lattice_energy"] <= 1e-12
    assert summary["zone_edge_continuum_energy"] > 1.0
    lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert len(lines) == 17


def test_dispersion_rejects_inhomogeneous(tmp_path, capsys):
    path, _ = write_config(
        tmp_path,
        command="dispersion",
        out=str(tmp_path / "d"),
        profile={"name": "sine-bump", "c0": 0.5, "a": 0.3, "length": 64.0},
    )
    assert main(["dispersion", "--config", str(path)]) == 2
    assert "homogeneous" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# qca


def test_qca_report(tmp_path, capsys):
    out = tmp_path / "qca"
    path, _ = write_config(
        tmp_path, command="qca", out=str(out), qca_cells=6, qca_theta=1.0, qca_zeta=0.3
    )
    assert main(["qca", "--config", str(path)]) == 0
    report = json.loads((out / "qca_report.json").read_text())
    assert report["encoding_residual"] <= 1e-12
    assert report["number_conservation_exact"] is True
    printed = capsys.readouterr().out
    assert "encoding residual" in printed


def test_no_subcommand_exits_two(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"alpha": "one"}, "type"),
        ({"initial": []}, "'initial'"),
        ({"profile": {"name": "flat", "c0": "x"}}, "'profile'"),
        ({"qca_theta": "x"}, "'qca_theta'"),
        ({"qca_cells": 2.5}, "'qca_cells'"),
        ({"initial": {"x0": "a"}}, "'initial.x0'"),
    ],
    ids=["alpha", "initial", "profile", "qca_theta", "qca_cells", "initial_x0"],
)
def test_config_wrong_type_exits_two(tmp_path, capsys, raw, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err
