"""Command-line surface: config round-trips, exit codes, file outputs."""

import json
import os
import random
import re
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from plasticwalk import PlasticWalkError, cli, hamiltonians
from plasticwalk.cli import RunConfig, atomic_write, main
from plasticwalk.harness import CELL_BUDGET, MOMENTUM_BUDGET, SITE_BUDGET


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


def test_threads_config_key_is_accepted(tmp_path):
    # sweeps run serially: the key is validated and kept, and there is no flag for it
    path, _ = write_config(tmp_path, command="dispersion", out=str(tmp_path / "o"), threads=3)
    from plasticwalk.cli import load_config
    from plasticwalk.errors import ConfigError

    assert load_config(["dispersion", "--config", str(path)]).threads == 3
    with pytest.raises(ConfigError):
        load_config(["dispersion", "--config", str(path), "--threads", "2"])


@pytest.mark.parametrize("text", ["x{", "[1, 2]"], ids=["malformed", "not_an_object"])
def test_config_file_that_is_not_a_json_object_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert ("not valid JSON" if text == "x{" else "JSON object") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_text"])
def test_unreadable_config_file_exits_two(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_text":
        path.write_bytes(b"\xff\xfe{")
    assert main(["qca", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: field 'config': cannot read")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    ['{"T": NaN}', '{"length": Infinity}', '{"m": NaN}', '{"epsilon_list": [0.1, -Infinity]}'],
    ids=["T_nan", "length_infinity", "m_nan", "epsilon_minus_infinity"],
)
def test_config_with_a_non_finite_literal_exits_two(tmp_path, capsys, text):
    # Python's json reads NaN and +-Infinity, which JSON itself does not have
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "is not a JSON number" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize(
    "raw",
    [{"m": 1e400}, {"length": 1e400}, {"T": 1e400}, {"initial": {"w": 1e400}}, {"initial": {"x0": -1e400}}],
    ids=["m", "length", "T", "initial_w", "initial_x0"],
)
def test_config_with_a_number_that_overflows_exits_two(tmp_path, capsys, command, raw):
    # 1e400 is a JSON number, but Python's json reads it as inf
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw).replace("Infinity", "1e400"))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "must be a finite real number" in err
    assert not (tmp_path / "o").exists()


def test_blank_config_file_is_the_default_config(tmp_path):
    from plasticwalk.cli import load_config

    path = tmp_path / "blank.json"
    path.write_text("  \n")
    assert load_config(["qca", "--config", str(path)]) == RunConfig(command="qca")


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


def test_simulate_snapshot_bytes_equal_the_per_row_format(tmp_path):
    # every snapshot is the row-by-row "%.17g" text of the walked field
    from plasticwalk import evolve_walk, make_wavepacket
    from plasticwalk.harness import _grid

    out = tmp_path / "run"
    path, cfg = write_config(
        tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
        epsilon=0.0625, snapshot_stride=3,
        profile={"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 8.0, "width": 2.0},
        initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
    )
    assert main(["simulate", "--config", str(path)]) == 0
    params, n, steps, _, _ = _grid(cfg.m, cfg.build_profile(), cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
    field = make_wavepacket(n, params.dx, *cfg._packet())
    row_fmt = ",".join(["%.17g"] * 6)
    stops = [0] + [min(s + 3, steps) for s in range(0, steps, 3)]
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [f"snapshot_{s:06d}.csv" for s in stops]
    for stop in stops:
        walked = evolve_walk(field, params, stop)  # each snapshot is the walk run to its step
        cols = (walked.positions(), walked.plus.real, walked.plus.imag, walked.minus.real, walked.minus.imag,
                walked.density())
        lines = ["x,re_plus,im_plus,re_minus,im_minus,density"]
        lines += [row_fmt % tuple(row) for row in np.column_stack(cols).tolist()]
        assert (out / f"snapshot_{stop:06d}.csv").read_text() == "\n".join(lines) + "\n"


_WELL_16 = {"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 8.0, "width": 2.0}


def test_simulate_final_snapshot_equals_evolve_walk(tmp_path):
    from plasticwalk import evolve_walk, make_wavepacket
    from plasticwalk.harness import _grid

    out = tmp_path / "run"
    path, cfg = write_config(
        tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
        epsilon=0.0625, snapshot_stride=3,
        profile={"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 8.0, "width": 2.0},
        initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
    )
    assert main(["simulate", "--config", str(path)]) == 0
    params, n, steps, _, _ = _grid(cfg.m, cfg.build_profile(), cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
    walked = evolve_walk(make_wavepacket(n, params.dx, *cfg._packet()), params, steps)
    rows = (out / f"snapshot_{steps:06d}.csv").read_text().splitlines()[1:]
    cols = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(cols[:, 1] + 1j * cols[:, 2], walked.plus)
    assert np.array_equal(cols[:, 3] + 1j * cols[:, 4], walked.minus)


@pytest.mark.parametrize("profile", [{"name": "flat", "c0": 0.6}, _WELL_16], ids=["flat", "gaussian-well"])
def test_simulate_records_conserved_sublattice_weights(tmp_path, profile):
    # on an even ring every step taps only sites x +- 2, so the even and the odd weights stay put
    out = tmp_path / "run"
    path, _ = write_config(
        tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=4.0,
        epsilon=0.0625, snapshot_stride=7, profile=profile,
        initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
    )
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["N"] % 2 == 0 and summary["steps"] == 32
    initial, final = summary["sublattice_weights_initial"], summary["sublattice_weights_final"]
    assert min(initial) > 0.1  # the packet sits on both sublattices
    assert max(abs(a - b) for a, b in zip(initial, final)) <= 1e-12
    assert abs(sum(final) - summary["final_norm"] ** 2) <= 1e-12


def test_simulate_flat_snapshots_equal_evolve_walk(tmp_path):
    # a flat profile steps as a Fourier multiplier, one evolve_walk call per snapshot interval
    from plasticwalk import evolve_walk, make_wavepacket
    from plasticwalk.harness import _grid

    for stride in (3, 8):
        out = tmp_path / f"run{stride}"
        path, cfg = write_config(
            tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
            epsilon=0.0625, snapshot_stride=stride, profile={"name": "flat", "c0": 0.6},
            initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
        )
        assert main(["simulate", "--config", str(path)]) == 0
        params, n, steps, _, _ = _grid(cfg.m, cfg.build_profile(), cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
        assert steps == 8
        walked = make_wavepacket(n, params.dx, *cfg._packet())
        for start in range(0, steps, stride):  # stride 8: one call, as a sweep row makes it
            stop = min(start + stride, steps)
            walked = evolve_walk(walked, params, stop - start)
            rows = (out / f"snapshot_{stop:06d}.csv").read_text().splitlines()[1:]
            cols = np.array([[float(v) for v in row.split(",")] for row in rows])
            assert np.array_equal(cols[:, 1] + 1j * cols[:, 2], walked.plus)
            assert np.array_equal(cols[:, 3] + 1j * cols[:, 4], walked.minus)


def test_simulate_single_site_ring_exits_two(tmp_path, capsys):
    # alpha = 1 fixes dx = 1, so length 1 snaps to a one-site ring, which the grid refuses
    path, _ = write_config(
        tmp_path, command="simulate", out=str(tmp_path / "o"), alpha=1.0, length=1.0, T=0.5,
        initial={"x0": 0.5, "w": 4.0, "k0": 0.0, "chirality_mix": 0.5},
    )
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "length = 1.0" in err and "at least 2 sites" in err
    assert not (tmp_path / "o").exists()


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


def test_packet_defaults_are_one_table():
    # a config without initial and one with an empty initial take the same x0 = length/2
    for text in ('{"length": 128}', '{"length": 128, "initial": {}}'):
        assert RunConfig.parse(text)._packet() == (64.0, 8.0, float(np.pi / 8), 0.5)
    assert RunConfig().build_profile().params == {"c0": 0.5}


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


def test_consecutive_main_calls_share_no_flag_state(tmp_path):
    # each call's flags stay its own
    from plasticwalk.cli import load_config

    first, second = tmp_path / "qca", tmp_path / "dispersion"
    (tmp_path / "qca.json").write_text(json.dumps({"qca_cells": 3}))
    assert main(["qca", "--config", str(tmp_path / "qca.json"), "--out", str(first), "--seed", "7"]) == 0
    assert main(["dispersion", "--out", str(second)]) == 0
    assert json.loads((first / "qca_report.json").read_text())["seed"] == 7
    assert json.loads((second / "dispersion.json").read_text())["seed"] == 0
    assert load_config(["sweep"]) == RunConfig(command="sweep")


_WELL = {"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 32.0}
_SINGULAR = "epsilon = 0.5: sin(theta) = 0 at (t=0.0, x=0.25) with m = 0.2 > 0"
_BUMP = {"name": "sine-bump", "c0": 0.5, "a": 0.3}


@pytest.mark.parametrize(
    "command, raw, named",
    [
        # c * kappa = 1 with m > 0 at alpha = 0: sin(theta) = 0 in every coin; one grid rule, one message
        *(pytest.param(command, {"alpha": 0.0, "m": 0.2, "profile": {"name": "flat", "c0": 1.0},
                                 "epsilon": 0.5, "T": 1.0}, _SINGULAR, id=command)
          for command in ("simulate", "dispersion", "sweep", "qca")),
        # a grid past the budget, refused before the first snapshot
        pytest.param("simulate", {"T": 1e300}, "T = 1e+300", id="T_budget-simulate"),
        # every epsilon_list entry passes the grid rule, on a command that walks none of them
        pytest.param("simulate", {"epsilon_list": [0.2, 0.1, 1e-12]}, "epsilon = 1e-12",
                     id="epsilon_list_budget-simulate"),
        # a ring too large to hold, refused before the coin rule samples a crossing: 8e8 sites
        # of one step pass the grid budget, as do 1e9 sites of a well, whose coins are sampled per site
        pytest.param("simulate", {"alpha": 0.0, "length": 4e8, "epsilon": 0.5, "T": 1.0, "epsilon_list": [0.5]},
                     "the site budget", id="site_budget-simulate"),
        *(pytest.param(command, {"alpha": 0.0, "length": 1e9, "epsilon": 1.0, "T": 2.0, "epsilon_list": [1.0],
                                 "profile": {"name": "gaussian-well"}}, "the site budget",
                       id=f"well_site_budget-{command}")
          for command in ("simulate", "dispersion", "sweep", "qca")),
        pytest.param("dispersion", {"alpha": 1.0, "length": SITE_BUDGET + 1, "T": 1.0},
                     f"length = {SITE_BUDGET + 1} at epsilon = 0.05 needs more than {SITE_BUDGET} sites",
                     id="one_site_over_budget-dispersion"),
        # the two sizes the grid does not see, refused before anything is allocated
        pytest.param("dispersion", {"k_count": MOMENTUM_BUDGET + 1}, f"'k_count': got {MOMENTUM_BUDGET + 1}, over",
                     id="k_count_budget-dispersion"),
        pytest.param("qca", {"qca_cells": CELL_BUDGET + 1}, f"'qca_cells': got {CELL_BUDGET + 1}, over",
                     id="qca_cells_budget-qca"),
        *(pytest.param(command, {"alpha": 0.5, "epsilon": eps}, f"epsilon = {eps}", id=f"{label}-{command}")
          for command in ("simulate", "dispersion")
          for label, eps in (("epsilon_budget", 1e-12), ("epsilon_underflow_budget", 1e-300))),
        # a packet narrower than 4 dx, or of no width
        pytest.param("simulate", {"initial": {"w": 0.5}}, "width w = 0.5", id="narrow_packet-simulate"),
        pytest.param("simulate", {"initial": {"w": 0}}, "w must be finite and positive", id="zero_w-simulate"),
        # a profile of no width
        *(pytest.param(command, {"profile": dict(_WELL, width=0)}, "width must be positive",
                       id=f"zero_well_width-{command}")
          for command in ("simulate", "dispersion")),
        *(pytest.param(command, {"profile": dict(_BUMP, length=0)}, "length must be positive",
                       id=f"zero_bump_length-{command}")
          for command in ("simulate", "dispersion")),
        pytest.param("dispersion", {"alpha": 1.0, "length": 1.0}, "at least 2 sites",
                     id="single_site_ring-dispersion"),
        # alpha = 1 fixes dx = 1: the grid refuses a fractional length on every command
        *(pytest.param(command, {"alpha": 1.0, "length": 64.5, "T": 0.5}, "length must be an integer",
                       id=f"fractional_length-{command}")
          for command in ("simulate", "dispersion")),
    ],
)
def test_singular_coin_exits_two_and_writes_nothing(tmp_path, capsys, command, raw, named):
    # every refusal while the config becomes domain objects comes before the first write
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0  # a grid past the budget is refused, not walked
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "dispersion", "qca"])
def test_packet_wider_than_the_ring_exits_two(tmp_path, capsys, command):
    # the packet sums its images over the ring lengths its width reaches, so a
    # width past the ring is refused on every command, before anything is written
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"initial": {"w": 100.0}}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "w = 100.0 exceeds the ring length 64.0" in err
    assert not (tmp_path / "o").exists()


def _run_quietly(command, raw, tmp_path, label="c"):
    """main on a config written from ``raw``; its exit code and the Python warnings it raised."""
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(tmp_path / f"{label}-out")])
    return code, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "command, raw, code",
    [
        # width^2 overflows to inf, so the well is c0 - depth everywhere
        ("simulate", {"profile": {"name": "gaussian-well", "width": 1e300}}, 0),
        # (x - center)^2 overflows to inf, so the well is c0 everywhere
        ("simulate", {"profile": {"name": "gaussian-well", "center": 1e300}}, 0),
        # 2 pi x / length overflows, and sin(inf) is NaN: refused as a value outside [0, 1]
        ("simulate", {"profile": {"name": "sine-bump", "length": 5e-324}}, 2),
        # m^2 overflows: the dispersion energies are m, to every digit
        ("dispersion", {"m": 1e300}, 0),
    ],
)
def test_extreme_values_exit_by_the_contract_without_warnings(tmp_path, capsys, command, raw, code):
    assert _run_quietly(command, raw, tmp_path) == (code, [])
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("configuration error:") and "outside [0, 1]" in err


@pytest.mark.parametrize("command", ["simulate", "sweep", "dispersion"])
def test_a_profile_only_the_sites_see_exits_two(tmp_path, capsys, command):
    # a 5e-324 well width gives c = 0/0 at the site x = center = 32, which
    # the mixing powers read, while every crossing x + 1/2 is c0
    raw = {"profile": {"name": "gaussian-well", "width": 5e-324}}
    assert _run_quietly(command, raw, tmp_path) == (2, [])
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "c(0.0, 32.0) = nan" in err
    assert not (tmp_path / "c-out").exists()


def test_a_reference_past_the_term_budget_is_a_package_error(tmp_path, capsys):
    # the flat alpha = 0 sweep cross-validates its reference on a lattice,
    # whose Chebyshev series at m = 1e300 would need ~1e300 terms; the spec
    # refuses it before any row runs
    raw = {"alpha": 0.0, "m": 1e300, "length": 8.0, "T": 0.5, "epsilon_list": [0.5, 0.25],
           "initial": {"x0": 4.0, "w": 2.0}}
    assert _run_quietly("sweep", raw, tmp_path) == (2, [])
    assert "Chebyshev terms, the term budget" in capsys.readouterr().err
    assert not (tmp_path / "c-out").exists()


def test_a_cross_validation_past_the_term_budget_fails_its_check_not_the_sweep(tmp_path, capsys, monkeypatch):
    # the 16-site row fails on its packet (w < 4 dx), so the cross-validation runs on the 32-site row,
    # whose 8x lattice needs 32.4 terms; the spec checks the budget on the coarsest planned row only
    monkeypatch.setattr(hamiltonians, "_CHEBYSHEV_BUDGET", 20)
    raw = {"alpha": 0.0, "m": 0.2, "profile": {"name": "flat", "c0": 0.5}, "length": 8.0, "T": 2.0,
           "epsilon_list": [0.5, 0.25], "initial": {"x0": 4.0, "w": 1.5}}
    assert _run_quietly("sweep", raw, tmp_path) == (1, [])
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "c-out" / "sweep.json").read_text())
    assert (tmp_path / "c-out" / "sweep.csv").exists()
    assert report["crossval_gap"] is None
    check = {c["name"]: c for c in report["checks"]}["reference_cross_validation"]
    assert not check["passed"] and "BudgetError" in check["detail"] and "term budget" in check["detail"]
    assert any(f.startswith("reference cross-validation could not run") for f in report["flags"])


@pytest.mark.parametrize(
    "raw",
    [
        {"alpha": 0.0, "profile": {"name": "sine-bump"}, "length": 8.0, "initial": {"x0": 4.0, "w": 2.0}},
        {"alpha": 1.0, "length": 32.0, "initial": {"x0": 16.0, "w": 4.0}},
    ],
    ids=["curved-alpha-0", "lattice-alpha-1"],
)
def test_a_sweep_whose_every_reference_is_past_the_term_budget_exits_two(tmp_path, capsys, raw):
    # every row's own reference is a Chebyshev series of ~1e300 terms, so no row could run
    raw = {**raw, "m": 1e300, "T": 0.5, "epsilon_list": [0.5, 0.25]}
    assert _run_quietly("sweep", raw, tmp_path) == (2, [])
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Chebyshev terms, the term budget" in err
    assert not (tmp_path / "c-out").exists()


_EDGES = (0.0, -0.0, 5e-324, 1e-300, 1e300, 1.0 - 1e-16, -1.0, 2.0)
_BARE_EXCEPTION = re.compile(r"runtime error: \w*(Error|Exception|Warning): ")


def _fuzz_config(rng: random.Random) -> tuple[str, dict]:
    """A command and a config whose reals are typical or, one time in 12, an edge value.

    The typical ranges keep every grid small (rings of 8 to 16, T <= 1,
    epsilon >= 0.2), so a config that runs takes milliseconds.
    """
    def real(lo, hi):
        return rng.choice(_EDGES) if rng.random() < 1 / 12 else rng.uniform(lo, hi)

    length = rng.choice(_EDGES) if rng.random() < 1 / 12 else rng.choice([8.0, 12.0, 16.0])
    name = rng.choice(["flat", "sine-bump", "gaussian-well"])
    profile = {"name": name, "c0": real(0.6, 0.9)}
    if name == "sine-bump":
        profile.update(a=real(0.0, 0.1), length=rng.choice(_EDGES) if rng.random() < 1 / 12 else length)
    elif name == "gaussian-well":
        profile.update(depth=real(0.0, 0.3), center=real(0.0, 16.0), width=real(1.0, 4.0))
    raw = {
        "alpha": rng.choice(_EDGES) if rng.random() < 1 / 12 else rng.choice([0.0, 0.5, 1.0]),
        "m": real(0.0, 0.3), "length": length, "T": real(0.2, 1.0), "profile": profile,
        "epsilon": real(0.2, 0.5), "epsilon_list": [real(0.4, 0.5), real(0.2, 0.3)], "snapshot_stride": 1000,
        "initial": {"x0": real(0.0, 16.0), "w": real(2.0, 3.0), "k0": real(-1.0, 1.0),
                    "chirality_mix": real(0.0, 1.0)},
        "k_count": rng.randint(2, 32), "qca_cells": rng.randint(2, 10),
        "qca_theta": real(0.0, 3.0), "qca_zeta": real(-1.0, 1.0),
    }
    return rng.choice(["simulate", "sweep", "dispersion", "qca"]), raw


def test_exit_codes_hold_under_a_seeded_fuzz(tmp_path, capsys):
    # the exit-code contract as a property of 300 random configs: every run
    # exits 0, 1 or 2, raises no Python warning, and an exit 1 is a failed
    # check or a package error, never a bare Python exception
    rng, ran = random.Random(14), 0
    for i in range(300):
        command, raw = _fuzz_config(rng)
        code, caught = _run_quietly(command, raw, tmp_path, f"c{i}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2) and caught == [], (command, raw, code, caught)
        if code == 1:
            assert ("FAIL" in out or "violated" in out) if err == "" else (
                err.startswith("runtime error:") and not _BARE_EXCEPTION.match(err)), (command, raw, err)
        ran += code != 2
    assert ran > 0.15 * 300  # most edge values are refused, but the fuzz must also run configs


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
    "alpha, eps_list, predicted",
    [(0.25, [0.1, 0.05, 0.025], 0.5), (1.0, [0.2, 0.1, 0.05], None)],
    ids=["alpha_quarter", "alpha_one"],
)
def test_sweep_records_kappa_range_and_predicted_order(tmp_path, alpha, eps_list, predicted):
    out = tmp_path / "sweep"
    path, _ = write_config(
        tmp_path, command="sweep", out=str(out), alpha=alpha, m=0.2, length=32.0, T=2.0,
        epsilon_list=eps_list,
        initial={"x0": 16.0, "w": 4.0, "k0": float(np.pi / 8), "chirality_mix": 0.5},
    )
    assert main(["sweep", "--config", str(path)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    kappas = [row["epsilon"] ** alpha for row in payload["rows"]]  # epsilon as snapped
    assert payload["kappa_range"] == [min(kappas), max(kappas)]
    assert payload["predicted_order"] == predicted
    below = [f for f in payload["flags"] if "below the predicted" in f]
    if predicted is None:
        assert not below
    else:  # alpha = 1/4 converges at order ~0.4 under the cos(pi kappa) mass rule
        assert payload["fitted_order"] < predicted - payload["fitted_ci"]
        # the flag reads the local order of the two finest rows
        a, b = payload["rows"][-2:]
        local = np.log(a["error_l2"] / b["error_l2"]) / np.log(a["epsilon"] / b["epsilon"])
        assert len(below) == int(predicted - local > 0.1)
    assert [c["name"] for c in payload["checks"]] == [
        "rows_completed", "monotone_errors", "reference_cross_validation", "reference_resolution"]
    assert payload["reference_error"] is None  # not a curved sweep
    assert all(c["passed"] for c in payload["checks"])
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "epsilon,dt,dx,N,steps,error_l2,error_max,walltime_s"


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"reference": "bogus"}, "reference 'bogus'"),
        ({"alpha": 1.0, "length": 64.5}, "length must be an integer"),
        ({"alpha": 0.0, "reference": "dirac_momentum",
          "profile": {"name": "sine-bump", "c0": 0.5, "a": 0.3, "length": 64.0}}, "reference 'dirac_momentum'"),
        ({"alpha": 1.0, "reference": "dirac_momentum"}, "reference 'dirac_momentum'"),
        ({"alpha": 1.0, "reference": "curved_fine_grid",
          "profile": {"name": "sine-bump", "c0": 0.5, "a": 0.3, "length": 64.0}}, "reference 'curved_fine_grid'"),
        ({"alpha": 0.5, "reference": "lattice_exact"}, "reference 'lattice_exact'"),
        ({"alpha": 0.5, "reference": "curved_fine_grid"}, "reference 'curved_fine_grid'"),
        ({"alpha": 0.5, "length": 32.0, "initial": {"x0": 16.0, "w": 4.0},
          "epsilon_list": [0.1, 0.0999, 0.05]}, "epsilon_list must be strictly decreasing"),
        ({"alpha": 0.0, "m": 0.1, "profile": {"name": "flat", "c0": 1.0},
          "epsilon_list": [0.5, 0.25, 0.125]}, "m = 0.1"),
        ({"alpha": 0.5, "length": 64.0, "epsilon_list": [0.25, 0.0625],
          "profile": {"name": "sine-bump", "c0": 0.5, "a": 0.3, "length": 48.0}}, "periodic on the ring"),
        ({"T": 1e300}, "T = 1e+300"),
        ({"epsilon_list": [0.2, 0.1, 1e-12]}, "epsilon = 1e-12"),
        ({"initial": {"w": 0}}, "w must be finite and positive"),
        ({"profile": dict(_WELL, width=0)}, "width must be positive"),
        ({"profile": dict(_BUMP, length=0)}, "length must be positive"),
        ({"alpha": 1.0, "length": 1.0, "initial": {"x0": 0.5, "w": 4.0}}, "at least 2 sites"),
    ],
    ids=["unknown_reference", "fractional_length", "dirac_momentum_on_bump",
         "dirac_momentum_at_alpha_one", "curved_fine_grid_at_alpha_one",
         "lattice_exact_at_alpha_half", "curved_fine_grid_on_flat", "snapped_duplicate_epsilon",
         "singular_coin",
         "non_periodic_curved_profile",
         "T_budget", "epsilon_list_budget", "zero_w", "zero_well_width", "zero_bump_length",
         "single_site_ring"],
)
def test_sweep_invalid_spec_exits_two(tmp_path, capsys, raw, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "length, profile, initial, resolved",
    [
        (32.0, {"name": "sine-bump", "c0": 0.5, "a": 0.3}, {"x0": 16.0, "w": 4.0}, True),
        (64.0, {"name": "gaussian-well", "c0": 0.9, "depth": 0.5, "center": 32.0, "width": 0.4},
         {"x0": 32.0, "w": 8.0, "k0": float(np.pi / 8 * 1.03)}, False),
    ],
    ids=["sine_bump", "narrow_well"],
)
def test_sweep_reference_resolution_check(tmp_path, length, profile, initial, resolved):
    # a well narrower than the coarsest spacing leaves the curved reference's
    # own error above a tenth of the walk's smallest error
    out = tmp_path / "sweep"
    path, _ = write_config(
        tmp_path, command="sweep", out=str(out), alpha=0.0, m=0.1, length=length, T=length / 16,
        profile=profile, initial=initial, epsilon_list=[0.5, 0.25, 0.125, 0.0625],
    )
    assert main(["sweep", "--config", str(path)]) == (0 if resolved else 1)
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["reference"] == "curved_fine_grid"
    assert isinstance(payload["reference_error"], float)
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks == {"rows_completed": True, "monotone_errors": True,
                      "reference_cross_validation": True, "reference_resolution": resolved}
    assert any(f.startswith("reference error") for f in payload["flags"]) is not resolved
    if resolved:
        assert payload["reference_error"] <= 1e-12


_EXACT = {"alpha": 0.0, "m": 0.0, "profile": {"name": "flat", "c0": 0.0}, "epsilon_list": [0.5, 0.25, 0.125],
          "initial": {"x0": 32.0, "w": 8.0, "k0": 0.4}}


def test_exact_sweep_passes_every_check(tmp_path, capsys):
    # errors and cross-validation gap at roundoff: the gate's floor keeps the gap from failing
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(_EXACT))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "fitted_order=exact" in capsys.readouterr().out
    payload = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert payload["exact"] and not payload["flags"]
    assert [c["name"] for c in payload["checks"]] == [
        "rows_completed", "monotone_errors", "reference_cross_validation", "reference_resolution"]
    assert all(c["passed"] for c in payload["checks"])


def test_exact_sweep_passes_min_order_as_exact(tmp_path):
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(dict(_EXACT, min_order=0.9)))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    checks = json.loads((tmp_path / "o" / "sweep.json").read_text())["checks"]
    assert checks[-1] == {"name": "min_order", "passed": True, "detail": "exact"}


def test_partial_noise_floor_fails_min_order(tmp_path, monkeypatch):
    # the finest error at roundoff, the others converging: neither exact nor fitted, so min_order fails
    from dataclasses import replace

    from plasticwalk import harness

    errors = iter([0.1, 0.01, 1e-15])
    monkeypatch.setattr(harness, "_run_row", lambda spec, params, row, kind: (
        replace(row, error_l2=next(errors)), None, None))
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"alpha": 1.0, "length": 32.0, "T": 2.0, "epsilon_list": [0.2, 0.1, 0.05],
                                "min_order": 0.9, "initial": {"x0": 16.0, "w": 4.0}}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    payload = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert not payload["exact"] and payload["fitted_order"] is None
    assert any("at or below the noise floor" in f for f in payload["flags"])
    assert payload["checks"][-1] == {"name": "min_order", "passed": False, "detail": "fitted None"}


def test_cross_validation_gap_fails_its_check(tmp_path, monkeypatch):
    from plasticwalk import harness

    monkeypatch.setattr(harness, "_cross_validate_references", lambda *args: 1.0)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(dict(_EXACT, m=0.2, profile={"name": "flat", "c0": 0.5})))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    payload = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert payload["crossval_gap"] == 1.0
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    assert checks == {"rows_completed": True, "monotone_errors": True,
                      "reference_cross_validation": False, "reference_resolution": True}
    assert [f for f in payload["flags"] if "cross-validation gap" in f] == [
        f"reference cross-validation gap 1.000e+00 exceeds smallest error/10 "
        f"({min(r['error_l2'] for r in payload['rows']) / 10:.3e}); sweep flagged invalid"]


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


@pytest.mark.parametrize(
    "command, raw, written",
    [
        ("simulate", {"T": 0.5}, "simulate.json"),
        ("dispersion", {"k_count": 16}, "dispersion.json"),
        ("qca", {"qca_cells": 3}, "qca_report.json"),
    ],
)
def test_every_json_summary_records_its_environment(tmp_path, command, raw, written):
    # as sweep.json does: the package, Python, NumPy and BLAS versions and the commit
    from plasticwalk.harness import _environment

    assert _run_quietly(command, raw, tmp_path) == (0, [])
    summary = json.loads((tmp_path / "c-out" / written).read_text())
    assert summary["environment"] == dict(_environment())
    assert set(summary["environment"]) == {"plasticwalk", "python", "numpy", "blas", "commit"}


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


def test_qca_report_on_many_cells(tmp_path):
    # neither check touches the 4^N statevector; only the encoding check's (2N, 2N) arrays bound the cells
    out = tmp_path / "qca"
    path, _ = write_config(tmp_path, command="qca", out=str(out), qca_cells=64)
    assert main(["qca", "--config", str(path)]) == 0
    report = json.loads((out / "qca_report.json").read_text())
    assert report["cells"] == 64
    assert report["encoding_residual"] <= 1e-12
    assert report["number_conservation_exact"] is True
    path, _ = write_config(tmp_path, command="qca", out=str(out), qca_cells=1)  # still at least 2
    assert main(["qca", "--config", str(path)]) == 2


def test_qca_number_conservation_check_can_fail(tmp_path, monkeypatch, capsys):
    # a crossing gate that mixes |00> and |11> leaves the one-particle block,
    # and so the encoding, as it was; only the gate check can see it
    import plasticwalk.qca as qca

    real_gate_u = qca.gate_U

    def mixing_gate_u(theta, zeta):
        u = real_gate_u(theta, zeta)
        u[..., 0, 3] = u[..., 3, 0] = 0.5
        return u

    monkeypatch.setattr(qca, "gate_U", mixing_gate_u)
    out = tmp_path / "qca"
    path, _ = write_config(
        tmp_path, command="qca", out=str(out), qca_cells=6, qca_theta=1.0, qca_zeta=0.3
    )
    assert main(["qca", "--config", str(path)]) == 1
    report = json.loads((out / "qca_report.json").read_text())
    assert report["number_conservation_exact"] is False
    assert report["number_conservation_off_sector_max"] == 0.5
    assert report["number_conservation_cells"] == 6
    assert report["encoding_residual"] <= 1e-12
    assert "violated by" in capsys.readouterr().out


def test_no_subcommand_exits_two(capsys):
    assert main([]) == 2


# ---------------------------------------------------------------------------
# command line


@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "equals"])
def test_flags_in_both_forms(tmp_path, joined):
    from plasticwalk.cli import load_config

    path, _ = write_config(tmp_path, command="qca", out="from-config", seed=1, qca_cells=3)
    path = str(path)

    def flag(name, value):
        return [f"--{name}={value}"] if joined else [f"--{name}", value]

    assert load_config(["qca", *flag("config", path)]) == RunConfig(
        command="qca", out="from-config", seed=1, qca_cells=3)
    argv = ["qca", *flag("config", path), *flag("out", "o"), *flag("seed", "-4")]
    assert load_config(argv) == RunConfig(command="qca", out="o", seed=-4, qca_cells=3)
    # a repeated flag takes its last value
    assert load_config([*argv, *flag("seed", "9"), *flag("out", "p")]) == RunConfig(
        command="qca", out="p", seed=9, qca_cells=3)


def test_an_equals_value_may_start_with_dashes(tmp_path, monkeypatch):
    from plasticwalk.cli import load_config

    monkeypatch.chdir(tmp_path)
    assert load_config(["qca", "--out=--o"]).out == "--o"
    assert main(["qca", "--out=--o", "--seed=+3"]) == 0
    assert json.loads((tmp_path / "--o" / "qca_report.json").read_text())["seed"] == 3


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["simulation", "--out", "o"], "unknown command 'simulation'", id="unknown_command"),
        pytest.param(["--out", "o", "qca"], "unknown command '--out'", id="flag_before_command"),
        pytest.param(["qca", "--out", "o", "--bogus", "1"], "unknown option '--bogus'", id="unknown_flag"),
        pytest.param(["qca", "--ou", "o"], "unknown option '--ou'", id="abbreviation"),
        pytest.param(["qca", "--out", "o", "--", "x"], "unknown option '--'", id="separator"),
        pytest.param(["qca", "--out", "o", "extra"], "unknown option 'extra'", id="positional"),
        pytest.param(["qca", "--out", "o", "--seed"], "option --seed needs a value", id="no_value_at_end"),
        pytest.param(["qca", "--out", "--seed", "3"], "option --out needs a value", id="no_value_before_flag"),
        pytest.param(["qca", "--out", "o", "--seed", "x"], "got 'x', must be an integer", id="seed_text"),
        pytest.param(["qca", "--out", "o", "--seed=1.5"], "got '1.5', must be an integer", id="seed_real"),
        pytest.param(["qca", "--out", "o", "--seed="], "got '', must be an integer", id="seed_empty"),
    ],
)
def test_command_line_errors_exit_two(tmp_path, monkeypatch, capsys, argv, named):
    from plasticwalk.cli import USAGE

    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err
    assert err.endswith(f"\n{USAGE}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["--version"], "plasticwalk 0.1.0"),
        (["-h"], "usage: plasticwalk"),
        (["--help"], "usage: plasticwalk"),
        (["qca", "--out", "o", "-h"], "usage: plasticwalk"),
    ],
)
def test_version_and_help_exit_zero(tmp_path, monkeypatch, capsys, argv, printed):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(printed)
    assert list(tmp_path.iterdir()) == []


# one command in a fresh interpreter; prints the command-line modules it loaded
_PARSER_PROBE = """
import json
import sys

from plasticwalk import cli

assert cli.main(["qca", "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(name for name in ("argparse", "gettext", "locale") if name in sys.modules)))
"""


def test_a_command_loads_no_argparse_gettext_or_locale(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PARSER_PROBE, str(tmp_path / "q")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"])
def test_output_files_follow_the_umask(tmp_path, umask, mode):
    path, _ = write_config(tmp_path, length=16.0, T=0.5, epsilon=0.25, snapshot_stride=1000,
                           initial={"x0": 8.0, "w": 4.0})
    old = os.umask(umask)
    try:
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert main(["qca", "--out", str(tmp_path / "q")]) == 0
    finally:
        os.umask(old)
    for written in (tmp_path / "s" / "snapshot_000000.csv", tmp_path / "q" / "qca_report.json"):
        assert stat.S_IMODE(written.stat().st_mode) == mode, written
    # each write leaves only its file behind
    assert sorted(p.name for p in (tmp_path / "q").iterdir()) == ["qca_report.json"]


def test_a_failed_rename_leaves_no_temporary_file_and_the_old_target(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_text("old")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(target, "new")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    assert target.read_text() == "old"


@pytest.mark.parametrize(
    "error, printed",
    [(PlasticWalkError("sector lost"), "runtime error: sector lost"),
     (RuntimeError("no memory"), "runtime error: RuntimeError: no memory")],
    ids=["package_error", "plain_exception"],
)
def test_an_error_inside_a_command_exits_one_without_a_traceback(tmp_path, monkeypatch, capsys, error, printed):
    def failing_command(cfg, out_dir):
        raise error

    monkeypatch.setattr(cli, "cmd_qca", failing_command)
    assert main(["qca", "--out", str(tmp_path / "q")]) == 1
    err = capsys.readouterr().err
    assert err.strip() == printed and "Traceback" not in err


_COMMANDS = ("simulate", "sweep", "dispersion", "qca")


@pytest.mark.parametrize(
    "command, raw, named",
    [
        pytest.param("sweep", {"alpha": "one"}, "type", id="alpha"),
        pytest.param("sweep", {"initial": []}, "'initial'", id="initial"),
        pytest.param("sweep", {"profile": {"name": "flat", "c0": "x"}}, "'profile.c0'", id="profile"),
        pytest.param("sweep", {"qca_theta": "x"}, "'qca_theta'", id="qca_theta"),
        pytest.param("sweep", {"qca_cells": 2.5}, "'qca_cells'", id="qca_cells"),
        pytest.param("sweep", {"initial": {"x0": "a"}}, "'initial.x0'", id="initial_x0"),
        *(pytest.param(command, raw, named, id=f"{label}-{command}")
          for label, commands, raw, named in [
              ("out", _COMMANDS, {"out": 5}, "'out'"),
              ("seed", _COMMANDS, {"seed": "x"}, "'seed'"),
              ("profile_unknown_key", ("simulate", "sweep", "dispersion"),
               {"profile": {"name": "flat", "c0": 0.5, "zz": 1}}, "'profile.zz'"),
              ("snapshot_stride", ("simulate",), {"snapshot_stride": 2.5}, "'snapshot_stride'"),
              ("k_count", ("dispersion",), {"k_count": 2.5}, "'k_count'"),
              ("bump_length", ("simulate", "sweep"), {"profile": dict(_BUMP, length="x")}, "'profile.length'"),
              ("well_center", ("simulate", "sweep"),
               {"profile": dict(_WELL, width=8.0, center="x")}, "'profile.center'"),
          ]
          for command in commands),
    ],
)
def test_config_wrong_type_exits_two(tmp_path, monkeypatch, capsys, command, raw, named):
    monkeypatch.chdir(tmp_path)  # the out field is read as a path relative to here
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    flags = [] if "out" in raw else ["--out", "o"]
    assert main([command, "--config", "bad.json", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]
