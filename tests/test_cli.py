"""Command-line surface: config round-trips, exit codes, file outputs."""

import json
import time

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


def test_threads_config_key_is_accepted(tmp_path):
    # sweeps run serially: the key is validated and kept, and there is no flag for it
    path, _ = write_config(tmp_path, command="dispersion", out=str(tmp_path / "o"), threads=3)
    from plasticwalk.cli import build_parser, load_config

    args = build_parser().parse_args(["dispersion", "--config", str(path)])
    assert load_config(args).threads == 3
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dispersion", "--config", str(path), "--threads", "2"])


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
    from plasticwalk.cli import build_parser, load_config

    path = tmp_path / "blank.json"
    path.write_text("  \n")
    args = build_parser().parse_args(["qca", "--config", str(path)])
    assert load_config(args) == RunConfig(command="qca")


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
    from plasticwalk import ScalingParams, evolve_walk, make_wavepacket
    from plasticwalk.harness import _grid

    out = tmp_path / "run"
    path, cfg = write_config(
        tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
        epsilon=0.0625, snapshot_stride=3,
        profile={"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 8.0, "width": 2.0},
        initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
    )
    assert main(["simulate", "--config", str(path)]) == 0
    eps, n, steps, _, _ = _grid(cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
    params = ScalingParams(m=cfg.m, cprofile=cfg.build_profile(), epsilon=eps, alpha=cfg.alpha)
    field = make_wavepacket(n, params.dx, *cfg._packet())
    row_fmt = ",".join(["%.17g"] * 6)
    stops = [0] + [min(s + 3, steps) for s in range(0, steps, 3)]
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [f"snapshot_{s:06d}.csv" for s in stops]
    for start, stop in zip(stops, stops[1:] + [None]):
        cols = (field.positions(), field.plus.real, field.plus.imag, field.minus.real, field.minus.imag,
                field.density())
        lines = ["x,re_plus,im_plus,re_minus,im_minus,density"]
        lines += [row_fmt % tuple(row) for row in np.column_stack(cols).tolist()]
        assert (out / f"snapshot_{start:06d}.csv").read_text() == "\n".join(lines) + "\n"
        if stop is not None:
            field = evolve_walk(field, params, stop - start, 2.0 * eps * start)


def test_simulate_final_snapshot_equals_evolve_walk(tmp_path):
    from plasticwalk import ScalingParams, evolve_walk, make_wavepacket
    from plasticwalk.harness import _grid

    out = tmp_path / "run"
    path, cfg = write_config(
        tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
        epsilon=0.0625, snapshot_stride=3,
        profile={"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 8.0, "width": 2.0},
        initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
    )
    assert main(["simulate", "--config", str(path)]) == 0
    eps, n, steps, _, _ = _grid(cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
    params = ScalingParams(m=cfg.m, cprofile=cfg.build_profile(), epsilon=eps, alpha=cfg.alpha)
    walked = evolve_walk(make_wavepacket(n, params.dx, *cfg._packet()), params, steps)
    rows = (out / f"snapshot_{steps:06d}.csv").read_text().splitlines()[1:]
    cols = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(cols[:, 1] + 1j * cols[:, 2], walked.plus)
    assert np.array_equal(cols[:, 3] + 1j * cols[:, 4], walked.minus)


def test_simulate_flat_snapshots_equal_evolve_walk(tmp_path):
    # a flat profile steps as a Fourier multiplier, one evolve_walk call per snapshot interval
    from plasticwalk import ScalingParams, evolve_walk, make_wavepacket
    from plasticwalk.harness import _grid

    for stride in (3, 8):
        out = tmp_path / f"run{stride}"
        path, cfg = write_config(
            tmp_path, command="simulate", out=str(out), alpha=0.5, length=16.0, T=1.0,
            epsilon=0.0625, snapshot_stride=stride, profile={"name": "flat", "c0": 0.6},
            initial={"x0": 6.0, "w": 2.0, "k0": 0.5, "chirality_mix": 0.3},
        )
        assert main(["simulate", "--config", str(path)]) == 0
        eps, n, steps, _, _ = _grid(cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
        assert steps == 8
        params = ScalingParams(m=cfg.m, cprofile=cfg.build_profile(), epsilon=eps, alpha=cfg.alpha)
        walked = make_wavepacket(n, params.dx, *cfg._packet())
        for start in range(0, steps, stride):  # stride 8: one call, as a sweep row makes it
            stop = min(start + stride, steps)
            walked = evolve_walk(walked, params, stop - start, 2.0 * eps * start)
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
    # the parser is built once per process; each call's flags stay its own
    from plasticwalk.cli import build_parser

    assert build_parser() is build_parser()
    first, second = tmp_path / "qca", tmp_path / "dispersion"
    (tmp_path / "qca.json").write_text(json.dumps({"qca_cells": 3}))
    assert main(["qca", "--config", str(tmp_path / "qca.json"), "--out", str(first), "--seed", "7"]) == 0
    assert main(["dispersion", "--out", str(second)]) == 0
    assert json.loads((first / "qca_report.json").read_text())["seed"] == 7
    assert json.loads((second / "dispersion.json").read_text())["seed"] == 0
    args = build_parser().parse_args(["sweep"])
    assert (args.command, args.config, args.out, args.seed) == ("sweep", None, None, None)


_WELL = {"name": "gaussian-well", "c0": 0.8, "depth": 0.3, "center": 32.0}
_BUMP = {"name": "sine-bump", "c0": 0.5, "a": 0.3}


@pytest.mark.parametrize(
    "command, raw, named",
    [
        # c * kappa = 1 with m > 0 at alpha = 0: sin(theta) = 0 in every coin, as in sweep
        *(pytest.param(command, {"alpha": 0.0, "m": 0.2, "profile": {"name": "flat", "c0": 1.0},
                                 "epsilon": 0.5, "T": 1.0}, "m = 0.2", id=command)
          for command in ("simulate", "dispersion")),
        # a grid past the budget, refused before the first snapshot
        pytest.param("simulate", {"T": 1e300}, "T = 1e+300", id="T_budget-simulate"),
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
    # neither check touches the 4^N statevector, so the cell count has no upper limit
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
        u[0, 3] = u[3, 0] = 0.5
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
