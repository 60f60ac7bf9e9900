import json
import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from torusbq.cli import COMMANDS, main
from torusbq.io import (
    ConfigError,
    SnapshotError,
    parse_config,
    read_control_csv,
    read_snapshot,
    snapshot_size,
    write_snapshot,
    write_timeseries,
)
from torusbq.solver import (
    CSV_COLUMNS,
    InitialCondition,
    SolverConfig,
    State,
    TrajectoryRecord,
    run,
)
from torusbq.spectral import Grid, SpectralScalarField, SpectralVectorField

MINIMAL = """
[domain]
dimension = 2
resolution = 16

[time]
dt = 0.01
t_end = 0.05
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        config, harness = parse_config(write_config(tmp_path, MINIMAL))
        assert config.grid.n == 16
        assert config.s == 3
        assert config.cutoff_R == 0.0
        assert config.noise is None
        assert config.scheme.kind == "semi_lagrangian"
        assert harness.seed == 0

    def test_negative_cutoff_names_key(self, tmp_path):
        text = MINIMAL + "\n[physics]\ncutoff_R = -1\n"
        with pytest.raises(ConfigError, match=r"\[physics\].cutoff_R"):
            parse_config(write_config(tmp_path, text))

    def test_sobolev_index_names_key(self, tmp_path):
        text = MINIMAL + "\n[physics]\nsobolev_index = 9\n"
        with pytest.raises(ConfigError, match=r"^\[physics\]\.sobolev_index: "):
            parse_config(write_config(tmp_path, text))

    def test_late_control_grid_names_key(self, tmp_path):
        control = tmp_path / "control.csv"
        control.write_text("t,mode,value\n0.05,0,1.0\n")
        text = MINIMAL + (
            "\n[noise]\nmode = additive\nn_modes = 1\n"
            f"\n[control]\nfile = {control}\n"
        )
        with pytest.raises(ConfigError, match=r"^\[control\]\.file: control time grid"):
            parse_config(write_config(tmp_path, text))

    def test_epsilon_zero_with_noise_section(self, tmp_path):
        text = MINIMAL + "\n[noise]\nmode = additive\nn_modes = 3\nepsilon = 0\n"
        config, _ = parse_config(write_config(tmp_path, text))
        assert config.epsilon == 0.0
        assert config.noise is not None
        assert config.noise.spec.truncation == 3

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\n[physics]\nvorticity = yes\n"
        with pytest.raises(ConfigError, match=r"\[physics\].vorticity"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = MINIMAL + "\n[turbulence]\nq = 1\n"
        with pytest.raises(ConfigError, match=r"\[turbulence\]"):
            parse_config(write_config(tmp_path, text))

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[time\].dt"):
            parse_config(
                write_config(tmp_path, "[domain]\ndimension = 2\nresolution = 16\n")
            )

    def test_type_error_names_key(self, tmp_path):
        text = MINIMAL.replace("dt = 0.01", "dt = soon")
        with pytest.raises(ConfigError, match=r"\[time\].dt"):
            parse_config(write_config(tmp_path, text))


class TestControlCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "control.csv"
        path.write_text("t,mode,value\n0.0,0,1.0\n0.5,0,2.0\n0.5,1,-1.0\n")
        h = read_control_csv(path, 2)
        assert np.allclose(h.times, [0.0, 0.5])
        assert np.allclose(h.samples, [[1.0, 0.0], [2.0, -1.0]])

    def test_mode_out_of_range(self, tmp_path):
        path = tmp_path / "control.csv"
        path.write_text("0.0,5,1.0\n")
        with pytest.raises(ConfigError, match="mode 5"):
            read_control_csv(path, 2)


class TestSnapshots:
    def make_state(self, n=16):
        grid = Grid(2, n)
        rng = np.random.default_rng(8)
        u = SpectralVectorField.from_samples(
            grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        )
        theta = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        return State(0.75, u, theta)

    def test_round_trip_bitwise(self, tmp_path):
        state = self.make_state()
        path = tmp_path / "state.bqsf"
        write_snapshot(state, path)
        back = read_snapshot(path)
        assert back.t == state.t
        assert np.array_equal(back.u.samples, state.u.samples)
        assert np.array_equal(back.theta.samples, state.theta.samples)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "state.bqsf"
        write_snapshot(self.make_state(), path)
        assert path.read_bytes()[:4] == b"BQSF"

    def test_size_formula(self, tmp_path):
        state = self.make_state(n=64)
        path = tmp_path / "state.bqsf"
        write_snapshot(state, path)
        # 32-byte header (magic, version, dimension, 2 axes, time, count)
        # plus 3 fields of 64^2 doubles
        assert path.stat().st_size == snapshot_size(2, 64) == 32 + 3 * 64 * 64 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bqsf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    @pytest.mark.parametrize("length", [6, 14, 31])
    def test_truncated_header(self, tmp_path, length):
        path = tmp_path / "state.bqsf"
        write_snapshot(self.make_state(), path)
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(SnapshotError, match=f"truncated header \\({length} < "):
            read_snapshot(path)

    def test_bad_resolution(self, tmp_path):
        path = tmp_path / "state.bqsf"
        write_snapshot(self.make_state(), path)
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<2I", 6, 6)  # the two axis resolutions
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="power of two"):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="snapshot file not found"):
            read_snapshot(tmp_path / "nope.bqsf")

    def test_truncated(self, tmp_path):
        path = tmp_path / "state.bqsf"
        write_snapshot(self.make_state(), path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_grid_mismatch(self, tmp_path):
        path = tmp_path / "state.bqsf"
        write_snapshot(self.make_state(16), path)
        with pytest.raises(SnapshotError, match="does not match"):
            read_snapshot(path, expect_grid=Grid(2, 32))


class TestTimeseries:
    def test_header_and_empty(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries(TrajectoryRecord(dt=0.1), path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_shear_decay_column(self, tmp_path):
        cfg = SolverConfig(
            grid=Grid(2, 16), dt=0.01, t_end=0.1, init=InitialCondition(velocity="shear")
        )
        rec = run(cfg)
        path = tmp_path / "ts.csv"
        write_timeseries(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[1] == "l2_u"
        col = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(col, col[1:]))
        phi = [float(line.split(",")[10]) for line in lines[1:]]
        assert all(v == 1.0 for v in phi)


SIM_CONFIG = """
[domain]
dimension = 2
resolution = 16

[time]
dt = 0.01
t_end = 0.05

[physics]
init_velocity = taylor_green
init_temperature = sine

[noise]
mode = additive
n_modes = 3
epsilon = 0.25

[output]
directory = {out}
quiet = true
"""


LDP_CONFIG = """
[domain]
dimension = 2
resolution = 8

[time]
dt = 0.025
t_end = 0.25

[physics]
cutoff_R = 1e-12

[noise]
mode = additive
n_modes = 1
include_mean_mode = false
epsilon = 0.04

[ldp]
functional = terminal_mode_amplitude
threshold = 0.05
eps_list = 0.04,0.02
n_paths = 120
family_blocks = 2

[output]
directory = {out}
quiet = true
"""


BLOW_UP_CONFIG = """
[domain]
dimension = 2
resolution = 32

[time]
dt = 0.5
t_end = 5.0

[physics]
advection = spectral_rk2
init_velocity = taylor_green
init_velocity_amplitude = 8.0
init_temperature = random
init_temperature_amplitude = 5.0

[output]
directory = {out}
quiet = true
"""


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path, SIM_CONFIG.format(out=out1), "a.ini")
        cfg2 = write_config(tmp_path, SIM_CONFIG.format(out=out2), "b.ini")
        assert main(["simulate", "--config", str(cfg1), "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(cfg2), "--seed", "7"]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (
            out2 / "timeseries.csv"
        ).read_bytes()
        assert (out1 / "state_final.bqsf").read_bytes() == (
            out2 / "state_final.bqsf"
        ).read_bytes()

    def test_manifest_checksums(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, SIM_CONFIG.format(out=out))
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 1
        assert set(manifest["files"]) == {"timeseries.csv", "state_final.bqsf"}
        for name, digest in manifest["files"].items():
            assert (
                hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
            )

    def test_validation_error_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "\n[physics]\ncutoff_R = -2\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert main(["simulate", "--config", str(tmp_path / "missing.ini")]) == 1

    def test_blow_up_exit_two(self, tmp_path):
        out = tmp_path / "boom"
        cfg = write_config(tmp_path, BLOW_UP_CONFIG.format(out=out))
        assert main(["simulate", "--config", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"].startswith("blow_up:")

    def test_blown_up_ensemble_summary_is_strict_json(self, tmp_path):
        out = tmp_path / "boom"
        cfg = write_config(tmp_path, BLOW_UP_CONFIG.format(out=out))
        assert main(["ensemble", "--config", str(cfg), "--paths", "2"]) == 2

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        text = (out / "ensemble_summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["blown_up_paths"] == 2
        assert summary["mean"]["terminal_l2_u"] is None

    def test_skeleton_zero_control_equals_simulate(self, tmp_path):
        out1, out2 = tmp_path / "sim", tmp_path / "skel"
        text = SIM_CONFIG.replace("epsilon = 0.25", "epsilon = 0")
        cfg1 = write_config(tmp_path, text.format(out=out1), "sim.ini")
        cfg2 = write_config(tmp_path, text.format(out=out2), "skel.ini")
        zero = tmp_path / "zero.csv"
        zero.write_text("t,mode,value\n0.0,0,0.0\n")
        assert main(["simulate", "--config", str(cfg1)]) == 0
        assert (
            main(["skeleton", "--config", str(cfg2), "--control", str(zero)]) == 0
        )
        assert (out1 / "timeseries.csv").read_bytes() == (
            out2 / "timeseries.csv"
        ).read_bytes()

    def test_ensemble_outputs(self, tmp_path):
        out = tmp_path / "ens"
        cfg = write_config(tmp_path, SIM_CONFIG.format(out=out))
        assert main(["ensemble", "--config", str(cfg), "--paths", "3"]) == 0
        lines = (out / "ensemble_paths.csv").read_text().splitlines()
        assert len(lines) == 4
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert summary["n_paths"] == 3
        assert summary["blown_up_paths"] == 0

    def test_check_invariants(self, tmp_path):
        out = tmp_path / "inv"
        cfg = write_config(tmp_path, SIM_CONFIG.format(out=out))
        assert main(["check-invariants", "--config", str(cfg)]) == 0
        report = json.loads((out / "invariants.json").read_text())
        assert all(entry["passed"] for entry in report)
        assert {"name", "passed", "measured", "tolerance"} <= set(report[0])

    def test_mollify_round_trip(self, tmp_path):
        grid = Grid(2, 16)
        state = State(
            0.0,
            SpectralVectorField.from_samples(
                grid, np.sin(grid.x_mesh[0]), np.zeros(grid.shape)
            ),
            SpectralScalarField.from_samples(grid, np.sin(grid.x_mesh[0])),
        )
        snap = tmp_path / "in.bqsf"
        write_snapshot(state, snap)
        assert (
            main(
                [
                    "mollify",
                    "--input",
                    str(snap),
                    "--epsilon",
                    "1.0",
                    "--out-dir",
                    str(tmp_path / "mout"),
                    "--quiet",
                ]
            )
            == 0
        )
        smoothed = read_snapshot(tmp_path / "mout" / "state_mollified.bqsf")
        expect = np.exp(-1.0) * np.sin(grid.x_mesh[0])
        assert np.max(np.abs(smoothed.theta.samples - expect)) < 1e-12

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing", "error: snapshot file not found: "),
            ("short_header", "truncated header (14 < 32 bytes)"),
            ("negative_epsilon", "error: --epsilon: epsilon must be positive"),
        ],
        ids=["missing", "short_header", "negative_epsilon"],
    )
    def test_mollify_bad_input_exit_one(self, tmp_path, capsys, case, message):
        snap = tmp_path / "in.bqsf"
        if case == "short_header":
            snap.write_bytes(b"BQSF" + bytes([1, 0, 0, 0, 2, 0, 0, 0, 16, 0]))
        elif case == "negative_epsilon":
            g = Grid(2, 8)
            zero = State(0.0, SpectralVectorField.zero(g), SpectralScalarField.zero(g))
            write_snapshot(zero, snap)
        epsilon = "-1" if case == "negative_epsilon" else "0.3"
        out = tmp_path / "out"
        argv = ["mollify", "--input", str(snap), "--epsilon", epsilon]
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_ldp_mc_outputs(self, tmp_path):
        out = tmp_path / "ldp"
        cfg = write_config(tmp_path, LDP_CONFIG.format(out=out))
        assert main(["ldp-mc", "--config", str(cfg)]) == 0
        lines = (out / "varadhan.csv").read_text().splitlines()
        assert (
            lines[0]
            == "epsilon,n_paths,p_hat,ci_low,ci_high,neg_eps_log_p,best_cost"
        )
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eps_list", "0.04,abc"),
            ("functional", "bogus"),
            ("direction", "above"),
            ("family_blocks", "0"),
            ("box_bound", "-1"),
            ("mode_index", "5"),
            ("mode_index", "-1"),
            ("n_paths", "20"),
            ("eps_list", "0.01,0.04"),
            ("eps_list", "1.5,0.5"),
            ("eps_list", "0.04,0"),
        ],
    )
    def test_ldp_mc_bad_value_names_key(self, tmp_path, capsys, key, value):
        lines = [
            line
            for line in LDP_CONFIG.format(out=tmp_path / "ldp").splitlines()
            if not line.startswith(f"{key} =")
        ]
        lines.insert(lines.index("[ldp]") + 1, f"{key} = {value}")
        cfg = write_config(tmp_path, "\n".join(lines))
        assert main(["ldp-mc", "--config", str(cfg)]) == 1
        assert f"error: [ldp].{key}: " in capsys.readouterr().err
        assert not (tmp_path / "ldp").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("domain", "dimension", "4"),
            ("domain", "resolution", "12"),
            ("physics", "advection", "upwind"),
            ("physics", "interpolation", "quintic"),
            ("physics", "init_velocity", "bogus"),
            ("physics", "init_temperature", "bogus"),
            ("noise", "lambda0", "-1"),
        ],
    )
    def test_bad_value_names_key(self, tmp_path, capsys, section, key, value):
        lines = [
            line
            for line in SIM_CONFIG.format(out=tmp_path / "out").splitlines()
            if not line.startswith(f"{key} =")
        ]
        lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {value}")
        cfg = write_config(tmp_path, "\n".join(lines))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [{section}].{key}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows",
        ["0.05,0,1.0\n", "0.0,0,1.0\n0.06,0,0.5\n"],
        ids=["late_start", "past_t_end"],
    )
    def test_bad_control_flag_names_key(self, tmp_path, capsys, rows):
        control = tmp_path / "control.csv"
        control.write_text("t,mode,value\n" + rows)
        cfg = write_config(tmp_path, SIM_CONFIG.format(out=tmp_path / "out"))
        argv = ["simulate", "--config", str(cfg), "--control", str(control)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [control].file: control time grid")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, paths",
        [("ensemble", SIM_CONFIG, "0"), ("ldp-mc", LDP_CONFIG, "50")],
    )
    def test_bad_paths_names_flag(self, tmp_path, capsys, command, text, paths):
        cfg = write_config(tmp_path, text.format(out=tmp_path / "out"))
        assert main([command, "--config", str(cfg), "--paths", paths]) == 1
        assert "error: --paths: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_paths_only_where_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CONFIG.format(out=tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--paths", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --paths 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ldp_mc_needs_noise(self, tmp_path, capsys):
        text = f"\n[ldp]\nthreshold = 0.05\n\n[output]\ndirectory = {tmp_path}\n"
        cfg = write_config(tmp_path, MINIMAL + text)
        assert main(["ldp-mc", "--config", str(cfg)]) == 1
        assert "error: [noise].mode: " in capsys.readouterr().err

    def test_ldp_mc_refuses_control(self, tmp_path, capsys):
        control = tmp_path / "control.csv"
        control.write_text("t,mode,value\n0.0,0,0.8\n")
        text = LDP_CONFIG.format(out=tmp_path / "ldp")
        cfg = write_config(tmp_path, text + f"\n[control]\nfile = {control}\n")
        assert main(["ldp-mc", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [control].file: ") and "Girsanov" in err
        assert not (tmp_path / "ldp").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("mollify", "--config", "run.ini"),
            ("mollify", "--seed", "1"),
            ("mollify", "--control", "control.csv"),
            ("check-invariants", "--seed", "1"),
            ("check-invariants", "--control", "control.csv"),
            ("skeleton", "--seed", "1"),
            ("ldp-mc", "--control", "control.csv"),
        ],
    )
    def test_unread_flag_refused(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        if command == "mollify":
            argv = ["mollify", "--input", "in.bqsf", "--epsilon", "1"]
        else:
            text = LDP_CONFIG if command == "ldp-mc" else SIM_CONFIG
            cfg = write_config(tmp_path, text.format(out=out))
            argv = [command, "--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(out), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


def _command_argv(command, tmp_path):
    """Arguments running `command` on a small input (add --out-dir)."""
    if command == "mollify":
        snap = tmp_path / "in.bqsf"
        g = Grid(2, 8)
        write_snapshot(
            State(0.0, SpectralVectorField.zero(g), SpectralScalarField.zero(g)), snap
        )
        return ["mollify", "--input", str(snap), "--epsilon", "0.5"]
    text = LDP_CONFIG if command == "ldp-mc" else SIM_CONFIG
    cfg = write_config(tmp_path, text.format(out=tmp_path / "unused"), f"{command}.ini")
    argv = [command, "--config", str(cfg)]
    return argv + (["--paths", "3"] if command == "ensemble" else [])


#: the files each command writes next to manifest.json
COMMAND_FILES = {
    "simulate": {"timeseries.csv", "state_final.bqsf"},
    "skeleton": {"timeseries.csv", "state_final.bqsf"},
    "ensemble": {"ensemble_paths.csv", "ensemble_summary.json"},
    "check-invariants": {"invariants.json"},
    "ldp-mc": {"varadhan.csv"},
    "mollify": {"state_mollified.bqsf"},
}

#: the commands that take --seed, so that their manifest names one
SEEDED = {"simulate", "ensemble", "ldp-mc"}


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """command -> two output directories, each from one run of the command."""
    root = tmp_path_factory.mktemp("runs")
    runs = {}
    for command in COMMANDS:
        argv = _command_argv(command, root) + ["--quiet"]
        runs[command] = (root / f"{command}-a", root / f"{command}-b")
        for out in runs[command]:
            assert main(argv + ["--out-dir", str(out)]) == 0
    return runs


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_lists_every_file(command_runs, command):
    out = command_runs[command][0]
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written == set(manifest["files"]) == COMMAND_FILES[command]
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert manifest["master_seed"] == (0 if command in SEEDED else None)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_rerun_reproduces_every_file(command_runs, command):
    runs = first, second = command_runs[command]
    for name in COMMAND_FILES[command]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    manifests = [json.loads((out / "manifest.json").read_text()) for out in runs]
    for manifest in manifests:
        del manifest["started"], manifest["finished"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize(
    "command, name, header",
    [
        (
            "simulate",
            "timeseries.csv",
            "t,l2_u,hs_u,hs1_u,hs_theta,linf_grad_u,linf_grad_theta,linf_theta,"
            "l2_w,l4_grad_w,phi_value,energy_residual,stop_flag",
        ),
        (
            "ensemble",
            "ensemble_paths.csv",
            "path,terminal_l2_u,sup_l2_u,terminal_l2_theta",
        ),
        (
            "ldp-mc",
            "varadhan.csv",
            "epsilon,n_paths,p_hat,ci_low,ci_high,neg_eps_log_p,best_cost",
        ),
    ],
    ids=["timeseries", "ensemble_paths", "varadhan"],
)
def test_csv_output_format(command_runs, command, name, header):
    text = (command_runs[command][0] / name).read_bytes().decode()
    assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n")
    lines = text.split("\r\n")[:-1]
    assert lines[0] == header
    assert len(lines) > 1
    for line in lines[1:]:
        values = line.split(",")
        assert len(values) == len(header.split(","))
        assert [format(float(v), ".17g") for v in values] == values


@pytest.mark.parametrize(
    "command, name",
    [
        ("ensemble", "ensemble_summary.json"),
        ("check-invariants", "invariants.json"),
        ("simulate", "manifest.json"),
    ],
)
def test_json_output_format(command_runs, command, name):
    text = (command_runs[command][0] / name).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
