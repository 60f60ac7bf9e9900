import json
import hashlib
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torusbq
from torusbq.checks import CheckResult
from torusbq.cli import COMMANDS, main
from torusbq.forcing import default_qwiener
from torusbq.io import (
    CONFIG_KEYS,
    SCHEMA,
    ConfigError,
    SnapshotError,
    parse_config,
    read_control_csv,
    read_snapshot,
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


@pytest.fixture
def solves(monkeypatch):
    """The arguments of every trajectory solve, through ldp's or solver's run."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr("torusbq.ldp.run", counted)
    monkeypatch.setattr("torusbq.solver.run", counted)
    return calls


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

    @pytest.mark.parametrize(
        "section, body",
        [
            ("turbulence", "q = 1"),
            # configparser would copy [DEFAULT]'s keys into every section
            ("DEFAULT", "seed = 3\nviscosity = 0.5"),
        ],
        ids=["turbulence", "DEFAULT"],
    )
    def test_unknown_section_rejected(self, tmp_path, section, body):
        text = MINIMAL + f"\n[{section}]\n{body}\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
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


def _spec(config):
    return config.noise.spec.modes, config.noise.spec.eigenvalues.tolist()


def _default_spec(**changed):
    spec = default_qwiener(2, changed.pop("n_modes", 8), **changed)
    return spec.modes, spec.eigenvalues.tolist()


#: (section, key) -> (a valid value the base file below does not set, what
#: reads it back from parse_config's (config, harness), the value expected)
ROW_CASES = {
    ("domain", "dimension"): ("3", lambda c, h: c.grid.dimension, 3),
    ("domain", "resolution"): ("8", lambda c, h: c.grid.n, 8),
    ("physics", "sobolev_index"): ("2", lambda c, h: c.s, 2),
    ("physics", "viscosity"): ("0.5", lambda c, h: c.viscosity, 0.5),
    ("physics", "cutoff_R"): ("3", lambda c, h: c.cutoff_R, 3.0),
    ("physics", "galerkin_modes"): ("4", lambda c, h: c.galerkin_modes, 4),
    ("physics", "advection"): (
        "spectral_rk2", lambda c, h: c.scheme.kind, "spectral_rk2"
    ),
    ("physics", "interpolation"): (
        "linear", lambda c, h: c.scheme.interpolation, "linear"
    ),
    ("physics", "cfl_cap"): ("0.25", lambda c, h: c.cfl_cap, 0.25),
    ("physics", "init_velocity"): ("shear", lambda c, h: c.init.velocity, "shear"),
    ("physics", "init_velocity_amplitude"): (
        "2.5", lambda c, h: c.init.velocity_amplitude, 2.5
    ),
    ("physics", "init_temperature"): (
        "sine", lambda c, h: c.init.temperature, "sine"
    ),
    ("physics", "init_temperature_amplitude"): (
        "3.5", lambda c, h: c.init.temperature_amplitude, 3.5
    ),
    ("physics", "init_seed"): ("7", lambda c, h: c.init.seed, 7),
    ("time", "dt"): ("0.025", lambda c, h: c.dt, 0.025),
    ("time", "t_end"): ("0.1", lambda c, h: c.t_end, 0.1),
    ("noise", "mode"): ("additive", lambda c, h: c.noise.intensity.mode, "additive"),
    ("noise", "epsilon"): ("0.5", lambda c, h: c.epsilon, 0.5),
    ("noise", "n_modes"): ("3", lambda c, h: _spec(c), _default_spec(n_modes=3)),
    ("noise", "gamma"): ("1.5", lambda c, h: _spec(c), _default_spec(gamma=1.5)),
    ("noise", "lambda0"): ("0.25", lambda c, h: _spec(c), _default_spec(lambda0=0.25)),
    ("noise", "include_mean_mode"): (
        "false", lambda c, h: _spec(c), _default_spec(include_mean=False)
    ),
    # the mean mode's base field is amplitude * (1, 0) everywhere
    ("noise", "amplitude"): (
        "2.0", lambda c, h: c.noise.intensity.base_fields[0].samples[0, 0, 0], 2.0
    ),
    ("noise", "a0"): ("0.5", lambda c, h: c.noise.intensity.a0, 0.5),
    ("noise", "a1"): ("0.75", lambda c, h: c.noise.intensity.a1, 0.75),
    ("noise", "a2"): ("1.25", lambda c, h: c.noise.intensity.a2, 1.25),
    ("control", "file"): (
        "control.csv", lambda c, h: c.control.samples[0].tolist(), [0.0, 0.75] + [0] * 6
    ),
    ("output", "directory"): ("elsewhere", lambda c, h: h.out_dir, Path("elsewhere")),
    ("output", "timeseries"): ("false", lambda c, h: h.write_timeseries, False),
    ("output", "snapshot_final"): ("false", lambda c, h: h.snapshot_final, False),
    ("output", "quiet"): ("true", lambda c, h: h.quiet, True),
    ("output", "seed"): ("11", lambda c, h: h.seed, 11),
    ("ldp", "functional"): (
        "terminal_l2_u", lambda c, h: h.ldp["functional"], "terminal_l2_u"
    ),
    ("ldp", "mode_index"): ("2", lambda c, h: h.ldp["mode_index"], 2),
    ("ldp", "threshold"): ("0.05", lambda c, h: h.ldp["threshold"], 0.05),
    ("ldp", "direction"): ("le", lambda c, h: h.ldp["direction"], "le"),
    ("ldp", "eps_list"): ("0.5, 0.25", lambda c, h: h.ldp["eps_list"], [0.5, 0.25]),
    ("ldp", "n_paths"): ("50", lambda c, h: h.ldp["n_paths"], 50),
    ("ldp", "family_blocks"): ("3", lambda c, h: h.ldp["family_blocks"], 3),
    ("ldp", "box_bound"): ("5", lambda c, h: h.ldp["box_bound"], 5.0),
    ("ldp", "n_jobs"): ("2", lambda c, h: h.ldp["n_jobs"], 2),
}


#: every SCHEMA row, as (section, key)
ROWS = [(section, key) for section in SCHEMA for key in SCHEMA[section]]


class TestSchema:
    @pytest.mark.parametrize("section, key", ROWS)
    def test_row_reaches_its_argument(self, tmp_path, monkeypatch, section, key):
        # a row whose target names the wrong argument sets some other field
        value, read, expected = ROW_CASES[(section, key)]
        sections = {
            "domain": {"dimension": "2", "resolution": "16"},
            "time": {"dt": "0.01", "t_end": "0.05"},
            "noise": {"mode": "multiplicative"},
        }
        sections.setdefault(section, {})[key] = value
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        )
        monkeypatch.chdir(tmp_path)
        (tmp_path / "control.csv").write_text("t,mode,value\n0,1,0.75\n")
        config, harness = parse_config(write_config(tmp_path, text))
        assert read(config, harness) == expected

    def test_every_row_has_a_case(self):
        assert set(ROW_CASES) == set(ROWS)

    def test_config_keys(self):
        # the 25 words of the hand-written table, the initial seed's and cfl_cap's
        assert CONFIG_KEYS == {
            "dimension": "[domain].dimension",
            "resolution": "[domain].resolution",
            "sobolev index": "[physics].sobolev_index",
            "cutoff_R": "[physics].cutoff_R",
            "viscosity": "[physics].viscosity",
            "galerkin_modes": "[physics].galerkin_modes",
            "cfl_cap": "[physics].cfl_cap",
            "advection": "[physics].advection",
            "interpolation": "[physics].interpolation",
            "velocity preset": "[physics].init_velocity",
            "temperature preset": "[physics].init_temperature",
            "init seed": "[physics].init_seed",
            "dt": "[time].dt",
            "t_end": "[time].t_end",
            "noise mode": "[noise].mode",
            "epsilon": "[noise].epsilon",
            "n_modes": "[noise].n_modes",
            "eigenvalues": "[noise].lambda0",
            "control": "[control].file",
            "functional": "[ldp].functional",
            "mode_index": "[ldp].mode_index",
            "direction": "[ldp].direction",
            "epsilons": "[ldp].eps_list",
            "n_paths": "[ldp].n_paths",
            "n_jobs": "[ldp].n_jobs",
            "temporal block": "[ldp].family_blocks",
            "box bound": "[ldp].box_bound",
        }


class TestControlCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "control.csv"
        path.write_text("t,mode,value\n# a comment\n0.0,0,1.0\n0.5,0,2.0\n0.5,1,-1.0\n")
        h = read_control_csv(path, 2)
        assert np.allclose(h.times, [0.0, 0.5])
        assert np.allclose(h.samples, [[1.0, 0.0], [2.0, -1.0]])

    def test_mode_out_of_range(self, tmp_path):
        path = tmp_path / "control.csv"
        path.write_text("0.0,5,1.0\n")
        with pytest.raises(ConfigError, match="mode 5"):
            read_control_csv(path, 2)

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("0,0,inf\n", 1),
            # a NaN time never equals itself, so its value would be lost
            ("0,0,1.0\nnan,0,2.0\n", 2),
            # refused here, not later as a time grid failing to cover t_end
            ("0,0,1.0\ninf,0,2.0\n", 2),
        ],
        ids=["inf-value", "nan-time", "inf-time"],
    )
    def test_non_finite_refused(self, tmp_path, rows, line):
        path = tmp_path / "control.csv"
        path.write_text(rows)
        where = re.escape(f"{path}:{line}")
        match = rf"^\[control\]\.file: {where}: t and value must be finite"
        with pytest.raises(ConfigError, match=match):
            read_control_csv(path, 2)

    def test_duplicate_row_refused(self, tmp_path):
        # the second row's value used to replace the first's without a word
        path = tmp_path / "control.csv"
        path.write_text("t,mode,value\n0,0,1.0\n0.5,1,3.0\n0.0,0,2.0\n")
        where = re.escape(f"{path}:4")
        match = rf"^\[control\]\.file: {where}: duplicate row for t=0.0, mode 0$"
        with pytest.raises(ConfigError, match=match):
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
        assert path.stat().st_size == 32 + 3 * 64 * 64 * 8

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

    @pytest.mark.parametrize(
        "start, value, message",
        [
            (4, (2,), "unsupported version 2"),
            (8, (4,), "bad dimension 4"),
            (12, (16, 8), r"anisotropic resolution \[16, 8\]"),
            (28, (4,), "expected 3 fields, found 4"),
        ],
        ids=["version", "dimension", "anisotropic", "field_count"],
    )
    def test_bad_header_field(self, tmp_path, start, value, message):
        path = tmp_path / "state.bqsf"
        write_snapshot(self.make_state(), path)
        raw = bytearray(path.read_bytes())
        raw[start : start + 4 * len(value)] = struct.pack(f"<{len(value)}I", *value)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match=f"^{re.escape(str(path))}: {message}$"):
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


class TestTimeseries:
    def test_header_and_empty(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries(TrajectoryRecord(), path)
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


VELOCITY_BLOW_UP_CONFIG = """
[domain]
dimension = 2
resolution = 16

[time]
dt = 0.5
t_end = 20.0

[physics]
viscosity = 1e-6
advection = spectral_rk2
init_velocity = random
init_velocity_amplitude = 1e6
init_temperature = zero

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_blow_up_exit_two(self, tmp_path):
        out = tmp_path / "boom"
        cfg = write_config(tmp_path, BLOW_UP_CONFIG.format(out=out))
        assert main(["simulate", "--config", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"].startswith("blow_up:")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_velocity_blow_up_names_component(self, tmp_path, capsys):
        # spectral_rk2: with the default semi-Lagrangian transport the
        # runaway departure points stop the run on the temperature first
        out = tmp_path / "boom"
        text = VELOCITY_BLOW_UP_CONFIG.format(out=out)
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "blow_up:velocity component 1"
        rows = (out / "timeseries.csv").read_text().splitlines()
        assert len(rows) == 1 + 7
        last = dict(zip(CSV_COLUMNS, map(float, rows[-1].split(","))))
        assert last["t"] == 3.0 and last["stop_flag"] == 1.0
        assert np.isnan(last["phi_value"]) and np.isnan(last["energy_residual"])
        err = capsys.readouterr().err
        assert err == "error: numerical blow up in velocity component 1 at t=3\n"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_semi_lagrangian_blow_up_is_reproducible(self, tmp_path):
        # the same config with the default cubic semi-Lagrangian transport:
        # runaway departure points sample NaN, so every run stops alike
        text = VELOCITY_BLOW_UP_CONFIG.format(out=tmp_path / "boom").replace(
            "advection = spectral_rk2\n", ""
        )
        config, _ = parse_config(write_config(tmp_path, text))
        outcomes = set()
        for _ in range(30):
            rec = run(config)
            outcomes.add((rec.stop_reason, len(rec.column("t"))))
        assert outcomes == {("blow_up:temperature", 4)}

    def test_invariant_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        failing = CheckResult("fake_check", False, 2.0, 1.0, "by design")
        monkeypatch.setattr(
            "torusbq.cli.run_invariant_battery", lambda config: [failing]
        )
        out = tmp_path / "inv"
        text = SIM_CONFIG.format(out=out).replace("quiet = true", "quiet = false")
        cfg = write_config(tmp_path, text)
        assert main(["check-invariants", "--config", str(cfg)]) == 3
        report = json.loads((out / "invariants.json").read_text())
        assert [entry["passed"] for entry in report] == [False]
        captured = capsys.readouterr()
        assert captured.out == (
            "FAIL fake_check: measured 2.000e+00 (tolerance 1.000e+00) by design\n"
        )
        assert captured.err == "error: invariant failure (see invariants.json)\n"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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
        "case, epsilon, message",
        [
            ("missing", "0.3", "error: snapshot file not found: "),
            ("short_header", "0.3", "truncated header (14 < 32 bytes)"),
            ("negative_epsilon", "-1", "error: --epsilon: epsilon must be positive"),
            ("nan_epsilon", "nan", "error: --epsilon: epsilon must be positive"),
            ("inf_epsilon", "inf", "error: --epsilon: epsilon must be positive"),
        ],
        ids=[
            "missing", "short_header", "negative_epsilon", "nan_epsilon", "inf_epsilon"
        ],
    )
    def test_mollify_bad_input_exit_one(
        self, tmp_path, capsys, case, epsilon, message
    ):
        snap = tmp_path / "in.bqsf"
        if case == "short_header":
            snap.write_bytes(b"BQSF" + bytes([1, 0, 0, 0, 2, 0, 0, 0, 16, 0]))
        elif case.endswith("_epsilon"):
            g = Grid(2, 8)
            zero = State(0.0, SpectralVectorField.zero(g), SpectralScalarField.zero(g))
            write_snapshot(zero, snap)
        out = tmp_path / "out"
        argv = ["mollify", "--input", str(snap), "--epsilon", epsilon]
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_mollify_wrote_line_names_every_file(self, tmp_path, capsys):
        g = Grid(2, 8)
        zero = State(0.0, SpectralVectorField.zero(g), SpectralScalarField.zero(g))
        snap = tmp_path / "in.bqsf"
        write_snapshot(zero, snap)
        out = tmp_path / "mout"
        argv = ["mollify", "--input", str(snap), "--epsilon", "0.5"]
        assert main(argv + ["--out-dir", str(out)]) == 0
        files = "state_mollified.bqsf, manifest.json"
        assert capsys.readouterr().out == f"wrote {files} to {out}\n"
        assert {p.name for p in out.iterdir()} == set(files.split(", "))

    def test_mollify_huge_epsilon_keeps_the_mean(self, tmp_path, capsys):
        grid = Grid(2, 8)
        rng = np.random.default_rng(2)
        state = State(
            0.0,
            SpectralVectorField.from_sample_stack(
                grid, rng.standard_normal((2,) + grid.shape)
            ),
            SpectralScalarField.from_samples(
                grid, 1.5 + rng.standard_normal(grid.shape)
            ),
        )
        snap = tmp_path / "in.bqsf"
        write_snapshot(state, snap)
        out = tmp_path / "mout"
        argv = ["mollify", "--input", str(snap), "--epsilon", "1e200"]
        assert main(argv + ["--out-dir", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        smoothed = read_snapshot(out / "state_mollified.bqsf")
        mean = state.theta.coefficients[0, 0].real
        assert np.allclose(smoothed.theta.samples, mean, rtol=0, atol=1e-14)
        u_mean = state.u.coefficients[:, 0, 0].real[:, None, None]
        assert np.allclose(smoothed.u.samples, u_mean, rtol=0, atol=1e-14)

    def test_ldp_mc_outputs(self, tmp_path, capsys):
        out = tmp_path / "ldp"
        text = LDP_CONFIG.format(out=out).replace("quiet = true", "quiet = false")
        cfg = write_config(tmp_path, text)
        assert main(["ldp-mc", "--config", str(cfg)]) == 0
        lines = (out / "varadhan.csv").read_text().splitlines()
        assert (
            lines[0]
            == "epsilon,n_paths,p_hat,ci_low,ci_high,neg_eps_log_p,best_cost"
        )
        assert len(lines) == 3
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert capsys.readouterr().out.splitlines() == [
            f"eps={eps:g}: p_hat={p:.4g} -eps*log(p)={gap:.4g} best_cost={cost:.4g}"
            for eps, _, p, _, _, gap, cost in rows
        ]
        assert [row[0] for row in rows] == [0.04, 0.02]

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
            ("eps_list", ","),
            ("n_jobs", "0"),
            ("n_jobs", "-2"),
        ],
    )
    def test_ldp_mc_bad_value_names_key(self, tmp_path, capsys, solves, key, value):
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
        assert solves == []

    def test_ldp_mc_zero_amplitude_names_mode_index(self, tmp_path, capsys, solves):
        # the functional measures in units of the mode's base field, here zero
        text = LDP_CONFIG.format(out=tmp_path / "ldp")
        text = text.replace("[noise]\n", "[noise]\namplitude = 0\n")
        assert main(["ldp-mc", "--config", str(write_config(tmp_path, text))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [ldp].mode_index: mode_index 0 picks a zero")
        assert not (tmp_path / "ldp").exists()
        assert solves == []

    def test_ldp_mc_needs_threshold(self, tmp_path, capsys):
        text = LDP_CONFIG.format(out=tmp_path / "ldp").replace("threshold = 0.05\n", "")
        assert main(["ldp-mc", "--config", str(write_config(tmp_path, text))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [ldp].threshold: a finite threshold is required")
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
            # float() parses nan and inf, which every float key refuses
            ("physics", "viscosity", "nan"),
            ("physics", "cfl_cap", "nan"),
            # finite but refused by SolverConfig, which names the field
            ("physics", "cfl_cap", "0"),
            ("time", "dt", "nan"),
            ("time", "t_end", "inf"),
            ("physics", "init_velocity_amplitude", "nan"),
            ("physics", "init_seed", "-1"),
            # 16 points resolve |k_i| <= 7: 225 modes with the mean, not 226
            ("noise", "n_modes", "226"),
            # a 1e11-row trajectory table
            ("time", "t_end", "1e9"),
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
        "rows, message",
        [
            ("0.05,0,1.0\n", "control time grid must start at 0, got 0.05"),
            ("0.0,0,1.0\n0.06,0,0.5\n", "control time grid must cover [0, t_end]"),
            ("-1,0,5.0\n", "control time grid must start at 0, got -1"),
            ("0,0,1.0\n0,0,2.0\n", "{path}:3: duplicate row for t=0.0, mode 0"),
            ("0,0\n", "{path}:2: expected 't,mode,value', got ['0', '0']"),
            (None, "control file not found: {path}"),
        ],
        ids=[
            "late_start", "past_t_end", "early_start", "duplicate", "short_row", "missing"
        ],
    )
    def test_bad_control_flag_names_key(self, tmp_path, capsys, rows, message):
        control = tmp_path / "control.csv"
        if rows is not None:
            control.write_text("t,mode,value\n" + rows)
        cfg = write_config(tmp_path, SIM_CONFIG.format(out=tmp_path / "out"))
        argv = ["simulate", "--config", str(cfg), "--control", str(control)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: [control].file: {message.format(path=control)}\n"
        assert not (tmp_path / "out").exists()

    def test_control_needs_noise(self, tmp_path, capsys):
        control = tmp_path / "control.csv"
        control.write_text("t,mode,value\n0.0,0,1.0\n")
        text = MINIMAL + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
        argv = ["simulate", "--config", str(write_config(tmp_path, text))]
        assert main(argv + ["--control", str(control)]) == 1
        err = capsys.readouterr().err
        assert err == "error: [control].file: a control needs an active [noise]\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[domain\ndimension = 2\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed config file ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate"], "--config is required for this command"),
            (["mollify", "--epsilon", "1"], "mollify needs --input SNAPSHOT"),
        ],
        ids=["simulate_config", "mollify_input"],
    )
    def test_missing_argument(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, under",
        [
            ("--out-dir", ""),
            ("[output].directory", ""),
            ("--out-dir", "sub/dir"),
            ("[output].directory", "sub/dir"),
        ],
        ids=["--out-dir", "[output].directory", "under--out-dir", "under-directory"],
    )
    def test_out_dir_that_is_a_file(self, tmp_path, capsys, source, under):
        # refused before the run, not by mkdir after it; a path under a file
        # names the file
        target = tmp_path / "afile"
        target.write_text("keep")
        argv = ["simulate", "--config"]
        if source == "--out-dir":
            cfg = write_config(tmp_path, SIM_CONFIG.format(out=tmp_path / "out"))
            argv += [str(cfg), "--out-dir", str(target / under)]
        else:
            text = SIM_CONFIG.format(out=target / under)
            argv.append(str(write_config(tmp_path, text)))
        assert main(argv) == 1
        message = f"error: {source}: {target} exists and is not a directory\n"
        assert capsys.readouterr().err == message
        assert target.read_text() == "keep"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "timeseries, snapshot, files",
        [
            ("true", "true", "timeseries.csv, state_final.bqsf, manifest.json"),
            ("false", "false", "manifest.json"),
        ],
    )
    def test_wrote_line_names_every_file(
        self, tmp_path, capsys, timeseries, snapshot, files
    ):
        out = tmp_path / "out"
        text = SIM_CONFIG.format(out=out).replace("quiet = true", "quiet = false")
        text += f"timeseries = {timeseries}\nsnapshot_final = {snapshot}\n"
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
        assert capsys.readouterr().out == f"wrote {files} to {out}\n"
        assert {p.name for p in out.iterdir()} == set(files.split(", "))

    def test_final_state_does_not_depend_on_the_timeseries(self, tmp_path):
        # without timeseries.csv the rows compute no column, so no step reads
        # a grad u its row cached: the cut-off takes phi from a fresh sup
        snapshots = []
        for timeseries in ("true", "false"):
            out = tmp_path / timeseries
            text = SIM_CONFIG.format(out=out) + f"timeseries = {timeseries}\n"
            text = text.replace("[physics]\n", "[physics]\ncutoff_R = 0.7\n")
            cfg = write_config(tmp_path, text)
            assert main(["simulate", "--config", str(cfg)]) == 0
            snapshots.append((out / "state_final.bqsf").read_bytes())
        assert snapshots[0] == snapshots[1]

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

    def test_ldp_mc_refuses_3d(self, tmp_path, capsys, solves):
        text = LDP_CONFIG.format(out=tmp_path / "ldp")
        cfg = write_config(tmp_path, text.replace("dimension = 2", "dimension = 3"))
        assert main(["ldp-mc", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [domain].dimension: the skeleton map")
        assert not (tmp_path / "ldp").exists()
        assert solves == []

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


def test_module_entry_point_help():
    src = str(Path(torusbq.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "torusbq", "--help"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: torusbq ")
