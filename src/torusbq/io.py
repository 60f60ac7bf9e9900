"""Configuration files, binary field snapshots, CSV time series, manifests.

The run configuration is one INI-style file with sections [domain], [physics],
[time], [noise], [control], [output] and [ldp]; every key is validated and
unknown keys are errors (see DEFAULTS for the full schema).  Snapshots are a
fixed little-endian binary layout ("BQSF" magic) holding the real-space
samples of every field, and time series are CSV with 17 significant digits,
so identical configurations and seeds reproduce byte-identical outputs.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .forcing import (
    additive_intensity,
    default_mode_fields,
    default_qwiener,
    multiplicative_intensity,
)
from .solver import (
    CSV_COLUMNS,
    Control,
    InitialCondition,
    NoiseModel,
    SolverConfig,
    State,
    TrajectoryRecord,
)
from .spectral import Grid, SpectralScalarField, SpectralVectorField
from .transport import AdvectionScheme

SNAPSHOT_MAGIC = b"BQSF"
SNAPSHOT_VERSION = 1


class ConfigError(ValueError):
    """Configuration file problem; the message names [section].key."""


class SnapshotError(ValueError):
    """Snapshot file problem (bad magic, truncation, or shape mismatch)."""


# -- configuration ---------------------------------------------------------------

# section -> key -> (type tag, default); None default means required
DEFAULTS = {
    "domain": {
        "dimension": ("int", None),
        "resolution": ("int", None),
    },
    "physics": {
        "sobolev_index": ("int", -1),  # -1: ceil(d/2 + 2)
        "viscosity": ("float", 1.0),
        "cutoff_R": ("float", 0.0),
        "galerkin_modes": ("int", 0),  # 0: full resolution
        "advection": ("str", "semi_lagrangian"),
        "interpolation": ("str", "cubic"),
        "dealias": ("bool", True),
        "cfl_cap": ("float", 1.0),
        "init_velocity": ("str", "zero"),
        "init_velocity_amplitude": ("float", 1.0),
        "init_temperature": ("str", "zero"),
        "init_temperature_amplitude": ("float", 1.0),
        "init_seed": ("int", 0),
    },
    "time": {
        "dt": ("float", None),
        "t_end": ("float", None),
    },
    "noise": {
        "mode": ("str", "off"),
        "epsilon": ("float", 0.0),
        "n_modes": ("int", 8),
        "gamma": ("float", 2.0),
        "lambda0": ("float", 1.0),
        "amplitude": ("float", 1.0),
        "include_mean_mode": ("bool", True),
        "a0": ("float", 1.0),
        "a1": ("float", 0.0),
        "a2": ("float", 0.0),
    },
    "control": {
        "file": ("str", ""),
    },
    "output": {
        "directory": ("str", "out"),
        "timeseries": ("bool", True),
        "snapshot_final": ("bool", True),
        "quiet": ("bool", False),
        "seed": ("int", 0),
    },
    "ldp": {
        "functional": ("str", "terminal_mode_amplitude"),
        "mode_index": ("int", 0),
        "threshold": ("float", math.nan),
        "direction": ("str", "ge"),
        "eps_list": ("str", "0.04,0.02,0.01"),
        "n_paths": ("int", 1000),
        "family_blocks": ("int", 4),
        "box_bound": ("float", 10.0),
        "n_jobs": ("int", 1),
    },
}


@dataclass
class LdpSettings:
    functional: str
    mode_index: int
    threshold: float
    direction: str
    eps_list: list
    n_paths: int
    family_blocks: int
    box_bound: float
    n_jobs: int


@dataclass
class HarnessSettings:
    """Everything outside the solver proper: output, seed, LDP study knobs."""

    out_dir: Path
    write_timeseries: bool = True
    snapshot_final: bool = True
    quiet: bool = False
    seed: int = 0
    ldp: Optional[LdpSettings] = None
    config_bytes: bytes = b""
    control_file: str = ""


def _convert(section: str, key: str, kind: str, raw: str):
    where = f"[{section}].{key}"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}") from None


def _read_sections(path: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (cutoff_R)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    values = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key [{section}].{key}")
            kind, _ = DEFAULTS[section][key]
            values[(section, key)] = _convert(section, key, kind, raw)
    for section, keys in DEFAULTS.items():
        for key, (kind, default) in keys.items():
            if (section, key) in values:
                continue
            if default is None:
                raise ConfigError(f"missing required key [{section}].{key}")
            values[(section, key)] = default
    return values


def _build_noise(values, grid) -> Optional[NoiseModel]:
    mode = values[("noise", "mode")]
    if mode == "off":
        return None
    if mode not in ("additive", "multiplicative"):
        raise ConfigError(f"[noise].mode: unknown mode {mode!r}")
    n_modes = values[("noise", "n_modes")]
    if n_modes < 1:
        raise ConfigError("[noise].n_modes: need at least one mode")
    spec = default_qwiener(
        grid.dimension,
        n_modes,
        gamma=values[("noise", "gamma")],
        lambda0=values[("noise", "lambda0")],
        include_mean=values[("noise", "include_mean_mode")],
    )
    fields = default_mode_fields(grid, spec, amplitude=values[("noise", "amplitude")])
    if mode == "additive":
        intensity = additive_intensity(fields)
    else:
        intensity = multiplicative_intensity(
            fields,
            a0=values[("noise", "a0")],
            a1=values[("noise", "a1")],
            a2=values[("noise", "a2")],
        )
    return NoiseModel(spec, intensity)


def read_control_csv(path, n_modes: int) -> Control:
    """Piecewise-constant control from CSV rows (t, mode, value)."""
    entries = {}
    times = set()
    try:
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].strip().startswith("#"):
                    continue
                if row[0].strip().lower() in ("t", "time"):
                    continue
                if len(row) != 3:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 't,mode,value', got {row!r}"
                    )
                t, mode, value = float(row[0]), int(row[1]), float(row[2])
                if not 0 <= mode < n_modes:
                    raise ConfigError(
                        f"{path}:{lineno}: mode {mode} outside [0, {n_modes})"
                    )
                times.add(t)
                entries[(t, mode)] = value
    except FileNotFoundError:
        raise ConfigError(f"control file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not times:
        return Control.zero(n_modes)
    grid_times = np.array(sorted(times))
    samples = np.zeros((len(grid_times), n_modes))
    for j, t in enumerate(grid_times):
        for m in range(n_modes):
            samples[j, m] = entries.get((t, m), samples[j - 1, m] if j else 0.0)
    return Control(grid_times, samples)


def parse_config(path) -> tuple:
    """Validated (SolverConfig, HarnessSettings) from an INI file.

    Unknown sections or keys are errors; every failed invariant names the
    offending [section].key.
    """
    path = Path(path)
    values = _read_sections(path)

    try:
        grid = Grid(values[("domain", "dimension")], values[("domain", "resolution")])
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from None

    try:
        scheme = AdvectionScheme(
            values[("physics", "advection")],
            values[("physics", "interpolation")],
            values[("physics", "dealias")],
        )
    except ValueError as exc:
        raise ConfigError(f"[physics]: {exc}") from None

    noise = _build_noise(values, grid)
    control = None
    control_file = values[("control", "file")]
    if control_file:
        if noise is None:
            raise ConfigError("[control].file: a control needs an active [noise]")
        control = read_control_csv(control_file, noise.spec.truncation)

    s = values[("physics", "sobolev_index")]
    gal = values[("physics", "galerkin_modes")]
    init = InitialCondition(
        velocity=values[("physics", "init_velocity")],
        velocity_amplitude=values[("physics", "init_velocity_amplitude")],
        temperature=values[("physics", "init_temperature")],
        temperature_amplitude=values[("physics", "init_temperature_amplitude")],
        seed=values[("physics", "init_seed")],
    )
    kwargs = dict(
        grid=grid,
        dt=values[("time", "dt")],
        t_end=values[("time", "t_end")],
        s=None if s < 0 else s,
        cutoff_R=values[("physics", "cutoff_R")],
        galerkin_modes=None if gal == 0 else gal,
        epsilon=values[("noise", "epsilon")],
        viscosity=values[("physics", "viscosity")],
        noise=noise,
        control=control,
        scheme=scheme,
        cfl_cap=values[("physics", "cfl_cap")],
        init=init,
    )
    section_of = {
        "dt": "time",
        "t_end": "time",
        "epsilon": "noise",
        "cutoff_R": "physics",
        "viscosity": "physics",
        "galerkin_modes": "physics",
        "s": "physics",
    }
    try:
        config = SolverConfig(**kwargs)
    except ValueError as exc:
        msg = str(exc)
        hint = next((k for k in section_of if k in msg), None)
        where = f"[{section_of[hint]}].{hint}: " if hint else ""
        raise ConfigError(f"{where}{msg}") from None

    raw_eps = values[("ldp", "eps_list")]
    try:
        eps_list = [float(x) for x in raw_eps.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(
            f"[ldp].eps_list: cannot parse {raw_eps!r} as comma-separated floats"
        ) from None
    ldp = LdpSettings(
        functional=values[("ldp", "functional")],
        mode_index=values[("ldp", "mode_index")],
        threshold=values[("ldp", "threshold")],
        direction=values[("ldp", "direction")],
        eps_list=eps_list,
        n_paths=values[("ldp", "n_paths")],
        family_blocks=values[("ldp", "family_blocks")],
        box_bound=values[("ldp", "box_bound")],
        n_jobs=values[("ldp", "n_jobs")],
    )
    harness = HarnessSettings(
        out_dir=Path(values[("output", "directory")]),
        write_timeseries=values[("output", "timeseries")],
        snapshot_final=values[("output", "snapshot_final")],
        quiet=values[("output", "quiet")],
        seed=values[("output", "seed")],
        ldp=ldp,
        config_bytes=path.read_bytes(),
        control_file=control_file,
    )
    return config, harness


# -- snapshots ---------------------------------------------------------------------


def write_snapshot(state: State, path):
    """Fixed binary layout: magic, version, dimension, per-axis resolution,
    time, field count, then each field's samples row-major as little-endian
    doubles (velocity components first, temperature last)."""
    grid = state.u.grid
    d = grid.dimension
    fields = [c.samples for c in state.u.components] + [state.theta.samples]
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<I", d))
        fh.write(struct.pack(f"<{d}I", *([grid.n] * d)))
        fh.write(struct.pack("<d", state.t))
        fh.write(struct.pack("<I", len(fields)))
        for samples in fields:
            fh.write(np.ascontiguousarray(samples, dtype="<f8").tobytes())


def read_snapshot(path, expect_grid: Optional[Grid] = None) -> State:
    """Inverse of write_snapshot; read . write is the identity on samples."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad magic {raw[:4]!r}")
    off = 4
    version, dim = struct.unpack_from("<II", raw, off)
    off += 8
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    if dim not in (2, 3):
        raise SnapshotError(f"{path}: bad dimension {dim}")
    res = struct.unpack_from(f"<{dim}I", raw, off)
    off += 4 * dim
    if len(set(res)) != 1:
        raise SnapshotError(f"{path}: anisotropic resolution {res}")
    (t,) = struct.unpack_from("<d", raw, off)
    off += 8
    (n_fields,) = struct.unpack_from("<I", raw, off)
    off += 4
    if n_fields != dim + 1:
        raise SnapshotError(f"{path}: expected {dim + 1} fields, found {n_fields}")
    grid = Grid(dim, res[0])
    if expect_grid is not None and grid != expect_grid:
        raise SnapshotError(
            f"{path}: snapshot grid {grid} does not match expected {expect_grid}"
        )
    count = grid.n**dim
    need = off + n_fields * count * 8
    if len(raw) < need:
        raise SnapshotError(f"{path}: truncated payload ({len(raw)} < {need} bytes)")
    fields = []
    for _ in range(n_fields):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(
            grid.shape
        )
        fields.append(arr.astype(np.float64))
        off += count * 8
    u = SpectralVectorField.from_samples(grid, *fields[:dim])
    theta = SpectralScalarField.from_samples(grid, fields[dim])
    return State(t, u, theta)


def snapshot_size(dimension: int, n: int) -> int:
    """Exact byte size of a snapshot at the given resolution."""
    header = 4 + 4 + 4 + 4 * dimension + 8 + 4
    return header + (dimension + 1) * n**dimension * 8


# -- time series --------------------------------------------------------------------


def write_timeseries(record: TrajectoryRecord, path):
    """CSV with the pinned column set, 17 significant digits per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in record.rows:
            out = []
            for name in CSV_COLUMNS:
                value = getattr(row, name)
                if name == "stop_flag":
                    out.append(str(int(value)))
                else:
                    out.append(format(float(value), ".17g"))
            writer.writerow(out)


# -- manifests ----------------------------------------------------------------------


@dataclass
class RunManifest:
    """Provenance for one invocation; every output file gets a checksum."""

    config_hash: str
    master_seed: int
    code_version: str = __version__
    started: str = ""
    finished: str = ""
    stop_reason: Optional[str] = None
    files: dict = field(default_factory=dict)

    def add_file(self, path):
        path = Path(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files[path.name] = digest

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_hash(config_bytes: bytes) -> str:
    return hashlib.sha256(config_bytes).hexdigest()
