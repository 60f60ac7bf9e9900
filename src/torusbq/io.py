"""Every file format a run reads or writes, each encoded in one place.

The run configuration is one INI-style file with sections [domain], [physics],
[time], [noise], [control], [output] and [ldp]; unknown keys are errors (see
DEFAULTS for the full schema).  Each value is checked once, by the constructor
of the object that holds it, and CONFIG_KEYS names the INI key of every
configuration error those constructors raise.  Controls are CSV rows
(t, mode, value).  Snapshots are a fixed little-endian binary layout, one
header ("BQSF" magic, see _snapshot_header) and then the real-space samples of
every field.  write_csv encodes every output CSV (timeseries.csv,
ensemble_paths.csv, varadhan.csv) with 17 significant digits and write_json
every JSON output (manifest.json, ensemble_summary.json, invariants.json) as
strict JSON, so identical configurations and seeds reproduce byte-identical
outputs.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .forcing import (
    NoiseIntensity,
    NoiseModel,
    default_mode_fields,
    default_qwiener,
)
from .solver import (
    CSV_COLUMNS,
    Control,
    InitialCondition,
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
    seed: Optional[int] = 0
    ldp: Optional[LdpSettings] = None
    config_bytes: bytes = b""


def _convert(section: str, key: str, kind: str, raw: str):
    where = f"[{section}].{key}"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float" and not math.isfinite(float(raw)):
            raise ValueError(raw)  # float() parses nan and inf; no key takes them
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
        kind = "finite float" if kind == "float" else kind
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
    spec = default_qwiener(
        grid.dimension,
        values[("noise", "n_modes")],
        gamma=values[("noise", "gamma")],
        lambda0=values[("noise", "lambda0")],
        include_mean=values[("noise", "include_mean_mode")],
    )
    fields = default_mode_fields(grid, spec, amplitude=values[("noise", "amplitude")])
    envelope = ("a0", "a1", "a2") if mode == "multiplicative" else ()
    coefficients = [values[("noise", a)] for a in envelope]
    return NoiseModel(spec, NoiseIntensity(mode, tuple(fields), *coefficients))


def read_control_csv(path, n_modes: int) -> Control:
    """Piecewise-constant control from CSV rows (t, mode, value); a bad file
    raises a ConfigError naming [control].file and the line."""
    entries = {}
    times = set()
    lineno = 0
    try:
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].strip().startswith("#"):
                    continue
                if row[0].strip().lower() in ("t", "time"):
                    continue
                if len(row) != 3:
                    raise ValueError(f"expected 't,mode,value', got {row!r}")
                t, mode, value = float(row[0]), int(row[1]), float(row[2])
                if not (math.isfinite(t) and math.isfinite(value)):
                    raise ValueError(f"t and value must be finite, got {row!r}")
                if not 0 <= mode < n_modes:
                    raise ValueError(f"mode {mode} outside [0, {n_modes})")
                times.add(t)
                entries[(t, mode)] = value
    except FileNotFoundError:
        raise ConfigError(f"[control].file: control file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"[control].file: {path}:{lineno}: {exc}") from None
    if not times:
        return Control.zero(n_modes)
    grid_times = np.array(sorted(times))
    samples = np.zeros((len(grid_times), n_modes))
    for j, t in enumerate(grid_times):
        for m in range(n_modes):
            samples[j, m] = entries.get((t, m), samples[j - 1, m] if j else 0.0)
    return Control(grid_times, samples)


#: The word each constructor's error message names (the first one in the
#: message wins), and the INI key that sets it.
CONFIG_KEYS = {
    "dimension": "[domain].dimension",
    "resolution": "[domain].resolution",
    "sobolev index": "[physics].sobolev_index",
    "cutoff_R": "[physics].cutoff_R",
    "viscosity": "[physics].viscosity",
    "galerkin_modes": "[physics].galerkin_modes",
    "advection": "[physics].advection",
    "interpolation": "[physics].interpolation",
    "velocity preset": "[physics].init_velocity",
    "temperature preset": "[physics].init_temperature",
    "dt": "[time].dt",
    "t_end": "[time].t_end",
    "noise mode": "[noise].mode",
    "epsilon": "[noise].epsilon",
    "n_modes": "[noise].n_modes",
    # gamma cannot make an eigenvalue negative, lambda0 (the mean mode's) can
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
_KEY_WORD = re.compile(r"\b(%s)\b" % "|".join(CONFIG_KEYS))


def config_error(exc: ValueError, flags=None) -> ConfigError:
    """exc as a ConfigError naming, through CONFIG_KEYS, the key it is about;
    flags maps a key a command-line flag supplied to that flag's name."""
    if isinstance(exc, ConfigError):
        return exc
    msg = str(exc)
    word = _KEY_WORD.search(msg)
    key = CONFIG_KEYS[word.group(1)] if word else None
    key = (flags or {}).get(key, key)
    return ConfigError(f"{key}: {msg}" if key else msg)


def _solver_config(values) -> SolverConfig:
    grid = Grid(values[("domain", "dimension")], values[("domain", "resolution")])
    noise = _build_noise(values, grid)
    control = None
    control_file = values[("control", "file")]
    if control_file:
        if noise is None:
            raise ConfigError("[control].file: a control needs an active [noise]")
        control = read_control_csv(control_file, noise.spec.truncation)
    s = values[("physics", "sobolev_index")]
    gal = values[("physics", "galerkin_modes")]
    return SolverConfig(
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
        scheme=AdvectionScheme(
            values[("physics", "advection")], values[("physics", "interpolation")]
        ),
        cfl_cap=values[("physics", "cfl_cap")],
        init=InitialCondition(
            velocity=values[("physics", "init_velocity")],
            velocity_amplitude=values[("physics", "init_velocity_amplitude")],
            temperature=values[("physics", "init_temperature")],
            temperature_amplitude=values[("physics", "init_temperature_amplitude")],
            seed=values[("physics", "init_seed")],
        ),
    )


def parse_config(path, control_file: Optional[str] = None) -> tuple:
    """Validated (SolverConfig, HarnessSettings) from an INI file.

    control_file, when given, replaces [control].file before validation.
    Unknown sections or keys are errors; every failed invariant names the
    offending [section].key.
    """
    path = Path(path)
    values = _read_sections(path)
    if control_file:
        values[("control", "file")] = control_file
    try:
        config = _solver_config(values)
    except ValueError as exc:
        raise config_error(exc) from None

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
    )
    return config, harness


# -- snapshots ---------------------------------------------------------------------

#: magic, version and dimension, read first to learn the rest of the header
_HEADER_PREFIX = struct.Struct("<4sII")


def _snapshot_header(dimension: int) -> struct.Struct:
    """The prefix, then each axis' resolution, the time and the field count."""
    return struct.Struct(f"{_HEADER_PREFIX.format}{dimension}IdI")


def _unpack(header: struct.Struct, raw: bytes, path) -> tuple:
    if len(raw) < header.size:
        raise SnapshotError(
            f"{path}: truncated header ({len(raw)} < {header.size} bytes)"
        )
    return header.unpack_from(raw)


def write_snapshot(state: State, path):
    """The header, then each field's samples row-major as little-endian
    doubles (velocity components first, temperature last)."""
    grid = state.u.grid
    d = grid.dimension
    fields = list(state.u.samples) + [state.theta.samples]
    header = _snapshot_header(d).pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, d, *([grid.n] * d), state.t, len(fields)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for samples in fields:
            fh.write(np.ascontiguousarray(samples, dtype="<f8").tobytes())


def read_snapshot(path, expect_grid: Optional[Grid] = None) -> State:
    """Inverse of write_snapshot; read . write is the identity on samples."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise SnapshotError(f"snapshot file not found: {path}") from None
    if raw[:4] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad magic {raw[:4]!r}")
    _, version, dim = _unpack(_HEADER_PREFIX, raw, path)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    if dim not in (2, 3):
        raise SnapshotError(f"{path}: bad dimension {dim}")
    header = _snapshot_header(dim)
    _, _, _, *res, t, n_fields = _unpack(header, raw, path)
    if len(set(res)) != 1:
        raise SnapshotError(f"{path}: anisotropic resolution {res}")
    if n_fields != dim + 1:
        raise SnapshotError(f"{path}: expected {dim + 1} fields, found {n_fields}")
    try:
        grid = Grid(dim, res[0])
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from None
    if expect_grid is not None and grid != expect_grid:
        raise SnapshotError(
            f"{path}: snapshot grid {grid} does not match expected {expect_grid}"
        )
    count = n_fields * grid.n**dim
    need = header.size + count * 8
    if len(raw) < need:
        raise SnapshotError(f"{path}: truncated payload ({len(raw)} < {need} bytes)")
    stack = np.frombuffer(raw, dtype="<f8", count=count, offset=header.size)
    stack = stack.astype(np.float64).reshape((n_fields,) + grid.shape)
    u = SpectralVectorField.from_sample_stack(grid, stack[:dim])
    return State(t, u, SpectralScalarField.from_samples(grid, stack[dim]))


def snapshot_size(dimension: int, n: int) -> int:
    """Exact byte size of a snapshot at the given resolution."""
    return _snapshot_header(dimension).size + (dimension + 1) * n**dimension * 8


# -- CSV and JSON -----------------------------------------------------------------


def write_csv(header, rows, path):
    """CSV of the header and then the rows, CRLF line ends, every value at 17
    significant digits (so an integer below 10**17 prints as itself)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(float(v), ".17g") for v in row] for row in rows)


def _finite_or_null(obj):
    """obj with every non-finite float (a blown-up path's NaN) made None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(obj, path):
    """Strict JSON (a non-finite float is null) with a two-space indent and
    sorted keys, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_timeseries(record: TrajectoryRecord, path):
    """The pinned CSV_COLUMNS (the table's leading columns) of every row."""
    write_csv(CSV_COLUMNS, record.values[:, : len(CSV_COLUMNS)].tolist(), path)


# -- manifests ----------------------------------------------------------------------


@dataclass
class RunManifest:
    """Provenance for one invocation; every output file gets a checksum."""

    config_hash: str
    master_seed: Optional[int]
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
        write_json(dataclasses.asdict(self), path)


def config_hash(config_bytes: bytes) -> str:
    return hashlib.sha256(config_bytes).hexdigest()
