"""Every file format a run reads or writes, each encoded in one place.

The run configuration is one INI-style file with sections [domain], [physics],
[time], [noise], [control], [output] and [ldp]; unknown keys are errors.
SCHEMA holds one row per key: its type, its default, the constructor argument
it sets and the word that constructor's error messages use for it.  Each value
is checked once, by the constructor of the object that holds it, and
CONFIG_KEYS names the INI key of every configuration error those constructors
raise.  Controls are CSV rows
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

# section -> key -> (type, default, "group.argument", error word or None).
# A None default means the key is required; defaults are used as they stand,
# not parsed.  The grid, noise, scheme, init, config and harness groups are
# each one constructor's keyword arguments (see _solver_config and
# parse_config), control holds the control file and ldp becomes harness.ldp.
# The error word is the word the constructor's error messages use for the key
# (see CONFIG_KEYS).
SCHEMA = {
    "domain": {
        "dimension": ("int", None, "grid.dimension", "dimension"),
        "resolution": ("int", None, "grid.n", "resolution"),
    },
    "physics": {
        # -1: ceil(d/2 + 2)
        "sobolev_index": ("int", -1, "config.s", "sobolev index"),
        "viscosity": ("float", 1.0, "config.viscosity", "viscosity"),
        "cutoff_R": ("float", 0.0, "config.cutoff_R", "cutoff_R"),
        # 0: full resolution
        "galerkin_modes": ("int", 0, "config.galerkin_modes", "galerkin_modes"),
        "advection": ("str", "semi_lagrangian", "scheme.kind", "advection"),
        "interpolation": ("str", "cubic", "scheme.interpolation", "interpolation"),
        "cfl_cap": ("float", 1.0, "config.cfl_cap", None),
        "init_velocity": ("str", "zero", "init.velocity", "velocity preset"),
        "init_velocity_amplitude": ("float", 1.0, "init.velocity_amplitude", None),
        "init_temperature": ("str", "zero", "init.temperature", "temperature preset"),
        "init_temperature_amplitude": (
            "float", 1.0, "init.temperature_amplitude", None
        ),
        "init_seed": ("int", 0, "init.seed", "init seed"),
    },
    "time": {
        "dt": ("float", None, "config.dt", "dt"),
        "t_end": ("float", None, "config.t_end", "t_end"),
    },
    "noise": {
        "mode": ("str", "off", "noise.mode", "noise mode"),
        "epsilon": ("float", 0.0, "config.epsilon", "epsilon"),
        "n_modes": ("int", 8, "noise.n_modes", "n_modes"),
        "gamma": ("float", 2.0, "noise.gamma", None),
        # gamma cannot make an eigenvalue negative, lambda0 (the mean mode's) can
        "lambda0": ("float", 1.0, "noise.lambda0", "eigenvalues"),
        "amplitude": ("float", 1.0, "noise.amplitude", None),
        "include_mean_mode": ("bool", True, "noise.include_mean", None),
        "a0": ("float", 1.0, "noise.a0", None),
        "a1": ("float", 0.0, "noise.a1", None),
        "a2": ("float", 0.0, "noise.a2", None),
    },
    "control": {
        "file": ("str", "", "control.file", "control"),
    },
    "output": {
        "directory": ("path", Path("out"), "harness.out_dir", None),
        "timeseries": ("bool", True, "harness.write_timeseries", None),
        "snapshot_final": ("bool", True, "harness.snapshot_final", None),
        "quiet": ("bool", False, "harness.quiet", None),
        "seed": ("int", 0, "harness.seed", None),
    },
    "ldp": {
        "functional": (
            "str", "terminal_mode_amplitude", "ldp.functional", "functional"
        ),
        "mode_index": ("int", 0, "ldp.mode_index", "mode_index"),
        "threshold": ("float", math.nan, "ldp.threshold", None),
        "direction": ("str", "ge", "ldp.direction", "direction"),
        "eps_list": ("floats", (0.04, 0.02, 0.01), "ldp.eps_list", "epsilons"),
        "n_paths": ("int", 1000, "ldp.n_paths", "n_paths"),
        "family_blocks": ("int", 4, "ldp.family_blocks", "temporal block"),
        "box_bound": ("float", 10.0, "ldp.box_bound", "box bound"),
        "n_jobs": ("int", 1, "ldp.n_jobs", "n_jobs"),
    },
}


@dataclass
class HarnessSettings:
    """Everything outside the solver proper: output, seed, LDP study knobs
    (ldp maps each [ldp] key's argument name to its value)."""

    out_dir: Path
    write_timeseries: bool = True
    snapshot_final: bool = True
    quiet: bool = False
    seed: Optional[int] = 0
    ldp: Optional[dict] = None
    config_bytes: bytes = b""


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)  # float() parses nan and inf; no key takes them
    return value


def _floats(raw: str) -> list:
    return [float(x) for x in raw.split(",") if x.strip()]


#: 1/0, true/false, yes/no and on/off
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES

#: type -> (parser of the raw text, which configparser strips, and its name)
_TYPES = {
    "int": (int, "int"),
    "float": (_finite_float, "finite float"),
    "bool": (lambda raw: _BOOLEANS[raw.lower()], "bool"),
    "floats": (_floats, "comma-separated floats"),
    "str": (str, "str"),
    "path": (Path, "path"),
}


def _read_sections(path: Path) -> dict:
    """group -> {argument: value} for every SCHEMA row: the parsed value of
    each key the file sets, the default of every other."""
    # a default section no file can name, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys are case-sensitive (cutoff_R)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key [{section}].{key}")
    groups = {}
    for section, rows in SCHEMA.items():
        for key, (kind, default, target, _) in rows.items():
            group, argument = target.split(".")
            value = default
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                parse, name = _TYPES[kind]
                try:
                    value = parse(raw)
                except (ValueError, KeyError):
                    msg = f"[{section}].{key}: cannot parse {raw!r} as {name}"
                    raise ConfigError(msg) from None
            elif default is None:
                raise ConfigError(f"missing required key [{section}].{key}")
            groups.setdefault(group, {})[argument] = value
    return groups


def _build_noise(
    grid, mode, n_modes, gamma, lambda0, include_mean, amplitude, a0, a1, a2
) -> Optional[NoiseModel]:
    if mode == "off":
        return None
    spec = default_qwiener(
        grid.dimension, n_modes, gamma=gamma, lambda0=lambda0, include_mean=include_mean
    )
    fields = default_mode_fields(grid, spec, amplitude=amplitude)
    coefficients = (a0, a1, a2) if mode == "multiplicative" else ()
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
                if (t, mode) in entries:
                    raise ValueError(f"duplicate row for t={t}, mode {mode}")
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
    word: f"[{section}].{key}"
    for section, rows in SCHEMA.items()
    for key, (_, _, _, word) in rows.items()
    if word is not None
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


def _solver_config(groups) -> SolverConfig:
    grid = Grid(**groups["grid"])
    noise = _build_noise(grid, **groups["noise"])
    control = None
    control_file = groups["control"]["file"]
    if control_file:
        if noise is None:
            raise ConfigError("[control].file: a control needs an active [noise]")
        control = read_control_csv(control_file, noise.spec.truncation)
    config = groups["config"]
    config["s"] = None if config["s"] < 0 else config["s"]
    config["galerkin_modes"] = config["galerkin_modes"] or None
    return SolverConfig(
        grid=grid,
        noise=noise,
        control=control,
        scheme=AdvectionScheme(**groups["scheme"]),
        init=InitialCondition(**groups["init"]),
        **config,
    )


def parse_config(path, control_file: Optional[str] = None) -> tuple:
    """Validated (SolverConfig, HarnessSettings) from an INI file.

    control_file, when given, replaces [control].file before validation.
    Unknown sections or keys are errors; every failed invariant names the
    offending [section].key.
    """
    path = Path(path)
    groups = _read_sections(path)
    if control_file:
        groups["control"]["file"] = control_file
    try:
        config = _solver_config(groups)
    except ValueError as exc:
        raise config_error(exc) from None
    return config, HarnessSettings(
        **groups["harness"], ldp=groups["ldp"], config_bytes=path.read_bytes()
    )


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


def read_snapshot(path) -> State:
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
    count = n_fields * grid.n**dim
    need = header.size + count * 8
    if len(raw) < need:
        raise SnapshotError(f"{path}: truncated payload ({len(raw)} < {need} bytes)")
    stack = np.frombuffer(raw, dtype="<f8", count=count, offset=header.size)
    stack = stack.astype(np.float64).reshape((n_fields,) + grid.shape)
    u = SpectralVectorField.from_sample_stack(grid, stack[:dim])
    return State(t, u, SpectralScalarField.from_samples(grid, stack[dim]))


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
