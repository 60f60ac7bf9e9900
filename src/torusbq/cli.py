"""Command-line front end.

Each subcommand takes only the flags it reads:

    simulate          --config --seed --out-dir --control --quiet
    ensemble          --config --seed --out-dir --paths --control --quiet
    skeleton          --config --out-dir --control --quiet
    check-invariants  --config --out-dir --quiet
    ldp-mc            --config --seed --out-dir --paths --quiet
    mollify           --input --epsilon --out-dir --quiet

simulate runs one path, ensemble many plus a summary and skeleton the
noise-free controlled system; check-invariants runs the property battery,
ldp-mc tabulates small-noise rare events of the uncontrolled law and mollify
smooths a snapshot.  --seed, --out-dir and --quiet override [output].seed,
.directory and .quiet; --control supplies [control].file before validation, so
it is validated, and its errors named, as that key.  A command validates
and computes before its output directory is created; io then writes its files
and a manifest.json of their sha256 digests and the seed (null without --seed).
Exit codes: 0 success, 1 validation error (nothing written), 2 numerical blow-up
detected, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .checks import run_invariant_battery
from .forcing import RandomStream
from .io import (
    ConfigError,
    HarnessSettings,
    RunManifest,
    SnapshotError,
    config_error,
    parse_config,
    read_snapshot,
    write_csv,
    write_json,
    write_snapshot,
    write_timeseries,
)
from .ldp import FUNCTIONALS, VARADHAN_COLUMNS, ControlFamily, RareEvent, varadhan_gap
from .solver import State, run, run_ensemble
from .spectral import mollify

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BLOW_UP = 2
EXIT_INVARIANT = 3


@dataclasses.dataclass
class Outcome:
    """What a command computed, before anything is written.

    files maps each output file name to a function writing it to a path;
    lines go to stdout unless quiet, then error (if any) to stderr.
    """

    files: dict
    lines: list = dataclasses.field(default_factory=list)
    error: Optional[str] = None
    code: int = EXIT_OK
    stop_reason: Optional[str] = None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load(args):
    """(config, harness) with the flag overrides; mollify, which reads a
    snapshot, gets no config and the default harness (cwd).  The seed is None
    for a command that takes no --seed: it draws nothing from one."""
    if "config" not in vars(args):
        config, harness = None, HarnessSettings(out_dir=Path("."))
    elif not args.config:
        raise ConfigError("--config is required for this command")
    else:
        config, harness = parse_config(args.config, getattr(args, "control", None))
    if "seed" not in vars(args):
        harness.seed = None
    elif args.seed is not None:
        harness.seed = args.seed
    if args.out_dir is not None:
        harness.out_dir = Path(args.out_dir)
    # a file at out_dir or above it would fail mkdir only after the computation
    found = next(p for p in (harness.out_dir, *harness.out_dir.parents) if p.exists())
    if not found.is_dir():
        source = "--out-dir" if args.out_dir is not None else "[output].directory"
        raise ConfigError(f"{source}: {found} exists and is not a directory")
    if args.quiet:
        harness.quiet = True
    return config, harness


def _write_outputs(outcome: Outcome, harness: HarnessSettings, started: str) -> int:
    """The one place outputs are written: the directory, the command's files
    and manifest.json with their digests; then the chatter and the exit code."""
    out_dir = harness.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config_hash=hashlib.sha256(harness.config_bytes).hexdigest(),
        master_seed=harness.seed,
        started=started,
        stop_reason=outcome.stop_reason,
    )
    for name, write in outcome.files.items():
        write(out_dir / name)
        manifest.add_file(out_dir / name)
    manifest.finished = _now()
    manifest.write(out_dir / "manifest.json")
    if not harness.quiet:
        for line in outcome.lines:
            print(line)
    if outcome.error is not None:
        print(f"error: {outcome.error}", file=sys.stderr)
    return outcome.code


def _trajectory_outcome(record, harness) -> Outcome:
    files = {}
    if harness.write_timeseries:
        files["timeseries.csv"] = partial(write_timeseries, record)
    if harness.snapshot_final:
        files["state_final.bqsf"] = partial(write_snapshot, record.final_state)
    if not record.blown_up:
        written = ", ".join([*files, "manifest.json"])
        lines = [f"wrote {written} to {harness.out_dir}"]
        return Outcome(files, lines, stop_reason=record.stop_reason)
    cause = record.stop_reason.replace("_", " ").replace(":", " in ")
    error = f"numerical {cause} at t={record.column('t')[-1]:.6g}"
    return Outcome(
        files, error=error, code=EXIT_BLOW_UP, stop_reason=record.stop_reason
    )


def cmd_simulate(args, config, harness) -> Outcome:
    stream = RandomStream(harness.seed) if config.epsilon > 0 else None
    return _trajectory_outcome(run(config, stream=stream), harness)


def cmd_skeleton(args, config, harness) -> Outcome:
    return _trajectory_outcome(run(dataclasses.replace(config, epsilon=0.0)), harness)


#: ensemble summary columns, built from ldp.FUNCTIONALS
_ENSEMBLE_FUNCTIONALS = ("terminal_l2_u", "sup_l2_u", "terminal_l2_theta")


def cmd_ensemble(args, config, harness) -> Outcome:
    n_paths = args.paths if args.paths is not None else 8
    if n_paths < 1:
        raise ConfigError(f"--paths: need at least one path, got {n_paths}")
    builders, needs_full = zip(*(FUNCTIONALS[name] for name in _ENSEMBLE_FUNCTIONALS))
    functionals = [build(config) for build in builders]
    table = run_ensemble(
        config, n_paths, harness.seed, functionals, full_diagnostics=any(needs_full)
    )

    mean, variance = table.mean(axis=1), table.var(axis=1)
    blown = int(np.sum(~np.isfinite(table[0])))
    report = {
        "n_paths": n_paths,
        "master_seed": harness.seed,
        "blown_up_paths": blown,
        "mean": dict(zip(_ENSEMBLE_FUNCTIONALS, mean.tolist())),
        "variance": dict(zip(_ENSEMBLE_FUNCTIONALS, variance.tolist())),
        "max": dict(zip(_ENSEMBLE_FUNCTIONALS, table.max(axis=1).tolist())),
    }
    header = ("path",) + _ENSEMBLE_FUNCTIONALS
    rows = list(zip(range(n_paths), *table))
    files = {
        "ensemble_paths.csv": partial(write_csv, header, rows),
        "ensemble_summary.json": partial(write_json, report),
    }
    if blown:
        error = f"{blown}/{n_paths} paths blew up"
        return Outcome(files, error=error, code=EXIT_BLOW_UP)
    lines = [f"ensemble of {n_paths} paths summarised in {harness.out_dir}"]
    return Outcome(files, lines)


def cmd_check_invariants(args, config, harness) -> Outcome:
    results = run_invariant_battery(config)
    report = [dataclasses.asdict(r) for r in results]
    files = {"invariants.json": partial(write_json, report)}
    lines = [r.line() for r in results]
    if all(r.passed for r in results):
        return Outcome(files, lines)
    error = "invariant failure (see invariants.json)"
    return Outcome(files, lines, error=error, code=EXIT_INVARIANT)


def cmd_ldp_mc(args, config, harness) -> Outcome:
    if config.control is not None:
        raise ConfigError(
            "[control].file: ldp-mc estimates the uncontrolled law; a controlled "
            "estimate would need Girsanov weights, which ldp-mc does not compute"
        )
    ldp = harness.ldp
    if not np.isfinite(ldp["threshold"]):
        raise ConfigError("[ldp].threshold: a finite threshold is required for ldp-mc")
    if config.noise is None:
        raise ConfigError("[noise].mode: ldp-mc needs an active [noise] section")
    params = {}
    if ldp["functional"] == "terminal_mode_amplitude":
        params["mode_index"] = ldp["mode_index"]
    n_paths = args.paths if args.paths is not None else ldp["n_paths"]
    try:  # varadhan_gap refuses every bad input before its first solve
        event = RareEvent(ldp["functional"], ldp["threshold"], ldp["direction"], params)
        family = ControlFamily(ldp["family_blocks"], ldp["box_bound"])
        table = varadhan_gap(
            config, event, ldp["eps_list"], n_paths, family, harness.seed, ldp["n_jobs"]
        )
    except ValueError as exc:
        flags = {"[ldp].n_paths": "--paths"} if args.paths is not None else None
        raise config_error(exc, flags) from None
    lines = [
        f"eps={eps:g}: p_hat={p_hat:.4g} -eps*log(p)={gap:.4g} best_cost={cost:.4g}"
        for eps, _, p_hat, _, _, gap, cost in table
    ]
    files = {"varadhan.csv": partial(write_csv, VARADHAN_COLUMNS, table.tolist())}
    return Outcome(files, lines)


def cmd_mollify(args, config, harness) -> Outcome:
    if args.input is None or args.epsilon is None:
        raise ConfigError("mollify needs --input SNAPSHOT and --epsilon VALUE")
    state = read_snapshot(args.input)
    harness.config_bytes = Path(args.input).read_bytes()  # hashed in the manifest
    eps = args.epsilon
    try:
        smoothed = State(state.t, mollify(state.u, eps), mollify(state.theta, eps))
    except ValueError as exc:
        raise ConfigError(f"--epsilon: {exc}") from None
    out = harness.out_dir / "state_mollified.bqsf"
    return Outcome({out.name: partial(write_snapshot, smoothed)}, [f"wrote {out}"])


#: every flag's argparse settings; COMMANDS names the flags each command reads
FLAGS = {
    "config": dict(help="INI configuration file"),
    "seed": dict(type=int, help="master seed override"),
    "out-dir": dict(help="output directory override"),
    "paths": dict(type=int, help="number of Monte Carlo paths"),
    "control": dict(help="control CSV of rows t,mode,value"),
    "quiet": dict(action="store_true", help="suppress progress chatter"),
    "input": dict(help="input snapshot"),
    "epsilon": dict(type=float, help="smoothing scale"),
}

#: subcommand -> (command(args, config, harness) -> Outcome, the flags it reads)
COMMANDS = {
    "simulate": (cmd_simulate, "config seed out-dir control quiet"),
    "ensemble": (cmd_ensemble, "config seed out-dir paths control quiet"),
    "skeleton": (cmd_skeleton, "config out-dir control quiet"),
    "check-invariants": (cmd_check_invariants, "config out-dir quiet"),
    "ldp-mc": (cmd_ldp_mc, "config seed out-dir paths quiet"),
    "mollify": (cmd_mollify, "input epsilon out-dir quiet"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusbq",
        description="Pseudo-spectral stochastic Boussinesq simulator on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, _ = COMMANDS[args.command]
    started = _now()
    try:
        config, harness = _load(args)
        outcome = command(args, config, harness)
    except (ConfigError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return _write_outputs(outcome, harness, started)


if __name__ == "__main__":
    sys.exit(main())
