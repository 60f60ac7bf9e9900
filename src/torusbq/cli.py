"""Command-line front end.

Subcommands: simulate (one path), ensemble (many paths plus a summary),
skeleton (noise-free controlled run), check-invariants (property battery with
a machine-readable report), ldp-mc (small-noise rare-event table), mollify
(smooth a snapshot).  Exit codes: 0 success, 1 validation error, 2 numerical
blow-up detected, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checks import as_json, report_lines, run_invariant_battery
from .forcing import RandomStream
from .io import (
    ConfigError,
    HarnessSettings,
    RunManifest,
    SnapshotError,
    config_hash,
    parse_config,
    read_control_csv,
    read_snapshot,
    write_snapshot,
    write_timeseries,
)
from .ldp import FUNCTIONALS, ControlFamily, RareEvent, varadhan_gap
from .ldp import check_eps_list, check_n_paths
from .mollifier import MollifierSpec, mollify
from .solver import SolverConfig, State, run, run_ensemble

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BLOW_UP = 2
EXIT_INVARIANT = 3


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _say(harness, message):
    if not harness.quiet:
        print(message)


def _load(args):
    if not args.config:
        raise ConfigError("--config is required for this command")
    config, harness = parse_config(args.config)
    if args.seed is not None:
        harness.seed = args.seed
    if args.out_dir is not None:
        harness.out_dir = Path(args.out_dir)
    if args.quiet:
        harness.quiet = True
    if getattr(args, "control", None):
        if config.noise is None:
            raise ConfigError("--control needs an active [noise] section")
        control = read_control_csv(args.control, config.noise.spec.truncation)
        config = dataclasses.replace(config, control=control)
    harness.out_dir.mkdir(parents=True, exist_ok=True)
    return config, harness


def _manifest(harness: HarnessSettings) -> RunManifest:
    return RunManifest(
        config_hash=config_hash(harness.config_bytes),
        master_seed=harness.seed,
        started=_now(),
    )


def _finish_run(record, config, harness, manifest) -> int:
    outputs = []
    if harness.write_timeseries:
        ts = harness.out_dir / "timeseries.csv"
        write_timeseries(record, ts)
        outputs.append(ts)
    if harness.snapshot_final and record.final_state is not None:
        snap = harness.out_dir / "state_final.bqsf"
        write_snapshot(record.final_state, snap)
        outputs.append(snap)
    manifest.stop_reason = record.stop_reason
    manifest.finished = _now()
    for path in outputs:
        manifest.add_file(path)
    manifest.write(harness.out_dir / "manifest.json")
    if record.blown_up:
        print(
            f"error: numerical {record.stop_reason.replace('_', ' ').replace(':', ' in ')} "
            f"at t={record.rows[-1].t:.6g}",
            file=sys.stderr,
        )
        return EXIT_BLOW_UP
    _say(harness, f"wrote {', '.join(p.name for p in outputs)} to {harness.out_dir}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, harness = _load(args)
    manifest = _manifest(harness)
    stream = RandomStream(harness.seed) if config.epsilon > 0 else None
    record = run(config, stream=stream)
    return _finish_run(record, config, harness, manifest)


def cmd_skeleton(args) -> int:
    config, harness = _load(args)
    config = dataclasses.replace(config, epsilon=0.0)
    manifest = _manifest(harness)
    record = run(config)
    return _finish_run(record, config, harness, manifest)


#: ensemble summary columns, built from ldp.FUNCTIONALS
_ENSEMBLE_FUNCTIONALS = ("terminal_l2_u", "sup_l2_u", "terminal_l2_theta")


def cmd_ensemble(args) -> int:
    config, harness = _load(args)
    n_paths = args.paths if args.paths is not None else 8
    if n_paths < 1:
        raise ConfigError(f"--paths: need at least one path, got {n_paths}")
    manifest = _manifest(harness)
    functionals = {
        name: FUNCTIONALS[name][0](config) for name in _ENSEMBLE_FUNCTIONALS
    }
    summary = run_ensemble(
        config, n_paths, harness.seed, functionals, full_diagnostics=False
    )
    paths_csv = harness.out_dir / "ensemble_paths.csv"
    with open(paths_csv, "w") as fh:
        fh.write("path," + ",".join(_ENSEMBLE_FUNCTIONALS) + "\n")
        for p in range(n_paths):
            vals = ",".join(
                format(summary.values[name][p], ".17g")
                for name in _ENSEMBLE_FUNCTIONALS
            )
            fh.write(f"{p},{vals}\n")
    blown = int(np.sum(~np.isfinite(summary.values[_ENSEMBLE_FUNCTIONALS[0]])))
    summary_json = harness.out_dir / "ensemble_summary.json"
    with open(summary_json, "w") as fh:
        json.dump(
            {
                "n_paths": n_paths,
                "master_seed": harness.seed,
                "blown_up_paths": blown,
                "mean": summary.mean,
                "variance": summary.variance,
                "max": summary.max,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    manifest.finished = _now()
    manifest.add_file(paths_csv)
    manifest.add_file(summary_json)
    manifest.write(harness.out_dir / "manifest.json")
    if blown:
        print(f"error: {blown}/{n_paths} paths blew up", file=sys.stderr)
        return EXIT_BLOW_UP
    _say(harness, f"ensemble of {n_paths} paths summarised in {harness.out_dir}")
    return EXIT_OK


def cmd_check_invariants(args) -> int:
    config, harness = _load(args)
    manifest = _manifest(harness)
    results = run_invariant_battery(config)
    report = harness.out_dir / "invariants.json"
    with open(report, "w") as fh:
        json.dump(as_json(results), fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.finished = _now()
    manifest.add_file(report)
    manifest.write(harness.out_dir / "manifest.json")
    for line in report_lines(results):
        _say(harness, line)
    if not all(r.passed for r in results):
        print("error: invariant failure (see invariants.json)", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_ldp_mc(args) -> int:
    config, harness = _load(args)
    settings = harness.ldp
    if settings is None or not np.isfinite(settings.threshold):
        raise ConfigError("[ldp].threshold: a finite threshold is required for ldp-mc")
    if config.noise is None:
        raise ConfigError("[noise].mode: ldp-mc needs an active [noise] section")
    params = {}
    if settings.functional == "terminal_mode_amplitude":
        n_modes = config.noise.spec.truncation
        if not 0 <= settings.mode_index < n_modes:
            raise ConfigError(
                f"[ldp].mode_index: {settings.mode_index} outside [0, {n_modes})"
            )
        params["mode_index"] = settings.mode_index
    try:
        event = RareEvent(
            settings.functional, settings.threshold, settings.direction, params
        )
    except ValueError as exc:
        key = "direction" if str(exc).startswith("direction") else "functional"
        raise ConfigError(f"[ldp].{key}: {exc}") from None
    try:
        family = ControlFamily(settings.family_blocks, settings.box_bound)
    except ValueError as exc:
        key = "box_bound" if str(exc).startswith("box") else "family_blocks"
        raise ConfigError(f"[ldp].{key}: {exc}") from None
    n_paths = args.paths if args.paths is not None else settings.n_paths
    paths_key = "--paths" if args.paths is not None else "[ldp].n_paths"
    for key, check, value in (
        (paths_key, check_n_paths, n_paths),
        ("[ldp].eps_list", check_eps_list, settings.eps_list),
    ):
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    manifest = _manifest(harness)
    table = varadhan_gap(
        config,
        event,
        settings.eps_list,
        n_paths,
        family=family,
        master_seed=harness.seed,
        n_jobs=settings.n_jobs,
    )
    out = harness.out_dir / "varadhan.csv"
    table.write_csv(out)
    manifest.finished = _now()
    manifest.add_file(out)
    manifest.write(harness.out_dir / "manifest.json")
    for row in table.rows:
        _say(
            harness,
            f"eps={row.epsilon:g}: p_hat={row.p_hat:.4g} "
            f"-eps*log(p)={row.neg_eps_log_p:.4g} best_cost={row.best_cost:.4g}",
        )
    return EXIT_OK


def cmd_mollify(args) -> int:
    if args.input is None or args.epsilon is None:
        raise ConfigError("mollify needs --input SNAPSHOT and --epsilon VALUE")
    out_dir = Path(args.out_dir) if args.out_dir else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    state = read_snapshot(args.input)
    spec = MollifierSpec(args.epsilon)
    smoothed = State(state.t, mollify(state.u, spec), mollify(state.theta, spec))
    out = out_dir / "state_mollified.bqsf"
    write_snapshot(smoothed, out)
    manifest = RunManifest(
        config_hash=config_hash(Path(args.input).read_bytes()),
        master_seed=0,
        started=_now(),
        finished=_now(),
    )
    manifest.add_file(out)
    manifest.write(out_dir / "manifest.json")
    if not args.quiet:
        print(f"wrote {out}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "skeleton": cmd_skeleton,
    "check-invariants": cmd_check_invariants,
    "ldp-mc": cmd_ldp_mc,
    "mollify": cmd_mollify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusbq",
        description="Pseudo-spectral stochastic Boussinesq simulator on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out-dir", default=None, help="output directory override")
        if name in ("ensemble", "ldp-mc"):
            p.add_argument(
                "--paths", type=int, default=None, help="number of Monte Carlo paths"
            )
        p.add_argument(
            "--control", default=None, help="control CSV of rows t,mode,value"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress chatter")
        if name == "mollify":
            p.add_argument("--input", default=None, help="input snapshot")
            p.add_argument(
                "--epsilon", type=float, default=None, help="smoothing scale"
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
