"""Golden output digests: the bytes every command writes on small configs.

Each run below is one CLI call; GOLDEN holds the sha256 of every file it
writes besides manifest.json (which carries wall-clock times), and TERMINAL a
few values of its last CSV row, so that a failure says how far the numbers
moved.  A change that alters any output updates both tables in the same
commit and names, in CHANGES.md, each changed file, the reason and the
largest relative difference measured.

The digests hold for the python/numpy/scipy versions in VERSIONS only: other
versions may round differently.  On any other versions every test here fails
and names them, instead of skipping, so a stale table cannot pass unseen.
"""

import csv
import hashlib
import sys

import numpy as np
import pytest
import scipy

from torusbq.cli import main
from torusbq.io import write_snapshot
from torusbq.solver import InitialCondition, SolverConfig, build_initial_state
from torusbq.spectral import Grid

#: The versions the tables were made with.
VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}

SIM = """
[domain]
dimension = 2
resolution = 16

[time]
dt = 0.01
t_end = 0.05

[physics]
init_velocity = taylor_green
init_temperature = sine
{physics}

[noise]
mode = additive
n_modes = 3
epsilon = 0.25
{noise}
"""

LDP = """
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
"""

BLOW_UP = """
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
"""


def sim(physics="", noise="", resolution=16, dimension=2):
    text = SIM.format(physics=physics, noise=noise)
    text = text.replace("resolution = 16", f"resolution = {resolution}")
    return text.replace("dimension = 2", f"dimension = {dimension}")


#: run -> (command, config text, extra arguments, exit code)
RUNS = {
    "simulate": ("simulate", sim(), [], 0),
    "simulate-blow-up": ("simulate", BLOW_UP, [], 2),
    # |grad u|_inf of the initial flow is sqrt(2), inside (R, 2R): 0 < phi < 1
    "simulate-multiplicative-cutoff": (
        "simulate",
        sim("cutoff_R = 1.0", "a0 = 1.0\na1 = 0.5\na2 = 0.2", resolution=32).replace(
            "mode = additive", "mode = multiplicative"
        ),
        [],
        0,
    ),
    "simulate-3d": ("simulate", sim(resolution=8, dimension=3), [], 0),
    "simulate-galerkin": ("simulate", sim("galerkin_modes = 4"), [], 0),
    "simulate-spectral-rk2": ("simulate", sim("advection = spectral_rk2"), [], 0),
    "simulate-linear-sl": ("simulate", sim("interpolation = linear"), [], 0),
    "skeleton-control": ("skeleton", sim(), ["--control", "control.csv"], 0),
    "ensemble": ("ensemble", sim(), ["--paths", "12"], 0),
    "check-invariants": ("check-invariants", sim(), [], 0),
    "ldp-mc": ("ldp-mc", LDP, [], 0),
    "mollify": ("mollify", None, ["--input", "in.bqsf", "--epsilon", "0.5"], 0),
}

CONTROL_CSV = "t,mode,value\n0.0,0,1.5\n0.0,2,-0.5\n0.02,1,2.0\n0.03,0,-1.0\n"

GOLDEN = {
    "check-invariants": {
        "invariants.json": "c1380b50a2bc1a54721694afda661b176d09be32e33478f91bb7dc4b5a7f6c17",
    },
    "ensemble": {
        "ensemble_paths.csv": "e9a8c85ec7f44988ebaa70718f9aca0181402c9bd496f3e66dda63d7dc7906a7",
        "ensemble_summary.json": "054193a6d17ec35c96a8d5b5bef9b848d94b44863c7f2773cdccde4092e250f1",
    },
    "ldp-mc": {
        "varadhan.csv": "17c9e56004969072b9e951500581473581e95d1c1c1da6165681f84a8a675410",
    },
    "mollify": {
        "state_mollified.bqsf": "19aa3655fa5c7ac729f7b287f6cfbd9db423ec3fe33da90e10c710f9eb621e83",
    },
    "simulate": {
        "state_final.bqsf": "9cbb5a80bb55137d6ab7b733d8ff7bed875bbbe903d2c75abe8ed3d58b58dbf6",
        "timeseries.csv": "f221409e0b5eb7082162137c2ce32b558e21d2b4d42c5768515534968776361e",
    },
    "simulate-3d": {
        "state_final.bqsf": "ba1f2bd8a482b95031aa5e067936e5524b0827f4b8188e506289fd858cefc683",
        "timeseries.csv": "2ba5ac3a3441b4a7cbcbb3d14492af9155d7fcb4b7c948b78f4ebab4458f0cdf",
    },
    "simulate-blow-up": {
        "state_final.bqsf": "66556e0337c8f41f9d2be103d978576f9f983e25a14eb7ad9da46af8499c4e72",
        "timeseries.csv": "dd58a296d511b852f183210d3982a25a7c78afcd9233a02fe9b1c184a88d8195",
    },
    "simulate-galerkin": {
        "state_final.bqsf": "d8215fcec24285e049456807b7914600161f68fc9203022d05c41922f259416c",
        "timeseries.csv": "0f453fedf24f5f6d55432317965d71bb8aa074ca2391d1d68938a00beff3465a",
    },
    "simulate-linear-sl": {
        "state_final.bqsf": "9c903a25e01b28d714bb05cd1f1a3ec6b0d092f23860429376d096f4b32cca26",
        "timeseries.csv": "d02c521bd0c71d08f559f3a98e5429cb4a2e63659b5754e446121f3188a53ee4",
    },
    "simulate-multiplicative-cutoff": {
        "state_final.bqsf": "eadaa649622aff5fa357ffd3567ca04c8227b6e87f5824eedc0cdd98a3dc9c30",
        "timeseries.csv": "528f73369d577cc3b4ca3a124f7d0b74afc9519b2306ca45c90e44bf6b29f52a",
    },
    "simulate-spectral-rk2": {
        "state_final.bqsf": "a41279140df10f7ed3fe949db101ad5eba2f9c4512e3d834cdc0365a8af2912e",
        "timeseries.csv": "51fd7afc0f8ab93540a4af3c3680e2cc6172a0b042ee9cd66812b9ab96d98ba6",
    },
    "skeleton-control": {
        "state_final.bqsf": "78b32cfccd806ea40190340aa5d513a16a6ac37b86fba9296ada86155bd7946a",
        "timeseries.csv": "18427b87c29d8559f3ee912fef13daf921c14c1a1d9e55121aaedd6c2d4a0bac",
    },
}

TERMINAL = {
    "ensemble": {
        "ensemble_paths.csv:terminal_l2_u": 4.134259833364998,
        "ensemble_paths.csv:sup_l2_u": 4.442882938158366,
    },
    "ldp-mc": {
        "varadhan.csv:p_hat": 0.225,
        "varadhan.csv:best_cost": 0.006502814505451948,
    },
    "simulate": {
        "timeseries.csv:l2_u": 4.097464401743136,
        "timeseries.csv:hs_u": 3.3398146236629405,
        "timeseries.csv:l2_w": 5.722848502707487,
        "timeseries.csv:linf_theta": 0.9999999419203699,
    },
    "simulate-3d": {
        "timeseries.csv:l2_u": 7.063374644761244,
        "timeseries.csv:hs_u": 6.920933340666862,
        "timeseries.csv:linf_theta": 0.999999539586106,
    },
    "simulate-blow-up": {
        "timeseries.csv:t": 4.5,
    },
    "simulate-galerkin": {
        "timeseries.csv:l2_u": 4.097464401743136,
        "timeseries.csv:hs_u": 3.3398146236629382,
        "timeseries.csv:l2_w": 5.722848502707487,
        "timeseries.csv:linf_theta": 0.9999999419203698,
    },
    "simulate-linear-sl": {
        "timeseries.csv:l2_u": 4.09744340323388,
        "timeseries.csv:hs_u": 3.3398106884621317,
        "timeseries.csv:l2_w": 5.722834917347598,
        "timeseries.csv:linf_theta": 0.9996642911572241,
    },
    "simulate-multiplicative-cutoff": {
        "timeseries.csv:l2_u": 4.116718459448998,
        "timeseries.csv:hs_u": 3.3622652466708614,
        "timeseries.csv:l2_w": 5.755904546280009,
        "timeseries.csv:linf_theta": 0.9999999865002029,
    },
    "simulate-spectral-rk2": {
        "timeseries.csv:l2_u": 4.09746439643912,
        "timeseries.csv:hs_u": 3.3398146170582095,
        "timeseries.csv:l2_w": 5.722848492341946,
        "timeseries.csv:linf_theta": 0.999999949011309,
    },
    "skeleton-control": {
        "timeseries.csv:l2_u": 4.0427968131681125,
        "timeseries.csv:hs_u": 3.331818047744384,
        "timeseries.csv:l2_w": 5.701987002357926,
        "timeseries.csv:linf_theta": 0.9999997384684578,
    },
}


def check_versions():
    found = {
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if found != VERSIONS:
        pytest.fail(
            f"golden digests were made with {VERSIONS}, this is {found}: "
            "regenerate the tables on these versions, or run on those"
        )


def run_command(run, tmp_path):
    """Run `run` in tmp_path; returns its output directory."""
    command, config, extra, code = RUNS[run]
    (tmp_path / "control.csv").write_text(CONTROL_CSV)
    if command == "mollify":
        init = InitialCondition(velocity="random", temperature="random", seed=4)
        state = build_initial_state(SolverConfig(Grid(2, 16), 0.01, 0.0, init=init))
        write_snapshot(state, tmp_path / "in.bqsf")
        argv = [command]
    else:
        (tmp_path / "run.ini").write_text(config)
        argv = [command, "--config", str(tmp_path / "run.ini")]
    argv += [str(tmp_path / a) if a.endswith((".csv", ".bqsf")) else a for a in extra]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out), "--quiet"]) == code
    return out


def last_row(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: float(value) for name, value in zip(rows[0], rows[-1])}


def terminal_values(run, out):
    """file:column -> value of the last CSV row, for the names in TERMINAL."""
    values = {}
    for key in TERMINAL.get(run, {}):
        name, column = key.split(":")
        values[key] = last_row(out / name)[column]
    return values


#: the blow-up run overflows on purpose, as test_io_cli's blow-up tests do
BLOWS_UP = pytest.mark.filterwarnings("ignore:overflow")


@pytest.mark.parametrize(
    "run",
    [pytest.param(r, marks=BLOWS_UP) if RUNS[r][3] == 2 else r for r in sorted(RUNS)],
)
def test_outputs_match_golden_digests(tmp_path, run):
    check_versions()
    out = run_command(run, tmp_path)
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert written == set(GOLDEN[run])
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written
    }
    got = terminal_values(run, out)
    moved = {
        key: abs(got[key] - want) / abs(want) if want else abs(got[key])
        for key, want in TERMINAL.get(run, {}).items()
    }
    changed = sorted(name for name in written if digests[name] != GOLDEN[run][name])
    assert not changed, f"{run}: {changed} changed; terminal values moved by {moved}"
    assert got == TERMINAL.get(run, {})
