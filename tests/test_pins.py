"""Every pinned end-to-end output of the command line, each checked in a
fresh ``python -m linetrees.cli`` process.

A pin is an argv, the exit code it must end with, and one expectation:
- ``sha256``: the hex sha256 of stdout;
- ``lines``: the number of lines on stdout;
- ``stdout``: the exact stdout text;
- ``stderr``: the exact stderr text, with nothing on stdout;
- ``json``: fields that the JSON document on stdout must hold, equal in
  value and type.

The process inherits PYTHONUNBUFFERED, so running the suite with it empty
and with it set to 1 checks every pin with stdout buffered and unbuffered.
Each argv is split on whitespace, as a shell splits an unquoted word.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest


class Pin(NamedTuple):
    argv: str
    code: int
    kind: str
    want: object


# The slowest inputs at the max_lines caps: the d=3 oracle and the d=3
# enumeration, whose 299,462 lines were recorded at commit e3432cf.
MAX_LINES_CAPS = [
    Pin("verify oracle --d 3 --order 8 --format text", 0, "stdout", "verify oracle d=3: ok\n"),
    Pin("enumerate --d 3 --max-lines 8 --format text", 0, "lines", 299462),
    Pin("enumerate --d 3 --max-lines 8 --format text", 0, "sha256",
        "91cd1557b3bedc558dcb8d5f15b58ea0c13f1d74b83dfebe930506f12b0da5d8"),
    # The one cap enumeration no benchmark digest covers, recorded at commit
    # f7485ea.
    Pin("enumerate --d 7 --max-lines 4 --format text", 0, "sha256",
        "7e1346362e8a76d3c3d57ffb14470ef0a816b6272e8811bbd11020ccf3dcda23"),
]

# The slowest inputs at the d=8 order cap, each series-route identity: the
# recursion and the power law at --n-max 5, and the convolution at the level
# cap.  The solver's own output there, its largest packed-key space, was
# recorded at commit 83785ec (text) or ea18dce (json and csv).  json, the
# default format, is one 600,011-byte line written by a single print, not
# line by line as text and csv are.
ORDER_CAP_D8 = [
    Pin("verify recursion --n-max 5 --d 8 --order 8 --format text", 0, "stdout",
        "verify recursion d=8: ok\n"),
    Pin("verify geometric --n-max 5 --d 8 --order 8 --format text", 0, "stdout",
        "verify geometric d=8: ok\n"),
    Pin("verify convolution --n 1000 --m 1000 --d 8 --order 8 --format text", 0, "stdout",
        "verify convolution d=8: ok\n"),
    Pin("series --d 8 --order 8 --format text", 0, "sha256",
        "799594fb86d3ba03228adb0dd507a3204587644d3fc2f9408ce85130d080618e"),
    Pin("series --d 8 --order 8 --format json", 0, "sha256",
        "1f3740317f542410dd416bc0a2174c074cadd37f12206fc4817fa733167dc972"),
    Pin("series --d 8 --order 8 --format csv", 0, "sha256",
        "576053353bd13ddb9de8a9641a9be5ff04fc82403c74d39105fd8e112115211c"),
]

# The closed-form table at its largest walks: the fuss-catalan and narayana
# caps, the d=8 oracle, and the level-1000 series at the d=8 order cap, the
# closed-form route's largest output, recorded at commit 5fb8a2c.
CLOSED_FORM_CAPS = [
    Pin("verify fuss-catalan --d 2 --order 140 --format text", 0, "stdout",
        "verify fuss-catalan d=2: ok\n"),
    Pin("verify fuss-catalan --d 8 --order 8 --format text", 0, "stdout",
        "verify fuss-catalan d=8: ok\n"),
    Pin("verify narayana --d 2 --order 139 --format text", 0, "stdout",
        "verify narayana d=2: ok\n"),
    Pin("verify oracle --d 8 --order 4 --format text", 0, "stdout", "verify oracle d=8: ok\n"),
    Pin("series --d 8 --order 8 --n 1000 --format text", 0, "sha256",
        "5beaed315708f30439b710c82d589b2633817a7d01a84501a9fefdf14ee812ea"),
]

# 2000 seeded draws at each sample cap profile, recorded at commit cc038ad
# (text) or f8a3eeb (json and csv, whose lines carry the profile).  20,10,
# 1,1,1,1,1,1,2,2 and 0,...,0,10 are drawn by no benchmark workload; the
# last has one tree, so every draw is below(1).
SAMPLE = "sample --d {} --profile {} --count 2000 --seed 3 --format {}"
SAMPLE_CAPS = [
    Pin(SAMPLE.format(d, profile, fmt), 0, "sha256", digest)
    for d, profile, fmt, digest in [
        (2, "15,15", "text", "af31ff1ad5f3af5729ece8fe50b0dcbd526fcfedaaecc440cb3210afd98c5314"),
        (2, "20,10", "text", "3652b330f8e8fe4924e1fd7587b30175aa3ca84fa317d66eee11887df6786d99"),
        (3, "5,5,5", "text", "a3cce10cba4670022b2739a853540b4a6489df53a2cdaa330b89c7805c2f46a2"),
        (3, "5,5,5", "json", "fa17974853b45b55623849813d21551d5ba01a5d47c724a6e351bdaf7245b26d"),
        (3, "5,5,5", "csv", "cc2246f0989f75521a9a5f2890a6a84725c411b8d5bf1fbcb160059d079edb72"),
        (4, "3,3,2,2", "text", "39404693e103d0aa6d529debe8ed3725a146eb3fc44bc9c649e58fb6c7a94575"),
        (5, "2,2,2,2,2", "text", "72bd67ab11d760369214526ac7827b584003c7462690226e8102e9bc9b2e99bb"),
        (8, "2,2,1,1,1,1,1,1", "text",
         "5ca63557090a95831a25742cf4854f7635568a65b963f78e1ff5bf22f9a79eec"),
        (8, "2,2,1,1,1,1,1,1", "json",
         "6758d4a69db86627fe855a34e660d0b61c5357cc2f8dbe8b2b6ffde956214ab5"),
        (8, "2,2,1,1,1,1,1,1", "csv",
         "394423989d849f37a3d2884ed8826d6207fc6d4c6eb8b0b8670cc3ab5b6cf28b"),
        (8, "1,1,1,1,1,1,2,2", "text",
         "1493f49f0f9024203a52eb4297596be968dfb961a020b0ce40812e4164ab410c"),
        (8, "0,0,0,0,0,0,0,10", "text",
         "9afb11171f17197096b70cb9efb25edf1ceb5f19fba4f7cce22aeab3c272687d"),
    ]
]

# count at its caps: the largest printed count (d=8, total 1000, level
# 1000, 1613 digits) and the d=2 edge of the total cap, recorded at commit
# 1e72dfc (text) or f8a3eeb (json and csv, which carry the profile).
COUNT = "count --d {} --profile {} --n 1000 --format {}"
COUNT_CAPS = [
    Pin(COUNT.format(d, profile, fmt), 0, "sha256", digest)
    for d, profile, fmt, digest in [
        (8, "125,125,125,125,125,125,125,125", "text",
         "3114ef66fc56b906ef61ff5c25610b5f6d17c94ec9ddb7a98d122c7c57cd4d6f"),
        (8, "125,125,125,125,125,125,125,125", "json",
         "b964ba06d00a4acdf43a8df9fc2593b5d97e6c05d5ab1706755ceb81ed40a3ae"),
        (8, "125,125,125,125,125,125,125,125", "csv",
         "32cdee16215eeff751479ecf912b5f729a829972a1239a766758b089222307f8"),
        (2, "1000,0", "text", "e56bdb1c6e23ab1c38227f12afdd673dd7758c14d62bb471c12d17d7ba32d996"),
        (2, "1000,0", "json", "eebbefea0cc408d9e2d3bee8290264ce184f20dc837c4b0d867982c8b6ae649a"),
        (2, "1000,0", "csv", "82942aa64cac131ddd5debd2da6eb8d62e2524e91a810221098273044bd2f407"),
    ]
]

# roots pins no digest: the roots' last bits depend on the host's LAPACK.
# cli-mix's seed-0 d=8 point and a d=2 point with g_1 = 1e-300 are
# admissible with one root inside the radius.  The root of 1 - X/2 lies on
# the circle |X| = 2, so none is inside; at R = 4, epsilon_R is 0.25 exactly,
# so a point with max |g_i| = 0.25 is not admissible.  At g = (1e8, 2e8) the
# roots -1e-8 and -5e-9, and at g = (1e206, 1e100, 1e-5) the roots -1e-206
# and -1e-100, lie within CLUSTER_RADIUS of each other but stay two roots,
# since below |c| = 1 the radius is relative.  At the d=4 point the
# companion matrix returns the root near 1 twice, in place of the one near
# -1.45e9; each copy meets its own bound, and only the rebuilt Q shows it.
ROOTS = [
    Pin("roots --d 8 --g=0.0434661,0.0216836,-0.0314641,-0.018166,-0.0220613,-0.0233112,"
        "0.0394834,-0.0440913 --radius 3.0", 0, "json", {"admissible": True, "inside_count": 1}),
    Pin("roots --d 2 --g=1e-300,0.05", 0, "json", {"admissible": True, "inside_count": 1}),
    Pin("roots --d 2 --g=0.5,0 --radius 2", 0, "json", {"inside_count": 0}),
    Pin("roots --d 2 --g=0.25,0.1 --radius 4", 0, "json", {"admissible": False}),
    Pin("roots --d 2 --g=1e8,2e8", 0, "json", {"admissible": False, "inside_count": 2}),
    Pin("roots --d 3 --g=1e206,1e100,1e-5", 0, "json", {"admissible": False, "inside_count": 2}),
    Pin("roots --d 4 --g=6.16e-103,-3.22e-05,2.14e-05,5.79e-32 --radius 2.0", 4, "stderr",
        "error: the roots with their multiplicities do not rebuild coefficient 0 of Q within "
        "a relative 1e-08\n"),
]

# The error paths: each argv exits 2 with its one `error:` line.
ERRORS = [
    Pin(argv, 2, "stderr", f"error: {message}\n")
    for argv, message in [
        ("count --d 2 --profile 1,1 --n 0", "--n must be >= 1, got 0"),
        ("series --d 2 --order 3 --n 0", "level n must be >= 1, got 0"),
        ("series --d 2 --order -1", "order must be >= 0, got -1"),
        ("verify convolution --d 2 --order 3 --n 0", "n must be >= 1, got 0"),
        ("verify fuss-catalan --d 2 --order 0", "p_max must be >= 1, got 0"),
        ("verify geometric --d 2 --order 3 --n-max 0", "n_max must be >= 1, got 0"),
        ("enumerate --d 2 --max-lines -1", "max_lines must be >= 0, got -1"),
        ("sample --d 2 --profile 1,1 --count 1 --seed -1",
         "seed must be an unsigned 64-bit integer, got -1"),
        ("sample --d 2 --profile 1,1 --count 0", "count must be >= 1, got 0"),
        ("count --d 9 --profile 1,1", "d must be an integer in 2..8, got 9"),
        # A bad point is reported before a bad radius.
        ("roots --d 2 --g=0.1 --radius 1", "point has 1 entries but d=2"),
        # A well-formed point where Q is the constant 1: there is no root.
        ("roots --d 2 --g=1,0", "polynomial is constant after deflation; no roots to find"),
    ]
]

PINS = MAX_LINES_CAPS + ORDER_CAP_D8 + CLOSED_FORM_CAPS + SAMPLE_CAPS + COUNT_CAPS + ROOTS + ERRORS

_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


@pytest.mark.parametrize("pin", PINS, ids=[f"{pin.kind} {pin.argv}" for pin in PINS])
def test_pinned_output(pin):
    proc = subprocess.run(
        [sys.executable, "-m", "linetrees.cli", *pin.argv.split()],
        env=_ENV, stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
    )
    assert proc.returncode == pin.code, proc.stderr
    if pin.kind == "sha256":
        assert hashlib.sha256(proc.stdout).hexdigest() == pin.want
    elif pin.kind == "lines":
        assert proc.stdout.count(b"\n") == pin.want
    elif pin.kind == "stdout":
        assert proc.stdout.decode() == pin.want
    elif pin.kind == "stderr":
        assert (proc.stdout, proc.stderr.decode()) == (b"", pin.want)
    else:
        doc = json.loads(proc.stdout)
        assert {k: (doc[k], type(doc[k])) for k in pin.want} == {
            k: (v, type(v)) for k, v in pin.want.items()
        }
