"""Seeded job lists of the benchmark's four workloads.

A job is the argv of one ``python -m linetrees.cli`` call.  The workload seed
picks sample seeds, the roots points inside epsilon_R and the count profiles;
the CLI receives only the argv.
Each list is shuffled by the seed, and its cost is meant to depend on the
seed as little as possible, because the benchmark compares runs made with
different seeds.
"""

from __future__ import annotations

import random

WHY = {
    "series-fixpoint": (
        "series --n 1 at the default order caps plus d=5 and d=8 jobs; "
        "MultiSeries.__mul__ in solve_tree_equation is 97% of the traced in-process time"
    ),
    "sample-draw": (
        "2000 draws per job at balanced cap-total profiles, d=2,3,4,5,8; unranking is 86% of "
        "the traced in-process time, the table build 8%; series is never called"
    ),
    "enumerate-stream": (
        "enumerate at the max-lines caps (d=3 at 7 lines, 52,787 trees) and the d=3 "
        "oracle; the most memory; trees is 80% of the traced in-process time, CLI output 19%"
    ),
    "cli-mix": (
        "30 light jobs over count, roots, closed-form series, verify and fresh-table "
        "sample; in-process work is 0.29 s of 5.4 s wall, the rest is start-up"
    ),
}


def cap_total(d: int) -> int:
    """Profile-total cap of ProfileCountTable: 30 (d=2), 15 (d=3), 10 (d>=4)."""
    return {2: 30, 3: 15}.get(d, 10)


def balanced(d: int, total: int) -> list[int]:
    """The even split of ``total`` over d colors, larger parts first.

    Sampling profiles are not drawn by the seed: unranking cost depends
    strongly on the profile, even on the order of its parts (2000 draws at
    d=8 took 1.2 s to 2.1 s over orderings of one split).
    """
    return [total // d + (i < total % d) for i in range(d)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _seed64(rng: random.Random) -> str:
    return str(rng.getrandbits(64))


def _series_fixpoint(rng: random.Random) -> list[list[str]]:
    caps = [(2, 20), (3, 12), (4, 8), (5, 6), (8, 4)]
    return [["series", "--d", str(d), "--order", str(order)] for d, order in caps]


def _sample_draw(rng: random.Random) -> list[list[str]]:
    return [
        ["sample", "--d", str(d), "--profile", _csv(balanced(d, cap_total(d))),
         "--count", "2000", "--seed", _seed64(rng)]
        for d in (2, 3, 4, 5, 8)
    ]


def _enumerate_stream(rng: random.Random) -> list[list[str]]:
    # The default max-lines caps, 8 (d=2,3), 5 (d=4) and 4 (d>=5), except
    # d=3 at 7: at 8 lines one job takes 8-13 s here and its time spread
    # over runs (28%) exceeded every bound the benchmark could set.
    # Seven jobs, an odd count, so job_p50_s is one job's time, not the
    # average of two jobs of different sizes.
    caps = [(3, 7), (2, 8), (4, 5), (5, 4), (6, 4), (8, 4)]
    return [["enumerate", "--d", str(d), "--max-lines", str(lines)] for d, lines in caps] + [
        ["verify", "oracle", "--d", "3", "--order", "7"]
    ]


def _random_profile(rng: random.Random, d: int, total: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _roots_point(rng: random.Random, d: int, radius: float) -> str:
    """An admissible point: every |g_i| in [0.25, 0.9] * epsilon_R.

    Points with some |g_i| near zero are left out: there the largest root
    grows like 1/|g_i| and the default residual tolerance rejects it (exit
    4); record.json lists this as a known defect with its measured rate.
    """
    epsilon = (radius ** (1.0 / d) - 1.0) / radius
    return ",".join(
        f"{rng.choice((-1, 1)) * rng.uniform(0.25, 0.9) * epsilon:.6g}" for _ in range(d)
    )


# Orders at which verify fuss-catalan walks about 10^4 profiles or fewer; it
# has no cap of its own.
_FUSS_CATALAN_ORDER = {2: 40, 3: 30, 4: 14, 5: 10, 6: 9, 7: 8, 8: 8}


def _cli_mix(rng: random.Random) -> list[list[str]]:
    jobs = []
    for _ in range(6):
        d = rng.randint(2, 8)
        profile = _random_profile(rng, d, rng.randint(1, cap_total(d)))
        jobs.append(["count", "--d", str(d), "--profile", _csv(profile),
                     "--n", str(rng.randint(1, 3))])
    for _ in range(6):
        d = rng.randint(2, 8)
        radius = rng.choice([1.5, 2.0, 3.0, 4.0])
        # "--g=" keeps a leading minus sign from reading as an option.
        jobs.append(["roots", "--d", str(d), f"--g={_roots_point(rng, d, radius)}",
                     "--radius", str(radius)])
    for d, order in [(2, 20), (3, 12), (4, 8), (5, 8), (8, 6)]:
        jobs.append(["series", "--d", str(d), "--order", str(order),
                     "--n", str(rng.randint(2, 4))])
    for d, order in [(2, 16), (3, 8), (4, 6)]:
        jobs.append(["verify", "recursion", "--d", str(d), "--order", str(order),
                     "--n-max", str(rng.randint(2, 3))])
    for d, order in [(2, 20), (3, 10), (4, 6)]:
        jobs.append(["verify", "convolution", "--d", str(d), "--order", str(order),
                     "--n", str(rng.randint(1, 3)), "--m", str(rng.randint(1, 3))])
    for d in rng.sample(sorted(_FUSS_CATALAN_ORDER), 2):
        jobs.append(["verify", "fuss-catalan", "--d", str(d),
                     "--order", str(_FUSS_CATALAN_ORDER[d])])
    for _ in range(2):
        jobs.append(["verify", "narayana", "--d", "2", "--order", str(rng.randint(20, 60))])
    for d in (2, 3, 4):
        jobs.append(["sample", "--d", str(d), "--profile",
                     _csv(balanced(d, cap_total(d))), "--count", "1",
                     "--seed", _seed64(rng)])
    return jobs


_BUILDERS = {
    "series-fixpoint": _series_fixpoint,
    "sample-draw": _sample_draw,
    "enumerate-stream": _enumerate_stream,
    "cli-mix": _cli_mix,
}


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The workload's job list for a seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = _BUILDERS[workload](rng)
    rng.shuffle(out)
    return out
