"""The benchmark's workloads as lists of CLI jobs.

A job is one `awalgebra.cli.main(argv)` call.  The token REPORT in an
argv is replaced by a fresh temporary path in the repetition's process;
the JSON report written there is part of the job's output.

Only sweep-small draws from the seed; the other two workloads are fixed
runs of the command line at its headline settings.
"""

from __future__ import annotations

import random

REPORT = "{report}"

# Interval Casimir labels at four legs, the ten valid `spectrum --op` values.
SPECTRUM_OPS = ("Q1", "Q2", "Q3", "Q4", "Q12", "Q23", "Q34", "Q123", "Q234", "Q1234")

# sweep-small: configurations per (legs, nmax) cell, in antithetic pairs.
SWEEP_CELLS = {(3, 2): 6, (3, 3): 6, (4, 2): 10, (4, 3): 2}

WORKLOADS = ("verify-default", "spectrum-deep", "sweep-small")


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one repetition of a workload."""
    if workload == "verify-default":
        return [{"kind": "verify", "argv": ["verify", "--report", REPORT]}]
    if workload == "spectrum-deep":
        return [
            {"kind": "spectrum", "op": op, "argv": ["spectrum", "--op", op, "--nmax", "7"]}
            for op in SPECTRUM_OPS
        ]
    if workload == "sweep-small":
        return sweep_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def sweep_configs(seed: int) -> list[dict]:
    """A seeded draw of 24 small parameter sets, legs in {3, 4}, nmax in
    {2, 3}, q = +-a/b with 1 <= a != b <= 9 and weight labels in 1..3.

    Draws come in antithetic pairs: the partner of (a, b, k) is
    (10 - a, 10 - b, 4 - k), with its own sign of q.  Small and large
    entries then balance within a pair, so every seed carries about the
    same amount of big-integer work.
    """
    rng = random.Random(seed)
    configs = []
    for (legs, nmax), count in SWEEP_CELLS.items():
        for _ in range(count // 2):
            a, b = rng.sample(range(1, 10), 2)
            k = [rng.randint(1, 3) for _ in range(legs)]
            for a, b, k in ((a, b, k), (10 - a, 10 - b, [4 - x for x in k])):
                sign = rng.choice(("", "-"))
                configs.append({"legs": legs, "nmax": nmax, "q": f"{sign}{a}/{b}", "k": k})
    rng.shuffle(configs)
    return configs


def sweep_jobs(seed: int) -> list[dict]:
    out = []
    for cfg in sweep_configs(seed):
        # "--q=-a/b": argparse reads a separate "-a/b" as an option.
        params = [
            f"--q={cfg['q']}",
            "--k",
            ",".join(map(str, cfg["k"])),
            "--legs",
            str(cfg["legs"]),
            "--nmax",
            str(cfg["nmax"]),
        ]
        out.append({"kind": "verify", "config": cfg, "argv": ["verify", *params, "--report", REPORT]})
        if cfg["legs"] == 4:
            out.append({"kind": "compass", "config": cfg, "argv": ["compass", *params]})
    return out
