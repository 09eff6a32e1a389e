"""Seeded inputs of the four workloads, drawn from recorded finite grids.

Every input a seed can produce is a point of a grid defined here, and
golden.json holds the answer at every point (make_golden.py writes it), so
every seed's outputs are checked against stored values.  The points of one
slot cost about the same, so the seed changes which answers are checked,
not how much work a pass does.
"""

from __future__ import annotations

import math
import random

GRID = 16  # points per seeded slot

SCALES = {
    "full": {
        # count_nc pair: a + j*step and b - j*step, so their sum is fixed
        "count_x": (5_000_000, 30_000_000, 20_000),
        "list_x": (10_000_000, 3_000),  # list_nc at a - j*step
        "query_table": 10_000_000,
        "queries": 100_000,
        "smooth_table": 10_000_000,
        "smooth_z": (10**5, 10**6, 10**7),  # z = Z - j*(Z // 1000)
        "report_z": 2,  # conjecture_table and hildebrand_report take the first two z
        "rho_small": (1.5, 0.25, 4),  # u = a + j*step, this many per pass
        "rho_large": (380.0, 1.25),  # one u per pass, extends the cold grid
        # manual certificate shapes (r, s, A); x is drawn from [D s^A, D s^(A+1))
        "shapes": ((10, 100, 11), (7, 150, 5), (20, 300, 3), (30, 5000, 2)),
        "formula_k": (28_000, 125),  # t1 and t2 at x = e^(a + j*step)
        "family": (10_000, 30, 4_000, 12),  # s, r, subsets, largest subset
        "cli_check_big": 100_000_007,  # nc check n + 2j
        "cli_count": "10^7",
        "cli_z": "10^4,10^5,10^6",
    },
    # A few seconds per workload; the smoke test runs this scale.
    "tiny": {
        "count_x": (50_000, 300_000, 200),
        "list_x": (100_000, 30),
        "query_table": 100_000,
        "queries": 2_000,
        "smooth_table": 100_000,
        "smooth_z": (10**3, 10**4, 10**5),
        "report_z": 2,
        "rho_small": (1.5, 0.25, 2),
        "rho_large": (38.0, 0.125),
        "shapes": ((10, 100, 11),),
        "formula_k": (2_800, 13),
        "family": (1_000, 10, 200, 6),
        "cli_check_big": 1_000_003,
        "cli_count": "10^5",
        "cli_z": "10^3,10^4",
    },
}

# Known failure at the seed: the certificate count has 5 999 digits, above
# CPython's 4 300-digit int/str conversion limit (ROADMAP item 4).  It is
# attempted on every pass and counts in fail_rate.
BIG_T1 = ("e^100000", 0.5)
SEED_FAILURE = "5999-digit count over the 4300-digit int/str limit"
SEED_FAILURE_TEXT = "integer string conversion"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- grids ------------------------------------------------------------------


def count_xs(scale: str) -> list[tuple[int, int]]:
    a, b, step = SCALES[scale]["count_x"]
    return [(a + j * step, b - j * step) for j in range(GRID)]


def list_xs(scale: str) -> list[int]:
    a, step = SCALES[scale]["list_x"]
    return [a - j * step for j in range(GRID)]


def smooth_zs(scale: str) -> list[list[int]]:
    return [[z - j * (z // 1000) for j in range(GRID)] for z in SCALES[scale]["smooth_z"]]


def y_hild(z: int) -> int:
    return round(math.exp(math.sqrt(math.log(z))))


def y_sqrt(z: int) -> int:
    return round(z**0.5)


def rho_us(scale: str) -> tuple[list[float], list[float]]:
    a, step, _ = SCALES[scale]["rho_small"]
    big, big_step = SCALES[scale]["rho_large"]
    return [a + j * step for j in range(GRID)], [big + j * big_step for j in range(GRID)]


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def base_value(s: int, r: int) -> int:
    """D(s, r) = prod over primes p <= r of the largest p^e <= s."""
    d = 1
    for p in _primes_upto(r):
        q = p
        while q * p <= s:
            q *= p
        d *= q
    return d


def shape_xs(r: int, s: int, a: int) -> list[str]:
    """x values for which the exact A search settles on a (so count is fixed)."""
    lo = base_value(s, r) * s**a
    step = (lo * s - lo) // GRID
    return [str(lo + j * step) for j in range(GRID)]


def formula_ks(scale: str) -> list[int]:
    a, step = SCALES[scale]["formula_k"]
    return [a + j * step for j in range(GRID)]


def cli_check_ns(scale: str) -> list[int]:
    n = SCALES[scale]["cli_check_big"]
    return [n + 2 * j for j in range(GRID)]


# --- per-seed draws -----------------------------------------------------------


def draw_count(seed: int, scale: str, members: list[int]) -> dict:
    c = SCALES[scale]
    rng = _rng("count", seed)
    table = c["query_table"]
    small = [m for m in members if m <= table]
    queries = [
        rng.choice(small) if rng.random() < 0.1 else rng.randrange(1, table + 1)
        for _ in range(c["queries"])
    ]
    return {
        "count_x": list(count_xs(scale)[rng.randrange(GRID)]),
        "list_x": list_xs(scale)[rng.randrange(GRID)],
        "table": table,
        "queries": queries,
    }


def draw_smooth(seed: int, scale: str) -> dict:
    c = SCALES[scale]
    rng = _rng("smooth", seed)
    zs = [grid[rng.randrange(GRID)] for grid in smooth_zs(scale)]
    small, large = rho_us(scale)
    return {
        "table": c["smooth_table"],
        "zs": zs,
        "report_zs": zs[: c["report_z"]],
        "rho": rng.sample(small, c["rho_small"][2]) + [large[rng.randrange(GRID)]],
    }


def draw_certify(seed: int, scale: str, family_members: list[int]) -> dict:
    c = SCALES[scale]
    rng = _rng("certify", seed)
    manual = [[r, s, shape_xs(r, s, a)[rng.randrange(GRID)]] for r, s, a in c["shapes"]]
    ks = formula_ks(scale)
    s, r, n_subsets, largest = c["family"]
    subsets = [
        sorted(rng.sample(family_members, rng.randint(1, min(largest, len(family_members)))))
        for _ in range(n_subsets)
    ]
    return {
        "manual": manual,
        "t1": [f"e^{ks[rng.randrange(GRID)]}", 0.5],
        "t2": f"e^{ks[rng.randrange(GRID)]}",
        "family": [s, r],
        "subsets": subsets,
        "big_t1": list(BIG_T1),
    }


def cli_commands(scale: str, check_n: int) -> list[tuple[str, list[str]]]:
    """(layer span, argv) in run order: the README command set plus extras.

    A small command follows the big ``nc check`` so the per-child RSS check
    sees a child that did not build the big table.
    """
    c = SCALES[scale]
    x_big, u_big = BIG_T1
    return [
        ("cli.help", ["--help"]),
        ("cli.nc_check", ["nc", "check", "3", "--format", "json"]),
        ("cli.nc_check_big", ["nc", "check", str(check_n)]),
        ("cli.nc_list", ["nc", "list", "--limit", "20"]),
        ("cli.nc_count", ["nc", "count", "--limit", c["cli_count"]]),
        ("cli.smooth_psi", ["smooth", "psi", "--x", "100", "--y", "5"]),
        ("cli.smooth_pi", ["smooth", "pi", "--x", "10", "--y", "3"]),
        ("cli.smooth_rho", ["smooth", "rho", "--u", "2.5"]),
        ("cli.conjecture", ["conjecture", "--z", c["cli_z"], "--y-rule", "hild", "--format", "csv"]),
        ("cli.construct", ["construct", "--r", "3", "--s", "10", "--all", "--format", "json"]),
        (
            "cli.certify_enumerate",
            ["certify", "--x", "10^30", "--r", "10", "--s", "100", "--enumerate", "--format", "json"],
        ),
        ("cli.certify_t1", ["certify", "--x", "e^10000", "--schedule", "t1", "--u", "0.5", "--format", "json"]),
        (
            "cli.certify_t1_big",
            ["certify", "--x", x_big, "--schedule", "t1", "--u", str(u_big), "--format", "json"],
        ),
        ("cli.verify", ["verify", "--cert", "cert.json"]),
    ]


def draw_cli(seed: int, scale: str) -> dict:
    rng = _rng("cli", seed)
    return {"commands": cli_commands(scale, cli_check_ns(scale)[rng.randrange(GRID)])}
