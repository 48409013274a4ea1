"""Seeded inputs for the three benchmark workloads.

Every input the library sees is generated here from the workload seed: JSON
model configs, portfolios, grids and kernel parameters.  The structure of
each workload (which routes, sizes, grid spacings and portfolio scales an op
cycle covers, and in which order) is fixed, so that every seed runs the same
mix of work; the seed draws the numbers inside that structure.

``liquidate`` draws its kernels from a fixed catalog whose optimal costs are
stored in ``reference.json`` (see ``make_reference.py``); the seed picks a
catalog variant and a unit portfolio direction for every op.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# liquidate
# ---------------------------------------------------------------------------

SCALES = (1.0, 1e3, 1e7)
LIQUIDATE_SIZES = {"cross_exp": (257, 513, 1025), "matrix_exp4": (257, 513, 1025),
                   "matrix_exp8": (257, 513), "exp2x2": (257, 513, 1025)}
CATALOG_SEED = 20131017
CATALOG_VARIANTS = 3
GEOMETRIC_SPREAD = 10.0  # largest gap over smallest gap on a geometric grid


def geometric_ratio(n: int) -> float:
    return GEOMETRIC_SPREAD ** (1.0 / (n - 2))


def grid_spec(horizon: float, n: int, spacing: str) -> dict:
    spec = {"horizon": horizon, "count": n, "spacing": spacing}
    if spacing == "geometric":
        spec["ratio"] = geometric_ratio(n)
    return spec


def _random_orthogonal(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _random_spd(rng, k: int, low: float, high: float) -> np.ndarray:
    q = _random_orthogonal(rng, k)
    b = (q * rng.uniform(low, high, size=k)) @ q.T
    return 0.5 * (b + b.T)


def _catalog_kernel(slot: str, rng) -> dict:
    # cross_exp takes the commuting route, matrix_exp the closed form and the
    # symmetric, non-commuting exp2x2 the generic KKT solve
    if slot == "cross_exp":
        kappa = rng.uniform(0.6, 1.6)
        return {"family": "cross_exp", "kappa": kappa,
                "kappa_tilde": kappa * rng.uniform(1.3, 2.2), "rho": rng.uniform(0.1, 0.35)}
    if slot in ("matrix_exp4", "matrix_exp8"):
        return {"family": "matrix_exp", "B": _random_spd(rng, int(slot[-1]), 0.3, 3.0).tolist()}
    # symmetric (a12 = a21, b12 = b21) but not commuting (b11 != b22)
    a12, b12 = rng.uniform(0.05, 0.25), rng.uniform(1.0, 2.0)
    return {"family": "exp2x2", "a11": rng.uniform(0.8, 1.2), "a12": a12, "a21": a12,
            "a22": rng.uniform(0.8, 1.2), "b11": rng.uniform(0.5, 1.0), "b12": b12,
            "b21": b12, "b22": rng.uniform(1.2, 2.0)}


def liquidate_catalog() -> dict:
    """Kernel variants per slot: ``{slot: [{"kernel": ..., "horizon": ...}, ...]}``."""
    rng = np.random.default_rng(CATALOG_SEED)
    return {
        slot: [{"kernel": _catalog_kernel(slot, rng), "horizon": rng.uniform(3.0, 8.0)}
               for _ in range(CATALOG_VARIANTS)]
        for slot in LIQUIDATE_SIZES
    }


def reference_key(slot: str, variant: int, n: int, spacing: str) -> str:
    return f"{slot}/{variant}/{n}/{spacing}"


# One op cycle: (command, slot, N or refine levels, spacing, scale).  The
# N = 257 solves cover every slot, spacing and scale twice; the large ops give
# each route one or two sizes above 257, NK up to 4100 and both refinement
# depths.  The small solves are the majority, so that the median and the tail
# latency (the 11th-slowest of about 40 passing ops) each fall inside a group
# of similar ops.  A run is one cycle: 36-45 s on 2 Xeon cores, longer than
# the 30 s a run asks for, so that no run takes two cycles.
_SMALL = [
    ("solve", slot, 257, spacing, SCALES[(i + shift) % 3])
    for spacing in ("equidistant", "geometric")
    for shift in range(3)
    for i, slot in enumerate(LIQUIDATE_SIZES)
]
LIQUIDATE_CYCLE = 2 * _SMALL + [
    ("solve", "cross_exp", 513, "geometric", 1.0),
    ("solve", "exp2x2", 1025, "geometric", 1e3),
    ("refine", "exp2x2", 10, "equidistant", 1.0),
    ("solve", "exp2x2", 513, "equidistant", 1e7),
    ("solve", "cross_exp", 1025, "equidistant", 1e3),
    ("solve", "cross_exp", 1025, "geometric", 1e7),
    ("refine", "matrix_exp8", 9, "equidistant", 1.0),
    ("solve", "matrix_exp4", 1025, "geometric", 1.0),
    ("refine", "cross_exp", 9, "equidistant", 1e3),
    ("solve", "matrix_exp4", 513, "equidistant", 1.0),
    ("refine", "matrix_exp4", 10, "equidistant", 1e7),
]


def _unit_direction(rng, k: int) -> np.ndarray:
    v = rng.standard_normal(k)
    return v / np.linalg.norm(v)


def liquidate_inputs(seed: int, catalog: dict, cycles: int = 3) -> list:
    """Ops as dicts with the model config and everything the check needs."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for _ in range(cycles):
        for command, slot, size, spacing, scale in LIQUIDATE_CYCLE:
            variant = int(rng.integers(CATALOG_VARIANTS))
            entry = catalog[slot][variant]
            k = len(entry["kernel"]["B"]) if "B" in entry["kernel"] else 2
            x0 = scale * _unit_direction(rng, k)
            n = 2**size + 1 if command == "refine" else size
            ops.append({
                "command": command,
                "label": f"{command}/{slot}/N={n}/{spacing}/x{scale:g}",
                "levels": size if command == "refine" else None,
                "reference": reference_key(slot, variant, n, spacing),
                "config": {"kernel": entry["kernel"],
                           "grid": grid_spec(entry["horizon"], n, spacing),
                           "portfolio": x0.tolist()},
            })
    return ops


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------

SCREEN_SEARCH = {"span_max": 20.0, "n_max": 64, "budget": 300}
SCREEN_VARIANTS = 3

# slot -> the family's closed-form verdict where one is known ("pd" covers
# strict_pd), else None
SCREEN_EXPECTED = {
    "permanent": "pd", "matrix_exp": "pd", "matrix_function": "pd",
    "diag_congruence": "pd", "exp2x2": None, "cross_exp": None, "linear2x2": "pd",
    "clamped_exp": "not_pd", "jordan_pd": "pd", "jordan_not_pd": None,
    "scalar_times_matrix": "pd", "left_multiply": None, "congruence": "pd",
    "plus_temporary": None,
}


def _screen_kernel(slot: str, rng) -> dict:
    # K = 3 for the families that take any dimension: their searches are the
    # four slowest ops of a cycle, so the tail latency (the 11th-slowest of
    # four or five cycles) falls inside that group
    k = 3
    if slot == "permanent":
        return {"family": "permanent", "G0": _random_spd(rng, k, 0.2, 2.0).tolist()}
    if slot == "matrix_exp":
        return {"family": "matrix_exp", "B": _random_spd(rng, k, 0.2, 3.0).tolist()}
    if slot == "matrix_function":
        return {"family": "matrix_function", "B": _random_spd(rng, k, 0.2, 2.0).tolist(),
                "scalar_fn": {"tag": "gaussian_sq"}}
    if slot == "diag_congruence":
        return {"family": "diag_congruence", "O": _random_orthogonal(rng, k).tolist(),
                "decays": [{"tag": "exp_decay", "rate": rng.uniform(0.3, 3.0)},
                           {"tag": "linear_polya", "level": rng.uniform(0.5, 2.0),
                            "slope": rng.uniform(0.1, 1.0)},
                           {"tag": "exp_decay", "rate": rng.uniform(0.3, 3.0)}]}
    if slot == "exp2x2":
        return _catalog_kernel("exp2x2", rng)
    if slot == "cross_exp":
        return _catalog_kernel("cross_exp", rng)
    if slot == "linear2x2":
        # a / b equal in every entry (and a symmetric): the proportional,
        # positive definite case of the family
        ratio, b = rng.uniform(1.0, 4.0), rng.uniform(0.2, 1.0)
        c = rng.uniform(0.05, 0.3) * b
        d = rng.uniform(0.8, 1.5) * b
        return {"family": "linear2x2", "a11": ratio * b, "a12": ratio * c, "a21": ratio * c,
                "a22": ratio * d, "b11": b, "b12": c, "b21": c, "b22": d}
    if slot == "clamped_exp":
        return {"family": "clamped_exp"}
    if slot == "jordan_pd":
        return {"family": "jordan_exp", "b": rng.uniform(0.5, 2.0)}
    if slot == "jordan_not_pd":
        return {"family": "jordan_exp", "b": rng.uniform(0.1, 0.3)}
    if slot == "scalar_times_matrix":
        return {"family": "scalar_times_matrix",
                "g": {"tag": "exp_decay", "rate": rng.uniform(0.3, 3.0)},
                "L": _random_spd(rng, k, 0.2, 2.0).tolist()}
    if slot == "left_multiply":
        L = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        return {"family": "left_multiply", "L": L.tolist(),
                "inner": _catalog_kernel("cross_exp", rng)}
    if slot == "congruence":
        L = np.eye(k) + 0.3 * rng.standard_normal((k, k))
        return {"family": "congruence", "L": L.tolist(),
                "inner": {"family": "matrix_exp", "B": _random_spd(rng, k, 0.2, 3.0).tolist()}}
    if slot == "plus_temporary":
        return {"family": "plus_temporary", "H0": _random_spd(rng, 2, 0.05, 0.5).tolist(),
                "inner": _catalog_kernel("cross_exp", rng)}
    raise ValueError(f"unknown screen slot {slot!r}")


def _dimension(kernel: dict) -> int:
    for key in ("G0", "B", "O", "L", "H0"):
        if key in kernel:
            return len(kernel[key])
    return 2


def screen_inputs(seed: int) -> list:
    """Kernel cases: config, search seed and the family's known verdict.

    Each cycle of the workload takes the next variant of every slot.
    """
    rng = np.random.default_rng([seed, 2])
    cases = []
    for variant in range(SCREEN_VARIANTS):
        for slot, expected in SCREEN_EXPECTED.items():
            kernel = _screen_kernel(slot, rng)
            n = int(rng.integers(16, 65))
            spacing = ("equidistant", "geometric")[int(rng.integers(2))]
            horizon = rng.uniform(1.0, 20.0)
            cases.append({
                "slot": slot,
                "variant": variant,
                "expected": expected,
                "search_seed": int(rng.integers(2**31)),
                "config": {"kernel": kernel, "grid": grid_spec(horizon, n, spacing),
                           "portfolio": [1.0] * _dimension(kernel)},
            })
    return cases


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_PATHS = 100_000
README_KERNEL = {"family": "cross_exp", "kappa": 1.0, "kappa_tilde": 1.8, "rho": 0.3}
# op cycle: one README-model op (N = 257, K = 2) and three K = 4 ops (N = 65),
# so that the median and the tail latency both fall among the K = 4 ops
VERIFY_CYCLE = ("readme", "k4", "k4", "k4")


def verify_inputs(seed: int) -> dict:
    """The two simulation models, and the Monte Carlo seed of each op."""
    rng = np.random.default_rng([seed, 3])
    readme = {
        "kernel": README_KERNEL,
        "grid": grid_spec(5.0, 257, "equidistant"),
        "portfolio": [-50.0, 1.0],
        "simulation": {"s0": [100.0, 60.0], "covariance": [[0.04, 0.01], [0.01, 0.09]],
                       "paths": VERIFY_PATHS, "seed": 7},
    }
    factor = rng.uniform(-0.3, 0.3, size=(4, 4)) + np.diag(rng.uniform(0.1, 0.4, size=4))
    k4 = {
        "kernel": {"family": "matrix_exp", "B": _random_spd(rng, 4, 0.3, 3.0).tolist()},
        "grid": grid_spec(rng.uniform(2.0, 8.0), 65, "equidistant"),
        "portfolio": (rng.choice([-1.0, 1.0], size=4) * rng.uniform(10.0, 100.0, size=4)).tolist(),
        "simulation": {"s0": rng.uniform(20.0, 200.0, size=4).tolist(),
                       "covariance": (factor @ factor.T).tolist(),
                       "paths": VERIFY_PATHS, "seed": 0},
    }
    return {"models": {"readme": readme, "k4": k4},
            "mc_seeds": rng.integers(2**31, size=4096).tolist()}
