"""Golden hashes of trace CSV bytes, small runs of each optimizer, and of
the drivers' results: a small collapse study, bound-check runs,
coarse-to-fine sweeps and Monte Carlo second moments.

Every run is deterministic, so the sha256 of its trace file (or of its
results rendered as JSON) pins the whole trajectory. A hash may move only
when a change alters a run's arithmetic on purpose (for example the
summation order of an oracle); such a change updates the hash here and
says so in CHANGES.md. The chain hash predates
the block-stacked quadratic oracle, which never touches a chain run.
"""

import hashlib
import json

import numpy as np
import pytest

from zoptim import (
    BlockQuadratic,
    ExperimentConfig,
    bound_check_run,
    coarse_fine_sweep,
    collapse_study,
    equal_energy_point,
    mc_squared_moment,
    run,
    write_trace_csv,
)

QUAD = {"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0}

CASES = {
    "zo-sgd": (
        {"objective": QUAD, "optimizer": {"name": "zo-sgd", "eta": 1e-4}, "q": 2},
        "9a882c84ce5aa4aeb26b9fa3534bde8a62d67140ec7d95487a1cda8e8ef8b8d7",
    ),
    "zo-adam": (
        {"objective": QUAD, "optimizer": {"name": "zo-adam", "eta": 1e-2}, "q": 2},
        "75713dfc410effed88d95ab0567db92000b1cdc3cb5fd9527f608ed9bebb72a5",
    ),
    "radazo": (
        {"objective": QUAD, "optimizer": {"name": "radazo", "eta": 1e-2}, "q": 2},
        "f800fcafe36a9a2e1fe45e4bf64a10fedd56ef2bd7815ea4489fb2f6a6b911cc",
    ),
    "meazo": (
        {"objective": QUAD, "optimizer": {"name": "meazo", "eta": 1e-3}, "q": 2},
        "1f88d6db0b0f3f6e5509f73d460cb78cf07b24b2e27fcb1c87a3742ce319b662",
    ),
    "meazo-grouped": (
        {
            "objective": QUAD,
            "optimizer": {"name": "meazo-grouped", "eta": 1e-3},
            "q": 2,
            "partition": [[0, 3], [3, 6], [6, 9]],
        },
        "a36ee2b558a51430ca5417bc533ac93feb941f146e16ba428acb525bfe8efdb4",
    ),
    "fzoo": (
        {"objective": QUAD, "optimizer": {"name": "fzoo", "eta": 1e-8}, "q": 4},
        "ed9f2ac82d0fd1edd518758c2f1ece2f11b93e474b8c4d7ddef12ef809dc9e45",
    ),
    "chain-meazo-grouped": (
        {
            "objective": {"kind": "chain", "p": 3, "widths": 3, "seed": 0},
            "optimizer": {"name": "meazo-grouped", "eta": 1e-2},
            "q": 2,
            "partition": "layers:3",
            "grouped_eval": "efficient",
        },
        "019ff3d939b37f63cf35f51447c086d8b8e220a68b4a5673442b8afe8672511c",
    ),
    # Observation noise and the non-Gaussian direction distributions.
    "fzoo-noisy": (
        {"objective": {**QUAD, "sigma": 0.5, "noise_seed": 7},
         "optimizer": {"name": "fzoo", "eta": 1e-8}, "q": 4},
        "4832f22b203714cc735c93ef46456987d3989ddb8d6178ad037ebce2058eab1d",
    ),
    "fzoo-ternary": (
        {"objective": QUAD, "optimizer": {"name": "fzoo", "eta": 1e-8}, "q": 4,
         "distribution": "ternary"},
        "9302f716a881b6e3b58d54a69627570e2ec63b302a7ae5e03730a1975a5ceac1",
    ),
    "meazo-uniform": (
        {"objective": QUAD, "optimizer": {"name": "meazo", "eta": 1e-3}, "q": 2,
         "distribution": "uniform"},
        "5259f2333f4c55af2d76f22c40eda3f064bb5bb423c358322e22c499d0e35809",
    ),
    "meazo-grouped-rademacher": (
        {
            "objective": QUAD,
            "optimizer": {"name": "meazo-grouped", "eta": 1e-3},
            "q": 2,
            "partition": [[0, 3], [3, 6], [6, 9]],
            "distribution": "rademacher",
        },
        "053369e374760ee2dc70b19c606a601c3f19884ad3df8897f6f7acdb67690932",
    ),
    "zo-sgd-uniform": (
        {"objective": QUAD, "optimizer": {"name": "zo-sgd", "eta": 1e-4}, "q": 2,
         "distribution": "uniform"},
        "9671dd1f4e2bbb98f92964503b9cfcf43b11aa443e719d8813a4eba734020c00",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_bytes_match_the_golden_hash(name, tmp_path):
    raw, want = CASES[name]
    (trace,) = run(ExperimentConfig.from_dict({**raw, "T": 30, "seeds": [0]}))
    assert not trace.diverged
    path = tmp_path / "trace_seed0.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def _digest(payload):
    """sha256 of a JSON rendering that keeps every float's exact repr."""

    def plain(obj):
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return obj

    return hashlib.sha256(json.dumps(plain(payload), sort_keys=True).encode()).hexdigest()


def test_collapse_study_matches_the_golden_hash():
    rows = collapse_study(
        dims=(4, 9), optimizers=("fo-adam", "zo-adam", "meazo"), eta=1e-2, q=2,
        threshold=0.1, max_steps=40, tail=10, seed=3,
    )
    assert _digest(rows) == "8392018538475eecb203ad83b1d97d7a156f8fb9a70031f45d964dd254964d90"


BOUND_CASES = {
    "meazo": (
        "meazo", 1e-3, 0.0,
        "72b5c9a67e525f67f5de8e5dfe5b0e3bd5b6c6aa3799a52f5026f65c142457ae",
    ),
    "meazo-noisy": (
        "meazo", 1e-3, 0.5,
        "c94af66d173f56b51b36dddb65d9dbb494ddc7d4b52b32a3d9e1fa4e11df9622",
    ),
    "zo-sgd": (
        "zo-sgd", 1e-4, 0.0,
        "e5c9b0277ad13c6cf9a91db56af1f19c485264a7716b0abef12d60cc0d8a467d",
    ),
    "zo-sgd-noisy": (
        "zo-sgd", 1e-4, 0.5,
        "4ef07b68fc0c5dd48447e4983ad6330db25733d485f70c5ec6d16afef52fe3d2",
    ),
}


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_bound_check_run_matches_the_golden_hash(name):
    optimizer, eta, sigma, want = BOUND_CASES[name]
    quad = BlockQuadratic(9, "heterogeneous", 0)
    out = [
        bound_check_run(quad, optimizer, eta, 2, 1e-4, "gaussian", sigma, 5,
                        equal_energy_point(quad, 1.0, seed), 50, seed, zeta=1.0, radius=2.0)
        for seed in (0, 1)
    ]
    assert _digest(out) == want


SWEEP_CASES = {
    "refined": (
        {"T": 30, "q": 1, "seeds": [0, 1], "coarse_grid": [1e-6, 1e-5, 1e-4]},
        "b88873b55e31745c0fb0a0cf4ed684bb361548bc7f8e76002964b9ceb1806a2e",
    ),
    "all-diverged": (
        {"T": 100, "seeds": [0], "coarse_grid": [100.0, 500.0]},
        "3485191dbc205b8c52fdfcf99433c64fe5323113feb034f34023eb8a79d02e89",
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_coarse_fine_sweep_matches_the_golden_hash(name):
    raw, want = SWEEP_CASES[name]
    sweep = coarse_fine_sweep(
        ExperimentConfig.from_dict({"objective": QUAD, "optimizer": {"name": "zo-sgd"}, **raw}))
    assert _digest([sweep.rows, sweep.best_eta, sweep.bracket]) == want


MOMENT_HASHES = {
    "gaussian": "06dcfef213d03895e7c80b6e3f4bd6f07f9956a53e263b1ce5a947fd54bbce1d",
    "uniform": "3a2dacd2d4d5163bf94da6551ed99cee2be41a633c6cc953eb4b0e3ab6d1dabe",
    "rademacher": "fcf0a8477f195488ddd741bf4858a3b4d23053b3a366fd18fdaeec954826c5cf",
    "ternary": "509eec2d2a0b0545c4c85646041da980d763e0238e92830f5440dbcf92c3de61",
}


@pytest.mark.parametrize("distribution", sorted(MOMENT_HASHES))
def test_monte_carlo_moments_match_the_golden_hash(distribution):
    # Two whole 32768-trial batches and part of a third; chunk sizes never
    # reach the arithmetic, so no budget moves these bits.
    out = []
    for d in (1, 2, 8):
        g = np.random.default_rng(d).standard_normal(d)
        for q in (1, 4):
            out.append(mc_squared_moment(g, q, distribution, 2 * 32768 + 5, seed=d + q))
    assert _digest(out) == MOMENT_HASHES[distribution]
