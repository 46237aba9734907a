"""Golden hashes of trace CSV bytes, one small run per optimizer, and of
the analysis drivers' results: a small collapse study and bound-check runs.

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
    ExperimentConfig,
    bound_check_run,
    collapse_study,
    equal_energy_point,
    make_block_quadratic,
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
    quad = make_block_quadratic(9, "heterogeneous", 0)
    out = [
        bound_check_run(quad, optimizer, eta, 2, 1e-4, "gaussian", sigma, 5,
                        equal_energy_point(quad, 1.0, seed), 50, seed, zeta=1.0, radius=2.0)
        for seed in (0, 1)
    ]
    assert _digest(out) == want
