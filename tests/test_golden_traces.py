"""Golden hashes of trace CSV bytes: one small run per optimizer.

Every run is deterministic, so the sha256 of its trace file pins the whole
trajectory. A hash may move only when a change alters a run's arithmetic on
purpose (for example the summation order of an oracle); such a change
updates the hash here and says so in CHANGES.md. The chain hash predates
the block-stacked quadratic oracle, which never touches a chain run.
"""

import hashlib

import pytest

from zoptim import ExperimentConfig, run, write_trace_csv

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
