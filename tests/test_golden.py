"""Committed SHA-256 hashes of CLI artifacts.

Reruns of one build compare equal by construction; these hashes also
catch a change that moves the bytes of an artifact from one commit to
the next.  A change that moves them on purpose edits GOLDEN and says in
CHANGES.md which files moved and why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from fddsense.cli import main

# model -> extra `fddsense train` flags
MODELS = {
    "bagging": [],
    "hard-vote": ["--hard-vote"],
    "boosting": ["--method", "boosting"],
}

# model -> artifact of `fddsense robustness --fail-sensor --out` -> SHA-256
GOLDEN = {
    "bagging": {
        "robustness.csv": "a830ecc48bf597614441ff1e1d35916ac324fd521ad3035e5b5bf0915cb4696c",
        "robustness.json": "b7a4ab947fc1ca2bab70d33507d3896b327db46363ba9a96772f58e34fce7ad2",
    },
    "hard-vote": {
        "robustness.csv": "cd89e60080ef3f338450ffd99e12b63c122fe24f905a779c5f78eb03cdc0b137",
        "robustness.json": "a9f2c248d575173546cce7144ab776f4b1005b757025305803225bee6496cd05",
    },
    "boosting": {
        "robustness.csv": "f01524b75191d760f451b2bac9f07f58580351538776d377305c68edcfd3974c",
        "robustness.json": "ed32b6455931688a0776a0f23d252595288b7ac4188ea57181bf1ade79e9f6ec",
    },
}


def invoke(*args):
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """(training CSV, scored CSV): 3,000 generated rows each."""
    root = tmp_path_factory.mktemp("golden")
    paths = root / "train.csv", root / "score.csv"
    for seed, path in zip((4, 5), paths):
        invoke("simgen", "--rows", 3000, "--seed", seed, "--out", path)
    return paths


@pytest.mark.parametrize("model", sorted(MODELS))
def test_robustness_artifacts_match_their_golden_hashes(tables, tmp_path, model):
    train_csv, score_csv = tables
    model_json, out = tmp_path / "model.json", tmp_path / "out"
    invoke("train", "--data", train_csv, "--trees", 5, "--model-out", model_json, *MODELS[model])
    invoke("robustness", "--model", model_json, "--data", score_csv, "--fail-sensor", "--out", out)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[model]
