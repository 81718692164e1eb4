"""Committed SHA-256 hashes of CLI and study artifacts.

Reruns of one build compare equal by construction; these hashes also
catch a change that moves the bytes of an artifact from one commit to
the next.  A change that moves them on purpose edits GOLDEN and says in
CHANGES.md which files moved and why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from fddsense.cli import main
from fddsense.pipeline import parse_config, run_pipeline

# model -> extra `fddsense train` flags
MODELS = {
    "bagging": [],
    "hard-vote": ["--hard-vote"],
    "boosting": ["--method", "boosting"],
}

# model -> SHA-256 of the model.json of `fddsense train --trees 5`
TRAINED = {
    "bagging": "7f38c99f4e780842b5a65f38e924c0bfab447899f504c8c41d38669fb62ec067",
    "hard-vote": "d374191cc07c283dd87f7fc3ec87a4ff846241287e7edd4f19c157753307e41a",
    "boosting": "7bd267c7c1387a8db9fa58d351633e9ce719bb56cd6600790991e4a6592e6ff8",
}

# model -> artifact of `fddsense robustness --out` -> SHA-256
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

# study -> run_pipeline overrides, on 3,000 generated rows with seed 1
STUDIES = {
    "bagging": {"n_trees": 5},
    "boosting": {"method": "boosting", "n_trees": 2},
}

# study -> artifact of run_pipeline -> SHA-256
STUDY_GOLDEN = {
    "bagging": {
        "class_report.csv": "6036a8d5966865cd72533acc954ad430c45eaf312038699078828bfca3aa3e21",
        "class_report.json": "333aee75b1ae47a41297dda03f221a56d4e238035c8cedff94ebac5d02c3dd90",
        "config.json": "3db0bb5e4a685fa1f70f6c7be680d0cdfae829155e07a1ea34e233ce5e86751d",
        "model.json": "0e73ad6c22f1d87708e24ca8b64ac0fde2bc20d6213e7e93fc2741a7c7eba654",
        "rfa_curves.svg": "be343038708c7ffb6a93253ec68e02b794306beec4a2cf55cc3a49350cfb90af",
        "rfa_trace.csv": "2f40abe50cbd66cd25a9c1a772d9dbc802308923fa6f57d04ee24a413e1a841b",
        "rfa_trace.json": "996db8f9d2352b448b50a47d20c858848573e6dd8b8454dccd37e1841267251a",
        "robustness.csv": "5151672fab210762bc58cf85b13cf6e8e698469847512473409c69339c1852b7",
        "robustness.json": "965e1eb69a4294361a8f148c74e3d125b1a3004fbe967ce3d0041b357d1cefea",
    },
    "boosting": {
        "class_report.csv": "2396b4d5f934ca956879951ee84d91b4bc00ae8f6b8a7e5bd5ba4a0b544e5b23",
        "class_report.json": "b56ec0359f94e9329a493f64ddf577e2877241710161f1c9c939fee9ba44a04f",
        "config.json": "12a2b1e5b019f2471bfb32fc4b747d3a4e7c973927ab31d2e1795a85be4b3726",
        "model.json": "79487c31950c2d507bb0469bf1af37873e73e73c40ee08b4b3859b746b03a43f",
        "rfa_curves.svg": "e5950ca895219cb35c0daf259bf0c0c9a5d81204b910c588a5d0e0978613cbfc",
        "rfa_trace.csv": "2b2e76ae75c02c06c35a50b67ea42a99a80eea431175ebf46b9ffc1dd61bdaf2",
        "rfa_trace.json": "045f4e028610c3c918b85e37df766a151032ce07c5891679f78b1e0e16b98568",
        "robustness.csv": "864721ef02f25c529679b8404d17767e4e6d6d39a4fae1c08f91d05307e4fd8a",
        "robustness.json": "6c569d9fe8ba804010c1685ba96aa3c10df9e4be86a432a5f944c58770077685",
    },
}

# artifact of `fddsense pipeline --data train.csv --trees 5 --seed 1` -> SHA-256
CSV_STUDY_GOLDEN = {
    "class_report.csv": "6036a8d5966865cd72533acc954ad430c45eaf312038699078828bfca3aa3e21",
    "class_report.json": "333aee75b1ae47a41297dda03f221a56d4e238035c8cedff94ebac5d02c3dd90",
    "config.json": "52133996386d4fe791d8777264cb777b66aa5f849a173565db23e2be59071428",
    "model.json": "b2a658c60aeb28ab15153971d293e2b11bb41579d7994388e97ed21091768608",
    "rfa_curves.svg": "a8042d85642405ddc14605ae9b27807bc102c84b63c17cba7449442c2e8448be",
    "rfa_trace.csv": "c3e6fd1ea216f6e82d7db1ad3a7b6383cb58edd52b37b709cba75b0adf7ae025",
    "rfa_trace.json": "b9382135efa60c4125eba31ecdccb37e2c47dcd9f2221e50fec8f4b1e905c563",
    "robustness.csv": "479467445e0b6a437203f44d884c4cee8a6a1e9bc9fd0f6ec0e908a2ee6911cc",
    "robustness.json": "a81a226d33d6aa1065c2bcc42dff2ce91f6e133e842f4ab5045400593f779a28",
}


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


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


@pytest.fixture(scope="module")
def trained(tables, tmp_path_factory):
    """model -> the model.json that `fddsense train` wrote for it."""
    root = tmp_path_factory.mktemp("trained")
    paths = {}
    for model, flags in MODELS.items():
        paths[model] = root / f"{model}.json"
        invoke("train", "--data", tables[0], "--trees", 5, "--model-out", paths[model], *flags)
    return paths


@pytest.mark.parametrize("model", sorted(MODELS))
def test_trained_models_match_their_golden_hashes(trained, model):
    assert hashlib.sha256(trained[model].read_bytes()).hexdigest() == TRAINED[model]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_robustness_artifacts_match_their_golden_hashes(tables, trained, tmp_path, model):
    out = tmp_path / "out"
    invoke("robustness", "--model", trained[model], "--data", tables[1], "--out", out)
    assert digests(out) == GOLDEN[model]


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_artifacts_match_their_golden_hashes(tmp_path, study):
    overrides = {"seed": 1, "n_rows": 3000, "out_dir": str(tmp_path), **STUDIES[study]}
    run_pipeline(parse_config(None, overrides))
    assert digests(tmp_path) == STUDY_GOLDEN[study]


def test_csv_study_artifacts_match_their_golden_hashes(tables, tmp_path, monkeypatch):
    """A CSV study that passes the data stage's feasibility check writes
    what it wrote before the check existed."""
    monkeypatch.chdir(tables[0].parent)  # config.json echoes data.path as given
    invoke("pipeline", "--data", tables[0].name, "--trees", 5, "--seed", 1, "--out", tmp_path)
    assert digests(tmp_path) == CSV_STUDY_GOLDEN
