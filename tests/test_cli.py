"""CLI option handling: the repeatable ``--engine`` flag and config validation."""

import json

import pytest

from repro import cli
from repro.core.config import ENGINE_STAGES, TDMatchConfig

ARGS = [
    "--scenario", "imdb_wt", "--size", "tiny", "--k", "5",
    "--num-walks", "4", "--walk-length", "8", "--vector-size", "32",
    "--epochs", "1", "--compression", "msp",
]


def _usage_error(argv, capsys) -> str:
    """Run the CLI expecting an argparse usage error; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestCliEngineFlag:
    @pytest.mark.parametrize("stage", list(ENGINE_STAGES))
    def test_selects_stage_engine(self, stage, capsys):
        argv = ARGS + ["--engine", f"{stage}=reference"]
        assert cli.main(argv) == 0
        assert f"{cli.ENGINE_LABELS[stage]}: reference" in capsys.readouterr().out
        assert cli.main(argv + ["--json"]) == 0
        engines = json.loads(capsys.readouterr().out)["report"]["engines"]
        assert engines == {**TDMatchConfig().engines, stage: "reference"}

    @pytest.mark.parametrize(
        "value, message",
        [
            ("bogus=reference", "unknown engine stage 'bogus'"),
            ("walks=gpu", "unknown walk_engine 'gpu'"),
            ("word2vec", "expected STAGE=NAME"),
        ],
        ids=["unknown-stage", "unknown-engine", "no-equals"],
    )
    def test_bad_value_is_usage_error(self, value, message, capsys):
        assert message in _usage_error(ARGS + ["--engine", value], capsys)


class TestCliConfigValidation:
    @pytest.mark.parametrize("flag", ["--num-walks", "--walk-length", "--vector-size", "--epochs"])
    def test_invalid_numeric_flag_is_usage_error(self, flag, capsys):
        assert "must be >= 1" in _usage_error(ARGS + [flag, "0"], capsys)
