"""The byte-identity check set (``scripts/check_set.py``) runs every
subcommand and trains every model, so none of them can change its output
unseen. Nothing is run here: the check set's command lines are read."""

import importlib.util
from pathlib import Path

from satira.cli import _COMMANDS, PIPELINES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_set.py"


def load_check_set():
    spec = importlib.util.spec_from_file_location("check_set", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commands_cover_every_subcommand_and_model():
    satira = [argv[2:] for argv in load_check_set().commands(Path("checkout"))
              if argv[:2] == ("-m", "satira.cli")]
    assert {argv[0] for argv in satira} == set(_COMMANDS)
    trained = {argv[argv.index("--model") + 1] for argv in satira if argv[0] == "train"}
    assert trained == set(PIPELINES)
