"""The top-level README documents every command the CLI has."""

import argparse
from pathlib import Path

from heic import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_subcommand_has_an_example():
    parser = cli._build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    text = README.read_text()
    missing = [name for name in subcommands if f"`heic {name} " not in text]
    assert subcommands and not missing, missing
