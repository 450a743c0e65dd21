"""The CLI's option table: the parser it builds, when it is built, and the
environment variables it names.

cli_options_golden.json lists, for the top-level parser and every
subcommand, each action's option strings, dest, type, choices, default,
`required`, action class, metavar and help, as they were before the
options were gathered into one table; the parser built from the table must
reproduce it exactly."""

import argparse
import json
import pathlib
import re

from surfalg import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).with_name("cli_options_golden.json")


def option_surface(parser):
    def actions(p):
        return [{
            "option_strings": list(a.option_strings),
            "dest": a.dest,
            "type": getattr(a.type, "__name__", a.type),
            "choices": list(a.choices) if a.choices is not None else None,
            "default": a.default,
            "required": a.required,
            "action": type(a).__name__,
            "metavar": a.metavar,
            "help": a.help,
        } for a in p._actions
            if not isinstance(a, argparse._SubParsersAction)]

    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {c.dest: c.help for c in sub._choices_actions}
    doc = {"": {"help": parser.description, "actions": actions(parser)}}
    for name, sp in sub.choices.items():
        doc[name] = {"help": helps[name], "actions": actions(sp),
                     "defaults": sorted(sp._defaults)}
    return doc


def test_option_surface_golden():
    got = json.loads(json.dumps(option_surface(cli.PARSER)))
    assert got == json.loads(GOLDEN.read_text())


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["bands", "--builtin", "sphere5", "--max-len", "4"]) == 0
    assert cli.main(["xi", "--builtin", "torus"]) == 0
    capsys.readouterr()
    assert built == []


def _variables(text):
    return set(re.findall(r"SURFALG_[A-Z_]*[A-Z]", text))


def test_documented_variables_are_the_table_s():
    table = ["SURFALG_" + env[0] for _, env in cli.OPTIONS.values() if env]
    assert len(table) == len(set(table)) == 8
    assert _variables(cli.__doc__) == set(table)
    assert _variables((ROOT / "README.md").read_text()) == set(table)
