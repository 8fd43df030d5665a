"""A named subcommand is parsed by a parser built for it alone.

``cli.main`` builds only the invoked subcommand's parser; every usage, help
and error text must still be the one the parser of all subcommands prints.
"""
import argparse

import pytest

from ptcontour import cli

_CONTOUR = ("--a", "1", "--b", "1", "--c", "1")

CASES = [
    (), ("-h",), ("--help",), ("nope",), ("spec",), ("--bogus",),
    ("-h", "spectrum"),
    # each subcommand: help, a missing required flag, an unrecognized flag
    # or argument, and a bad choice or type
    ("algebra-verify", "-h"), ("algebra-verify", "--bogus"),
    ("algebra-verify", "extra"),
    ("spectrum", "-h"), ("spectrum", "--a", "1"), ("spectrum", "--a"),
    ("spectrum", *_CONTOUR, "--bogus"), ("spectrum", *_CONTOUR, "--levels", "x"),
    ("iso-check", "-h"), ("iso-check", "--src", "1,1,1"),
    ("iso-check", "--src", "1,1,1", "--dst", "1,1,1", "--bogus"),
    ("iso-check", "--src", "1,1,1", "--dst", "1,1,1", "-k", "x"),
    ("wedges", "-h"), ("wedges", "--b", "1"), ("wedges", *_CONTOUR, "extra"),
    ("wedges", *_CONTOUR, "--branch", "sideways"),
    ("wkb", "-h"), ("wkb",), ("wkb", "--tag", "adjacent", "--bogus"),
    ("wkb", "--tag", "nope"), ("wkb", "--tag", "adjacent", "--p-min", "a"),
    ("hermite-demo", "-h"), ("hermite-demo", "--bogus"),
    ("hermite-demo", "--n-max", "x"),
    ("sweep", "-h"), ("sweep",), ("sweep", "--config", "x.ini", "--bogus"),
    ("sweep", "--config", "x.ini", "--levels", "2.5"),
]


def _run(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    printed = capsys.readouterr()
    return code, printed.out, printed.err


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(
        argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    one = _run(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _run(argv, capsys) == one
    assert one[0] != 0 or {"-h", "--help"} & set(argv)
    assert not any(tmp_path.iterdir())      # no case reaches a command


@pytest.mark.parametrize("argv,message", [
    ((), "error: the following arguments are required: command"),
    (("nope",), "error: argument command: invalid choice: 'nope'"),
])
def test_the_full_parser_names_the_command_argument(argv, message, capsys):
    # the full parser leaves the subcommands' metavar unset, so its errors
    # name the argument "command", not the list of subcommands
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ptcontour [-h]") and message in err


def test_a_named_command_builds_only_its_parser(tmp_path, capsys,
                                                monkeypatch):
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(real(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["hermite-demo", "--n-max", "2", "--formats", "json",
                     "--out", str(tmp_path)]) == 0
    (parser,) = built
    assert _subcommands(parser) == ["hermite-demo"]
    assert _subcommands(cli.build_parser()) == list(cli._COMMANDS)


def _subcommands(parser):
    (subs,) = (action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return list(subs.choices)
