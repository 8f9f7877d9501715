"""The construct and criterion tables in ncyclepp.cli.

A family or criterion is one entry: its options and its build or call.
A toy entry added to each table runs through `main` like the built-in ones,
and the README's lists of subcommand and fuzz names follow the tables.
"""
import json
import re
from pathlib import Path

from ncyclepp import cli
from ncyclepp.criteria import RsParams, rs_triple_criterion
from ncyclepp.families import rs_instance
from ncyclepp.oracle import FUZZ_FAMILIES
from ncyclepp.polyperm import SparsePoly

README = Path(__file__).resolve().parent.parent / "README.md"
RS_OPTIONS = [("--h", {"required": True, "help": "polynomial text"}),
              ("--r", {"required": True}),
              ("--s", {"required": True})]
TOY_FIELD = ["--p", "2", "--n", "6"]
TOY_RS = ["--h", "x^7", "--r", "1", "--s", "(q^3-1)//3"]


def build_toy(ctx, h: str, r: int, s: int):
    """x^r * h(x^s) claimed as a 3-cycle."""
    return rs_instance(ctx, SparsePoly.from_text(ctx, h), RsParams(r, s),
                       family="toy", params={"h": h, "r": r, "s": s},
                       map_form="x^r * h(x^s)")


def add_toy(monkeypatch):
    monkeypatch.setitem(cli.FAMILIES, "toy", (
        [*cli._FIELD, cli._SUB, *RS_OPTIONS],
        lambda o, ctx, num: build_toy(ctx, o.h, num(o.r), num(o.s))))
    monkeypatch.setitem(cli.CRITERIA, "toy", (
        RS_OPTIONS,
        lambda o, ctx, num, poly: rs_triple_criterion(
            ctx, poly(o.h), RsParams(num(o.r), num(o.s)))))


def test_a_toy_family_is_one_entry_and_a_builder(monkeypatch, capsys):
    add_toy(monkeypatch)
    code = cli.main(["construct", "toy", *TOY_FIELD, "--sub-degree", "2",
                     *TOY_RS, "--verify"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["family"] == "toy" and doc["claimed_n"] == 3
    # q = p^sub_degree = 4 in the expressions: s = (4^3 - 1)//3 = 21
    assert doc["params"] == {"h": "x^7", "r": 1, "s": 21}
    assert doc["poly"] == "1*x^22"
    assert doc["cross_check"]["status"] == "AGREE"
    assert doc["cross_check"]["criterion_holds"] is True
    assert doc["cross_check"]["oracle"]["order"] == 3


def test_a_toy_criterion_is_one_entry(monkeypatch, capsys):
    add_toy(monkeypatch)
    # q = p^n = 64 here: s = (64^3 - 1)//3 is not 21, so pass it plainly
    code = cli.main(["criterion", "toy", *TOY_FIELD, *TOY_RS[:4], "--s", "21"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["holds"] is True and doc["domain_size"] == 3
    code = cli.main(["criterion", "toy", *TOY_FIELD, "--h", "x^7",
                     "--r", "2", "--s", "21"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["holds"] is False


def readme_names(label: str) -> list[str]:
    """The backquoted names in the README's sentence that starts with
    label."""
    text = README.read_text()
    sentence = text[text.index(label) + len(label):].split(".")[0]
    return re.findall(r"`(\w+)`", sentence)


def test_readme_lists_every_table_key_in_order():
    assert readme_names("`construct` subcommands:") == list(cli.FAMILIES)
    assert readme_names("`criterion` subcommands:") == list(cli.CRITERIA)
    assert readme_names("`fuzz` families:") == list(FUZZ_FAMILIES)
