"""tests/digest.py, the bit-identity check between two trees, keeps running."""

import re

import pytest

import digest


@pytest.fixture(scope="module")
def lines():
    return list(digest.groups())


def test_digest_prints_each_documented_line_once(lines):
    names = [name for name, _ in lines]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    # every name is ``group/run`` in the docstring plus a values, flops or
    # rows suffix
    documented = set(re.findall(r"``([\w-]+/[\w-]+)``", digest.__doc__))
    assert {name.rsplit("/", 1)[0] for name in names} == documented
    assert {name.rsplit("/", 1)[1] for name in names} == {"values", "flops", "rows"}


def test_against_prints_only_the_lines_that_differ(lines, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest, "groups", lambda: iter(lines))
    saved = tmp_path / "saved.txt"
    saved.write_text("".join(f"{name} {value}\n" for name, value in lines))
    assert digest.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""
    # one hash changed, one line missing from the file, one line only in it
    (changed, value), (missing, new) = lines[1], lines[-1]
    doctored = [f"{name} {'0' * 64 if name == changed else v}" for name, v in lines[:-1]]
    saved.write_text("\n".join(doctored + ["gone/values " + "f" * 64]) + "\n")
    assert digest.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"- {changed} {'0' * 64}", f"+ {changed} {value}", f"+ {missing} {new}",
        f"- gone/values {'f' * 64}"]
