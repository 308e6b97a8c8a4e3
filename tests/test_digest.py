"""tests/digest.py, the bit-identity check between two trees, keeps running."""

import re

import digest


def test_digest_prints_each_documented_line_once():
    lines = list(digest.groups())
    names = [name for name, _ in lines]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    # every name is ``group/run`` in the docstring plus a values, flops or
    # rows suffix
    documented = set(re.findall(r"``([\w-]+/[\w-]+)``", digest.__doc__))
    assert {name.rsplit("/", 1)[0] for name in names} == documented
    assert {name.rsplit("/", 1)[1] for name in names} == {"values", "flops", "rows"}
