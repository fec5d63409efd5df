"""CLI payloads pinned field by field.

Each case runs ``walkmax.cli.main`` in-process and compares its stdout
payload with the one stored under ``tests/data/``: integers, strings,
booleans and nulls exactly, floats to 1e-12 relative.  The Monte Carlo cases
use 70,000 paths, which is two 65,536-path blocks, so block merging and the
two-shard schedule are both covered.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from walkmax.cli import _record, main
from walkmax.lattice import Bracket

DATA = Path(__file__).parent / "data"
REF = "polyexp:gamma=1,beta=2,shift=1.3862943611198906"
LATTICE = ["--model", REF, "--step", "0.02"]
SAMPLING = ["--n-paths", "70000", "--shards", "2", "--seed", "1"]
MC = [*LATTICE, *SAMPLING]

# (name, argv, exit code)
CASES = [
    ("constants", ["constants", *LATTICE], 0),
    ("finite", ["finite", "--N", "1,2,5,10", "--x", "5,10", *LATTICE], 0),
    ("stopped", ["stopped", "--x", "4,6,8,10", *LATTICE], 0),
    ("bigjump", ["bigjump", "--x", "10,20,40", *LATTICE], 0),
    ("tail_report_mc", ["tail-report", "--measured", "mc", "--x", "1,2,3,4", *MC], 2),
    ("renewal_diag", ["renewal-diag", "--R", "2,4,8,16", "--model", REF, *SAMPLING], 0),
    ("bigjump_mc", ["bigjump", "--measured", "mc", "--x", "2,3,4", "--model", REF, *SAMPLING],
     0),
]


def assert_same(got, want, path="payload"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_payload_matches_record(name, argv, code, capsys):
    assert main(argv) == code
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"{name}.json").read_text())
    assert_same(got, want)


def test_record_writes_each_field():
    @dataclasses.dataclass
    class Inner:
        bound: Bracket
        tol: float

    @dataclasses.dataclass
    class Outer:
        inner: Inner
        rows: list
        table: dict
        width: float
        name: str

    rows = [{"x": 1.0, "dev": 0.5}]
    table = {"lo": 0.0}
    got = _record(Outer(Inner(Bracket(1.0, 0.5, 2.0), math.inf), rows, table, math.nan, "a"))
    assert got == {"inner": {"bound": {"value": 1.0, "lo": 0.5, "hi": 2.0}, "tol": "inf"},
                   "rows": rows, "table": table, "width": "nan", "name": "a"}
    assert got["rows"] is rows and got["table"] is table  # passed through untouched
    assert [_record(v) for v in (-math.inf, 0.25, 3, None)] == ["-inf", 0.25, 3, None]
