"""The CLI contract under malformed input: `cli.run` returns exit code 0, 1
or 2 on any mutated copy of a valid input, and never raises.

Each subcommand gets mutated copies of the bundled fixtures it accepts, or
of a small so3 cochain, representation or homomorphism built from them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie2alg.cli import fixture_dir, run

LEAVES = (None, True, 1.5, "x", "1/0", "9" * 5000)
DIMS = ("dim", "dim0", "dim1", "dimV", "degree")
BAD_KEYS = ("0<5", "1<0", "0<1<2", "a")


def fixture(name: str):
    with open(fixture_dir() / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _inputs() -> dict:
    so3, linf = fixture("so3"), fixture("ghbar_so3_1")
    ident = {"phi0": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "phi1": [["1"]],
             "phi2": [[["0"]] * 3] * 3}
    adjoint = [[[so3["bracket"][i][j][k] for j in range(3)] for k in range(3)]
               for i in range(3)]
    return {
        "cochain": {"algebra": so3, "degree": 2, "values": {"0<1": ["1"], "1<2": ["-1/2"]}},
        "adjoint": {"dimV": 3, "rho": adjoint},
        "hom": {"source": linf, "target": linf, **ident},
        "twohom": {"source": linf, "target": linf, "from": ident, "to": ident,
                   "tau": [["0", "0", "0"]]},
    }


INPUTS = _inputs()
ALGEBRAS = ("abelian3", "so3", "sl2", "broken_jacobi3")
TWO_TERM = ("ghbar_so3_1", "cross_product", "broken_abelian4")
# argv with IN for the mutated input file and OUT for a path in a scratch
# directory; the inputs each subcommand is run on
CASES = [
    (["check-linfty", "IN"], TWO_TERM),
    (["check-hom", "IN"], ("hom",)),
    (["check-2hom", "IN"], ("twohom",)),
    (["check-lie2", "IN"], TWO_TERM),
    (["check-dcm", "IN"], ("dcm_so3_adjoint",)),
    (["cohomology", "--degree", "2", "IN"], ALGEBRAS),
    (["cohomology", "--degree", "1", "SO3", "--rep", "IN"], ("adjoint",)),
    (["is-cocycle", "IN"], ("cochain",)),
    (["coboundary", "IN", "-o", "OUT"], ("cochain",)),
    (["build-ghbar", "--hbar", "1", "IN", "-o", "OUT"], ALGEBRAS),
    (["killing", "IN"], ALGEBRAS),
    (["ybe", "IN"], ALGEBRAS),
    (["skeletalize", "IN", "-o", "OUT"], TWO_TERM),
    (["classify", "IN"], TWO_TERM),
    (["tetrahedron", "IN"], TWO_TERM),
    (["fixtures", "--copy-to", "IN"], ("so3",)),
]


def mutations(obj, path=()):
    """(kind, path, replacement) triples, each naming one malformed copy
    of obj; the empty path replaces the top level."""
    if not path:
        yield from (("top", (), v) for v in ([], "x", 1, None))
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in DIMS:
                yield from (("dim", path + (key,), d) for d in (-1, 10 ** 6))
            yield from mutations(value, path + (key,))
        if path and path[-1] == "values":
            yield from (("key", path, {key: ["1"]}) for key in BAD_KEYS)
    elif isinstance(obj, list):
        if obj:
            yield "truncate", path, obj[:-1]
        for i, value in enumerate(obj):
            yield from mutations(value, path + (i,))
    else:
        yield from (("leaf", path, v) for v in LEAVES)


def replaced(obj, path: tuple, value):
    """A copy of obj with the entry at path replaced, sharing the rest."""
    if not path:
        return value
    new = dict(obj) if isinstance(obj, dict) else list(obj)
    new[path[0]] = replaced(obj[path[0]], path[1:], value)
    return new


def base(name: str):
    return INPUTS[name] if name in INPUTS else fixture(name)


# input name -> mutation kind -> [(path, replacement)]; a kind is drawn
# first, so that the few dim and key mutations are not swamped by leaves
MUTATIONS = {}
for _, names in CASES:
    for name in names:
        kinds = MUTATIONS.setdefault(name, {})
        for kind, path, value in mutations(base(name)):
            kinds.setdefault(kind, []).append((path, value))


@pytest.mark.parametrize("argv, names", CASES, ids=[" ".join(argv) for argv, _ in CASES])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_malformed_input_exits_with_a_contract_code(argv, names, data):
    name = data.draw(st.sampled_from(names))
    kind = data.draw(st.sampled_from(sorted(MUTATIONS[name])))
    path, value = data.draw(st.sampled_from(MUTATIONS[name][kind]))
    obj = replaced(base(name), path, value)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"IN": os.path.join(tmp, "in.json"), "OUT": os.path.join(tmp, "out.json"),
                 "SO3": str(fixture_dir() / "so3.json")}
        with open(files["IN"], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code, _ = run([files.get(a, a) for a in argv])
    assert code in (0, 1, 2)
