"""Seeded mutation fuzz of the four commands that read a JSON file.

Each case takes a valid input of ``polytope``, ``glsm kahler``, ``syz
classify`` or ``syz k3``, mutates its JSON document or its text, and runs
the command in-process through ``cli.main``.  Whatever the input, the
command must end with exit 0 (the input happened to be valid), 2 (bad
input) or 3 (a failed invariant), write no traceback, write nothing to
stderr or exactly one ``error:`` line, and print no ``nan`` or ``inf``.
"""

from __future__ import annotations

import copy
import json
import random
import re

from quintic_mirror import cli

_SHEAR_TRIPLE = [
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    [[1, 0, -1], [0, 1, -1], [0, 0, 1]],
]
# valid inputs: each command's argv and document
_SEEDS = [
    (["polytope"], {"points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}),
    (["polytope"], {"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}),
    (["polytope"], {"points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                               [-1, -1, -1, -1]]}),
    (["glsm", "kahler"], {"magnitudes": [0.5, 2.0], "charges": [[1, 0], [0, 1]]}),
    (["glsm", "kahler"], {"magnitudes": [1.0] * 5 + [3.0], "charges": [[1]] * 5 + [[-5]]}),
    (["syz", "classify"], {"monodromies": _SHEAR_TRIPLE}),
    (["syz", "k3"], {"multiplicities": [1] * 24}),
    (["syz", "k3"], {"multiplicities": [2] * 12}),
]
_VALUES = [
    0, 1, -1, 2, 3, -4, 24, 10**30, -(10**30), 0.5, -2.5, 1.0, 1e300, 1e-300,
    "", "1", "a", None, True, False, [], [[]], [1], [[1, 0], [0, 1]], {}, {"points": []},
]
_TEXT_EDITS = ["NaN", "Infinity", "-Infinity", "1e400", "[", "]", ",", '"', "{", "}", "-", "."]
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutated(rng: random.Random, doc) -> str:
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        path, node = rng.choice(list(_nodes(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = rng.randrange(5)
        if kind == 4 and path and type(node) in (int, float):
            # a nearby value of the same kind keeps most of the input valid
            parent[path[-1]] = type(node)(node + rng.randint(-2, 2))
        elif kind == 0 and isinstance(node, list) and node:
            del node[rng.randrange(len(node))]
        elif kind == 1 and isinstance(node, list) and node:
            node.append(copy.deepcopy(rng.choice(node)))
        elif kind == 2 and isinstance(node, dict) and node:
            node.pop(rng.choice(sorted(node)))
        elif path:
            parent[path[-1]] = copy.deepcopy(rng.choice(_VALUES))
        else:
            doc = copy.deepcopy(rng.choice(_VALUES))
    text = json.dumps(doc)
    if rng.random() < 0.2:
        at = rng.randrange(len(text) + 1)
        cut = at + rng.randint(0, 3)
        text = text[:at] + rng.choice(_TEXT_EDITS) + text[cut:]
    return text


def test_mutated_inputs_end_in_an_exit_code_and_at_most_one_error_line(
    capsys, tmp_path
) -> None:
    rng = random.Random(2024)
    path = tmp_path / "input.json"
    for case in range(400):
        words, doc = _SEEDS[case % len(_SEEDS)]
        text = _mutated(rng, doc)
        path.write_text(text)
        argv = words + ["--in", str(path), "--format", rng.choice(["table", "structured"])]
        where = f"{' '.join(argv[:-4])} on {text[:200]!r}"
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback in a real process
            raise AssertionError(f"{where}: raised {exc!r}") from exc
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), where
        assert err == "" or (err.count("\n") == 1 and err.startswith("error:")), where
        assert (code == 0) == (err == ""), where
        assert not _NON_FINITE.search(out), where
