"""Mutated descriptors: the parser refuses with DescriptorError only, and the
CLI commands that read a descriptor exit 0 or 2, never with a traceback."""

import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repstab.cli import dispatch
from repstab.manifolds import DescriptorError, parse_descriptor

BUNDLED = {
    name: resources.files("repstab.data").joinpath(f"{name}.desc").read_text()
    for name in ("torus", "s2", "s3")
}
TOKENS = (
    "name dim flag class mul diag closed single_differential 1 a b pt t "
    "0 1 2 3 -1 4 1/2 -1/1 1/0 x #"
).split()
line = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)
mutation = st.tuples(st.sampled_from(("replace", "insert", "delete")), st.integers(0, 15), line)
COMMANDS = (
    ("betti", "--n", "2", "--i", "1"),
    ("color-betti", "--mu", "1", "--n", "2", "--i", "1"),
    ("e2", "--n", "2", "--explicit"),
)


def mutate(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, at, new in edits:
        at %= len(lines) + 1
        if kind == "insert":
            lines.insert(at, new)
        elif at < len(lines):
            if kind == "replace":
                lines[at] = new
            else:
                del lines[at]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUNDLED)), st.lists(mutation, min_size=1, max_size=3))
def test_mutated_descriptors_refuse_cleanly(name, edits):
    text = mutate(BUNDLED[name], edits)
    try:
        parse_descriptor(text)
    except DescriptorError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.desc"
        path.write_text(text)
        for command, *args in COMMANDS:
            code, out = dispatch([command, "--manifold", str(path), *args])
            assert code in (0, 2), (command, out)
            assert code == 0 or out.startswith("error: ")
