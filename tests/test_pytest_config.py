"""The suite's pytest configuration, run on a throwaway test file, and a
lint of the suite's own tolerance checks."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # Under filterwarnings = ["error"], a deprecation warning that
    # hypothesis triggers while it reports a failure became a pytest
    # INTERNALERROR that hid the falsifying example.
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_relative_approx_has_no_hidden_absolute_tolerance():
    # pytest.approx(x, rel=r) keeps its default abs=1e-12, which alone
    # accepts anything within 1e-12 of a small x; a relative check must
    # say abs= too (abs=0 for a purely relative one).
    bare = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "approx"):
                continue
            keywords = {k.arg for k in node.keywords}
            if "rel" in keywords and "abs" not in keywords:
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
