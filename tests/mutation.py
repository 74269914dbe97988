"""Sampled mutation testing: how many small faults in the library does the test suite catch?

Run from the repository root::

    python tests/mutation.py --seed 0 --sample 20 src/heartbn/inference.py

Every mutation site in the named files (by default every module under
``src/heartbn``) is listed in source order.  A site takes one of five
operators: swap a comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==``
and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``), swap an
arithmetic operator (``+`` and ``-``, ``*`` and ``/``, ``//`` to ``/``,
``%`` and ``**`` to ``*``), swap a boolean operator (``and`` and ``or``),
drop a ``not``, or add 1 to an integer constant.  ``--sample`` sites are
drawn with ``random.Random(seed)``, so a seed names the same mutants of the
same source.  The repository is copied once to a temporary directory; each
mutant in turn is written into the copy and ``python -m pytest -x -q`` runs
there, then the file is restored.  A mutant is killed when pytest fails or
takes more than ``--timeout`` seconds.  Each survivor is printed as file,
line and changed source, and the last line is the score.  Only the
standard library is used, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
ARITHMETIC_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.Mult, ast.Pow: ast.Mult,
}
BOOLEAN_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


def sites(source: str) -> list[tuple[ast.AST, int]]:
    """``(node, k)`` for every mutation site in source order; ``k`` picks a comparison's operator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            found += [(node, k) for k in range(len(node.ops))]
        elif (
            isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC_SWAPS
            or isinstance(node, ast.BoolOp)
            or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
            or isinstance(node, ast.Constant) and type(node.value) is int
        ):
            found.append((node, 0))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))


def mutant_text(source: str, node: ast.AST, k: int) -> str:
    """The site's node mutated, in parentheses so that precedence holds where it stands."""
    if isinstance(node, ast.Compare):
        ops = list(node.ops)
        ops[k] = COMPARE_SWAPS[type(ops[k])]()
        new = ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BinOp):
        new = ast.BinOp(node.left, ARITHMETIC_SWAPS[type(node.op)](), node.right)
    elif isinstance(node, ast.BoolOp):
        new = ast.BoolOp(BOOLEAN_SWAPS[type(node.op)](), node.values)
    elif isinstance(node, ast.UnaryOp):
        return f"({ast.get_source_segment(source, node.operand)})"
    else:
        return repr(node.value + 1)
    return f"({ast.unparse(new)})"


def mutate(source: str, node: ast.AST, k: int) -> str:
    """``source`` with the site's node replaced by its mutant; ast columns count UTF-8 bytes."""
    data = source.encode()
    lines = data.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    return (data[:start] + mutant_text(source, node, k).encode() + data[end:]).decode()


def passes(copy: Path, timeout: float) -> bool:
    """True when ``pytest -x -q`` passes in the copy within ``timeout`` seconds."""
    # no bytecode cache: a mutant of the same size, written within the second,
    # could otherwise run its module's stale bytecode
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="modules to mutate (default: src/heartbn/*.py)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=20, help="number of mutants to run")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per pytest run")
    args = parser.parse_args(argv)
    files = [Path(f).resolve() for f in args.files] or sorted((ROOT / "src/heartbn").glob("*.py"))
    sources = {path.relative_to(ROOT): path.read_text(encoding="utf-8") for path in files}
    every = [(rel, node, k) for rel, text in sources.items() for node, k in sites(text)]
    chosen = sorted(random.Random(args.seed).sample(range(len(every)), min(args.sample, len(every))))
    print(f"seed {args.seed}: {len(chosen)} of {len(every)} sites")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", "*.egg-info"))
        if not passes(copy, args.timeout):
            print("the unmutated suite fails; no score")
            return 1
        survivors = 0
        for rel, node, k in (every[i] for i in chosen):
            mutated = mutate(sources[rel], node, k)
            (copy / rel).write_text(mutated, encoding="utf-8")
            if passes(copy, args.timeout):
                survivors += 1
                print(f"survived {rel}:{node.lineno}: {mutated.splitlines()[node.lineno - 1].strip()}")
            (copy / rel).write_text(sources[rel], encoding="utf-8")
    print(f"score {len(chosen) - survivors}/{len(chosen)} killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
