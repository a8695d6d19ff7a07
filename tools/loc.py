"""Line counts of the cmquartic package, module by module.

For each module in src/cmquartic, prints its total lines and its code-only
lines: those that hold a token other than a comment, and that lie outside
every docstring (the leading string of a module, class or function).
With --rev, each module's counts at the git revision REV (read with
`git show`) stand beside those in the working tree, with the difference;
a module missing on one side counts 0 lines there.

    python3 tools/loc.py [--rev REV] [PACKAGE_DIR]
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(total lines, code-only lines) of one module's source."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def at_rev(package: Path, rev: str) -> dict[str, str]:
    """The source of each module of `package` at git revision `rev`, by module name."""
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(package), *args], capture_output=True,
                              text=True, check=False)
        if proc.returncode:
            sys.exit(f"git {' '.join(args)}: {proc.stderr.strip()}")
        return proc.stdout

    names = git("ls-tree", "--name-only", rev, ".").split()
    return {Path(name).stem: git("show", f"{rev}:./{name}")
            for name in names if name.endswith(".py")}


def print_table(rows: list[tuple[str, int, int]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    print(f"{'all':<{width}}  {sum(r[1] for r in rows):>6,}  {sum(r[2] for r in rows):>6,}")


def print_comparison(rev: str, before: dict[str, tuple[int, int]],
                     after: dict[str, tuple[int, int]]) -> None:
    names = sorted(before.keys() | after.keys())
    rows = [(name, *before.get(name, (0, 0)), *after.get(name, (0, 0))) for name in names]
    rows.append(("all", *(sum(r[k] for r in rows) for k in range(1, 5))))
    width = max(len(name) for name, *_ in rows)
    print(f"{'':<{width}}  {'at ' + rev:>14}  {'working tree':>14}  {'difference':>14}")
    print(f"{'module':<{width}}" + f"  {'total':>6}  {'code':>6}" * 3)
    for name, t0, c0, t1, c1 in rows:
        print(f"{name:<{width}}  {t0:>6,}  {c0:>6,}  {t1:>6,}  {c1:>6,}"
              f"  {t1 - t0:>+6,}  {c1 - c0:>+6,}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Line counts of the cmquartic package.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "cmquartic")
    parser.add_argument("--rev", help="also count the modules at this git revision")
    args = parser.parse_args(argv)
    now = {path.stem: counts(path.read_text()) for path in sorted(args.package.glob("*.py"))}
    if args.rev is None:
        print_table([(name, *c) for name, c in now.items()])
        return
    then = {name: counts(source) for name, source in at_rev(args.package, args.rev).items()}
    print_comparison(args.rev, then, now)


if __name__ == "__main__":
    main()
