#!/usr/bin/env python3
"""Fail when a CI workflow pins a test name that no longer exists.

`go test -run 'TestA|TestB' ./pkg/` exits 0 with "no tests to run" when a
name matches nothing, so a renamed or moved test silently drops out of the
job that pins it. This script reads every `go test` command of
.github/workflows/*.yml and checks each alternative of its -run, -skip and
-bench patterns against the Test/Fuzz/Example (or, for -bench, Benchmark)
functions of the command's packages.

Usage (from anywhere in the repo):
    scripts/check_test_names.py      # exit 0 clean, 1 on a dangling name
"""

import glob
import os
import re
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUNC = re.compile(r"^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(", re.M)
NAME_FLAGS = {"-run": "test", "-skip": "test", "-bench": "bench"}


def logical_lines(path):
    """Yields (line number, text) with backslash continuations joined."""
    start, buf = None, ""
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if start is None:
                start = n
            if line.endswith("\\"):
                buf += line[:-1] + " "
                continue
            yield start, buf + line
            start, buf = None, ""


def command_words(rest):
    """Splits a command's arguments, up to the shell operator ending it."""
    lex = shlex.shlex(rest, posix=True, punctuation_chars=";&|()")
    lex.whitespace_split = True
    words = []
    for w in lex:
        if w and set(w) <= set(";&|()"):
            break
        words.append(w)
    return words


def package_dirs(base, pattern):
    path = os.path.normpath(os.path.join(base, pattern.removesuffix("...")))
    if not pattern.endswith("..."):
        return [path]
    return [d for d, _, _ in os.walk(path) if "testdata" not in d.split(os.sep)]


def functions(dirs):
    names = set()
    for d in dirs:
        for f in glob.glob(os.path.join(d, "*_test.go")):
            with open(f) as fh:
                names.update(FUNC.findall(fh.read()))
    return names


def check_command(where, base, words):
    errors = []
    patterns, pkgs = [], []
    i = 0
    while i < len(words):
        w = words[i]
        flag, eq, value = w.partition("=")
        if flag in NAME_FLAGS:
            if not eq:
                i += 1
                value = words[i]
            patterns.append((flag, value))
        elif w == "." or w.startswith("./"):
            pkgs.append(w)
        i += 1
    dirs = [d for p in pkgs for d in package_dirs(base, p)]
    names = functions(dirs)
    for flag, pattern in patterns:
        if "${{" in pattern:
            continue  # set by a matrix; not checkable here
        kinds = ("Benchmark",) if NAME_FLAGS[flag] == "bench" else ("Test", "Fuzz", "Example")
        candidates = [n for n in names if n.startswith(kinds)]
        for alt in pattern.split("|"):
            top = alt.split("/")[0]
            if top.strip("^$") == "":
                continue
            if not any(re.search(top, n) for n in candidates):
                errors.append(f"{where}: {flag} {alt!r} matches no {'/'.join(kinds)} function in {' '.join(pkgs)}")
    return errors


def main():
    errors, checked = [], 0
    for wf in sorted(glob.glob(os.path.join(ROOT, ".github", "workflows", "*.yml"))):
        for n, line in logical_lines(wf):
            if re.match(r"\s*(-\s*)?(name:|#)", line):
                continue  # a step title or a comment, not a command
            for m in re.finditer(r"(?:\bcd\s+(\S+)\s*&&\s*)?\bgo test\b(.*)", line):
                base = os.path.join(ROOT, m.group(1) or "")
                where = f"{os.path.relpath(wf, ROOT)}:{n}"
                errors += check_command(where, base, command_words(m.group(2)))
                checked += 1
    for e in errors:
        print(e)
    if errors:
        return 1
    print(f"check_test_names: {checked} go test commands, every pinned name resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
