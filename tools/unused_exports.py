#!/usr/bin/env python3
"""List the exports of lib/ that nothing outside their own module uses.

Usage: python3 tools/unused_exports.py [ROOT]

For every top-level `val` in lib/**/*.mli the scan looks for a use in the
OCaml sources of lib/, bin/, bench/ and examples/ other than the
module's own .ml and .mli. A use is `Module.name`, or a bare `name` in a file that opens
the module (`open Module`, `let open Module in`, `Module.( ... )`) or
names it through a module alias. Comments and string literals are
ignored. The scan prints two lists per module:

  unused     no use in lib/, bin/, bench/, examples/ or test/: delete
             it, or take it out of the .mli if the module itself uses it
  test-only  used only by test/: a seam or an oracle, or dead code a
             test keeps alive

It reports and never fails; run it before adding an export. A name it
lists may still be needed (a record of functions, a functor argument),
so read the hit before deleting it.
"""

import os
import re
import sys

VAL = re.compile(r"^val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))", re.M)
OPEN = re.compile(r"\bopen!?\s+([A-Z][A-Za-z0-9_]*)\b")
LOCAL_OPEN = re.compile(r"\b([A-Z][A-Za-z0-9_]*)\.\(")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_]*)\s*=\s*([A-Z][A-Za-z0-9_]*)\b")


def strip(src):
    """Drop (* comments *) (nested) and string literals."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif depth:
            i += 1
        elif c == "'" and i + 2 < n and src[i + 2] == "'":
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


def sources(root, dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(root, d)):
            if "_build" in base:
                continue
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    path = os.path.join(base, f)
                    with open(path, encoding="utf-8") as fh:
                        yield path, strip(fh.read())


def module_of(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


QUAL = re.compile(r"\b([A-Z][A-Za-z0-9_]*)\.([a-z_][A-Za-z0-9_']*)")
WORD = re.compile(r"(?<![.\w'])([a-z_][A-Za-z0-9_']*)")


def index(files):
    """Per file: its module, the names it qualifies by each module, the
    modules it opens (aliases resolved) and its bare words."""
    out = []
    for path, text in files:
        alias = dict(ALIAS.findall(text))
        qual = {}
        for m, name in QUAL.findall(text):
            qual.setdefault(alias.get(m, m), set()).add(name)
        opened = set(OPEN.findall(text)) | set(LOCAL_OPEN.findall(text))
        opened = {alias.get(m, m) for m in opened}
        out.append((module_of(path), qual, opened, set(WORD.findall(text))))
    return out


def uses(index, module, name):
    """True when some file other than the module's own uses module.name."""
    for owner, qual, opened, words in index:
        if owner == module:
            continue
        if name in qual.get(module, ()):
            return True
        if module in opened and name in words:
            return True
    return False


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    prod = list(sources(root, ["lib", "bin", "bench", "examples"]))
    prod_index = index(prod)
    test_index = index(sources(root, ["test"]))
    n_vals = n_unused = n_test = 0
    for path, text in prod:
        if not path.endswith(".mli") or not path.startswith(os.path.join(root, "lib")):
            continue
        module = module_of(path)
        unused, test_only = [], []
        for m in VAL.finditer(text):
            name = m.group(1)
            if name.startswith("("):
                continue
            n_vals += 1
            if uses(prod_index, module, name):
                continue
            (test_only if uses(test_index, module, name) else unused).append(name)
        n_unused += len(unused)
        n_test += len(test_only)
        if unused or test_only:
            print(os.path.relpath(path, root))
            if unused:
                print("  unused:    " + " ".join(unused))
            if test_only:
                print("  test-only: " + " ".join(test_only))
    print(f"{n_vals} top-level vals; {n_unused} unused; {n_test} test-only")


if __name__ == "__main__":
    main()
