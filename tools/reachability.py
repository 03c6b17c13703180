#!/usr/bin/env python3
"""Finds the library functions that no program reaches.

Every strong (`T`) `m2g::` text symbol in the `libm2g_*.a` archives must
survive into at least one linked binary that is not a test (a paper
bench, an example or perfbench; test binaries are the ones named
`*_test`). A function that only test binaries keep must be listed in
the allowlist, under a `#` line that says why it stays. Three kinds of
function belong there: a test hook, a helper that tests assert with, and
a boundary API that a planned change exports. A reference oracle that a
fast path is checked against does not: it lives in the test-only
library under tests/oracles/, which is not a `libm2g_*` archive. The
check fails when:

  - a library function is in no binary at all;
  - a function is kept only by tests and is not on the allowlist;
  - an allowlist entry names no library function, or names one that a
    program now reaches (so the list cannot go stale);
  - a file under src/ includes a file under tests/ (the layering is
    one-way: tests build on the library, never the reverse).

Build the tree and perfbench without optimisation (at -O2 the
out-of-line copy of a function that is inlined everywhere is dropped,
and the function reads as unreached), with one section per function and
per datum, and let the linker drop the sections nothing references
(without -fdata-sections a switch's jump table sits in the shared
.rodata and keeps its function alive):

    FLAGS="-O0 -ffunction-sections -fdata-sections"
    cmake -S . -B build-reach -DCMAKE_BUILD_TYPE=None \\
        -DCMAKE_CXX_FLAGS="$FLAGS" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-reach -j4
    cmake -S perfbench -B build-reach-bench -DCMAKE_BUILD_TYPE=None \\
        -DCMAKE_CXX_FLAGS="$FLAGS -DNDEBUG" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-reach-bench -j4
    python3 tools/reachability.py build-reach build-reach-bench

perfbench needs -DNDEBUG: without it, main() returns before any workload
runs, the linker drops the whole serving stack from the binary, and all
of it reads as kept only by tests.

Weak symbols (inline functions, template instances) are not definitions
of their own and are not checked; -Wall already reports unused
file-local functions.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ALLOWLIST = os.path.join(ROOT, "tools", "reachability_allowlist.txt")


INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')


def includes_of_tests():
    """Returns one error per #include in src/ that resolves to a file
    under tests/, searched the way the build does: the including file's
    directory, then src/, then the repository root."""
    src = os.path.join(ROOT, "src")
    tests = os.path.realpath(os.path.join(ROOT, "tests"))
    errors = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, errors="replace") as f:
                for lineno, line in enumerate(f, 1):
                    m = INCLUDE.match(line)
                    if not m:
                        continue
                    for base in (dirpath, src, ROOT):
                        target = os.path.realpath(
                            os.path.join(base, m.group(1)))
                        if os.path.isfile(target):
                            break
                    else:
                        continue
                    if os.path.commonpath([target, tests]) == tests:
                        errors.append("%s:%d: src/ includes tests/: %s" % (
                            os.path.relpath(path, ROOT), lineno,
                            m.group(1)))
    return errors


def walk_build(build_dir):
    """Returns the library archives and the linked ELF executables of a
    build tree (CMake's own probe binaries under CMakeFiles/ excluded)."""
    archives, binaries = [], []
    for dirpath, dirnames, filenames in os.walk(build_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if name.startswith("libm2g_") and name.endswith(".a"):
                archives.append(path)
            elif os.access(path, os.X_OK) and os.path.isfile(path):
                with open(path, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        binaries.append(path)
    return archives, binaries


def defined_symbols(path, types=None):
    """Mangled names of the symbols a file defines, optionally only those
    of the given nm types."""
    out = subprocess.run(["nm", "-P", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) < 2 or line.endswith(":"):
            continue  # an archive member header
        if types is None or fields[1] in types:
            names.add(fields[0])
    return names


def demangle(names):
    """Maps each mangled name to its demangled form."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


def read_allowlist(path):
    """Returns (entries, errors). Entries are demangled names; each group
    of entries (lines between blank lines) must open with at least one
    `#` line giving the reason."""
    entries, errors = set(), []
    has_reason = False
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                has_reason = False
            elif line.startswith("#"):
                has_reason = True
            elif not has_reason:
                errors.append("%s:%d: entry without a reason above it: %s"
                              % (path, lineno, line))
            elif line in entries:
                errors.append("%s:%d: duplicate entry: %s"
                              % (path, lineno, line))
            else:
                entries.add(line)
    return entries, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dirs", nargs="+",
                        help="build trees to scan (the tree and perfbench)")
    parser.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    args = parser.parse_args()

    archives, binaries = [], []
    for build_dir in args.build_dirs:
        a, b = walk_build(build_dir)
        archives += a
        binaries += b
    if not archives or not binaries:
        sys.exit("reachability: no libm2g_*.a or no binaries under "
                 + " ".join(args.build_dirs))

    library = set()
    for archive in archives:
        library |= defined_symbols(archive, types={"T"})
    names = demangle(library)
    # Constructor and destructor variants (C1/C2, D0/D1/D2) share one
    # demangled name: the function is reached when any variant is.
    functions = {}
    for mangled, name in names.items():
        if name.startswith("m2g::"):
            functions.setdefault(name, set()).add(mangled)

    reached_by_program, reached_by_test = set(), set()
    for binary in binaries:
        kept = defined_symbols(binary) & library
        is_test = os.path.basename(binary).endswith("_test")
        (reached_by_test if is_test else reached_by_program).update(kept)

    unreached, test_only = [], []
    for name, variants in functions.items():
        if variants & reached_by_program:
            continue
        (test_only if variants & reached_by_test else unreached).append(name)
    unreached.sort()
    test_only.sort()

    allowed, errors = read_allowlist(args.allowlist)
    print("reachability: %d m2g:: functions in %d archives, %d binaries"
          % (len(functions), len(archives), len(binaries)))
    print("no binary (%d):" % len(unreached))
    for name in unreached:
        print("  " + name)
    print("only tests (%d, %d allowed):" % (len(test_only), len(allowed)))
    for name in test_only:
        print("  " + name + ("" if name in allowed else "   <- not allowed"))

    errors += includes_of_tests()
    errors += ["reached by no binary: " + n for n in unreached]
    errors += ["reached only by tests and not on the allowlist: " + n
               for n in test_only if n not in allowed]
    for name in sorted(allowed):
        if name not in functions:
            errors.append("allowlist entry names no library function: "
                          + name)
        elif name not in test_only and name not in unreached:
            errors.append("allowlist entry is reached by a program: " + name)
    for error in errors:
        print("reachability: FAIL: " + error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
