#!/usr/bin/env python3
"""List the src/ functions that no production binary links.

Usage, from the repository root:

    cmake -B build-map -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS_DEBUG="-O0 -g0" \\
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
    cmake --build build-map -j4
    cmake -S perfbench -B build-map-perfbench <the same four -D flags>
    cmake --build build-map-perfbench -j4
    python3 tools/unreached.py build-map build-map-perfbench

Every function sits in its own section and the linker drops each one
no root reaches, so a function missing from every binary is one no
binary can call. At -O0 nothing is inlined, so a function that is
called is also linked.

Prints each strong nsbench:: function (nm types T and t, lambdas
excluded) that a src/ library defines and none of tools/nsbench,
bench/*, examples/* and perfbench links, minus the entries of
tools/unreached.allow. An allowlist entry is a qualified name (its
overloads included) or a full signature, then ' # ' and the reason it
stays. Exits 1 if a function remains or an entry matches nothing
unreached (stale), 0 otherwise.
"""

import os
import re
import subprocess
import sys

ALLOW = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "unreached.allow")
ABI_TAG = re.compile(r"\[abi:\w+\]")


def functions(path):
    """Strong nsbench:: functions defined in an object, archive or binary."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         text=True, stdout=subprocess.PIPE).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "t"):
            continue
        name = parts[2]
        if name.startswith("nsbench::") and "{lambda(" not in name:
            names.add(name)
    return names


def executables(directory):
    return [os.path.join(directory, f) for f in sorted(os.listdir(directory))
            if os.path.isfile(os.path.join(directory, f))
            and os.access(os.path.join(directory, f), os.X_OK)]


def allowlist():
    entries = []
    with open(ALLOW) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                sys.exit(f"{ALLOW}:{number}: entry without ' # reason'")
            entries.append(name.strip())
    return entries


def allowed(name, entry):
    name = ABI_TAG.sub("", name)
    return name == entry or name.startswith(entry + "(")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main_tree, perfbench_tree = sys.argv[1:]
    src = os.path.join(main_tree, "src")
    libraries = [os.path.join(root, f) for root, _, files in os.walk(src)
                 for f in files if f.startswith("libnsbench_")
                 and f.endswith(".a")]
    binaries = ([os.path.join(main_tree, "tools", "nsbench"),
                 os.path.join(perfbench_tree, "perfbench")]
                + executables(os.path.join(main_tree, "bench"))
                + executables(os.path.join(main_tree, "examples")))
    missing = [p for p in binaries if not os.path.isfile(p)]
    if not libraries or missing:
        sys.exit("unreached: build both trees first; missing "
                 + (", ".join(missing) or f"{src}/*/libnsbench_*.a"))

    defined = set().union(*(functions(lib) for lib in libraries))
    linked = set().union(*(functions(b) for b in binaries))
    entries = allowlist()
    unreached = sorted(defined - linked)
    remaining = [n for n in unreached
                 if not any(allowed(n, e) for e in entries)]
    stale = [e for e in entries
             if not any(allowed(n, e) for n in unreached)]

    for name in remaining:
        print(name)
    for entry in stale:
        print(f"stale allowlist entry: {entry}")
    print(f"unreached: {len(defined)} src/ functions, {len(binaries)} "
          f"binaries, {len(unreached)} unreached, {len(remaining)} not "
          f"allowlisted, {len(stale)} stale entries", file=sys.stderr)
    return 1 if remaining or stale else 0


if __name__ == "__main__":
    sys.exit(main())
