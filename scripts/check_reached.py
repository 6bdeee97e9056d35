#!/usr/bin/env python3
"""Fails when a member of libroleshare.a is linked into no program.

Usage: scripts/check_reached.py BUILD_DIR

A static link pulls whole archive members, so a member none of whose
strong global symbols is defined in any executable of BUILD_DIR is one
that no program links: code reached only by its own tests. The test
binaries (roleshare_*tests) do not count. Weak symbols (inline functions
and template instantiations) do not count either: any member that
includes a header may define them. Exit code 0 = every member is
reached, 1 = the unreached members are listed.
"""
import os
import re
import subprocess
import sys

# Test support that only the test binaries link, by design: util::proptest,
# the property-test framework.
ALLOWED = {"proptest.cpp.o"}


def strong_globals(path):
    """{member: strong global symbols that `nm` lists as defined}."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    members, member = {}, os.path.basename(path)
    for line in out.splitlines():
        if line.endswith(":"):  # an archive member header: "name.cpp.o:"
            member = line[:-1]
            members.setdefault(member, set())
        elif (m := re.match(r"\S*\s+[TDBRGS]\s+(.+)$", line)):
            members.setdefault(member, set()).add(m.group(1))
    return members


def main(build_dir):
    linked = set()
    for name in os.listdir(build_dir):
        path = os.path.join(build_dir, name)
        if re.fullmatch(r"roleshare_.*tests", name) or not os.path.isfile(path):
            continue
        with open(path, "rb") as f:
            if f.read(4) != b"\x7fELF":  # programs only, not the archive
                continue
        for strong in strong_globals(path).values():
            linked |= strong
    archive = strong_globals(os.path.join(build_dir, "libroleshare.a"))
    unreached = 0
    for member, strong in sorted(archive.items()):
        if strong & linked:
            continue
        if member in ALLOWED:
            print(f"allowed: {member} (test support)")
        else:
            print(f"unreached: {member} (no program links it)")
            unreached += 1
    return 1 if unreached else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
