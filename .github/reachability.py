#!/usr/bin/env python3
"""Fail when a vdbench:: library function is linked into no binary.

Usage: reachability.py BUILD_DIR KEEP_FILE

BUILD_DIR is a perfbench/ build tree configured with -O0 -ffunction-sections
and linked with -Wl,--gc-sections, holding the eleven binaries below. A
function is unreachable when it is a text symbol of a src/*/libvdbench_*.a
archive, its demangled name starts with vdbench::, and no binary defines it.
KEEP_FILE lists, one per line, a qualified name (parameters dropped) followed
by ` -- ` and the reason it stays; `#` starts a comment line.
"""
import pathlib, re, subprocess, sys

BINARIES = ["perfbench", "vdbench", "vdbenchd", "vdbench-client", "vdlint",
            "quickstart", "tool_selection", "metric_audit", "expert_panel",
            "benchmark_campaign", "blind_spot_analysis"]

def text_symbols(path):
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    return {m.group(1) for m in re.finditer(r"^\S* [Tt] (vdbench::.*)$", out, re.M)}

def name_of(symbol):
    """The qualified name before the parameter list: `ns::f(int)` -> `ns::f`."""
    symbol = re.sub(r"\[abi:\w+\]", "", symbol)
    depth = 0
    for i, ch in enumerate(symbol):
        if symbol.endswith("operator", 0, i) or symbol.startswith("(anon", i):
            continue
        if ch in "<>":
            depth += 1 if ch == "<" else -1
        elif ch == "(" and depth == 0:
            return symbol[:i]
    return symbol

build, keep_file = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
linked = set()
for name in BINARIES:
    found = [p for p in build.rglob(name) if p.is_file()]
    if not found:
        sys.exit(f"reachability: binary {name} not found under {build}")
    linked |= text_symbols(found[0])
defined = set()
for archive in build.rglob("src/*/libvdbench_*.a"):
    defined |= text_symbols(archive)
keep = {line.split(" -- ")[0].strip() for line in keep_file.read_text().splitlines()
        if line.strip() and not line.startswith("#")}
unreachable = sorted(defined - linked)
names = {name_of(s) for s in unreachable}
stray = [s for s in unreachable if name_of(s) not in keep]
stale = sorted(keep - names)
for s in stray:
    print(f"unreachable: {s}")
for k in stale:
    print(f"keep-list entry is reachable or gone, remove it: {k}")
print(f"reachability: {len(defined)} library functions, {len(unreachable)} "
      f"unreachable, {len(unreachable) - len(stray)} kept, {len(stray)} not kept")
sys.exit(1 if stray or stale else 0)
