#!/usr/bin/env python3
"""List the library functions that no non-test binary keeps.

Builds the `idgka` archive at -O0 with one section per function, links
every bench, tool and example (and perfbench's gka_perfbench) against the
whole archive with --gc-sections, and prints each `idgka::` function that
the archive defines but none of the linked binaries keeps: its name, the
source file whose object defines it, and its code size in bytes. -O0 keeps
every call a real call, so a function survives the link only if something
the system runs reaches it.

Every listed function must be on KEEP below, with its reason. The script
exits 1 if a function is listed that is not on KEEP, or if a non-test
target was not built (a skipped target, such as bench_protocols without
Google Benchmark, would make everything only it reaches look unused).

Usage:
    python3 tools/unused_api.py [--build-dir build-probe]
"""
import argparse
import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Demangled-name prefix -> why the function stays although no binary keeps it.
KEEP = {
    "idgka::cluster::HierarchicalSession::merge(":
        "the paper's Merge for a hierarchy; whether a scenario heal runs it or it"
        " goes is ROADMAP item 11",
    "idgka::cluster::HierarchicalSession::tier_sizes(":
        "the only view of the tiers above the first head ring; the depth-k shape"
        " tests check that every sharded tier overflows max_cluster",
    "idgka::mpint::BigInt::from_dec(":
        "decimal oracle: BigInt arithmetic vectors are written in decimal, and a"
        " copy in tests/ would need the limbs",
    "idgka::mpint::BigInt::to_dec[abi:cxx11](":
        "decimal oracle, the inverse of from_dec",
}


def run(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, **kw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit(f"failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.stdout


def expected_targets():
    """Non-test binary name -> its source, from the directories CMake globs."""
    targets = {}
    for sub in ("bench", "tools", "examples"):
        for src in sorted(glob.glob(os.path.join(ROOT, sub, "*.cpp"))):
            targets[os.path.splitext(os.path.basename(src))[0]] = src
    targets["gka_perfbench"] = os.path.join(ROOT, "perfbench", "gka_perfbench.cpp")
    return targets


def build(build_dir):
    sections = "-ffunction-sections -fdata-sections"
    run(["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0", f"-DCMAKE_CXX_FLAGS={sections}",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections", "-DIDGKA_BUILD_TESTS=OFF"])
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 2)])
    # perfbench is its own CMake project around the same library; link its
    # one source against the archive built above instead of building it twice.
    run(["c++", "-std=c++20", "-O0", *sections.split(), "-I", os.path.join(ROOT, "src"),
         '-DPERFBENCH_BUILD_TYPE="Probe"', "-DIDGKA_OBS=1",
         os.path.join(ROOT, "perfbench", "gka_perfbench.cpp"), "-Wl,--gc-sections",
         os.path.join(build_dir, "libidgka.a"), "-pthread",
         "-o", os.path.join(build_dir, "gka_perfbench")])


def function_symbols(path):
    """Mangled name -> (size, object) for the functions `path` defines."""
    syms = {}
    obj = path
    for line in run(["nm", "-S", "--defined-only", path]).splitlines():
        if line.endswith(":"):
            obj = line[:-1]
            continue
        parts = line.split()
        if len(parts) != 4 or parts[2] not in "TtWw":
            continue
        size, name = int(parts[1], 16), parts[3]
        prev = syms.get(name)
        syms[name] = (max(size, prev[0]) if prev else size, obj)
    return syms


def demangle(names):
    out = run(["c++filt"], input="\n".join(names)) if names else ""
    return dict(zip(names, out.splitlines()))


def source_of(build_dir, obj):
    """Archive member ('registry.cpp.o') -> repo-relative source path."""
    hits = glob.glob(os.path.join(build_dir, "CMakeFiles", "idgka.dir", "**", obj), recursive=True)
    if len(hits) != 1:
        return obj
    rel = os.path.relpath(hits[0], os.path.join(build_dir, "CMakeFiles", "idgka.dir"))
    return rel[: -len(".o")]


def in_idgka(name):
    """True for functions of namespace idgka (not std:: instances over its types)."""
    head = name.split("(", 1)[0]
    # Drop template arguments; a function template's return type comes first.
    depth, bare = 0, []
    for ch in head:
        depth += ch == "<"
        if depth == 0:
            bare.append(ch)
        depth -= ch == ">"
    return "".join(bare).split(" ")[-1].startswith("idgka::")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-probe"))
    args = ap.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    build(build_dir)
    targets = expected_targets()
    missing = [t for t in targets if not os.path.isfile(os.path.join(build_dir, t))]
    if missing:
        print("error: non-test targets not built (the list would be inflated): "
              + ", ".join(missing), file=sys.stderr)
        return 1

    lib = function_symbols(os.path.join(build_dir, "libidgka.a"))
    kept = set()
    for t in targets:
        kept.update(function_symbols(os.path.join(build_dir, t)))
    unused = [m for m in lib if m not in kept]
    names = demangle(unused)

    rows = {}
    for m in unused:
        name = names[m]
        if not in_idgka(name):
            continue
        size, obj = lib[m]
        # Constructor/destructor variants (C1/C2, D1/D2) demangle alike.
        prev = rows.get(name)
        rows[name] = ((prev[0] if prev else 0) + size, source_of(build_dir, obj))

    new, matched = [], set()
    print(f"{len(unused)} archive functions kept by no binary; {len(rows)} of them in idgka::")
    print(f"{'size':>6}  {'file':<38} function")
    for name, (size, src) in sorted(rows.items(), key=lambda kv: (kv[1][1], kv[0])):
        key = next((k for k in KEEP if name.startswith(k)), None)
        print(f"{size:>6}  {src:<38} {name}")
        if key is None:
            new.append(name)
            print(f"{'':>48}not on the keep list")
        else:
            matched.add(key)
            print(f"{'':>48}kept: {KEEP[key]}")
    for key in KEEP:
        if key not in matched:
            print(f"note: keep-list entry matches nothing now: {key}")
    if new:
        print(f"error: {len(new)} function(s) kept by no binary and not on the keep list",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
