#!/usr/bin/env python3
"""Names the samples prof.c wrote and prints self and inclusive shares.

    python3 tools/prof/symbolize.py <binary> prof.*.out [--top N]

Each sample line is the interrupted PC followed by return addresses.
Addresses inside <binary> are named by one batched
`addr2line -a -f -C -i` call, inlined frames included; others are
named by their mapping's file. A sample's self function is the
innermost frame at its PC; its inclusive functions are every frame of
every address in it, each counted once per sample. Exits 1 when no
sample fell inside <binary>.
"""

import argparse
import collections
import os
import subprocess
import sys


def read_profile(path):
    """(maps, samples) from one prof.<pid>.out file."""
    maps, samples, in_samples = [], [], False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not in_samples:
                if line == "--":
                    in_samples = True
                    continue
                fields = line.split()
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) > 5 else ""
                maps.append((lo, hi, int(fields[2], 16), name))
            elif line:
                samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def load_base(maps, binary):
    """Where `binary`'s file offset 0 is mapped, or None if it is not.

    `binary` is position-independent (Rust's default on Linux), so an
    address less this base is its ELF virtual address, whatever gap the
    linker left between a segment's file offset and its address.
    """
    starts = [lo for lo, _, offset, name in maps if offset == 0 and os.path.realpath(name) == binary]
    return min(starts, default=None)


def locate(maps, base, addr, binary):
    """The ELF address of `addr` in `binary`, or the name of its mapping."""
    for lo, hi, _, name in maps:
        if lo <= addr < hi:
            if base is not None and os.path.realpath(name) == binary:
                return addr - base
            return "[" + os.path.basename(name or "anon") + "]"
    return "[unmapped]"


def symbolize(binary, addrs):
    """Inline chains, innermost first, for each ELF address."""
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
        input="".join("%x\n" % a for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    chains, current = {}, None
    # Records are "0x<addr>" then (function, location) pairs.
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = chains.setdefault(int(out[i], 16), [])
            i += 1
        else:
            current.append(out[i])
            i += 2
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()
    binary = os.path.realpath(args.binary)

    located = []  # per sample: the located address of each frame
    for path in args.profiles:
        maps, samples = read_profile(path)
        base = load_base(maps, binary)
        for sample in samples:
            # Return addresses point past their call; step back into it.
            addrs = [sample[0]] + [a - 1 for a in sample[1:]]
            frames = [locate(maps, base, a, binary) for a in addrs]
            # Code outside <binary> keeps no frame pointers, so the walk
            # past its first caller there (the C library calling `main`
            # or starting a thread) reads stale stack words.
            outside = [i for i in range(1, len(frames)) if not isinstance(frames[i], int)]
            located.append(frames[: outside[0] + 1] if outside else frames)
    elf = sorted({a for s in located for a in s if isinstance(a, int)})
    chains = symbolize(binary, elf)

    def names(a):
        return (chains.get(a) or ["??"]) if isinstance(a, int) else [a]

    self_count, incl_count = collections.Counter(), collections.Counter()
    in_binary = 0
    for sample in located:
        in_binary += isinstance(sample[0], int)
        self_count[names(sample[0])[0]] += 1
        incl_count.update({f for a in sample for f in names(a)})
    total = len(located)
    if not in_binary:
        print("no sample fell inside %s" % binary, file=sys.stderr)
        return 1
    print("%d samples, %d inside %s" % (total, in_binary, binary))
    for title, counts in (("self", self_count), ("inclusive", incl_count)):
        print("\n%8s %7s  function (%s)" % ("samples", "share", title))
        for name, n in counts.most_common(args.top):
            print("%8d %6.1f%%  %s" % (n, 100.0 * n / total, name[:160]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
