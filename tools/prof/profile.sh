#!/bin/sh
# Samples one pifs-bench binary and prints its self and inclusive
# profile:
#
#   tools/prof/profile.sh repro --threads 1 fig13a
#
# Builds the binary with frame pointers and line tables into
# target/prof, compiles the SIGPROF shim, runs the binary under
# LD_PRELOAD in a temporary directory (its stdout is discarded) and
# symbolizes every sample file the run left.
set -eu
bin=$1
shift
root=$(cd "$(dirname "$0")/../.." && pwd)
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release -q --manifest-path "$root/Cargo.toml" -p pifs-bench --bin "$bin" \
    --target-dir "$root/target/prof"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
gcc -O2 -shared -fPIC -o "$work/libprof.so" "$root/tools/prof/prof.c"
(cd "$work" && LD_PRELOAD="$work/libprof.so" "$root/target/prof/release/$bin" "$@" >/dev/null)
python3 "$root/tools/prof/symbolize.py" "$root/target/prof/release/$bin" "$work"/prof.*.out
