#!/bin/sh
# usage: cli_roundtrip.sh HSCD
# For each program and scheme, `hscd replay` on the text and on the
# binary dump from `hscd trace` must print exactly what `hscd sim` prints.
# reduction has lock sections; TRFD is a Perfect Club model with compute
# slots. VC is the one scheme that reads a slot's array id, so with it
# every field of a slot passes through both loaders and the replay.
set -eu
hscd=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for prog in reduction TRFD; do
  "$hscd" trace "$prog" -o "$dir/$prog.txt" > /dev/null
  "$hscd" trace "$prog" --binary -o "$dir/$prog.hscdtrc" > /dev/null
  for scheme in TPI HW VC; do
    "$hscd" sim "$prog" -s "$scheme" > "$dir/sim.out"
    for trace in "$dir/$prog.txt" "$dir/$prog.hscdtrc"; do
      "$hscd" replay "$trace" -s "$scheme" > "$dir/replay.out"
      if ! cmp -s "$dir/sim.out" "$dir/replay.out"; then
        echo "replay $(basename "$trace") -s $scheme differs from sim $prog -s $scheme:"
        diff "$dir/sim.out" "$dir/replay.out" || true
        exit 1
      fi
    done
  done
done
