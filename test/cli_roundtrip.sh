#!/bin/sh
# usage: cli_roundtrip.sh HSCD TRACE_TEXT_SHA256
# `hscd trace` must write, for every program `hscd list` names, the text
# whose sha256 the second argument lists: text is the one trace
# interchange format, and these digests pin it.
# Then, for each program and scheme, `hscd replay` on the text dump must
# print exactly what `hscd sim` prints. reduction has lock sections;
# TRFD is a Perfect Club model with compute slots. VC is the one scheme
# that reads a slot's array id, so with it every field of a slot passes
# through the loader and the replay.
# Last, three malformed-input checks: a load error names the file, an
# epoch's declared iteration range sizes nothing, and a declared `words`
# past the arrays' extent is a parse error (exit 1), not an allocation
# (both replays run in a subshell under a 1.2 GB address-space limit).
set -eu
hscd=$1
expected=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
progs=$("$hscd" list | awk '/^Experiments:/ { exit } /^  / { print $1 }')
for prog in $progs; do
  "$hscd" trace "$prog" -o "$dir/$prog.txt" > /dev/null
done
(cd "$dir" && for prog in $progs; do sha256sum "$prog.txt"; done) > "$dir/actual.sha256"
if ! cmp -s "$expected" "$dir/actual.sha256"; then
  echo "hscd trace output differs from $(basename "$expected"):"
  diff "$expected" "$dir/actual.sha256" || true
  exit 1
fi
for prog in reduction TRFD; do
  for scheme in TPI HW VC; do
    "$hscd" sim "$prog" -s "$scheme" > "$dir/sim.out"
    "$hscd" replay "$dir/$prog.txt" -s "$scheme" > "$dir/replay.out"
    if ! cmp -s "$dir/sim.out" "$dir/replay.out"; then
      echo "replay $prog.txt -s $scheme differs from sim $prog -s $scheme:"
      diff "$dir/sim.out" "$dir/replay.out" || true
      exit 1
    fi
  done
done
printf 'words 4\narray A 0 4\n' > "$dir/headerless.txt"
if "$hscd" replay "$dir/headerless.txt" -s TPI > /dev/null 2> "$dir/err.out"; then
  echo "replay of a header-less trace exited 0"
  exit 1
fi
if ! grep -qF "$dir/headerless.txt" "$dir/err.out"; then
  echo "replay error does not name the file:"
  cat "$dir/err.out"
  exit 1
fi
printf 'hscd-trace 1\nwords 4\narray A 0 4\nepoch parallel 0 1073741823\ntask 0\nW 0 N 5 A\ntask 1\nW 1 N 7 A\n' \
  > "$dir/wide.txt"
if ! (ulimit -v 1200000; exec "$hscd" replay "$dir/wide.txt" -s TPI) > /dev/null 2> "$dir/err.out"; then
  echo "replay of a two-task epoch declared over 2^30 iterations failed:"
  cat "$dir/err.out"
  exit 1
fi
printf 'hscd-trace 1\nwords 50000000\n' > "$dir/huge-words.txt"
(ulimit -v 1200000; exec "$hscd" replay "$dir/huge-words.txt" -s TPI) > /dev/null 2> "$dir/err.out" \
  && status=0 || status=$?
if [ "$status" -ne 1 ] || ! grep -qF "$dir/huge-words.txt" "$dir/err.out"; then
  echo "replay of a trace declaring 50000000 words exited $status, not 1 naming the file:"
  cat "$dir/err.out"
  exit 1
fi
