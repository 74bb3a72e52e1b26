#!/usr/bin/env bash
# The README's synthetic quick start through the `arlif` found first on PATH, run
# from the repository root: `bash tests/quickstart.sh`. CI runs it with the installed
# console script; test_cli.py runs it with a wrapper over `python3 -m arlif.cli`
# (the other tests call main() in-process and the benchmark runs `python -m
# arlif.cli`, so this is the only run of the entry point). It runs at a small size
# and otherwise at the defaults. Two trainings at the default --trees and --psi, the
# forest shape the quick start's small run never grows, one under the default
# BLAS threads and one under OPENBLAS_NUM_THREADS=1, must write the same
# model bytes: the gradients' sums over rows are BLAS products, whose result
# must not depend on the thread count. A flag a command does not read must be a usage
# error (exit 2): `train` tunes tau on its training rows, so `--tau` is one. A
# training run whose SGD diverges must fail (exit 1), write no model and
# print its one error: line with no numpy warning before it. `eval` prints
# both rows, each at its threshold stored in the model, so the `--mode` flag
# is gone and is a usage error too. Each of these
# must exit 1 with one error: line and no traceback: a model file whose
# version field (bytes 4-5) says 2, one whose version field says 3 (the
# format before the columnar forest; its error must name "format version 3"),
# one whose flags (bytes 6-7) say 3, one
# whose first min/max value (bytes 96-103: a 56-byte header, then 4 * m bytes
# of selected columns at m = 10) is NaN and whose CRC-32 trailer (the last
# 4 bytes) is resealed so that the min/max rule is what rejects it, one with
# a bit of tau (bytes 24-31) flipped and the trailer left as it was, an
# empty training file (this one must also write no model), a training file
# with a byte that is not UTF-8, a training file of one 32 MiB line with no
# newline (its error must name line 1 as longer than 65536 bytes, and it must
# write no model), a training file whose column 4 holds -1e308
# and 1e308 (its max - min overflows; this one must also print no numpy
# warning and write no model). A `bench` at --trees 600 under a 250 MB
# address-space limit and one BLAS thread must exit 0 and print both report
# rows (the table row and the key=value line of each model) with no
# traceback: detection scores its window stacks in pieces whose T x T
# buffers fit a byte budget, at T = 600 one 600 x 600 matrix at a time.
# `stream` reads its stdin as bytes in blocks:
# a last line with no newline must still get its reply, and so must every
# line of a pipe that carries the test file three times, and in both runs the
# ns= field, cumulative detection time that stream's own clock reads around
# each observe call, must never decrease. Under a strictly
# decoding stdin, `stream` must report a line that is not UTF-8 as one
# `line N:` stderr line, go on with the rest, and exit 0. The same 130 bare
# rows (41 fields, no label) piped to `stream` in one write, so that a read
# holds many lines and is parsed as one block, and one line a write with a
# pause between, so that once the child has started each read holds one line
# and is parsed alone, must give the same score= and pred= fields.
set -eu
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
python3 tests/synth_stream.py "$d/train.txt" --rows 300 --seed 0 --attack-rate 0.5
python3 tests/synth_stream.py "$d/test.txt" --rows 100 --seed 100 --attack-rate 0.5
small="--trees 10 --psi 64"
arlif train --train "$d/train.txt" --model "$d/ids.arlf" $small
arlif train --train "$d/train.txt" --model "$d/default-a.arlf"
OPENBLAS_NUM_THREADS=1 arlif train --train "$d/train.txt" --model "$d/default-b.arlf"
cmp "$d/default-a.arlf" "$d/default-b.arlf"
arlif eval --model "$d/ids.arlf" --test "$d/test.txt"
arlif stream --model "$d/ids.arlf" < "$d/test.txt" > "$d/scores.txt"
test "$(wc -l < "$d/scores.txt")" -eq 100
head -c -1 "$d/test.txt" | arlif stream --model "$d/ids.arlf" > "$d/nonl.txt"
test "$(wc -l < "$d/nonl.txt")" -eq 100
cat "$d/test.txt" "$d/test.txt" "$d/test.txt" | arlif stream --model "$d/ids.arlf" \
  > "$d/three.txt"
test "$(wc -l < "$d/three.txt")" -eq 300
for f in "$d/scores.txt" "$d/three.txt"; do
  awk '$3 !~ /^ns=[0-9]+$/ { exit 1 } { ns = substr($3, 4) + 0 }
       ns < prev { exit 1 } { prev = ns }' "$f"
done
{ head -n 3 "$d/test.txt"; printf '\377\n'; sed -n 4,5p "$d/test.txt"; } > "$d/mixed.txt"
PYTHONIOENCODING=utf-8:strict arlif stream --model "$d/ids.arlf" < "$d/mixed.txt" \
  > "$d/mixed.out" 2> "$d/mixed.err"
test "$(wc -l < "$d/mixed.out")" -eq 5
test "$(grep -c "^line 4:" "$d/mixed.err")" -eq 1
test "$(grep -c Traceback "$d/mixed.err")" -eq 0
python3 tests/synth_stream.py "$d/bare.txt" --rows 130 --seed 101 --attack-rate 0.5
cut -d, -f1-41 "$d/bare.txt" > "$d/bare41.txt"
cat "$d/bare41.txt" | arlif stream --model "$d/ids.arlf" > "$d/block.out"
while IFS= read -r line; do printf '%s\n' "$line"; sleep 0.01; done < "$d/bare41.txt" \
  | arlif stream --model "$d/ids.arlf" > "$d/lines.out"
test "$(wc -l < "$d/block.out")" -eq 130
cut -d' ' -f1,2 "$d/block.out" > "$d/block.scores"
cut -d' ' -f1,2 "$d/lines.out" | cmp - "$d/block.scores"
arlif bench --train "$d/train.txt" --test "$d/test.txt" $small
rc=0
arlif eval --model "$d/ids.arlf" --test "$d/test.txt" --tau 0.3 || rc=$?
test "$rc" -eq 2
rc=0
arlif train --train "$d/train.txt" --model "$d/tau.arlf" $small --tau 0.3 || rc=$?
test "$rc" -eq 2
test ! -e "$d/tau.arlf"
rc=0
arlif eval --model "$d/ids.arlf" --test "$d/test.txt" --mode baseline-if || rc=$?
test "$rc" -eq 2
rc=0
arlif train --train "$d/train.txt" --model "$d/dead.arlf" --trees 10 --psi 64 --eta 1e300 \
  2> "$d/dead.err" || rc=$?
test "$rc" -eq 1
test ! -e "$d/dead.arlf"
test "$(grep -c Warning "$d/dead.err")" -eq 0
test "$(grep -c "error:" "$d/dead.err")" -eq 1
one_error() {
  rc=0
  "$@" 2> "$d/one.err" || rc=$?
  test "$rc" -eq 1
  test "$(grep -c "error:" "$d/one.err")" -eq 1
  test "$(grep -c Traceback "$d/one.err")" -eq 0
}
cp "$d/ids.arlf" "$d/v2.arlf"
printf '\002\000' | dd of="$d/v2.arlf" bs=1 seek=4 count=2 conv=notrunc status=none
one_error arlif eval --model "$d/v2.arlf" --test "$d/test.txt"
cp "$d/ids.arlf" "$d/v3.arlf"
printf '\003\000' | dd of="$d/v3.arlf" bs=1 seek=4 count=2 conv=notrunc status=none
one_error arlif eval --model "$d/v3.arlf" --test "$d/test.txt"
grep -q "format version 3" "$d/one.err"
cp "$d/ids.arlf" "$d/flags.arlf"
printf '\003\000' | dd of="$d/flags.arlf" bs=1 seek=6 count=2 conv=notrunc status=none
one_error arlif eval --model "$d/flags.arlf" --test "$d/test.txt"
cp "$d/ids.arlf" "$d/minmax.arlf"
printf '\000\000\000\000\000\000\370\177' \
  | dd of="$d/minmax.arlf" bs=1 seek=96 count=8 conv=notrunc status=none
python3 -c 'import sys, zlib; p = sys.argv[1]; b = open(p, "rb").read()[:-4]
open(p, "wb").write(b + zlib.crc32(b).to_bytes(4, "little"))' "$d/minmax.arlf"
one_error arlif eval --model "$d/minmax.arlf" --test "$d/test.txt"
grep -q "finite min/max pairs" "$d/one.err"
cp "$d/ids.arlf" "$d/flipped.arlf"
python3 -c 'import sys; p = sys.argv[1]; b = bytearray(open(p, "rb").read())
b[27] ^= 0x10; open(p, "wb").write(b)' "$d/flipped.arlf"
one_error arlif eval --model "$d/flipped.arlf" --test "$d/test.txt"
grep -q "checksum mismatch" "$d/one.err"
: > "$d/empty.txt"
one_error arlif train --train "$d/empty.txt" --model "$d/empty.arlf" $small
test ! -e "$d/empty.arlf"
cp "$d/train.txt" "$d/notutf8.txt"
printf '\377\n' >> "$d/notutf8.txt"
one_error arlif train --train "$d/notutf8.txt" --model "$d/notutf8.arlf" $small
head -c 33554432 /dev/zero | tr '\0' 7 > "$d/long.txt"
one_error arlif train --train "$d/long.txt" --model "$d/long.arlf" $small
grep -q "long.txt:1: longer than 65536 bytes" "$d/one.err"
test ! -e "$d/long.arlf"
awk -F, -v OFS=, 'NR == 1 { $5 = "-1e308" } NR == 2 { $5 = "1e308" } 1' \
  "$d/train.txt" > "$d/wide.txt"
one_error arlif train --train "$d/wide.txt" --model "$d/wide.arlf" $small
test "$(grep -c Warning "$d/one.err")" -eq 0
test ! -e "$d/wide.arlf"
(
  ulimit -v 250000
  export OPENBLAS_NUM_THREADS=1
  arlif bench --train "$d/train.txt" --test "$d/test.txt" --trees 600 --psi 64 \
    > "$d/t600.out" 2> "$d/t600.err"
)
test "$(grep -c "^ARLIF-IDS " "$d/t600.out")" -eq 1
test "$(grep -c "^IsolationForest " "$d/t600.out")" -eq 1
test "$(grep -c "^mode=arlif " "$d/t600.out")" -eq 1
test "$(grep -c "^mode=baseline-if " "$d/t600.out")" -eq 1
test "$(grep -c Traceback "$d/t600.err")" -eq 0
