#!/bin/sh
# Usage: fuzz_repro_roundtrip.sh APEXCLI
#
# The fuzzer's failure path end to end.  A clobber cap of 1 makes most
# trials fail, so 8 trials give findings from agreement, workload and
# grammar trials; each is shrunk and dumped as a repro file.  The report
# and the repro files must not depend on --jobs, and every dumped file must
# replay to its recorded oracle (`fuzz --replay` exits 0).
apexcli=$1
d=$(mktemp -d) || exit 1
trap 'rm -rf "$d"' EXIT
repro=$d/repro  # printed in the report, so the same path for both runs

for jobs in 1 4; do
  rm -rf "$repro"
  "$apexcli" fuzz --trials=8 --clobber-bound=1 --repro-dir="$repro" \
    --jobs=$jobs > "$d/out$jobs"
  rc=$?
  [ "$rc" -eq 1 ] || { echo "jobs=$jobs: exit $rc, expected 1"; exit 1; }
  mv "$repro" "$d/repro$jobs" || exit 1
done
cmp "$d/out1" "$d/out4" || exit 1
diff -r "$d/repro1" "$d/repro4" || exit 1

for protocol in agreement workload grammar; do
  grep -q "^FAILURE .* protocol=$protocol " "$d/out1" || {
    echo "no $protocol failure in the report"; exit 1; }
done

failures=$(grep -c '^FAILURE ' "$d/out1")
replayed=0
for f in "$d/repro1"/*; do
  "$apexcli" fuzz --replay="$f" > "$d/replay" || {
    cat "$d/replay"; echo "replay of $f did not reproduce"; exit 1; }
  replayed=$((replayed + 1))
done
[ "$replayed" -eq "$failures" ] || {
  echo "$failures failures but $replayed repro files"; exit 1; }
