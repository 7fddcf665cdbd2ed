#!/bin/sh
# Usage: compile_bounded_memory.sh APEXCLI
#
# `apexcli compile` on the 18 MB bfs n=9985 rendering under address-space
# caps.  The compiler holds one step of source lanes at a time, so the file
# compiles to the same IR under a 200 MB cap: it needs about 115 MB with
# the IR dump, while holding every lane at once needed more than 250 MB.
# Under any cap, the run either prints the whole IR (exit 0) or says it ran
# out of memory (exit 2): it never terminates (134) and never passes off a
# truncated dump as the program.
apexcli=$1
f=$(mktemp) || exit 1
trap 'rm -f "$f" "$f.ir" "$f.capped"' EXIT

"$apexcli" emit --workload=bfs --n=9985 > "$f" || exit 1
"$apexcli" compile "$f" > "$f.ir" || exit 1

(ulimit -v 200000; "$apexcli" compile "$f" > "$f.capped") || {
  echo "compile failed under a 200000 KB cap"; exit 1; }
cmp "$f.ir" "$f.capped" || exit 1

for cap in 60000 80000 100000; do
  rc=0
  (ulimit -v $cap; "$apexcli" compile "$f" > "$f.capped") || rc=$?
  if [ "$rc" -eq 0 ]; then
    cmp "$f.ir" "$f.capped" || { echo "cap $cap: IR differs"; exit 1; }
  elif [ "$rc" -ne 2 ]; then
    echo "cap $cap: exit $rc, expected 0 or 2"; exit 1
  fi
done

# Too little memory for the source text and the program: exit 2.
(ulimit -v 40000; "$apexcli" compile "$f" > /dev/null)
test $? -eq 2
