#!/bin/sh
# Public-surface sweep (ROADMAP item 12): distinct `pub fn` names defined above
# the first `#[cfg(test)]` of a file in crates/*/src that no other non-test
# line of crates/*/src, examples/ or benchmark/src mentions (`//` lines do
# not count as mentions). A name match is an upper bound on "used", so this
# under-reports. Prints the names, then the
# count; with a ceiling as $1, fails when the count exceeds it.
nontest() { awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t && !/^[ \t]*\/\//' "$@"; }
defs=$(find crates -path '*/src/*' -name '*.rs' | sort)
uses=$(nontest $defs $(find examples benchmark/src -name '*.rs' | sort) | grep -oE '[A-Za-z_][A-Za-z_0-9]*' | sort | uniq -c)
dead=$(nontest $defs | grep -oE 'pub fn [A-Za-z_0-9]+' | cut -d' ' -f3 | sort -u |
  while read -r f; do echo "$uses" | grep -qE "^ *1 $f\$" && echo "$f"; done)
echo "$dead"
n=$(echo "$dead" | grep -c .)
echo "public-surface sweep: $n pub fn name(s) with no other non-test mention"
[ -z "$1" ] || [ "$n" -le "$1" ]
