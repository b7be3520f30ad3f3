#!/bin/sh
# Rust lines outside `#[cfg(test)]` items, per crate — the tracked size number.
# usage (from a checkout's root): scripts/loc.sh [dir-or-file ...]
[ $# -gt 0 ] || set -- crates/*/src src
for d; do
  find "$d" -name '*.rs' -print0 | xargs -0 awk -v name="$d" '
    FNR == 1 { skip = 0 }
    !skip && /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip { o = gsub(/\{/, "{"); depth += o - gsub(/\}/, "}"); if (o) opened = 1
           if (opened ? depth <= 0 : /;[ \t]*$/) skip = 0; next }
    { n++ }
    END { printf "%-28s %6d\n", name, n }'
done | awk '{ print; t += $2 } END { printf "%-28s %6d\n", "total", t }'
