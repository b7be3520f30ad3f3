#!/bin/sh
# The caller census: prints `file NAME` for every `pub fn NAME` in the product
# crates (crates/*/src and src, outside testkit and bench) that no file but
# its own names — such a function is used by its own unit tests at most.
# Exits 1 unless the output is exactly scripts/uncalled.allow (one
# `file NAME  # reason` per line); the `workspace` CI job runs it.
# usage (from a checkout's root): scripts/uncalled.sh
found=$(
  find crates/*/src src -name '*.rs' | grep -v -e '^crates/testkit/' -e '^crates/bench/' | sort |
    while read -r f; do
      grep -ow 'pub fn [A-Za-z_0-9]*' "$f" | awk '{ print $3 }' | sort -u |
        while read -r name; do
          grep -rlw --include='*.rs' "$name" crates src tests examples benchmark/src |
            grep -qvx "$f" || echo "$f $name"
        done
    done
)
[ -z "$found" ] || echo "$found"
allowed=$(sed -e 's/[[:space:]]*#.*//' -e '/^$/d' "$(dirname "$0")/uncalled.allow")
[ "$found" = "$allowed" ] || {
  echo "scripts/uncalled.sh: the list above is not scripts/uncalled.allow:" >&2
  echo "delete each extra function, make it private, or allowlist it with a reason" >&2
  exit 1
}
