#!/bin/sh
# Writes the pass goldens: every `stitch` output whose bytes
# tests/golden/pass.sha256 pins (six --impl mosaics and positions on one
# plate, the channel path corrected and max-z projected, a sharded run with
# its canvas preview). Check them from inside DIR with
#   sha256sum --check --strict tests/golden/pass.sha256
# usage (from a checkout's root): scripts/pass_golden.sh STITCH_BINARY DIR
set -eu
stitch=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
mkdir -p "$2"
cd "$2"
"$stitch" generate --out plate --rows 3 --cols 4 --tile-width 64 --tile-height 48 >/dev/null
for impl in simple-cpu mt-cpu pipelined-cpu simple-gpu pipelined-gpu fiji; do
  "$stitch" stitch --dataset plate --impl "$impl" \
    --out "mosaic-$impl.tif" --positions "positions-$impl.tsv" >/dev/null
done
"$stitch" generate --out stack --rows 2 --cols 3 --tile-width 64 --tile-height 48 \
  --channels 2 --z-planes 2 >/dev/null
"$stitch" stitch --dataset stack --correct-illumination \
  --out corrected.tif --positions corrected.tsv >/dev/null
"$stitch" stitch --dataset stack --correct-illumination --maxz \
  --out maxz.tif --positions maxz.tsv >/dev/null
"$stitch" shard --rows 4 --cols 6 --tile-width 64 --tile-height 48 \
  --shard-rows 2 --shard-cols 3 --out shard.tif --positions shard.tsv \
  --preview shard-preview.pgm >/dev/null
