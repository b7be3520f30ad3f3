#!/bin/sh
# Idle cost of `stitch serve`: starts the daemon with stdin held open and no
# request, lets it settle for a second, then sums `voluntary_ctxt_switches`
# over /proc/<pid>/task/*/status and reads its CPU ticks (utime + stime)
# across SECONDS seconds. Prints both; exits 1 when the switches exceed MAX.
# Closing stdin at the end drains the daemon, which then exits.
# usage: scripts/idle_serve.sh path/to/stitch [SECONDS [MAX]]
bin=${1:?usage: scripts/idle_serve.sh path/to/stitch [SECONDS [MAX]]}
secs=${2:-3}
max=${3:-30}
fifo=$(mktemp -u)
mkfifo "$fifo" || exit 1
"$bin" serve --workers 2 < "$fifo" > /dev/null 2>&1 &
pid=$!
exec 3> "$fifo"
sleep 1
switches() {
  cat /proc/"$pid"/task/*/status | awk '/^voluntary_ctxt_switches/ { n += $2 } END { print n }'
}
ticks() {
  awk '{ print $14 + $15 }' /proc/"$pid"/stat
}
s0=$(switches)
t0=$(ticks)
sleep "$secs"
s1=$(switches)
t1=$(ticks)
exec 3>&-
wait "$pid"
rm -f "$fifo"
echo "idle stitch serve over ${secs} s: $((s1 - s0)) voluntary context switches, $((t1 - t0)) CPU ticks"
[ $((s1 - s0)) -le "$max" ]
