#!/usr/bin/env bash
# One-command CPU profile of any `macaw-bench` subcommand:
#
#   scripts/profile.sh mobility                 # profile the full sweep
#   scripts/profile.sh -n 40 scale -- --smoke   # top 40, smoke workload
#   scripts/profile.sh tables -- --quick --table 5
#
# Builds the driver in release (with frame pointers kept so the collector
# can unwind), records one run under gprofng (falling back to perf when
# gprofng is absent), and prints the top-N functions by *inclusive* CPU
# time — the view that answers "which subsystem is the run spending its
# wall clock under?". The raw experiment directory is left in
# target/profile/ for deeper digging (gprofng display text / perf report).
#
# Under gprofng the script first prints the CPU seconds the collector
# recorded next to the experiment's duration. Where the collector's clock
# sampling does not work (gprofng warns "Collection interval timer period
# was changed (10007 -> 0)" and records a small fraction of the run), a
# top-N list would rank noise, so the script exits with status 1 instead
# when the recorded CPU time covers under half the run.
set -euo pipefail
cd "$(dirname "$0")/.."

top=25
while [ $# -gt 0 ]; do
  case "$1" in
    -n) top="${2:?-n needs a count}"; shift 2 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) break ;;
  esac
done
sub="${1:?usage: profile.sh [-n TOP] <macaw-bench subcommand> [-- args...]}"
shift
[ "${1:-}" = "--" ] && shift

echo "== build macaw-bench (release, frame pointers) =="
RUSTFLAGS="${RUSTFLAGS:-} -C force-frame-pointers=yes" \
  cargo build --release -p macaw-bench
exe="target/release/macaw-bench"

mkdir -p target/profile
stamp="$(date +%Y%m%d-%H%M%S)"
if command -v gprofng >/dev/null 2>&1; then
  expdir="target/profile/$sub-$stamp.er"
  echo "== gprofng collect: $exe $sub $* =="
  gprofng collect app -o "$expdir" "$exe" "$sub" "$@"
  overview="$(gprofng display text -overview "$expdir")"
  dur="$(sed -n 's/.*Experiment Duration (Seconds): \[\([0-9.]*\)\].*/\1/p' <<<"$overview" | head -n 1)"
  cpu="$(sed -n 's/.*totalcpu (Seconds): \[\*\{0,1\}\([0-9.]*\)\].*/\1/p' <<<"$overview" | head -n 1)"
  echo
  echo "== recorded ${cpu:-?} CPU-s in a ${dur:-?} s experiment =="
  if [ -z "$cpu" ] || [ -z "$dur" ]; then
    echo "profile.sh: no CPU time or duration in gprofng's overview of $expdir" >&2
    exit 1
  fi
  if awk -v c="$cpu" -v d="$dur" 'BEGIN { exit !(c < d / 2) }'; then
    echo "profile.sh: the recorded CPU time covers under half the run;" \
      "gprofng's clock sampling is not working here, so no function list" \
      "is printed (experiment left in $expdir)" >&2
    exit 1
  fi
  echo
  echo "== top $top functions by inclusive CPU time ($expdir) =="
  gprofng display text -metrics i.totalcpu:e.totalcpu \
    -sort i.totalcpu -limit "$top" -functions "$expdir"
elif command -v perf >/dev/null 2>&1; then
  data="target/profile/$sub-$stamp.perf.data"
  echo "== perf record: $exe $sub $* =="
  perf record -g --call-graph fp -o "$data" -- "$exe" "$sub" "$@"
  echo
  echo "== top $top functions by inclusive (children) CPU time ($data) =="
  perf report -i "$data" --stdio --children --sort symbol 2>/dev/null |
    grep -v '^#' | head -n "$top"
else
  echo "profile.sh: neither gprofng nor perf is installed" >&2
  exit 1
fi
