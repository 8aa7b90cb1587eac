#!/usr/bin/env bash
#
# Sampling profile of any command: where its CPU time went, by function.
#
# Builds the SIGPROF sampler in scripts/sample_profile.c with the system `cc`, runs the
# command with the sampler in LD_PRELOAD (every process it starts is sampled too), and
# prints self time by function: the share of CPU-time samples whose interrupted
# instruction lies in it. The sampler asks for a sample every 1 ms of CPU time; the
# kernel delivers them no more often than its scheduler tick (every 4 ms at HZ=250), so
# compare shares, and sample counts only between runs on one host. Addresses are resolved with `addr2line -i`, so code inlined
# into a caller is charged to the inlined function; a second table charges it to the
# function it was compiled into, as a symbol-level profiler would. The release profile
# keeps line tables (`debug = "line-tables-only"`), which is what `addr2line -i` reads.
# The sampler changes nothing in the program; it is a measuring tool, not a CI gate.
#
# Usage: scripts/sample_profile.sh [--top N] [--out DIR] -- <command> [args...]
#
#   --top N    rows per table (default 25)
#   --out DIR  keep the raw samples (samples.<pid>), the command's standard output
#              (command.out) and the resolved addresses there; default: a temporary
#              directory, removed at exit
#
# The command's standard output goes to command.out so that it does not mix with the
# report; its standard error is passed through. The script exits with the command's
# status. Example, the serial quick suite:
#
#   cargo build --release --bin figures
#   scripts/sample_profile.sh --top 30 -- target/release/figures --all --quick --jobs 1 \
#       --out /tmp/figs

set -euo pipefail

top=25
out=
while [ $# -gt 0 ]; do
  case $1 in
    --top) top=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --) shift; break ;;
    *) echo "usage: scripts/sample_profile.sh [--top N] [--out DIR] -- <command> [args...]" >&2
       exit 2 ;;
  esac
done
if [ $# -eq 0 ]; then
  echo "usage: scripts/sample_profile.sh [--top N] [--out DIR] -- <command> [args...]" >&2
  exit 2
fi

if [ -z "$out" ]; then
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
else
  mkdir -p "$out"
  rm -f "$out"/samples.*
fi
out=$(cd "$out" && pwd)

here=$(cd "$(dirname "$0")" && pwd)
cc -O2 -fPIC -shared -o "$out/libsample_profile.so" "$here/sample_profile.c" -lrt

status=0
SAMPLE_PROFILE_DIR=$out LD_PRELOAD="$out/libsample_profile.so${LD_PRELOAD:+:$LD_PRELOAD}" \
  "$@" > "$out/command.out" || status=$?

shopt -s nullglob
files=("$out"/samples.*)
if [ ${#files[@]} -eq 0 ]; then
  echo "sample_profile: no samples were written" >&2
  exit "$status"
fi

# One line per distinct (object, address): count, object, address.
awk -F'\t' '{ n[$2 "\t" $3] += $1 } END { for (k in n) print n[k] "\t" k }' "${files[@]}" \
  > "$out/addresses"

# Resolve each object's addresses: the innermost frame with one addr2line call (-a echoes
# each address before its frames, innermost inlined frame first, each frame a function
# line and a file:line line), the enclosing symbol from `nm`'s sorted symbol table.
# Output: count, innermost function, symbol.
: > "$out/resolved"
cut -f2 "$out/addresses" | sort -u | while IFS= read -r object; do
  awk -F'\t' -v o="$object" '$2 == o' "$out/addresses" > "$out/object.tsv"
  if [ "$object" = "?" ] || [ ! -r "$object" ]; then
    awk -F'\t' -v o="$object" '{ print $1 "\t[" o "]\t[" o "]" }' "$out/object.tsv" >> "$out/resolved"
    continue
  fi
  cut -f3 "$out/object.tsv" | addr2line -a -i -f -C -e "$object" |
    awk '
      /^0x[0-9a-f]+$/ { addr = $0; line = 0; next }
      { if (line++ == 0) print addr "\t" $0 }' > "$out/inner.tsv"
  { nm -C -n --defined-only "$object" 2>/dev/null || true; } |
    awk '$2 ~ /^[tTwW]$/ { a = $1; $1 = ""; $2 = ""; sub(/^ +/, ""); print a "\t" $0 }' \
    > "$out/symbols.tsv"
  awk -F'\t' -v base="[$(basename "$object")]" '
    function num(h,   i, v) {
      h = tolower(h); sub(/^0x/, "", h); v = 0
      for (i = 1; i <= length(h); i++) v = v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
      return v
    }
    function clean(name) { sub(/::h[0-9a-f]{16}$/, "", name); return name }
    FILENAME == ARGV[1] { inner[num($1)] = clean($2); next }
    FILENAME == ARGV[2] { sa[++ns] = num($1); sn[ns] = clean($2); next }
    {
      a = num($3); lo = 1; hi = ns; sym = base
      while (lo <= hi) { mid = int((lo + hi) / 2); if (sa[mid] <= a) { sym = sn[mid]; lo = mid + 1 } else hi = mid - 1 }
      f = inner[a]; if (f == "" || f == "??") f = sym
      print $1 "\t" f "\t" sym
    }' "$out/inner.tsv" "$out/symbols.tsv" "$out/object.tsv" >> "$out/resolved"
done

total=$(awk -F'\t' '{ s += $1 } END { print s }' "$out/resolved")
report() { # <title> <column>
  echo
  echo "$1"
  printf '%8s %7s  %s\n' samples share function
  awk -F'\t' -v c="$2" '{ n[$c] += $1 } END { for (k in n) print n[k] "\t" k }' "$out/resolved" |
    sort -t"$(printf '\t')" -k1,1nr | head -n "$top" |
    awk -F'\t' -v t="$total" '{ printf "%8d %6.1f%%  %s\n", $1, 100 * $1 / t, $2 }'
}
echo "sample_profile: $total samples from ${#files[@]} process(es): $*"
report "Self time by function (inlined code charged to the inlined function):" 2
report "Self time by symbol (inlined code charged to the function it was compiled into):" 3
exit "$status"
