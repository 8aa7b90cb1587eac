#!/usr/bin/env bash
#
# Simulator hot-path regression gate against a base revision, on one host: builds the
# base revision's `figures` in a temporary git worktree with its own target directory,
# profiles the base and the working tree with the same command
# (`figures --all --quick --jobs 2 --profile`), and compares the two BENCH_sim.json
# profiles with `bench_gate` (phase shares and calls per cell; DESIGN.md §9). CI calls
# it with HEAD^1; it also works locally from the repo root.
#
# Usage: scripts/profile_gate.sh <BASE_REV> <OUT_DIR>
#
# Leaves OUT_DIR/base/ and OUT_DIR/head/ (each the quick tables, BENCH_sim.json,
# profile.folded and the run's stdout in figures.log) and OUT_DIR/bench_compare.txt.
# Exits non-zero when a phase regressed, naming it.

set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/profile_gate.sh <BASE_REV> <OUT_DIR>" >&2
  exit 2
fi
base_sha=$(git rev-parse --verify "$1^{commit}")
out=$2

src=$(mktemp -d)
trap 'git worktree remove --force "$src" 2>/dev/null || true; rm -rf "$src"' EXIT
git worktree add --detach --quiet "$src" "$base_sha"

echo "[profile_gate] building base $base_sha and the working tree"
(cd "$src" && CARGO_TARGET_DIR="$src/target" cargo build --release -q --bin figures)
cargo build --release -q --bin figures --bin bench_gate

profile() { # <side> <figures command...>
  local side=$1
  shift
  rm -rf "${out:?}/$side"
  mkdir -p "$out/$side"
  echo "[profile_gate] profiling $side"
  "$@" --all --quick --jobs 2 --profile --out "$out/$side" > "$out/$side/figures.log"
}
profile base "$src/target/release/figures"
profile head cargo run --release -q --bin figures --

cargo run --release -q --bin bench_gate -- \
  "$out/base/BENCH_sim.json" "$out/head/BENCH_sim.json" --out "$out/bench_compare.txt"
