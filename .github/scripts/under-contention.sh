#!/usr/bin/env bash
# Runs one release test binary <runs> times beside two busy loops per CPU,
# with the optional VAR=value settings in its environment, and fails on the
# first failed run. The busy loops stop on any exit.
#
# usage: under-contention.sh <package> <test> <runs> [VAR=value ...]
set -eo pipefail
package=$1
test=$2
runs=$3
vars=("${@:4}")
bin=$(cargo test -p "$package" --release --test "$test" --no-run 2>&1 \
  | sed -n 's/.*Executable .*(\(.*\))$/\1/p')
test -x "$bin"
pids=()
for _ in $(seq $((2 * $(nproc)))); do
  yes > /dev/null &
  pids+=($!)
done
trap 'kill "${pids[@]}"' EXIT
for i in $(seq "$runs"); do
  env "${vars[@]}" "$bin" --test-threads 4 || { echo "$test run $i of $runs failed"; exit 1; }
done
