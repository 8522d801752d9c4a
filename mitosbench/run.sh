#!/usr/bin/env bash
# Build the MITOS benchmark and the mitos-cli server from source, then
# run one workload:
#
#   bash mitosbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a MITOS source tree. Build output goes to
# .bench_build (stderr only); traced runs write their spans to
# .bench_out. The last line of stdout is the JSON result.
set -u

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root" || exit 2

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "mitosbench: $root is not a MITOS source tree (dune-project, lib/, bin/)" >&2
  exit 2
fi

build="$root/.bench_build"
# keep every build artefact and cache inside the tree
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$build/cache"
if ! dune build --root . --build-dir "$build" --profile release \
     ./mitosbench/main.exe ./bin/mitos_cli.exe >&2; then
  echo "mitosbench: build failed" >&2
  exit 3
fi

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") \
  git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)

exec "$build/default/mitosbench/main.exe" \
  --cli "$build/default/bin/mitos_cli.exe" \
  --commit "$commit" --out "$root/.bench_out" "$@"
