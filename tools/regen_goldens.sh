#!/bin/sh
# Rewrites every golden output under tests/golden/ from a built gridlb.
#
#   tools/regen_goldens.sh [BUILD_DIR]      (default: build)
#
# Each golden.<name> ctest reruns its command with GRIDLB_REGEN_GOLDENS set,
# which makes tests/golden/golden_case.cmake store the outputs instead of
# comparing them.  A change that moves results on purpose runs this and
# commits the rewritten goldens; their diff shows every output it moved.
set -eu
build_dir=${1:-build}
cd "$build_dir"
GRIDLB_REGEN_GOLDENS=1 ctest -R '^golden\.' --output-on-failure
