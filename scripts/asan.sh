#!/usr/bin/env bash
# Address+UB sanitizer build and test run: undefined behaviour is fatal
# (-fno-sanitize-recover=undefined), so a UB report fails the suite. The
# suite includes the golden digests (scripts/golden.sh), so every traced,
# fabric, tenant, large-pages, fault-backend and fleet scenario there runs
# end to end under the sanitizers too.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -fno-omit-frame-pointer"
cmake --build build-asan
ctest --test-dir build-asan -j"$(nproc)" --output-on-failure
