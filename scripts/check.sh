#!/usr/bin/env bash
# Repo gate: thin wrapper over the quick stages of the CI pipeline
# (fmt → clippy → detlint [all 4 analyses, one run] → per-mode gates →
# build → test → kernels → thread_faults). Full pipeline, including the
# faultsim chaos matrix and the bench regression gate: scripts/ci.sh.
set -euo pipefail
exec "$(dirname "$0")/ci.sh" --quick
