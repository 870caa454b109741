#!/bin/sh
# Fail when a CI workflow sets an IDYLL_* environment variable. The
# simulator reads no environment: every knob is a flag of idyll_sim
# or idyll_sweep, so such a variable would silently do nothing (a
# leftover IDYLL_ORACLE would drop the oracle from a step that means
# to run it). CMake options passed as -DIDYLL_...=... are fine.
#
#   scripts/check_workflow_env.sh .github/workflows
set -eu

workflows=$1

if grep -nE '(^|[^-A-Za-z0-9_])IDYLL_[A-Za-z0-9_]*[[:space:]]*[:=]' \
        "$workflows"/*.yml; then
    echo "error: the workflow lines above set IDYLL_* variables," \
         "which nothing reads; pass the matching flag instead" >&2
    exit 1
fi
echo "no workflow sets an IDYLL_* variable"
