#!/bin/sh
# Check that every `idyll_sweep --figure NAME` in the CI workflows
# names a registered sweep ("all" runs every sweep).
#
#   scripts/check_workflow_figures.sh build/tools/idyll_sweep .github/workflows
set -eu

sweep=$1
workflows=$2

registered=$("$sweep" --list | sed -n 's/^\([^:]*\): .*/\1/p')
used=$(grep -ho -- '--figure [A-Za-z0-9_.+-]*' "$workflows"/*.yml |
       awk '{print $2}' | sort -u)

status=0
for name in $used; do
    [ "$name" = all ] && continue
    if ! printf '%s\n' "$registered" | grep -qx -- "$name"; then
        echo "error: workflows run unknown sweep '$name'" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "all workflow figures are registered:" $used
exit "$status"
