#!/usr/bin/env bash
# Execution-surface gate: keeps the one-node-path design from eroding.
#
#   * `eval_node_into(` may be called from exactly one non-test site in
#     crates/nn/src (`exec::run_node`); a second caller is a second copy of
#     the hook protocol.
#   * `#[deprecated` may not reappear under crates/: renames land with
#     their callers migrated, not behind shims.
#
# As in ci/lint_panics.sh, `#[cfg(test)]` is assumed to start a file's
# trailing test module; everything from that line to EOF is ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

calls=$(find crates/nn/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /eval_node_into\(/ && !/fn eval_node_into\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$f"
done)
n=$(printf '%s' "$calls" | grep -c . || true)
if [ "$n" -ne 1 ]; then
    echo "eval_node_into( must have exactly one non-test call site in crates/nn/src, found $n:" >&2
    printf '%s\n' "$calls" >&2
    fail=1
fi

if shims=$(grep -rn '#\[deprecated' crates/); then
    echo "#[deprecated] shims are not kept under crates/:" >&2
    printf '%s\n' "$shims" >&2
    fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "exec surface OK: one eval_node_into call site, no #[deprecated] shims"
