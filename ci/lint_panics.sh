#!/usr/bin/env bash
# Panic lint: forbid unwrap()/expect(/panic!(/unreachable!(/todo!(/
# unimplemented!( in non-test library code of the panic-free crates
# (crates/artifact, crates/fp8, crates/tensor, crates/nn, crates/core,
# crates/trace, crates/serve).
#
# The inference/PTQ stack guarantees a panic-free Result-based surface
# (see DESIGN.md "Error handling"). This gate keeps it that way: any new
# `unwrap()`, `.expect(...)`, `panic!(...)`, `unreachable!(...)`,
# `todo!(...)` or `unimplemented!(...)` under the crates listed in
# the find below, outside `#[cfg(test)]` modules, fails
# CI unless the line contains an allowlisted substring
# (ci/panic_allowlist.txt) — in practice only the documented
# `panic!("{e}")` wrapper form.
#
# Notes on scope:
#   * `#[cfg(test)]` is assumed to start the trailing test module of a
#     file (the repo convention); everything from that line to EOF is
#     ignored.
#   * `unwrap_or(...)`, `unwrap_or_else(...)`, `unwrap_or_default()` are
#     fine and do not match the `unwrap()` pattern.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/panic_allowlist.txt
fail=0

# shellcheck disable=SC2044
for f in $(find crates/artifact/src crates/fp8/src crates/tensor/src crates/nn/src crates/core/src crates/trace/src crates/serve/src -name '*.rs' | sort); do
    # Strip the trailing #[cfg(test)] module, then scan for forbidden
    # patterns, keeping real line numbers.
    matches=$(awk '/^#\[cfg\(test\)\]/{exit} /unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/{print FILENAME":"FNR": "$0}' "$f" || true)
    [ -z "$matches" ] && continue
    while IFS= read -r line; do
        allowed=0
        while IFS= read -r pat; do
            case "$pat" in ''|'#'*) continue ;; esac
            case "$line" in *"$pat"*) allowed=1; break ;; esac
        done < "$allowlist"
        if [ "$allowed" -eq 0 ]; then
            echo "forbidden panic pattern: $line" >&2
            fail=1
        fi
    done <<< "$matches"
done

if [ "$fail" -ne 0 ]; then
    echo >&2
    echo "artifact/fp8/tensor/nn/core/trace/serve library code must stay panic-free:" >&2
    echo "return Result<_, Fp8Error/PtqError/ServeError> instead, or (for" >&2
    echo "a documented panicking wrapper) re-raise a typed error as" >&2
    echo "panic!(\"{e}\"). See ci/panic_allowlist.txt." >&2
    exit 1
fi
echo "panic lint OK: no stray panicking call in artifact/fp8/tensor/nn/core/trace/serve"
