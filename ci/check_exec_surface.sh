#!/usr/bin/env bash
# Execution-surface gate: keeps the one-node-path design from eroding.
#
#   * `eval_node_into(` may be called from exactly one non-test site in
#     crates/nn/src (`exec::run_node`); a second caller is a second copy of
#     the hook protocol.
#   * `#[deprecated` may not reappear under crates/: renames land with
#     their callers migrated, not behind shims.
#   * One kernel per MAC op: no `_into_path` identifier under crates/,
#     `ops/mod.rs` re-exports no `_q`/`_qq` MAC name but the three
#     one-line delegates the frozen `benchmark/` calls, and
#     crates/tensor/src/ops stays within its non-test line budget. Conv
#     runs on the register tile over Linear's weight panels: the per-plane
#     4-wide nest (`conv_plane`, `OXB`) may not reappear under crates/.
#   * The path alone chooses the kernel: no `(KernelPath::Blocked, …)`
#     tuple guard under crates/tensor/src/ops picks a kernel by operand
#     kind -- f32 and FP8 operands run the same blocked kernels, and the
#     reference loops run only under `KernelPath::ScalarReference`.
#   * Streamed decode, LUT encode: the per-channel decode-table machinery
#     (`scaled_decode`, `ScaledDecode`, `TableW`, `WeightFetch`,
#     `take_tables`) may not reappear under crates/ -- a coded weight is
#     decoded per element into pooled scratch, once per call -- and no
#     non-test line of crates/tensor/src or crates/fp8/src/storage.rs calls
#     the scalar `codec.encode(`: production encode loops go through
#     `Fp8Lut::encode`.
#   * One measuring stack: no `[[bench]]` target and no `criterion`
#     dependency in the root manifest or any manifest under crates/.
#     Timing lives in `benchmark/`.
#   * One experiment runner, one suite: crates/bench builds exactly one
#     binary (src/main.rs; no lib target, no src/bin, no extra [[bin]]),
#     and no `run_suite_` variant exists under crates/ -- every zoo sweep
#     goes through `workflow::run_suite`.
#   * One decode schedule: prefill is the prompt through the step
#     schedule (in blocks of rows), so `PrefillCapture`, `prefill_plan` and
#     a `prefill: ExecPlan` field may not reappear under crates/; greedy
#     token choice is `Tensor::argmax` -- no `fn argmax` outside
#     crates/tensor/src; and the non-test lines of crates/{nn,core}/src
#     and of crates/nn/src/decode.rs stay within the figures measured when
#     the last path was deleted.
#   * The worker pool is the batcher: `serve` runs one request per
#     dispatch, so the scheduling-only batching layer (`run_batch`,
#     `take_batch`) and its two knobs (`max_batch`, `batch_window_us`) may
#     not reappear under crates/, crates/nn does not depend on `rayon`
#     (request-level parallelism belongs to the engine's workers), and the
#     non-test lines of crates/serve/src stay within the figure measured
#     when the layer was deleted.
#
# As in ci/lint_panics.sh, `#[cfg(test)]` is assumed to start a file's
# trailing test module; everything from that line to EOF is ignored.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Non-test lines of every .rs file under the given paths.
non_test_lines() {
    find "$@" -name '*.rs' | sort | while IFS= read -r f; do
        awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
    done | wc -l
}

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

if hits=$(grep -rn '_into_path' crates/); then
    echo "_into_path entry points are gone: *_into takes the KernelPath:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

frozen='conv2d_qq_into|linear_qq_into|matmul_qq_into'
mac='(conv2d|depthwise_conv2d|linear|matmul|batch_matmul)_qq?(_into)?'
if hits=$(awk '/^pub use/,/;/' crates/tensor/src/ops/mod.rs | grep -owE "$mac" | grep -vwE "$frozen"); then
    echo "crates/tensor/src/ops/mod.rs re-exports per-storage MAC entry points:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

ops_budget=2030
ops_lines=$(non_test_lines crates/tensor/src/ops)
if [ "$ops_lines" -gt "$ops_budget" ]; then
    echo "crates/tensor/src/ops has $ops_lines non-test lines, budget $ops_budget" >&2
    fail=1
fi

if hits=$(grep -rnF '(KernelPath::Blocked,' crates/tensor/src/ops); then
    echo "KernelPath alone chooses the kernel: no (KernelPath::Blocked, operand) tuple guard:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnE 'conv_plane|OXB' crates/); then
    echo "conv runs on the packed register tile, not a per-plane column block:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnE 'scaled_decode|ScaledDecode|TableW|WeightFetch|take_tables' crates/); then
    echo "per-channel decode tables are gone: weights stream through decode(code)/scale per call:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(find crates/tensor/src crates/fp8/src/storage.rs -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /codec\.encode\(/{print FILENAME":"FNR": "$0}' "$f"
done)
if [ -n "$hits" ]; then
    echo "production encode loops go through Fp8Lut::encode, not the scalar codec:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -nE '^\[\[bench\]\]|criterion' Cargo.toml crates/*/Cargo.toml); then
    echo "timing harnesses live in benchmark/, not behind [[bench]] / criterion:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if [ ! -f crates/bench/src/main.rs ] || [ -e crates/bench/src/lib.rs ] || [ -e crates/bench/src/bin ] ||
    grep -qE '^\[(lib|\[bin\]\])' crates/bench/Cargo.toml; then
    echo "crates/bench is one binary, ptq-bench (src/main.rs): no lib target, no src/bin, no [[bin]]" >&2
    fail=1
fi

if hits=$(grep -rn 'run_suite_' crates/); then
    echo "workflow::run_suite is the only suite function:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnE 'PrefillCapture|prefill_plan|prefill: ExecPlan' crates/); then
    echo "one decode schedule: prefill runs the step schedule, not a full-window plan:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rn 'fn argmax' crates/ | grep -v '^crates/tensor/src/'); then
    echo "greedy token choice is Tensor::argmax, not a private copy:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnE 'run_batch|take_batch|max_batch|batch_window_us' crates/); then
    echo "the worker pool is the batcher: no scheduling-only batching layer, no knobs for it:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -n 'rayon' crates/nn/Cargo.toml); then
    echo "crates/nn fans nothing out across requests and does not depend on rayon:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

serve_budget=844
serve_lines=$(non_test_lines crates/serve/src)
if [ "$serve_lines" -gt "$serve_budget" ]; then
    echo "crates/serve/src has $serve_lines non-test lines, budget $serve_budget" >&2
    fail=1
fi

nn_core_budget=7355
nn_core_lines=$(non_test_lines crates/nn/src crates/core/src)
decode_budget=848
decode_lines=$(non_test_lines crates/nn/src/decode.rs)
if [ "$nn_core_lines" -gt "$nn_core_budget" ] || [ "$decode_lines" -gt "$decode_budget" ]; then
    echo "crates/{nn,core}/src has $nn_core_lines non-test lines (budget $nn_core_budget)," \
        "crates/nn/src/decode.rs $decode_lines (budget $decode_budget)" >&2
    fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "exec surface OK: one eval_node_into call site, no #[deprecated] shims," \
    "one entry point per MAC op, ops at $ops_lines/$ops_budget lines," \
    "the kernel path alone chooses the kernel," \
    "no per-plane conv nest," \
    "no decode-table machinery, no scalar encode loop," \
    "no [[bench]]/criterion, one ptq-bench binary, one run_suite," \
    "one decode schedule (nn+core $nn_core_lines/$nn_core_budget lines," \
    "decode.rs $decode_lines/$decode_budget)," \
    "no batching layer (serve at $serve_lines/$serve_budget lines, nn without rayon)"
