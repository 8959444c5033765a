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
#     reference loops run under `KernelPath::ScalarReference` only.
#   * The oracle is not a recipe: results never depend on the kernel path,
#     so no recipe, spec, artifact or CLI carries one. `kernel_path` and
#     `KernelPath` appear on no non-comment, non-test line under
#     crates/{core,bench,serve,artifact,models}/src or src/ (the kernels in
#     crates/tensor take it, and crates/nn's `Binding` and `OnPath` hook
#     hand it to them); `with_kernel_path` appears nowhere under crates/,
#     src/, tests/ or examples/; and `KernelPath` has no `wire_enum!`.
#   * One lane type on every host: each blocked body is written once over
#     `Chains` (AVX2 registers or `[f32; 8]`), and the CPU is asked on at
#     most two non-test lines under crates/tensor/src/ops -- the lane
#     dispatch (`run_lanes` in ops/blocked.rs) and the tanh lanes
#     (`map_tanh` in ops/activation.rs). The scalar tiles and the
#     AVX2-only operand plumbing they needed (`tile_full`, `tile_row`,
#     `simd_a`) may not reappear under crates/.
#   * One attention step per side: `Blocked` runs one in-place lane body
#     per attention step for F32 and FP8 caches alike, so crates/tensor/src
#     /ops/attn.rs stages nothing (no `with_panel`, no `decode_into`) and
#     crates/tensor/src/kv.rs has no `fn decode_into` (no whole-window
#     decode of a cache).
#   * Streamed decode, lane encode: the per-channel decode-table machinery
#     (`scaled_decode`, `ScaledDecode`, `TableW`, `WeightFetch`,
#     `take_tables`) may not reappear under crates/ -- a coded weight is
#     decoded per element, once per call: read in place by short rows, or
#     packed into pooled panels by the lane decoder (below) -- and no
#     non-test line of crates/tensor/src or crates/fp8/src/storage.rs calls
#     the scalar `codec.encode(`. The fp8 crate's one-time weight encodes
#     and fake-quant loops go through `Fp8Lut::encode`; under
#     crates/tensor/src every boundary encode (activations, KV rows) runs
#     one 8-lane encoder, `Chains::encode8` in ops/blocked.rs, so
#     `lut.encode(` is written on at most one non-comment, non-test line
#     there, inside `encode8` of the `[f32; NRM]` lanes (the table is their
#     encode and the AVX2 lanes' oracle). The scalar weight decode
#     `lut.decode(b) / s` is written on at most one non-comment, non-test
#     line under crates/tensor/src/ops, inside `decode8` of the
#     `[f32; NRM]` lanes in ops/blocked.rs: the per-lane decode of hosts
#     without AVX2.
#   * One lane decoder, one block walk, no gather: the FP8 weight pack of
#     m >= 4 rows (Linear, conv, depthwise), short rows (m < 4) and both
#     attention steps' FP8 cache reader (`Lanes` in ops/attn.rs; its F32
#     cache reader loads the rows as they are) decode FP8 codes through
#     one 8-lane decoder, `Chains::decode8` in
#     crates/tensor/src/ops/blocked.rs -- its AVX2 implementation holds the
#     only non-test line under crates/tensor/src that widens codes to lanes
#     (`_mm256_cvtepu8_epi32`), so the decode arithmetic has one
#     definition per lane type. The pack, the short-row Linear and the score step walk
#     8x8 code blocks through one macro, `walk8`: `transpose8x8(` is
#     called on exactly one non-test line under crates/tensor/src, inside
#     it. No `_mm256_*i32gather*` intrinsic under crates/tensor/src: a
#     gather decode measured no faster than the scalar pack it would
#     replace (3.95 against 4.10 us at 64x64, DESIGN.md §13) and keeps a
#     table load per element.
#   * Stats-free operands: a fake-quantized activation operand is coded
#     and decoded through the node's `QActTensor` scratch (FP8) or rounded
#     by `decode(encode(x))` (INT8), never through the loops that also
#     build error statistics -- `fake_quant_fp8(`, `fake_quant_int8(`,
#     `fake_quant_per_tile(` and `tile_scale(` appear on no non-test line
#     of crates/nn/src (the observers, weight quantization and ptq-bench
#     keep them).
#   * One pack site: a weight reaches the blocked kernels' column panels
#     through `decode_pack_weights` (ops/blocked.rs), called on non-test
#     lines only from `with_panels` (the per-call pack of Linear, conv and
#     depthwise) and `PackedWeight::pack` (the pack a sweep makes once).
#   * A pure hook: `ExecHook`'s methods take no `&mut [Tensor]` or
#     `&mut Tensor` parameter -- `before_node`/`after_node` observe
#     read-only views, and every operand transform (SmoothQuant divisors,
#     fake-quant, coding) is carried by the `Binding` that `bind` returns --
#     so no executor copies a node's inputs: no `fn stage(` and no
#     `staging` identifier under crates/nn/src.
#   * One copy of each weight: quantization writes each quantized weight
#     into the graph in place of its f32 parameter (FP8 codes or
#     fake-quantized f32), so no per-node weight substitute and no second
#     stored copy exist -- `WeightBinding`, `qweights`, `TAG_WEIGHTS` and
#     `encode_weights` appear nowhere under crates/, src/, tests/ or
#     examples/.
#   * One measuring stack: no `[[bench]]` target and no `criterion`
#     dependency in the root manifest or any manifest under crates/.
#     Timing lives in `benchmark/`.
#   * One experiment runner, one suite: crates/bench builds exactly one
#     binary (src/main.rs; no lib target, no src/bin, no extra [[bin]]),
#     and no `run_suite_` variant exists under crates/ -- every zoo sweep
#     goes through `workflow::run_suite`.
#   * One decode schedule: prefill is the prompt through the step
#     schedule (in blocks of rows), so `PrefillCapture`, `prefill_plan` and
#     a `prefill: ExecPlan` field may not reappear under crates/; one step
#     loop: `plan.steps` is iterated in exactly one non-test place in
#     crates/nn/src/decode.rs (a prompt block, a step and a gathered step
#     are all that loop over rows in segments); greedy token choice is
#     `Tensor::argmax` -- no `fn argmax` outside crates/tensor/src; and the
#     non-test lines of crates/{nn,core}/src and of crates/nn/src/decode.rs
#     stay within their budgets.
#   * No scheduling-only batching: single-shot forwards are never
#     coalesced -- the worker pool is their only parallelism -- so the
#     batching layer (`run_batch`, `take_batch`) and its two knobs
#     (`max_batch`, `batch_window_us`) may not reappear under crates/, and
#     crates/nn fans out in one place only (the next rule). The generation
#     steps of one decode plan queued together do share one step: they
#     share its weight decode, which is compute, not scheduling, and needs
#     no window or knob.
#     The non-test lines of crates/serve/src stay within their budget.
#   * One fan-out rule: `PAR_MACS_MIN` is written on non-comment, non-test
#     lines only in crates/tensor/src/ops/mod.rs -- its definition and
#     `fans_out`, the one reader -- so a kernel and a plan cannot disagree
#     on whether a node fans out. Under crates/nn/src, crates/models/src
#     and crates/core/src/bn_calib.rs, `par_chunks_mut(` and `par_iter(`
#     appear on exactly one non-comment, non-test line, inside
#     `PlanSet::run_each`: evaluation batches fan out there when no kernel
#     of their plans does, and calibration and BatchNorm re-estimation stay
#     in batch order (their f64 running sums depend on it).
#   * One persistent pool for the process: vendor/rayon stays std-only (no
#     dependency in its manifest), spawns its threads in exactly one
#     non-test place (the pool, on first use) and never per call -- no
#     `thread::scope` in its non-test code.
#   * One tanh: GELU and tanh run on the in-repo port of fdlibm's tanhf
#     (crates/tensor/src/ops/activation.rs, scalar and 8-lane) -- no
#     non-comment, non-test line under crates/ calls `f32::tanh` or
#     `.tanh()`.
#   * One checksum: the artifact CRC-32 is defined once, in
#     crates/artifact/src/crc.rs -- its polynomial (reflected, unreflected
#     or as the 33-bit Barrett constant), its `[u32; 256]` table,
#     `fn crc32` and the carry-less multiply `_mm_clmulepi64_si128` appear
#     on no non-comment line of crates/, src/, tests/ or examples/ outside
#     that file. The CPU is asked for features in two places only:
#     `is_x86_feature_detected!` appears on non-comment lines of those
#     trees only in crc.rs and inside `avx2_available` in
#     crates/tensor/src/ops/blocked.rs.
#   * One recipe codec: an artifact's CONFIG chunk is the engine spec's
#     JSON text, decoded by `EngineSpec::from_json`, so the binary recipe
#     codec (`encode_config`, `decode_config`, `put_data_format`,
#     `get_data_format`) and its hex pin (`ALL_KNOBS_CONFIG_HEX`) appear
#     nowhere under crates/, src/, tests/ or examples/.
#   * One BatchNorm re-estimation: the zoo's FP32 statistics and the PTQ
#     pass's BN calibration run the one in-order sweep,
#     `ptq_nn::reestimate_batchnorm`, under the caller's own hook -- so the
#     per-BN full-graph form (`initialize_bn_stats`), a moments hook
#     wrapping the caller's (`BnMomentHook`) and a free moments helper
#     (`channel_moments(`) appear on no non-test line of crates/*/src.
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

ops_budget=3049
ops_lines=$(non_test_lines crates/tensor/src/ops)
if [ "$ops_lines" -gt "$ops_budget" ]; then
    echo "crates/tensor/src/ops has $ops_lines non-test lines, budget $ops_budget" >&2
    fail=1
fi

hits=$(find crates/tensor/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /_mm256_[a-z0-9_]*i32gather/{print FILENAME":"FNR": "$0}' "$f"
done)
if [ -n "$hits" ]; then
    echo "no gather under crates/tensor/src: FP8 codes decode arithmetically in decode8:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

widen=$(find crates/tensor/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /fn decode8/{d=1} /_mm256_cvtepu8_epi32/{print FILENAME":"FNR":"d": "$0}' "$f"
done)
if [ "$(printf '%s' "$widen" | grep -c .)" -ne 1 ] || ! printf '%s' "$widen" | grep -q '^crates/tensor/src/ops/blocked.rs:[0-9]*:1: '; then
    echo "one lane decoder: codes widen to lanes in exactly one non-test place, decode8 in ops/blocked.rs:" >&2
    printf '%s\n' "$widen" >&2
    fail=1
fi

walks=$(find crates/tensor/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /macro_rules! walk8/{w=1} /use walk8;/{w=0}
        /transpose8x8\(/ && !/fn transpose8x8\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"w": "$0}' "$f"
done)
if [ "$(printf '%s' "$walks" | grep -c .)" -ne 1 ] || ! printf '%s' "$walks" | grep -q '^crates/tensor/src/ops/blocked.rs:[0-9]*:1: '; then
    echo "one block walk: transpose8x8( is called on exactly one non-test line, inside walk8 in ops/blocked.rs:" >&2
    printf '%s\n' "$walks" >&2
    fail=1
fi

# Each hit is tagged with the enclosing `impl` header and `fn` name.
scalar=$(find crates/tensor/src/ops -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /^impl /{impl=$0} match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
        /lut\.decode\(b\) \/ s/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"impl":"fn": "$0}' "$f"
done)
if [ "$(printf '%s' "$scalar" | grep -c .)" -gt 1 ] ||
    printf '%s' "$scalar" | grep -v '^crates/tensor/src/ops/blocked.rs:[0-9]*:impl Chains for \[f32; NRM\] {:decode8: ' | grep -q .; then
    echo "one scalar weight decode: lut.decode(b) / s on at most one non-test line, the array lanes' decode8:" >&2
    printf '%s\n' "$scalar" >&2
    fail=1
fi

encodes=$(find crates/tensor/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /^impl /{impl=$0} match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
        /lut\.encode\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"impl":"fn": "$0}' "$f"
done)
if [ "$(printf '%s' "$encodes" | grep -c .)" -gt 1 ] ||
    printf '%s' "$encodes" | grep -v '^crates/tensor/src/ops/blocked.rs:[0-9]*:impl Chains for \[f32; NRM\] {:encode8: ' | grep -q .; then
    echo "one encode: lut.encode( on at most one non-test line under crates/tensor/src, the array lanes' encode8:" >&2
    printf '%s\n' "$encodes" >&2
    fail=1
fi

asks=$(find crates/tensor/src/ops -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
        /avx2_available\(\)/ && !/fn avx2_available\(\)/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"fn": "$0}' "$f"
done)
if [ "$(printf '%s' "$asks" | grep -c .)" -gt 2 ] ||
    printf '%s' "$asks" | grep -vE '^crates/tensor/src/ops/(blocked\.rs:[0-9]+:run_lanes|activation\.rs:[0-9]+:map_tanh): ' | grep -q .; then
    echo "one lane type on every host: avx2_available() only in run_lanes (ops/blocked.rs) and map_tanh (ops/activation.rs):" >&2
    printf '%s\n' "$asks" >&2
    fail=1
fi

if hits=$(grep -rnwE 'tile_full|tile_row|simd_a' crates/); then
    echo "one register tile on every host: the scalar tiles and their AVX2 operand plumbing are gone:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(grep -HnE 'with_panel|decode_into' crates/tensor/src/ops/attn.rs || true
    grep -Hn 'fn decode_into' crates/tensor/src/kv.rs || true)
if [ -n "$hits" ]; then
    echo "one attention step per side: the steps read every cache in place, nothing staged:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnF '(KernelPath::Blocked,' crates/tensor/src/ops); then
    echo "KernelPath alone chooses the kernel: no (KernelPath::Blocked, operand) tuple guard:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(find crates/core/src crates/bench/src crates/serve/src crates/artifact/src crates/models/src src \
    -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /kernel_path|KernelPath/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$f"
done
grep -rn 'with_kernel_path' crates/ src/ tests/ examples/ || true
grep -rnF 'wire_enum!(KernelPath' crates/ || true)
if [ -n "$hits" ]; then
    echo "the oracle is not a recipe: no kernel path in the recipe, spec, artifact or CLI:" >&2
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

stats=$(find crates/nn/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /(fake_quant_fp8|fake_quant_int8|fake_quant_per_tile|tile_scale)\(/ &&
        !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$f"
done)
if [ -n "$stats" ]; then
    echo "stats-free operands: no fake_quant_*/tile_scale call on non-test lines of crates/nn/src:" >&2
    printf '%s\n' "$stats" >&2
    fail=1
fi

packs=$(find crates -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
        /decode_pack_weights\(/ && !/fn decode_pack_weights\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"fn": "$0}' "$f"
done)
if [ "$(printf '%s' "$packs" | grep -c .)" -ne 2 ] ||
    printf '%s' "$packs" | grep -vE '^crates/tensor/src/ops/(blocked\.rs:[0-9]+:with_panels|operand\.rs:[0-9]+:pack): ' | grep -q .; then
    echo "one pack site: decode_pack_weights( is called only in with_panels (ops/blocked.rs) and PackedWeight::pack (ops/operand.rs):" >&2
    printf '%s\n' "$packs" >&2
    fail=1
fi

hook=$(awk '/^pub trait ExecHook/{t=1} t{print FILENAME":"FNR": "$0} t&&/^}/{exit}' crates/nn/src/interp.rs)
if [ -z "$hook" ] || printf '%s\n' "$hook" | grep -E '&mut (\[Tensor\]|Tensor\b)' >&2; then
    echo "a pure hook: ExecHook (crates/nn/src/interp.rs) takes no &mut [Tensor] / &mut Tensor parameter" >&2
    fail=1
fi
if hits=$(grep -rnwE 'fn stage|staging' crates/nn/src); then
    echo "executors read inputs in place: no staging copies under crates/nn/src:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnE 'WeightBinding|qweights|TAG_WEIGHTS|encode_weights' crates/ src/ tests/ examples/); then
    echo "one copy of each weight: the quantized weight is the graph's parameter, no substitute or copy:" >&2
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

loops=$(awk '/^#\[cfg\(test\)\]/{exit} /plan\.steps/{print FILENAME":"FNR": "$0}' crates/nn/src/decode.rs)
n=$(printf '%s' "$loops" | grep -c . || true)
if [ "$n" -ne 1 ]; then
    echo "one step loop: plan.steps must be iterated in exactly one non-test place in decode.rs, found $n:" >&2
    printf '%s\n' "$loops" >&2
    fail=1
fi

if hits=$(grep -rn 'fn argmax' crates/ | grep -v '^crates/tensor/src/'); then
    echo "greedy token choice is Tensor::argmax, not a private copy:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if hits=$(grep -rnE 'run_batch|take_batch|max_batch|batch_window_us' crates/); then
    echo "single-shot forwards are never coalesced: no scheduling-only batching layer, no knobs for it:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

cutoff=$(find crates -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
        /PAR_MACS_MIN/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"fn": "$0}' "$f"
done)
if printf '%s' "$cutoff" | grep -vE '^crates/tensor/src/ops/mod\.rs:[0-9]+:(fans_out:|[a-z0-9_]*: const PAR_MACS_MIN: usize =)' | grep -q .; then
    echo "one fan-out rule: PAR_MACS_MIN is defined and read (by fans_out) only in ops/mod.rs:" >&2
    printf '%s\n' "$cutoff" >&2
    fail=1
fi
fanouts=$(find crates/nn/src crates/models/src crates/core/src/bn_calib.rs -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /^impl /{impl=$0} match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
        /par_chunks_mut\(|par_iter\(/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR":"impl":"fn": "$0}' "$f"
done)
if [ "$(printf '%s' "$fanouts" | grep -c .)" -ne 1 ] ||
    ! printf '%s' "$fanouts" | grep -q '^crates/nn/src/plan\.rs:[0-9]*:impl PlanSet {:run_each: '; then
    echo "one fan-out rule: nn, models and BatchNorm re-estimation fan out on one line, in PlanSet::run_each:" >&2
    printf '%s\n' "$fanouts" >&2
    fail=1
fi

if grep -qE '^\[(dependencies|build-dependencies)' vendor/rayon/Cargo.toml; then
    echo "vendor/rayon is std-only: no [dependencies] in its manifest" >&2
    fail=1
fi
pool_src=$(awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' vendor/rayon/src/lib.rs)
spawns=$(printf '%s\n' "$pool_src" | grep -E '\.spawn\(|thread::spawn' || true)
if [ "$(printf '%s' "$spawns" | grep -c .)" -ne 1 ] || printf '%s\n' "$pool_src" | grep -q 'thread::scope'; then
    echo "one persistent pool: vendor/rayon spawns threads in exactly one place, never per call:" >&2
    printf '%s\n' "$spawns" >&2
    printf '%s\n' "$pool_src" | grep 'thread::scope' >&2 || true
    fail=1
fi

hits=$(find crates -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /f32::tanh|\.tanh\(\)/ && !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$f"
done)
if [ -n "$hits" ]; then
    echo "one tanh: call the port in ops/activation.rs, not f32::tanh:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

# Every non-comment line of the repo's Rust trees, tagged with the
# enclosing `fn` name.
rust_lines() {
    find crates src tests examples -name '*.rs' | sort | while IFS= read -r f; do
        awk 'match($0, /fn [a-z0-9_]+/){fn=substr($0, RSTART + 3, RLENGTH - 3)}
            !/^[[:space:]]*\/\//{print FILENAME":"FNR":"fn": "$0}' "$f"
    done
}
crc=$(rust_lines | grep -iE ': .*(fn crc32\b|_mm_clmulepi64_si128|EDB8_?8320|04C1_?1DB7|DB71_?0641|\[u32; 256\])' |
    grep -v '^crates/artifact/src/crc\.rs:' || true)
if [ -n "$crc" ]; then
    echo "one checksum: the CRC-32 polynomial, table, fn crc32 and its carry-less fold live only in crates/artifact/src/crc.rs:" >&2
    printf '%s\n' "$crc" >&2
    fail=1
fi
detects=$(rust_lines | grep -F 'is_x86_feature_detected!' |
    grep -vE '^(crates/artifact/src/crc\.rs:[0-9]+:[a-z0-9_]*|crates/tensor/src/ops/blocked\.rs:[0-9]+:avx2_available): ' || true)
if [ -n "$detects" ]; then
    echo "the CPU is asked in two places: is_x86_feature_detected! only in crc.rs and blocked.rs's avx2_available:" >&2
    printf '%s\n' "$detects" >&2
    fail=1
fi

if hits=$(grep -rnE 'encode_config|decode_config|put_data_format|get_data_format|ALL_KNOBS_CONFIG_HEX' \
    crates/ src/ tests/ examples/); then
    echo "one recipe codec: CONFIG is the spec JSON, no binary recipe codec or pin:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(find crates/*/src -name '*.rs' | sort | while IFS= read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} /initialize_bn_stats|BnMomentHook|channel_moments\(/{print FILENAME":"FNR": "$0}' "$f"
done)
if [ -n "$hits" ]; then
    echo "one BatchNorm re-estimation: ptq_nn::reestimate_batchnorm is the only sweep, under the caller's hook:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

serve_budget=872
serve_lines=$(non_test_lines crates/serve/src)
if [ "$serve_lines" -gt "$serve_budget" ]; then
    echo "crates/serve/src has $serve_lines non-test lines, budget $serve_budget" >&2
    fail=1
fi

nn_core_budget=7235
nn_core_lines=$(non_test_lines crates/nn/src crates/core/src)
decode_budget=828
decode_lines=$(non_test_lines crates/nn/src/decode.rs)
if [ "$nn_core_lines" -gt "$nn_core_budget" ] || [ "$decode_lines" -gt "$decode_budget" ]; then
    echo "crates/{nn,core}/src has $nn_core_lines non-test lines (budget $nn_core_budget)," \
        "crates/nn/src/decode.rs $decode_lines (budget $decode_budget)" >&2
    fail=1
fi

[ "$fail" -eq 0 ] || exit 1
echo "exec surface OK: one eval_node_into call site, no #[deprecated] shims," \
    "one entry point per MAC op, ops at $ops_lines/$ops_budget lines," \
    "the kernel path alone chooses the kernel and is no part of the recipe," \
    "one lane type on every host, one attention step per side," \
    "one lane decoder, one block walk and no gather," \
    "no per-plane conv nest," \
    "no decode-table machinery, one scalar weight decode, one encode, no scalar encode loop," \
    "stats-free operands, one pack site," \
    "a pure hook and no staging copies, one copy of each weight," \
    "no [[bench]]/criterion, one ptq-bench binary, one run_suite," \
    "one decode schedule and one step loop (nn+core $nn_core_lines/$nn_core_budget lines," \
    "decode.rs $decode_lines/$decode_budget)," \
    "no batching layer (serve at $serve_lines/$serve_budget lines)," \
    "one fan-out rule (PAR_MACS_MIN read by fans_out, batches fan out in PlanSet::run_each)," \
    "one persistent std-only pool, one tanh, one checksum, two CPU feature probes," \
    "one recipe codec and one BatchNorm re-estimation"
