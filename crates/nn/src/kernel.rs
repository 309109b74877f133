//! The f64 hot loops: reductions compiled twice, for the baseline ISA
//! and for AVX2, plus plain elementwise loops.
//!
//! Every surrogate query bottoms out in a handful of dense f64 kernels:
//! the blocked matmul (every forward product and every backward
//! `dY·Wᵀ`), the GAT attention logits, the attention aggregation, and
//! the elementwise updates of the eq.-1 generative ascent.
//!
//! The reductions — [`matmul_into`], [`dot4_rows`] and [`axpy_rows`] —
//! are each one safe, register-blocked loop body.
//! The matmul's body covers every shape with one tile routine: 4-row
//! blocks by 8-, 4- or 1-column tiles (single rows up to 16 columns), the
//! last tile overlapping its predecessor when the width does not divide
//! `n`, so no column takes a scalar tail. It has no per-`(row, k)` branch: the zero-skip
//! is a `const` instantiation that runs only when the skip-free pass left
//! a NaN output (see below).
//! [`Backend::Scalar`] runs it compiled for the target's baseline ISA
//! (SSE2 on x86-64; on aarch64 that baseline includes NEON, so it is the
//! only path there). On x86-64 [`Backend::Avx2`] runs the same body
//! inside a `#[target_feature(enable = "avx2")]` function, where the
//! compiler vectorises the blocks at 4 lanes. The backend is selected
//! **once** at startup — mirroring how `CAROL_THREADS` resolves through
//! `par::EngineConfig` — via the [`SIMD_ENV`] (`CAROL_SIMD=auto|scalar`)
//! override, so CI can pin the baseline build against the AVX2 one.
//!
//! The elementwise kernels — [`axpy`], [`axpy_scaled`], [`add_assign`],
//! [`scale_assign`] and [`ascent_update`] — are one plain loop each, with
//! no dispatch: every output element is its own one- or two-operation
//! chain, so the compiler's vectorisation for the target's baseline SIMD
//! (SSE2 on x86-64, NEON on aarch64) gives the same bits as the scalar
//! expression, and the loops inline into their callers.
//!
//! # Bit-identity by construction
//!
//! The house determinism contract (see `Matrix::matmul`) fixes the f64
//! accumulation chain **per output element** — ascending-`k`, one
//! accumulator, zero operands of the left matrix skipped — but says
//! nothing about the order *across* output elements. The blocked bodies
//! exploit exactly that freedom: a block holds many independent
//! per-element chains side by side (4 rows × 8 columns for the matmul, 4
//! dot products, up to 16 aggregation columns), so the compiler may put them
//! in vector lanes without splitting any one chain. Every multiply and
//! add stays a separate correctly-rounded operation (Rust never
//! contracts them into an FMA, which rounds once where the scalar code
//! rounds twice), and the zero-skip tests the same scalar the per-element
//! chain tests. The matmul skips nothing on its first pass. A skipped
//! term is `±0·b`: for finite `b` that is ±0, and adding ±0 never changes
//! an accumulator, because the chain starts at +0.0 and under
//! round-to-nearest can never become −0.0. For ±∞ or NaN `b` the term is
//! NaN, so its output is NaN; when any output is NaN the body runs again
//! with the skip, overwriting every output. The result is
//! bitwise-identical to the per-element expression for every input,
//! including NaN, ±Inf and signed zeros —
//! gated by the bit-oracle tests below (which compare every backend with
//! an independent per-element reference and pin each elementwise kernel
//! to its expression), the kernel proptests in `tests/properties.rs`, and
//! the full-trajectory AVX2 ≡ scalar gate in `tests/determinism.rs`.
//!
//! Transcendentals (`tanh`, `exp` in the attention softmax, `sigmoid`)
//! deliberately stay scalar: libm calls cannot be vectorized
//! bit-identically.

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the kernel backend
/// (`auto|scalar`). Read **once**, at the first kernel call;
/// later changes to the environment have no effect. Unlike
/// `CAROL_THREADS` (where an unparsable value falls back to the
/// default), an unknown token here panics: a typo in a CI leg pinning
/// `scalar` would otherwise silently re-enable SIMD and void the gate.
pub const SIMD_ENV: &str = "CAROL_SIMD";

/// Parsed value of [`SIMD_ENV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Pick the best backend the CPU supports (the default).
    Auto,
    /// Force the baseline-ISA build of the kernels.
    Scalar,
}

impl SimdMode {
    /// Parses an optional [`SIMD_ENV`] value. `None`, the empty string
    /// and `"auto"` all mean [`SimdMode::Auto`].
    ///
    /// # Panics
    ///
    /// Panics on any other unrecognised token (see [`SIMD_ENV`]).
    pub fn parse(raw: Option<&str>) -> SimdMode {
        match raw.map(str::trim) {
            None | Some("") | Some("auto") => SimdMode::Auto,
            Some("scalar") => SimdMode::Scalar,
            Some(other) => panic!("{SIMD_ENV}={other:?}: expected auto|scalar"),
        }
    }
}

/// A concrete kernel backend: one build of the reduction bodies. All
/// backends are bit-identical; the only observable difference is speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// The bodies compiled for the target's baseline ISA (the oracle leg
    /// of CI, and the only backend on aarch64).
    Scalar = 1,
    /// The bodies compiled with AVX2 enabled (x86-64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2 = 2,
}

impl Backend {
    /// Stable lower-case name, recorded into `BENCH_JSON` so every perf
    /// artifact says which path produced it.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }
}

/// Resolves a [`SimdMode`] to a concrete backend against the running
/// CPU.
pub fn resolve(mode: SimdMode) -> Backend {
    match mode {
        #[cfg(target_arch = "x86_64")]
        SimdMode::Auto if std::arch::is_x86_feature_detected!("avx2") => Backend::Avx2,
        SimdMode::Auto | SimdMode::Scalar => Backend::Scalar,
    }
}

const BACKEND_UNRESOLVED: u8 = 0;
static ACTIVE: AtomicU8 = AtomicU8::new(BACKEND_UNRESOLVED);

/// The backend every kernel dispatches to, resolving [`SIMD_ENV`] on
/// first use and caching the answer. Relaxed atomics suffice: all
/// backends produce identical bits, so a racy first resolution is
/// benign.
pub fn active() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        #[cfg(target_arch = "x86_64")]
        2 => Backend::Avx2,
        _ => {
            let backend = resolve(SimdMode::parse(std::env::var(SIMD_ENV).ok().as_deref()));
            ACTIVE.store(backend as u8, Ordering::Relaxed);
            backend
        }
    }
}

/// Overrides the dispatched backend in-process, returning the previous
/// one so tests can restore it. Tests use this instead of mutating
/// `CAROL_SIMD` because `setenv` from a threaded test harness is
/// undefined behaviour on glibc (the same reason `tests/
/// carol_threads_env.rs` is a single-test binary).
#[doc(hidden)]
pub fn set_backend(backend: Backend) -> Backend {
    let prev = active();
    ACTIVE.store(backend as u8, Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------------
// matmul: out[i][j] (+)= Σ_k a[i][k]·b[k][j], B in natural k×n layout
// ---------------------------------------------------------------------------

/// k-blocking: a tile-wide stripe of `b` (KB × tile doubles) plus the
/// `a`-row segment stay within L1. Shared by every backend so the
/// partial-sum reload points line up bit-exactly.
const KB: usize = 512;

/// Columns per matmul register tile: two AVX2 registers, four SSE2 or
/// NEON ones.
const TILE: usize = 8;

/// The blocked matmul kernel behind `Matrix::matmul`:
/// `out[i·n + j] = Σ_k a[i·k + k]·b[k·n + j]` with the per-element
/// ascending-`k` chain and zero-skip documented on `Matrix::matmul`,
/// reproduced by a skip-free pass and, only if that left a NaN, a
/// skipping one (see the module doc). `out` must be zero-filled on
/// entry; the KB-sized k-blocking spills and reloads its own partial
/// sums through it. No heap allocation, no scan of `b`.
///
/// # Panics
///
/// Panics if the slice lengths don't match `m·k`, `k·n`, `m·n`.
pub fn matmul_into(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    matmul_into_on(active(), out, a, b, m, k, n)
}

/// [`matmul_into`] pinned to an explicit backend — the bit-oracle tests'
/// entry point.
#[doc(hidden)]
pub fn matmul_into_on(
    backend: Backend,
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "matmul a-operand length");
    assert_eq!(b.len(), k * n, "matmul b-operand length");
    assert_eq!(out.len(), m * n, "matmul out length");
    match backend {
        Backend::Scalar => matmul_body(out, a, b, m, k, n),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Backend::Avx2 => {
            assert_avx2();
            // SAFETY: `assert_avx2` just checked that the CPU has AVX2.
            unsafe { matmul_avx2(out, a, b, m, k, n) }
        }
    }
}

/// Panics unless the running CPU has AVX2, so each AVX2 dispatch is
/// sound for any [`Backend`] a caller passes in (a cached load and test).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn assert_avx2() {
    assert!(
        std::arch::is_x86_feature_detected!("avx2"),
        "kernel backend avx2 needs a CPU with AVX2"
    );
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_avx2(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    matmul_body(out, a, b, m, k, n)
}

/// One pass with no zero-skip; if any output came out NaN, a second pass
/// with the skip. Bit-identical to skipping always: a skipped term is
/// `±0·b`, which for finite `b` is ±0, and adding ±0 never changes an
/// accumulator (the chain starts at +0.0 and under round-to-nearest never
/// becomes −0.0). For ±∞ or NaN `b` the term is NaN, so that output is
/// NaN after the first pass and is recomputed. The NaN test is one
/// vectorised pass over `out` (a per-tile test cost more at k = 13). The
/// second pass needs no zeroed `out`: its first k-block starts every
/// accumulator at +0.0 and stores every output.
#[inline(always)]
fn matmul_body(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    matmul_pass::<false>(out, a, b, m, k, n);
    if out.iter().fold(false, |nan, v| nan | v.is_nan()) {
        matmul_pass::<true>(out, a, b, m, k, n);
    }
}

/// Per KB-block of `k`: 4-row blocks of `a` (8 vector accumulators under
/// AVX2 at the 8-wide tile, so each chain's add latency hides behind 7
/// siblings), then the remaining rows one at a time, each through
/// [`matmul_tiles`]. `SKIP` skips the exact-zero `a` terms.
#[inline(always)]
fn matmul_pass<const SKIP: bool>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        let b_rows = b[k0 * n..k1 * n].chunks_exact(n);
        let a_seg = |i: usize| a[i * k + k0..i * k + k1].iter();
        let mut i = 0;
        while i + 4 <= m {
            // Built once, cloned per tile: building it divides by `n`.
            let steps = a_seg(i)
                .zip(a_seg(i + 1))
                .zip(a_seg(i + 2))
                .zip(a_seg(i + 3))
                .map(|(((&v0, &v1), &v2), &v3)| [v0, v1, v2, v3])
                .zip(b_rows.clone());
            matmul_tiles::<4, SKIP>(out, steps, i, k0, n);
            i += 4;
        }
        for i in i..m {
            let steps = a_seg(i).map(|&v| [v]).zip(b_rows.clone());
            matmul_tiles::<1, SKIP>(out, steps, i, k0, n);
        }
    }
}

/// Every column of rows `[i, i + R)` for one k-block, in register tiles
/// of the widest `W` in {8, 4, 1} that fits `n`, or 16 for a single row,
/// whose one `a` value per `k` then feeds four AVX2 accumulators instead
/// of two (1.3–1.8× faster than 8 wide at m = 1 and 2, k = 16–160).
#[inline(always)]
fn matmul_tiles<'b, const R: usize, const SKIP: bool>(
    out: &mut [f64],
    steps: impl Iterator<Item = ([f64; R], &'b [f64])> + Clone,
    i: usize,
    k0: usize,
    n: usize,
) {
    match n {
        16.. if R == 1 => matmul_tiles_w::<R, 16, SKIP>(out, steps, i, k0, n),
        TILE.. => matmul_tiles_w::<R, TILE, SKIP>(out, steps, i, k0, n),
        4.. => matmul_tiles_w::<R, 4, SKIP>(out, steps, i, k0, n),
        _ => matmul_tiles_w::<R, 1, SKIP>(out, steps, i, k0, n),
    }
}

/// [`matmul_tiles`] at tile width `W ≤ n`. When `W` does not divide `n`,
/// the last tile overlaps its predecessor and stores only its new
/// columns, so no column takes a narrower path.
#[inline(always)]
fn matmul_tiles_w<'b, const R: usize, const W: usize, const SKIP: bool>(
    out: &mut [f64],
    steps: impl Iterator<Item = ([f64; R], &'b [f64])> + Clone,
    i: usize,
    k0: usize,
    n: usize,
) {
    let mut j0 = 0;
    while j0 + W <= n {
        matmul_tile::<R, W, SKIP>(out, steps.clone(), i, k0, n, j0, 0);
        j0 += W;
    }
    if j0 < n {
        matmul_tile::<R, W, SKIP>(out, steps, i, k0, n, n - W, j0 + W - n);
    }
}

/// One `R × W` tile of `out` at column `j0` for one k-block: `R × W`
/// accumulators (reloaded from `out` past the first k-block), each `b`
/// row segment shared by the `R` rows; a zero `a` value skips its row's
/// whole update when `SKIP`. Stores columns `[j0 + keep, j0 + W)`; the
/// lane test keeps every accumulator index constant, so the tile stays in
/// registers.
#[inline(always)]
fn matmul_tile<'b, const R: usize, const W: usize, const SKIP: bool>(
    out: &mut [f64],
    steps: impl Iterator<Item = ([f64; R], &'b [f64])>,
    i: usize,
    k0: usize,
    n: usize,
    j0: usize,
    keep: usize,
) {
    let mut acc = [[0.0f64; W]; R];
    if k0 > 0 {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&out[(i + r) * n + j0..][..W]);
        }
    }
    for (av, b_row) in steps {
        let b_tile = &b_row[j0..j0 + W];
        for (acc_r, av) in acc.iter_mut().zip(av) {
            if SKIP && av == 0.0 {
                continue;
            }
            for (s, &bv) in acc_r.iter_mut().zip(b_tile) {
                *s += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let dst = &mut out[(i + r) * n + j0..][..W];
        for (c, (o, &v)) in dst.iter_mut().zip(acc_r).enumerate() {
            if c >= keep {
                *o = v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dot products (GAT attention logits)
// ---------------------------------------------------------------------------

/// Single ascending-index dot product `Σ a[t]·b[t]` with **no**
/// zero-skip — the GAT attention-logit chain. One accumulator chain can
/// never be vectorized bit-identically, so this is scalar on every
/// backend; the SIMD win comes from [`dot4_rows`] running four
/// neighbours' chains in parallel lanes.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Four independent no-skip dot products sharing the left operand:
/// `[a·b0, a·b1, a·b2, a·b3]` — the GAT attention logits of four
/// neighbours at once. Each result is its own ascending-index chain, so
/// lane-parallel evaluation is bit-identical to four [`dot`] calls.
pub fn dot4_rows(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> [f64; 4] {
    dot4_rows_on(active(), a, b0, b1, b2, b3)
}

/// [`dot4_rows`] pinned to an explicit backend.
#[doc(hidden)]
pub fn dot4_rows_on(
    backend: Backend,
    a: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) -> [f64; 4] {
    let k = a.len();
    assert!(
        b0.len() == k && b1.len() == k && b2.len() == k && b3.len() == k,
        "dot4_rows operand lengths"
    );
    match backend {
        Backend::Scalar => dot4(a, [b0, b1, b2, b3]),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Backend::Avx2 => {
            assert_avx2();
            // SAFETY: `assert_avx2` just checked that the CPU has AVX2.
            unsafe { dot4_rows_avx2(a, [b0, b1, b2, b3]) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot4_rows_avx2(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    dot4(a, b)
}

/// Four lane-parallel dot chains over 4×4 blocks: each block holds four
/// consecutive values of every `b` row, and stepping `t` through it reads
/// one column, so the compiler can transpose the block in registers and
/// emit one broadcast-multiply-add per `t` for all four chains, each
/// still ascending-`t` — identical to four single [`dot`] chains.
#[inline(always)]
fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let k = a.len();
    let b = b.map(|row| &row[..k]);
    let (a_blks, a_tail) = a.as_chunks::<4>();
    let [b0, b1, b2, b3] = b.map(|row| row.as_chunks::<4>().0);
    let mut acc = [0.0f64; 4];
    for ((((a_blk, r0), r1), r2), r3) in a_blks.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        for (s, &av) in a_blk.iter().enumerate() {
            for (sum, bv) in acc.iter_mut().zip([r0[s], r1[s], r2[s], r3[s]]) {
                *sum += av * bv;
            }
        }
    }
    let t_tail = k - a_tail.len();
    for (t, &av) in (t_tail..k).zip(a_tail) {
        for (sum, row) in acc.iter_mut().zip(&b) {
            *sum += av * row[t];
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Elementwise kernels: plain loops, no dispatch (see the module doc)
// ---------------------------------------------------------------------------

/// `acc[t] += s·x[t]` — the GAT attention aggregation / softmax-backward
/// row update.
///
/// # Panics
///
/// Panics if `acc` and `x` differ in length.
#[inline]
pub fn axpy(acc: &mut [f64], s: f64, x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "axpy operand lengths");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += s * v;
    }
}

/// `acc += Σ_t w[t]·rows[t]`: exactly `for t { axpy(acc, w[t], rows[t]) }`,
/// bit for bit — each element one ordered chain of mul-then-add steps.
/// Each block of 16, 8 or 4 columns stays in registers across all the
/// rows instead of being loaded and stored once per row. The GAT
/// attention aggregation `Σ_j α_ij h_j`.
///
/// # Panics
///
/// Panics if `w` and `rows` differ in length or a row's length differs
/// from `acc`'s.
pub fn axpy_rows(acc: &mut [f64], w: &[f64], rows: &[&[f64]]) {
    axpy_rows_on(active(), acc, w, rows)
}

/// [`axpy_rows`] pinned to an explicit backend.
#[doc(hidden)]
pub fn axpy_rows_on(backend: Backend, acc: &mut [f64], w: &[f64], rows: &[&[f64]]) {
    assert_eq!(w.len(), rows.len(), "axpy_rows weight count");
    assert!(
        rows.iter().all(|x| x.len() == acc.len()),
        "axpy_rows operand lengths"
    );
    match backend {
        Backend::Scalar => axpy_rows_body(acc, w, rows),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Backend::Avx2 => {
            assert_avx2();
            // SAFETY: `assert_avx2` just checked that the CPU has AVX2.
            unsafe { axpy_rows_avx2(acc, w, rows) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_rows_avx2(acc: &mut [f64], w: &[f64], rows: &[&[f64]]) {
    axpy_rows_body(acc, w, rows)
}

/// 16-column blocks, then at most one 8- and one 4-column block, then
/// one [`axpy`] per row over the last `len % 4` columns. The GAT widths
/// (8 in the service-tier GON, 32 in the default one) take no tail.
#[inline(always)]
fn axpy_rows_body(acc: &mut [f64], w: &[f64], rows: &[&[f64]]) {
    let (rest, c) = axpy_rows_blocks::<16>(acc, 0, w, rows);
    let (rest, c) = axpy_rows_blocks::<8>(rest, c, w, rows);
    let (tail, c) = axpy_rows_blocks::<4>(rest, c, w, rows);
    if !tail.is_empty() {
        for (&wt, x) in w.iter().zip(rows) {
            axpy(tail, wt, &x[c..]);
        }
    }
}

/// The `B`-column blocks of `acc` (column `c0` of the rows on), each
/// held in registers across all the rows; returns the columns left over
/// and the row column they start at.
#[inline(always)]
fn axpy_rows_blocks<'a, const B: usize>(
    acc: &'a mut [f64],
    c0: usize,
    w: &[f64],
    rows: &[&[f64]],
) -> (&'a mut [f64], usize) {
    let (blocks, rest) = acc.as_chunks_mut::<B>();
    let c_rest = c0 + blocks.len() * B;
    for (c, out) in (c0..).step_by(B).zip(blocks) {
        let mut s = *out;
        for (&wt, x) in w.iter().zip(rows) {
            let x: &[f64; B] = x[c..c + B].try_into().expect("B columns");
            for (sv, &xv) in s.iter_mut().zip(x) {
                *sv += wt * xv;
            }
        }
        *out = s;
    }
    (rest, c_rest)
}

/// `acc[t] += (s·x[t])·post` — the attention Q/K gradient update, where
/// `post` is the 1/√d logit scale applied **after** the product exactly
/// as the scalar expression `ds * k[t] * scale` associates.
///
/// # Panics
///
/// Panics if `acc` and `x` differ in length.
#[inline]
pub fn axpy_scaled(acc: &mut [f64], s: f64, x: &[f64], post: f64) {
    assert_eq!(acc.len(), x.len(), "axpy_scaled operand lengths");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += s * v * post;
    }
}

/// `acc[t] += x[t]` — gradient accumulation / segment pooling.
///
/// # Panics
///
/// Panics if `acc` and `x` differ in length.
#[inline]
pub fn add_assign(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "add_assign operand lengths");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// `x[t] *= s` — the mean-pooling 1/len and gradient-averaging scales.
#[inline]
pub fn scale_assign(x: &mut [f64], s: f64) {
    for v in x.iter_mut() {
        *v *= s;
    }
}

/// The eq.-1 ascent update: `v[t] = (v[t] + d[t]·lr).clamp(0.0, 1.0)`,
/// with `f64::clamp`'s semantics: NaN passes through and `-0.0` stays
/// `-0.0`.
///
/// # Panics
///
/// Panics if `v` and `d` differ in length.
#[inline]
pub fn ascent_update(v: &mut [f64], d: &[f64], lr: f64) {
    assert_eq!(v.len(), d.len(), "ascent_update operand lengths");
    for (val, &dv) in v.iter_mut().zip(d) {
        *val = (*val + dv * lr).clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backends available on the test machine, scalar first.
    fn backends() -> Vec<Backend> {
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut v = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Backend::Avx2);
        }
        v
    }

    fn lcg_vec(len: usize, mut seed: u64) -> Vec<f64> {
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push(((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5);
        }
        data
    }

    /// Ascending-k, zero-skipping reference chain — the contract every
    /// matmul backend must reproduce bit-for-bit (the textbook naive
    /// oracle in `matrix.rs` additionally proves the *scalar* kernel
    /// honours it; with non-finite inputs the skip itself is semantic,
    /// so this oracle skips too).
    fn oracle_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for t in 0..k {
                    let av = a[i * k + t];
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * b[t * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_bits_eq(x: &[f64], y: &[f64], what: &str) {
        assert_eq!(x.len(), y.len(), "{what}: length");
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: bit divergence at element {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(SimdMode::parse(None), SimdMode::Auto);
        assert_eq!(SimdMode::parse(Some("")), SimdMode::Auto);
        assert_eq!(SimdMode::parse(Some(" auto ")), SimdMode::Auto);
        assert_eq!(SimdMode::parse(Some("scalar")), SimdMode::Scalar);
    }

    #[test]
    #[should_panic(expected = "expected auto|scalar")]
    fn mode_parsing_rejects_typos() {
        SimdMode::parse(Some("avx2"));
    }

    #[test]
    fn resolve_scalar_is_always_available() {
        assert_eq!(resolve(SimdMode::Scalar), Backend::Scalar);
    }

    #[test]
    fn auto_resolves_to_a_compiled_backend() {
        let b = resolve(SimdMode::Auto);
        assert!(backends().contains(&b), "auto picked unavailable {b:?}");
    }

    /// Awkward shapes: 1×1, k=1 chains, widths straddling the 8-wide
    /// tile (and its remainder columns), row counts straddling the 4-row
    /// block, k past the KB=512 block boundary, and the storm's encoder
    /// shapes. `staggered` zeroes `a[i][kk]` where `(i + kk) % 3 == 0`, so
    /// the rows of one 4-row block skip different `k` (also across KB).
    /// The `k = 530` rows put every remainder width 9–15, the 4- and
    /// 1-wide tiles' overlaps (5, 3) and a single row's 16-wide one (24)
    /// past KB, where the overlapping last tile reloads columns its
    /// predecessor already finished and must store only its own.
    #[test]
    fn matmul_backends_bit_identical_across_awkward_shapes() {
        for &(m, k, n, staggered) in &[
            (1usize, 1usize, 1usize, false),
            (1, 7, 1, false),
            (2, 1, 9, false),
            (3, 5, 2, false),
            (4, 16, 8, false),
            (5, 13, 12, false),
            (6, 33, 7, false),
            (7, 64, 11, false),
            (16, 64, 64, false),
            (9, 600, 9, false),
            (2048, 13, 16, false),
            (2048, 16, 13, true),
            (9, 600, 19, true),
            (6, 530, 3, true),
            (6, 530, 5, true),
            (6, 530, 9, true),
            (6, 530, 10, true),
            (6, 530, 11, true),
            (6, 530, 12, true),
            (6, 530, 13, true),
            (6, 530, 14, true),
            (6, 530, 15, true),
            (3, 530, 24, true),
        ] {
            let mut a = lcg_vec(m * k, 0x11 ^ ((m as u64) << 24) ^ ((k as u64) << 8));
            if staggered {
                for (idx, v) in a.iter_mut().enumerate() {
                    if (idx / k + idx % k) % 3 == 0 {
                        *v = 0.0;
                    }
                }
            }
            let b = lcg_vec(k * n, 0x22 ^ ((n as u64) << 24) ^ ((k as u64) << 8));
            let want = oracle_matmul(&a, &b, m, k, n);
            for backend in backends() {
                let mut got = vec![0.0f64; m * n];
                matmul_into_on(backend, &mut got, &a, &b, m, k, n);
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("matmul {m}x{k}·{k}x{n} on {}", backend.name()),
                );
            }
        }
    }

    /// Zero-skip density test: a ReLU-like left operand (half exact
    /// zeros) must take identical skip decisions on every backend.
    #[test]
    fn matmul_backends_agree_with_sparse_left_operand() {
        let (m, k, n) = (12usize, 40usize, 20usize);
        let mut a = lcg_vec(m * k, 77);
        for (i, v) in a.iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = lcg_vec(k * n, 78);
        let want = oracle_matmul(&a, &b, m, k, n);
        for backend in backends() {
            let mut got = vec![0.0f64; m * n];
            matmul_into_on(backend, &mut got, &a, &b, m, k, n);
            assert_bits_eq(&got, &want, &format!("sparse matmul on {}", backend.name()));
        }
    }

    /// NaN and ±Inf must propagate identically: the zero-skip makes
    /// skipping semantic (skipping `0·Inf` drops a NaN), so backends
    /// must take the *same* skip decisions, and un-skipped non-finite
    /// products must flow through the same chain.
    #[test]
    fn matmul_backends_propagate_non_finite_identically() {
        let (m, k, n) = (5usize, 9usize, 13usize);
        let mut a = lcg_vec(m * k, 91);
        let mut b = lcg_vec(k * n, 92);
        a[3] = 0.0; // row 0 skips b row 3 (no specials there)
        a[10] = f64::NAN; // row 1 goes NaN
        a[17] = f64::INFINITY; // also row 1
        a[18] = 0.0; // row 2 skips b row 0 → its col-4 output stays finite
        a[20] = -0.0; // -0.0 also skips (== 0.0 is true for -0.0)
        b[4] = f64::INFINITY; // b row 0, col 4: rows with a[i][0] ≠ 0 go Inf
        b[33] = f64::NEG_INFINITY; // b row 2, col 7
        b[62] = f64::NAN; // b row 4, col 10
        let want = oracle_matmul(&a, &b, m, k, n);
        assert!(
            want.iter().any(|v| v.is_nan()) && want.iter().any(|v| v.is_infinite()),
            "fixture must actually produce non-finite outputs"
        );
        for backend in backends() {
            let mut got = vec![0.0f64; m * n];
            matmul_into_on(backend, &mut got, &a, &b, m, k, n);
            assert_bits_eq(
                &got,
                &want,
                &format!("non-finite matmul on {}", backend.name()),
            );
        }
    }

    /// The skip-free first pass must hand a NaN output back to the
    /// skipping re-run: `b` row 520 (inside the second KB block) holds
    /// +∞, −∞ and NaN where rows 2, 5 and 8 have a zero `a`, so only the
    /// skip keeps those rows finite. The re-run must replace the first
    /// pass's outputs over both k-blocks, the last column group through
    /// the overlapping tail tile.
    #[test]
    fn matmul_rerun_skips_zero_times_non_finite_across_k_blocks() {
        let (m, k, n) = (9usize, 600usize, 13usize);
        let mut a = lcg_vec(m * k, 0x51);
        for (idx, v) in a.iter_mut().enumerate() {
            if (idx / k + idx % k) % 3 == 0 {
                *v = 0.0;
            }
        }
        let mut b = lcg_vec(k * n, 0x52);
        b[520 * n + 3] = f64::INFINITY;
        b[520 * n + 10] = f64::NEG_INFINITY;
        b[520 * n + 12] = f64::NAN;
        let want = oracle_matmul(&a, &b, m, k, n);
        for i in 0..m {
            let skips = a[i * k + 520] == 0.0;
            assert_eq!(skips, i % 3 == 2, "fixture: which rows skip k = 520");
            for j in [3, 10, 12] {
                assert_eq!(
                    want[i * n + j].is_finite(),
                    skips,
                    "fixture row {i} col {j}"
                );
            }
        }
        for backend in backends() {
            let mut got = vec![0.0f64; m * n];
            matmul_into_on(backend, &mut got, &a, &b, m, k, n);
            assert_bits_eq(&got, &want, &format!("re-run matmul on {}", backend.name()));
        }
    }

    /// A left row of only ±0.0 gives +0.0 bits whatever the signs in `b`:
    /// the skip-free pass adds its ±0 products to a chain that starts at
    /// +0.0 and stays there. Rows 1 (in a 4-row block) and 4 (the
    /// remainder row) are the zero rows; `b` mixes signs and −0.0.
    #[test]
    fn matmul_signed_zero_rows_give_positive_zero() {
        let (m, k, n) = (5usize, 7usize, 13usize);
        let mut a = lcg_vec(m * k, 0x61);
        for i in [1, 4] {
            for (t, v) in a[i * k..(i + 1) * k].iter_mut().enumerate() {
                *v = if t % 2 == 0 { -0.0 } else { 0.0 };
            }
        }
        let mut b = lcg_vec(k * n, 0x62);
        b[2 * n + 5] = -0.0;
        b[3 * n + 11] = -0.0;
        let want = oracle_matmul(&a, &b, m, k, n);
        for backend in backends() {
            let mut got = vec![0.0f64; m * n];
            matmul_into_on(backend, &mut got, &a, &b, m, k, n);
            assert_bits_eq(&got, &want, &format!("±0 rows on {}", backend.name()));
            for i in [1, 4] {
                for &v in &got[i * n..(i + 1) * n] {
                    assert_eq!(
                        v.to_bits(),
                        0.0f64.to_bits(),
                        "row {i} on {}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dot4_rows_matches_single_chains() {
        for k in [0usize, 1, 2, 3, 4, 5, 8, 17, 64] {
            let a = lcg_vec(k, 1000 + k as u64);
            let rows: Vec<Vec<f64>> = (0..4).map(|r| lcg_vec(k, 2000 + r)).collect();
            let want: [f64; 4] = std::array::from_fn(|r| dot(&a, &rows[r]));
            for backend in backends() {
                let got = dot4_rows_on(backend, &a, &rows[0], &rows[1], &rows[2], &rows[3]);
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "dot4_rows k={k} lane {i} on {}",
                        backend.name()
                    );
                }
            }
        }
    }

    /// Each elementwise kernel equals its per-element expression, bit
    /// for bit, whatever width the compiler vectorised it to.
    #[test]
    fn elementwise_kernels_bit_identical_across_lengths_and_specials() {
        // Lengths 0–13 straddle every 2- and 4-lane width and 33 passes
        // an 8- or 16-element unroll; the payload carries NaN, ±Inf, ±0.0
        // and subnormals.
        for len in (0usize..=13).chain([33]) {
            let mut x = lcg_vec(len, 400 + len as u64);
            let mut base = lcg_vec(len, 500 + len as u64);
            if len >= 4 {
                x[0] = f64::NAN;
                x[1] = f64::INFINITY;
                x[2] = -0.0;
                x[3] = f64::MIN_POSITIVE / 2.0;
                base[1] = f64::NEG_INFINITY;
            }
            let expect = |f: &dyn Fn(f64, f64) -> f64| -> Vec<f64> {
                base.iter().zip(&x).map(|(&a, &v)| f(a, v)).collect()
            };

            let mut got = base.clone();
            axpy(&mut got, 1.7, &x);
            let want = expect(&|a, v| a + 1.7 * v);
            assert_bits_eq(&got, &want, &format!("axpy len={len}"));

            let mut got = base.clone();
            axpy_scaled(&mut got, -0.3, &x, 0.25);
            let want = expect(&|a, v| a + -0.3 * v * 0.25);
            assert_bits_eq(&got, &want, &format!("axpy_scaled len={len}"));

            let mut got = base.clone();
            add_assign(&mut got, &x);
            let want = expect(&|a, v| a + v);
            assert_bits_eq(&got, &want, &format!("add_assign len={len}"));

            let mut got = x.clone();
            scale_assign(&mut got, -2.5);
            let want = expect(&|_, v| v * -2.5);
            assert_bits_eq(&got, &want, &format!("scale_assign len={len}"));
        }
    }

    #[test]
    fn axpy_rows_matches_one_axpy_per_row() {
        // Widths straddle the 16-, 8- and 4-column register blocks and
        // the per-row tail; the rows carry NaN, ±Inf, ±0.0 and
        // subnormals.
        for len in [0usize, 1, 2, 3, 4, 5, 8, 12, 15, 16, 17, 21, 24, 29, 32, 35] {
            for count in [0usize, 1, 3, 6] {
                let rows: Vec<Vec<f64>> = (0..count)
                    .map(|r| {
                        let mut x = lcg_vec(len, 700 + 13 * r as u64 + len as u64);
                        if len >= 4 && r == 1 {
                            x[0] = f64::NAN;
                            x[1] = f64::INFINITY;
                            x[2] = -0.0;
                            x[3] = f64::MIN_POSITIVE / 2.0;
                        }
                        x
                    })
                    .collect();
                let w = lcg_vec(count, 900 + count as u64);
                let base = lcg_vec(len, 800 + len as u64);
                let mut want = base.clone();
                for (x, &s) in rows.iter().zip(&w) {
                    axpy(&mut want, s, x);
                }
                for backend in backends() {
                    let mut got = base.clone();
                    let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
                    axpy_rows_on(backend, &mut got, &w, &rows);
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("axpy_rows len={len} rows={count} on {}", backend.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn ascent_update_matches_clamp_semantics() {
        // Candidates that land below 0, above 1, exactly on the bounds,
        // at -0.0, and at NaN — f64::clamp keeps NaN and -0.0; min/max
        // style clamps would not, so this is the oracle that forbids
        // them.
        // Lane 3: -0.0 + (-0.0·lr) = -0.0 reaches the clamp and must
        // come out as -0.0 (it is not < 0.0).
        let v0 = [0.5, 0.0, 1.0, -0.0, 0.2, 0.9, f64::NAN, 0.3];
        let d = [-100.0, -1.0, 1.0, -0.0, f64::NAN, f64::INFINITY, 0.1, 50.0];
        let lr = 0.01;
        let mut got = v0;
        ascent_update(&mut got, &d, lr);
        assert!(got[4].is_nan() && got[6].is_nan(), "NaN must survive");
        assert_eq!(got[3].to_bits(), (-0.0f64).to_bits(), "-0.0 must survive");
        let want: Vec<f64> = v0
            .iter()
            .zip(&d)
            .map(|(&v, &dv)| (v + dv * lr).clamp(0.0, 1.0))
            .collect();
        assert_bits_eq(&got, &want, "ascent_update");
    }

    #[test]
    fn set_backend_round_trips() {
        let prev = set_backend(Backend::Scalar);
        assert_eq!(active(), Backend::Scalar);
        assert_eq!(set_backend(prev), Backend::Scalar);
        assert_eq!(active(), prev);
    }
}
