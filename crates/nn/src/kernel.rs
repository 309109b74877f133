//! The f64 hot loops: runtime-dispatched SIMD reductions plus plain
//! elementwise loops.
//!
//! Every surrogate query bottoms out in a handful of dense f64 kernels:
//! the blocked matmul, the transposed-B dot products of the backward
//! passes and the GAT attention logits, the attention aggregation, and
//! the elementwise updates of the eq.-1 generative ascent.
//!
//! The reductions — [`matmul_into`], [`dot4_rows`], [`dot_cols_skip_zero`]
//! and [`axpy_rows`] — each have a scalar reference implementation plus
//! `std::arch` AVX2 (x86-64) and NEON (aarch64) paths, selected **once**
//! at startup — mirroring how `CAROL_THREADS` resolves through
//! `par::EngineConfig` — via the [`SIMD_ENV`]
//! (`CAROL_SIMD=auto|scalar`) override so CI can pin the scalar oracle
//! against the dispatched path.
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
//! nothing about the order *across* output elements. The SIMD reduction
//! paths exploit exactly that freedom: each vector lane carries one
//! complete per-element chain (4 independent chains per AVX2 register, 2
//! per NEON register), every multiply and add is a separate
//! correctly-rounded instruction (**never** an FMA, which rounds once
//! where scalar code rounds twice), and the zero-skip test happens on the
//! same broadcast scalar the reference path tests. The result is
//! bitwise-identical to the scalar kernel for every input, including NaN,
//! ±Inf and signed zeros — gated by the bit-oracle tests below (which
//! also pin each elementwise kernel to its per-element expression), the
//! kernel proptests in `tests/properties.rs`, and the full-trajectory
//! SIMD ≡ scalar gate in `tests/determinism.rs`.
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
    /// Force the scalar reference kernels.
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

/// A concrete kernel backend. All backends are bit-identical; the only
/// observable difference is speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Portable scalar reference kernels (the oracle).
    Scalar = 1,
    /// AVX2 f64 kernels (x86-64, runtime-detected).
    Avx2 = 2,
    /// NEON f64 kernels (aarch64, runtime-detected).
    Neon = 3,
}

impl Backend {
    /// Stable lower-case name, recorded into `BENCH_JSON` so every perf
    /// artifact says which path produced it.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }
}

/// Resolves a [`SimdMode`] to a concrete backend against the running
/// CPU.
pub fn resolve(mode: SimdMode) -> Backend {
    match mode {
        SimdMode::Scalar => Backend::Scalar,
        SimdMode::Auto => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Backend::Avx2;
                }
            }
            #[cfg(target_arch = "aarch64")]
            {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    return Backend::Neon;
                }
            }
            Backend::Scalar
        }
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
        2 => Backend::Avx2,
        3 => Backend::Neon,
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

#[cold]
#[inline(never)]
fn unsupported(backend: Backend) -> ! {
    panic!(
        "kernel backend {} is not compiled into this build",
        backend.name()
    )
}

// ---------------------------------------------------------------------------
// matmul: out[i][j] (+)= Σ_k a[i][k]·b[k][j], B in natural k×n layout
// ---------------------------------------------------------------------------

/// k-blocking: a tile-wide stripe of `b` (KB × tile doubles) plus the
/// `a`-row segment stay within L1. Shared by every backend so the
/// partial-sum reload points line up bit-exactly.
const KB: usize = 512;

/// The blocked matmul kernel behind `Matrix::matmul`:
/// `out[i·n + j] = Σ_k a[i·k + k]·b[k·n + j]` with the per-element
/// ascending-`k` chain and ±0.0-only zero-skip documented on
/// `Matrix::matmul`. `out` must be zero-filled on entry; the KB-sized
/// k-blocking spills and reloads its own partial sums through it.
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
        Backend::Scalar => matmul_into_scalar(out, a, b, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected.
        Backend::Avx2 => unsafe { matmul_into_avx2(out, a, b, m, k, n) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch only yields Neon after is_aarch64_feature_detected.
        Backend::Neon => unsafe { matmul_into_neon(out, a, b, m, k, n) },
        other => unsupported(other),
    }
}

fn matmul_into_scalar(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    // 8 f64 accumulators = two AVX2 (or four NEON) registers.
    const TILE: usize = 8;
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        for i in 0..m {
            let a_seg = &a[i * k + k0..i * k + k1];
            let mut j0 = 0;
            while j0 + TILE <= n {
                let mut acc = [0.0f64; TILE];
                if k0 > 0 {
                    acc.copy_from_slice(&out[i * n + j0..i * n + j0 + TILE]);
                }
                for (kk, &av) in a_seg.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_seg = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + TILE];
                    for (s, &bv) in acc.iter_mut().zip(b_seg) {
                        *s += av * bv;
                    }
                }
                out[i * n + j0..i * n + j0 + TILE].copy_from_slice(&acc);
                j0 += TILE;
            }
            if j0 < n {
                matmul_col_tail(out, a, b, i, k0, k1, j0, k, n);
            }
        }
    }
}

/// Scalar remainder columns `[j0, n)` of row `i` for one k-block —
/// shared by every backend so the tail bits come from one code path.
#[inline]
#[allow(clippy::too_many_arguments)]
fn matmul_col_tail(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    i: usize,
    k0: usize,
    k1: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let a_seg = &a[i * k + k0..i * k + k1];
    let acc = &mut out[i * n + j0..(i + 1) * n];
    for (kk, &av) in a_seg.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let b_seg = &b[(k0 + kk) * n + j0..(k0 + kk) * n + n];
        for (s, &bv) in acc.iter_mut().zip(b_seg) {
            *s += av * bv;
        }
    }
}

/// AVX2 microkernel: 4 rows × 8 columns = 8 ymm accumulators in flight,
/// so the 4-cycle `addpd` latency of each per-element chain is hidden by
/// the 7 sibling chains (the scalar TILE loop keeps only one row's 8
/// chains alive and is latency-bound). Per `k` step: two 4-wide loads of
/// `b`'s row shared by all four `a` rows, then per row one broadcast +
/// 2 mul + 2 add — skipped entirely when that row's `a` element is zero,
/// exactly like the scalar kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_into_avx2(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut k0 = 0usize;
    while k0 < k {
        let k1 = (k0 + KB).min(k);
        let mut i = 0usize;
        while i + 4 <= m {
            let mut j0 = 0usize;
            while j0 + 8 <= n {
                let op = out.as_mut_ptr();
                let zero = _mm256_setzero_pd();
                let (mut c00, mut c01) = (zero, zero);
                let (mut c10, mut c11) = (zero, zero);
                let (mut c20, mut c21) = (zero, zero);
                let (mut c30, mut c31) = (zero, zero);
                if k0 > 0 {
                    c00 = _mm256_loadu_pd(op.add(i * n + j0));
                    c01 = _mm256_loadu_pd(op.add(i * n + j0 + 4));
                    c10 = _mm256_loadu_pd(op.add((i + 1) * n + j0));
                    c11 = _mm256_loadu_pd(op.add((i + 1) * n + j0 + 4));
                    c20 = _mm256_loadu_pd(op.add((i + 2) * n + j0));
                    c21 = _mm256_loadu_pd(op.add((i + 2) * n + j0 + 4));
                    c30 = _mm256_loadu_pd(op.add((i + 3) * n + j0));
                    c31 = _mm256_loadu_pd(op.add((i + 3) * n + j0 + 4));
                }
                for kk in k0..k1 {
                    let brow = bp.add(kk * n + j0);
                    let b0 = _mm256_loadu_pd(brow);
                    let b1 = _mm256_loadu_pd(brow.add(4));
                    let a0 = *ap.add(i * k + kk);
                    if a0 != 0.0 {
                        let v = _mm256_set1_pd(a0);
                        c00 = _mm256_add_pd(c00, _mm256_mul_pd(v, b0));
                        c01 = _mm256_add_pd(c01, _mm256_mul_pd(v, b1));
                    }
                    let a1 = *ap.add((i + 1) * k + kk);
                    if a1 != 0.0 {
                        let v = _mm256_set1_pd(a1);
                        c10 = _mm256_add_pd(c10, _mm256_mul_pd(v, b0));
                        c11 = _mm256_add_pd(c11, _mm256_mul_pd(v, b1));
                    }
                    let a2 = *ap.add((i + 2) * k + kk);
                    if a2 != 0.0 {
                        let v = _mm256_set1_pd(a2);
                        c20 = _mm256_add_pd(c20, _mm256_mul_pd(v, b0));
                        c21 = _mm256_add_pd(c21, _mm256_mul_pd(v, b1));
                    }
                    let a3 = *ap.add((i + 3) * k + kk);
                    if a3 != 0.0 {
                        let v = _mm256_set1_pd(a3);
                        c30 = _mm256_add_pd(c30, _mm256_mul_pd(v, b0));
                        c31 = _mm256_add_pd(c31, _mm256_mul_pd(v, b1));
                    }
                }
                _mm256_storeu_pd(op.add(i * n + j0), c00);
                _mm256_storeu_pd(op.add(i * n + j0 + 4), c01);
                _mm256_storeu_pd(op.add((i + 1) * n + j0), c10);
                _mm256_storeu_pd(op.add((i + 1) * n + j0 + 4), c11);
                _mm256_storeu_pd(op.add((i + 2) * n + j0), c20);
                _mm256_storeu_pd(op.add((i + 2) * n + j0 + 4), c21);
                _mm256_storeu_pd(op.add((i + 3) * n + j0), c30);
                _mm256_storeu_pd(op.add((i + 3) * n + j0 + 4), c31);
                j0 += 8;
            }
            if j0 < n {
                for r in 0..4 {
                    matmul_col_tail(out, a, b, i + r, k0, k1, j0, k, n);
                }
            }
            i += 4;
        }
        while i < m {
            let mut j0 = 0usize;
            while j0 + 8 <= n {
                let op = out.as_mut_ptr();
                let (mut s0, mut s1) = if k0 > 0 {
                    (
                        _mm256_loadu_pd(op.add(i * n + j0)),
                        _mm256_loadu_pd(op.add(i * n + j0 + 4)),
                    )
                } else {
                    (_mm256_setzero_pd(), _mm256_setzero_pd())
                };
                for kk in k0..k1 {
                    let av = *ap.add(i * k + kk);
                    if av == 0.0 {
                        continue;
                    }
                    let v = _mm256_set1_pd(av);
                    let brow = bp.add(kk * n + j0);
                    s0 = _mm256_add_pd(s0, _mm256_mul_pd(v, _mm256_loadu_pd(brow)));
                    s1 = _mm256_add_pd(s1, _mm256_mul_pd(v, _mm256_loadu_pd(brow.add(4))));
                }
                _mm256_storeu_pd(op.add(i * n + j0), s0);
                _mm256_storeu_pd(op.add(i * n + j0 + 4), s1);
                j0 += 8;
            }
            if j0 < n {
                matmul_col_tail(out, a, b, i, k0, k1, j0, k, n);
            }
            i += 1;
        }
        k0 = k1;
    }
}

/// NEON mirror of the AVX2 microkernel at half vector width: 4 rows ×
/// 4 columns = 8 two-lane accumulators, two shared loads of `b` per `k`
/// step, separate `vmulq`/`vaddq` (never a fused `vfmaq`).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn matmul_into_neon(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    use std::arch::aarch64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut k0 = 0usize;
    while k0 < k {
        let k1 = (k0 + KB).min(k);
        let mut i = 0usize;
        while i + 4 <= m {
            let mut j0 = 0usize;
            while j0 + 4 <= n {
                let op = out.as_mut_ptr();
                let zero = vdupq_n_f64(0.0);
                let (mut c00, mut c01) = (zero, zero);
                let (mut c10, mut c11) = (zero, zero);
                let (mut c20, mut c21) = (zero, zero);
                let (mut c30, mut c31) = (zero, zero);
                if k0 > 0 {
                    c00 = vld1q_f64(op.add(i * n + j0));
                    c01 = vld1q_f64(op.add(i * n + j0 + 2));
                    c10 = vld1q_f64(op.add((i + 1) * n + j0));
                    c11 = vld1q_f64(op.add((i + 1) * n + j0 + 2));
                    c20 = vld1q_f64(op.add((i + 2) * n + j0));
                    c21 = vld1q_f64(op.add((i + 2) * n + j0 + 2));
                    c30 = vld1q_f64(op.add((i + 3) * n + j0));
                    c31 = vld1q_f64(op.add((i + 3) * n + j0 + 2));
                }
                for kk in k0..k1 {
                    let brow = bp.add(kk * n + j0);
                    let b0 = vld1q_f64(brow);
                    let b1 = vld1q_f64(brow.add(2));
                    let a0 = *ap.add(i * k + kk);
                    if a0 != 0.0 {
                        let v = vdupq_n_f64(a0);
                        c00 = vaddq_f64(c00, vmulq_f64(v, b0));
                        c01 = vaddq_f64(c01, vmulq_f64(v, b1));
                    }
                    let a1 = *ap.add((i + 1) * k + kk);
                    if a1 != 0.0 {
                        let v = vdupq_n_f64(a1);
                        c10 = vaddq_f64(c10, vmulq_f64(v, b0));
                        c11 = vaddq_f64(c11, vmulq_f64(v, b1));
                    }
                    let a2 = *ap.add((i + 2) * k + kk);
                    if a2 != 0.0 {
                        let v = vdupq_n_f64(a2);
                        c20 = vaddq_f64(c20, vmulq_f64(v, b0));
                        c21 = vaddq_f64(c21, vmulq_f64(v, b1));
                    }
                    let a3 = *ap.add((i + 3) * k + kk);
                    if a3 != 0.0 {
                        let v = vdupq_n_f64(a3);
                        c30 = vaddq_f64(c30, vmulq_f64(v, b0));
                        c31 = vaddq_f64(c31, vmulq_f64(v, b1));
                    }
                }
                vst1q_f64(op.add(i * n + j0), c00);
                vst1q_f64(op.add(i * n + j0 + 2), c01);
                vst1q_f64(op.add((i + 1) * n + j0), c10);
                vst1q_f64(op.add((i + 1) * n + j0 + 2), c11);
                vst1q_f64(op.add((i + 2) * n + j0), c20);
                vst1q_f64(op.add((i + 2) * n + j0 + 2), c21);
                vst1q_f64(op.add((i + 3) * n + j0), c30);
                vst1q_f64(op.add((i + 3) * n + j0 + 2), c31);
                j0 += 4;
            }
            if j0 < n {
                for r in 0..4 {
                    matmul_col_tail(out, a, b, i + r, k0, k1, j0, k, n);
                }
            }
            i += 4;
        }
        while i < m {
            let mut j0 = 0usize;
            while j0 + 4 <= n {
                let op = out.as_mut_ptr();
                let (mut s0, mut s1) = if k0 > 0 {
                    (
                        vld1q_f64(op.add(i * n + j0)),
                        vld1q_f64(op.add(i * n + j0 + 2)),
                    )
                } else {
                    (vdupq_n_f64(0.0), vdupq_n_f64(0.0))
                };
                for kk in k0..k1 {
                    let av = *ap.add(i * k + kk);
                    if av == 0.0 {
                        continue;
                    }
                    let v = vdupq_n_f64(av);
                    let brow = bp.add(kk * n + j0);
                    s0 = vaddq_f64(s0, vmulq_f64(v, vld1q_f64(brow)));
                    s1 = vaddq_f64(s1, vmulq_f64(v, vld1q_f64(brow.add(2))));
                }
                vst1q_f64(op.add(i * n + j0), s0);
                vst1q_f64(op.add(i * n + j0 + 2), s1);
                j0 += 4;
            }
            if j0 < n {
                matmul_col_tail(out, a, b, i, k0, k1, j0, k, n);
            }
            i += 1;
        }
        k0 = k1;
    }
}

// ---------------------------------------------------------------------------
// Transposed-B dot products (backward passes, GAT attention logits)
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
        Backend::Scalar => {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for t in 0..k {
                let av = a[t];
                s0 += av * b0[t];
                s1 += av * b1[t];
                s2 += av * b2[t];
                s3 += av * b3[t];
            }
            [s0, s1, s2, s3]
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected.
        Backend::Avx2 => unsafe {
            dot4_ptrs_avx2::<false>(a, [b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr()])
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch only yields Neon after is_aarch64_feature_detected.
        Backend::Neon => unsafe {
            let lo = dot2_ptrs_neon::<false>(a, [b0.as_ptr(), b1.as_ptr()]);
            let hi = dot2_ptrs_neon::<false>(a, [b2.as_ptr(), b3.as_ptr()]);
            [lo[0], lo[1], hi[0], hi[1]]
        },
        other => unsupported(other),
    }
}

/// All `out.len()` zero-skipping dot products of one left row against a
/// transposed right operand: `out[j] = Σ_{a[t]≠0} a[t]·bt[j·k + t]`
/// where `k = a.len()` — the whole inner loop of
/// `Matrix::matmul_transpose_b`'s small-m path. `bt` holds `out.len()`
/// contiguous rows of length `k` (i.e. Bᵀ row-major).
pub fn dot_cols_skip_zero(a: &[f64], bt: &[f64], out: &mut [f64]) {
    dot_cols_skip_zero_on(active(), a, bt, out)
}

/// [`dot_cols_skip_zero`] pinned to an explicit backend.
#[doc(hidden)]
pub fn dot_cols_skip_zero_on(backend: Backend, a: &[f64], bt: &[f64], out: &mut [f64]) {
    let k = a.len();
    assert_eq!(bt.len(), out.len() * k, "dot_cols operand lengths");
    let n = out.len();
    match backend {
        Backend::Scalar => {
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &bt[j * k..(j + 1) * k];
                let b1 = &bt[(j + 1) * k..(j + 2) * k];
                let b2 = &bt[(j + 2) * k..(j + 3) * k];
                let b3 = &bt[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for (idx, &av) in a.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    s0 += av * b0[idx];
                    s1 += av * b1[idx];
                    s2 += av * b2[idx];
                    s3 += av * b3[idx];
                }
                out[j] = s0;
                out[j + 1] = s1;
                out[j + 2] = s2;
                out[j + 3] = s3;
                j += 4;
            }
            while j < n {
                out[j] = dot_skip_zero_scalar(a, &bt[j * k..(j + 1) * k]);
                j += 1;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected.
        Backend::Avx2 => unsafe {
            let bp = bt.as_ptr();
            let mut j = 0;
            while j + 4 <= n {
                let base = bp.add(j * k);
                let res = dot4_ptrs_avx2::<true>(
                    a,
                    [base, base.add(k), base.add(2 * k), base.add(3 * k)],
                );
                out[j..j + 4].copy_from_slice(&res);
                j += 4;
            }
            while j < n {
                out[j] = dot_skip_zero_scalar(a, &bt[j * k..(j + 1) * k]);
                j += 1;
            }
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch only yields Neon after is_aarch64_feature_detected.
        Backend::Neon => unsafe {
            let bp = bt.as_ptr();
            let mut j = 0;
            while j + 2 <= n {
                let base = bp.add(j * k);
                let res = dot2_ptrs_neon::<true>(a, [base, base.add(k)]);
                out[j..j + 2].copy_from_slice(&res);
                j += 2;
            }
            while j < n {
                out[j] = dot_skip_zero_scalar(a, &bt[j * k..(j + 1) * k]);
                j += 1;
            }
        },
        other => unsupported(other),
    }
}

#[inline]
fn dot_skip_zero_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&av, &bv) in a.iter().zip(b) {
        if av == 0.0 {
            continue;
        }
        acc += av * bv;
    }
    acc
}

/// Four lane-parallel dot chains via a 4×4 in-register transpose: four
/// 4-wide loads of the `b` rows are shuffled into per-`t` column vectors
/// `(b0[t], b1[t], b2[t], b3[t])`, then each `t` issues one broadcast +
/// mul + add, keeping every lane's chain ascending-`t`. The zero test
/// (`SKIP`) happens on the broadcast scalar, so skipping is
/// lane-uniform — identical to the scalar kernels.
///
/// # Safety
///
/// Caller guarantees AVX2 and that each pointer addresses `a.len()`
/// readable doubles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot4_ptrs_avx2<const SKIP: bool>(a: &[f64], b: [*const f64; 4]) -> [f64; 4] {
    use std::arch::x86_64::*;
    let k = a.len();
    let mut acc = _mm256_setzero_pd();
    let mut t = 0usize;
    while t + 4 <= k {
        let r0 = _mm256_loadu_pd(b[0].add(t));
        let r1 = _mm256_loadu_pd(b[1].add(t));
        let r2 = _mm256_loadu_pd(b[2].add(t));
        let r3 = _mm256_loadu_pd(b[3].add(t));
        let t0 = _mm256_unpacklo_pd(r0, r1);
        let t1 = _mm256_unpackhi_pd(r0, r1);
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        let c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
        let c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
        let c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
        let c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
        let a0 = *a.get_unchecked(t);
        if !SKIP || a0 != 0.0 {
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a0), c0));
        }
        let a1 = *a.get_unchecked(t + 1);
        if !SKIP || a1 != 0.0 {
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a1), c1));
        }
        let a2 = *a.get_unchecked(t + 2);
        if !SKIP || a2 != 0.0 {
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a2), c2));
        }
        let a3 = *a.get_unchecked(t + 3);
        if !SKIP || a3 != 0.0 {
            acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a3), c3));
        }
        t += 4;
    }
    let mut res = [0.0f64; 4];
    _mm256_storeu_pd(res.as_mut_ptr(), acc);
    while t < k {
        let av = *a.get_unchecked(t);
        if !SKIP || av != 0.0 {
            res[0] += av * *b[0].add(t);
            res[1] += av * *b[1].add(t);
            res[2] += av * *b[2].add(t);
            res[3] += av * *b[3].add(t);
        }
        t += 1;
    }
    res
}

/// NEON half-width sibling of [`dot4_ptrs_avx2`]: two lanes per
/// register, transposed with `vtrn1q`/`vtrn2q`.
///
/// # Safety
///
/// Caller guarantees NEON and that each pointer addresses `a.len()`
/// readable doubles.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot2_ptrs_neon<const SKIP: bool>(a: &[f64], b: [*const f64; 2]) -> [f64; 2] {
    use std::arch::aarch64::*;
    let k = a.len();
    let mut acc = vdupq_n_f64(0.0);
    let mut t = 0usize;
    while t + 2 <= k {
        let r0 = vld1q_f64(b[0].add(t));
        let r1 = vld1q_f64(b[1].add(t));
        let c0 = vtrn1q_f64(r0, r1);
        let c1 = vtrn2q_f64(r0, r1);
        let a0 = *a.get_unchecked(t);
        if !SKIP || a0 != 0.0 {
            acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(a0), c0));
        }
        let a1 = *a.get_unchecked(t + 1);
        if !SKIP || a1 != 0.0 {
            acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(a1), c1));
        }
        t += 2;
    }
    let mut res = [0.0f64; 2];
    vst1q_f64(res.as_mut_ptr(), acc);
    while t < k {
        let av = *a.get_unchecked(t);
        if !SKIP || av != 0.0 {
            res[0] += av * *b[0].add(t);
            res[1] += av * *b[1].add(t);
        }
        t += 1;
    }
    res
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
/// The AVX2 path keeps each block of 16 columns in registers across all
/// the rows instead of loading and storing it once per row; the other
/// backends run one [`axpy`] per row. The GAT attention aggregation
/// `Σ_j α_ij h_j`.
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
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected;
        // every row was checked to be as long as `acc`.
        Backend::Avx2 => unsafe { axpy_rows_avx2(acc, w, rows) },
        _ => {
            for (&s, x) in w.iter().zip(rows) {
                axpy(acc, s, x);
            }
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2, and every row must be as long as `acc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_rows_avx2(acc: &mut [f64], w: &[f64], rows: &[&[f64]]) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let ap = acc.as_mut_ptr();
    let mut c = 0usize;
    while c + 16 <= n {
        let mut s = [
            _mm256_loadu_pd(ap.add(c)),
            _mm256_loadu_pd(ap.add(c + 4)),
            _mm256_loadu_pd(ap.add(c + 8)),
            _mm256_loadu_pd(ap.add(c + 12)),
        ];
        for (&wt, x) in w.iter().zip(rows) {
            let xp = x.as_ptr().add(c);
            let vw = _mm256_set1_pd(wt);
            for (k, sk) in s.iter_mut().enumerate() {
                *sk = _mm256_add_pd(*sk, _mm256_mul_pd(vw, _mm256_loadu_pd(xp.add(4 * k))));
            }
        }
        for (k, sk) in s.iter().enumerate() {
            _mm256_storeu_pd(ap.add(c + 4 * k), *sk);
        }
        c += 16;
    }
    while c + 4 <= n {
        let mut s = _mm256_loadu_pd(ap.add(c));
        for (&wt, x) in w.iter().zip(rows) {
            let x = _mm256_loadu_pd(x.as_ptr().add(c));
            s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(wt), x));
        }
        _mm256_storeu_pd(ap.add(c), s);
        c += 4;
    }
    while c < n {
        for (&wt, x) in w.iter().zip(rows) {
            *ap.add(c) += wt * *x.as_ptr().add(c);
        }
        c += 1;
    }
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
        let mut v = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Backend::Avx2);
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            v.push(Backend::Neon);
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
    /// AVX2 tile (and its 4-col remainder), row counts straddling the
    /// 4-row microkernel, and k past the KB=512 block boundary.
    #[test]
    fn matmul_backends_bit_identical_across_awkward_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 1),
            (2, 1, 9),
            (3, 5, 2),
            (4, 16, 8),
            (5, 13, 12),
            (6, 33, 7),
            (7, 64, 11),
            (16, 64, 64),
            (9, 600, 9),
        ] {
            let a = lcg_vec(m * k, 0x11 ^ ((m as u64) << 24) ^ ((k as u64) << 8));
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

    #[test]
    fn dot4_rows_matches_single_chains() {
        for k in [0usize, 1, 2, 3, 4, 5, 8, 17, 64] {
            let a = lcg_vec(k, 1000 + k as u64);
            let rows: Vec<Vec<f64>> = (0..4).map(|r| lcg_vec(k, 2000 + r)).collect();
            let want = [
                dot(&a, &rows[0]),
                dot(&a, &rows[1]),
                dot(&a, &rows[2]),
                dot(&a, &rows[3]),
            ];
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

    #[test]
    fn dot_cols_skip_zero_matches_scalar_for_every_width() {
        for k in [1usize, 3, 4, 7, 16, 23] {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16] {
                let mut a = lcg_vec(k, 31 * k as u64 + 7);
                if k > 2 {
                    a[2] = 0.0; // exercise the skip
                }
                let bt = lcg_vec(n * k, 17 * n as u64 + 3);
                let mut want = vec![0.0f64; n];
                dot_cols_skip_zero_on(Backend::Scalar, &a, &bt, &mut want);
                for backend in backends() {
                    let mut got = vec![0.0f64; n];
                    dot_cols_skip_zero_on(backend, &a, &bt, &mut got);
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("dot_cols k={k} n={n} on {}", backend.name()),
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
        // Widths straddle the 16-column register blocks and the 4- and
        // 2-lane remainders; the rows carry NaN, ±Inf, ±0.0 and
        // subnormals.
        for len in [0usize, 1, 2, 3, 4, 5, 15, 16, 17, 21, 32, 35] {
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
