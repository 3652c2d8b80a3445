//! Runtime-dispatched SIMD kernel layer for the tensor hot paths.
//!
//! The control plane — the `SLIME_SIMD` tri-state gate, the one-time
//! AVX2+FMA probe, and the [`Backend`] enum — lives in `slime_fft::simd`
//! (the dependency leaf both SIMD-bearing crates share) and is re-exported
//! here; `set_enabled(false)` (the CLI's `--no-simd`) flips the FFT and
//! tensor kernels together.
//!
//! Kernels dispatch through a cached table of function pointers:
//! [`kernels`] resolves the active backend with one relaxed atomic load and
//! returns a `&'static` [`Kernels`] whose entries point at either the
//! portable [`scalar`] implementations (bitwise identical to the pre-SIMD
//! loops) or the [`avx2`] implementations (8-wide FMA bodies with scalar
//! remainders). Hot loops hoist the table once per call — e.g. the matmul
//! row kernels fetch it before the `k` loop — so the per-element cost of
//! dispatch is zero.
//!
//! # Determinism
//!
//! Within a backend, every kernel's result is a pure function of its input
//! values and slice lengths: tree reductions have a fixed lane structure,
//! remainder handling depends only on `len % 8`, and nothing observes thread
//! count or pool state. The threads×pool bitwise guarantee therefore holds
//! under either backend, and `SLIME_SIMD=0` reproduces pre-SIMD results
//! bitwise (`crates/core/tests/determinism.rs` enforces both).

pub use slime_fft::simd::{avx2_fma_detected, backend, enabled, fuse, set_enabled, Backend};

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod scalar;

/// Precomputed Adam scalars for one [`Kernels::adam_update`] call.
#[derive(Clone, Copy, Debug)]
pub struct AdamCoeffs {
    /// First-moment EMA decay.
    pub b1: f32,
    /// Second-moment EMA decay.
    pub b2: f32,
    /// First-moment bias correction `1 - b1^t`.
    pub bc1: f32,
    /// Second-moment bias correction `1 - b2^t`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub wd: f32,
}

/// Dispatch table: one function pointer per vectorized kernel. See the
/// [`scalar`] module for the contract each entry implements.
pub struct Kernels {
    /// `dst += a * src`.
    pub saxpy: fn(&mut [f32], &[f32], f32),
    /// Four-row fused saxpy (matmul register block).
    #[allow(clippy::type_complexity)] // the 4-row register-block signature
    pub saxpy4: fn(&mut [f32], &mut [f32], &mut [f32], &mut [f32], &[f32], f32, f32, f32, f32),
    /// Four-row matmul block over the whole `k` loop
    /// (`o_r += Σ_kk a_r[kk] * b[kk]-row`); the AVX2 implementation keeps
    /// the output column tile in registers across `k` instead of touching
    /// memory once per `kk` like repeated [`Kernels::saxpy4`] calls would.
    #[allow(clippy::type_complexity)] // the 4-row x k-loop block signature
    pub matmul4: fn(
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        &[f32],
        usize,
    ),
    /// `out = a + b`.
    pub add: fn(&[f32], &[f32], &mut [f32]),
    /// `out = a - b`.
    pub sub: fn(&[f32], &[f32], &mut [f32]),
    /// `out = a * b`.
    pub mul: fn(&[f32], &[f32], &mut [f32]),
    /// `out = src * c`.
    pub scale: fn(&[f32], f32, &mut [f32]),
    /// `dst *= c`.
    pub scale_inplace: fn(&mut [f32], f32),
    /// `out = src - c`.
    pub sub_scalar: fn(&[f32], f32, &mut [f32]),
    /// `out = gelu(src)`.
    pub gelu_fwd: fn(&[f32], &mut [f32]),
    /// `out = g * gelu'(x)`.
    pub gelu_bwd: fn(&[f32], &[f32], &mut [f32]),
    /// Row maximum.
    pub row_max: fn(&[f32]) -> f32,
    /// `out = exp(row - max)`, returns the sum.
    pub exp_shift_sum: fn(&[f32], f32, &mut [f32]) -> f32,
    /// Dot product.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// `out = y * (g - dot)`.
    pub softmax_bwd_row: fn(&[f32], &[f32], f32, &mut [f32]),
    /// Per-row `(mean, biased variance)`.
    pub mean_var: fn(&[f32]) -> (f32, f32),
    /// Layer-norm normalize + affine row loop.
    #[allow(clippy::type_complexity)] // the layer-norm row contract
    pub layernorm_affine: fn(&[f32], f32, f32, &[f32], &[f32], &mut [f32], &mut [f32]),
    /// Fused Adam step for one parameter buffer.
    pub adam_update: fn(&mut [f32], &mut [f32], &mut [f32], &[f32], &AdamCoeffs),
    /// Fused bias + GELU epilogue over one matmul output row
    /// (`pre += bias; out = gelu(pre)` in one pass).
    pub bias_gelu: fn(&mut [f32], &[f32], &mut [f32]),
    /// Fused backward of the bias+GELU epilogue
    /// (`dpre = g * gelu'(z); db += dpre` per row).
    pub bias_gelu_bwd: fn(&[f32], &[f32], &mut [f32], &mut [f32]),
    /// Fused residual add + layer-norm reductions
    /// (`sum = a + b`, returns the row's `(mean, var)` in the same pass).
    pub add_mean_var: fn(&[f32], &[f32], &mut [f32]) -> (f32, f32),
    /// Fused filter×gate mix (`out = yd * (1-g) + ys * g`, no FMA).
    pub gate_mix: fn(&[f32], &[f32], f32, f32, &mut [f32]),
    /// Fused backward of the filter×gate mix (writes both branch grads,
    /// returns the two sequential gate reductions).
    #[allow(clippy::type_complexity)] // the fused gate backward contract
    pub gate_mix_bwd: fn(&[f32], &[f32], &[f32], f32, f32, &mut [f32], &mut [f32]) -> (f32, f32),
    /// Widening int8 dot product (exact `i32` accumulate). Unlike the float
    /// entries this one is bitwise identical across backends — integer
    /// addition is associative — so quantized scores never depend on the
    /// `SLIME_SIMD` knob.
    pub dot_i8: fn(&[i8], &[i8]) -> i32,
    /// Counter-based dropout apply (`(seed, first, keep, scale, src, out)`,
    /// `out[i] = src[i] * mask(seed, first + i)`): a branchless per-index
    /// hash replaces the serial draw-per-element RNG walk on the fused fast
    /// path, and `first` lets chunked calls reproduce one whole call.
    /// Integer hash + exact 24-bit float conversion, so like
    /// [`Kernels::dot_i8`] the mask is bitwise identical across backends.
    pub dropout_mask: fn(u64, usize, f32, f32, &[f32], &mut [f32]),
}

static SCALAR_KERNELS: Kernels = Kernels {
    saxpy: scalar::saxpy,
    saxpy4: scalar::saxpy4,
    matmul4: scalar::matmul4,
    add: scalar::add,
    sub: scalar::sub,
    mul: scalar::mul,
    scale: scalar::scale,
    scale_inplace: scalar::scale_inplace,
    sub_scalar: scalar::sub_scalar,
    gelu_fwd: scalar::gelu_fwd,
    gelu_bwd: scalar::gelu_bwd,
    row_max: scalar::row_max,
    exp_shift_sum: scalar::exp_shift_sum,
    dot: scalar::dot,
    softmax_bwd_row: scalar::softmax_bwd_row,
    mean_var: scalar::mean_var,
    layernorm_affine: scalar::layernorm_affine,
    adam_update: scalar::adam_update,
    bias_gelu: scalar::bias_gelu,
    bias_gelu_bwd: scalar::bias_gelu_bwd,
    add_mean_var: scalar::add_mean_var,
    gate_mix: scalar::gate_mix,
    gate_mix_bwd: scalar::gate_mix_bwd,
    dot_i8: scalar::dot_i8,
    dropout_mask: scalar::dropout_mask,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    saxpy: avx2::saxpy,
    saxpy4: avx2::saxpy4,
    matmul4: avx2::matmul4,
    add: avx2::add,
    sub: avx2::sub,
    mul: avx2::mul,
    scale: avx2::scale,
    scale_inplace: avx2::scale_inplace,
    sub_scalar: avx2::sub_scalar,
    gelu_fwd: avx2::gelu_fwd,
    gelu_bwd: avx2::gelu_bwd,
    row_max: avx2::row_max,
    exp_shift_sum: avx2::exp_shift_sum,
    dot: avx2::dot,
    softmax_bwd_row: avx2::softmax_bwd_row,
    mean_var: avx2::mean_var,
    layernorm_affine: avx2::layernorm_affine,
    adam_update: avx2::adam_update,
    bias_gelu: avx2::bias_gelu,
    bias_gelu_bwd: avx2::bias_gelu_bwd,
    add_mean_var: avx2::add_mean_var,
    gate_mix: avx2::gate_mix,
    gate_mix_bwd: avx2::gate_mix_bwd,
    dot_i8: avx2::dot_i8,
    dropout_mask: avx2::dropout_mask,
};

/// The dispatch table for the currently active backend. One relaxed atomic
/// load; call once per op and reuse across the op's inner loops.
#[inline]
pub fn kernels() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        return &AVX2_KERNELS;
    }
    &SCALAR_KERNELS
}

/// The table for an explicit backend — parity tests and the `simd_sweep`
/// bench compare `kernels_for(Scalar)` against the dispatched table.
pub fn kernels_for(backend: Backend) -> &'static Kernels {
    match backend {
        Backend::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => &AVX2_KERNELS,
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => &SCALAR_KERNELS,
    }
}
