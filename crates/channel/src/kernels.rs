//! Batched per-α SINR kernels over structure-of-arrays slices.
//!
//! Every engine tier bottoms out in the same per-pair expression:
//! `gain = P / pow_alpha(d²(u, v), α)`. The scalar [`pow_alpha`](crate::pow_alpha) dispatches
//! on `α` per call — branch-predictable, but the branch (and the AoS
//! `Point` loads around it) keep the autovectorizer out of the loop. This
//! module hoists the dispatch *outside* the loop: [`AlphaClass::of`]
//! classifies the exponent once, and each batch entry point monomorphizes
//! its inner loop per class through the sealed [`AlphaKernel`] trait, so
//! the α = 2/3/4/6 fast paths compile to branch-free straight-line f64
//! arithmetic over contiguous slices.
//!
//! # The summation-order contract
//!
//! The batched paths are **bit-identical** to the scalar ones, not merely
//! close (DESIGN.md §15):
//!
//! * each element of a gain batch is computed by the *same expression* as
//!   the scalar path — same `dx = x_u − x_v` subtraction order, same
//!   `pow_alpha` fast-path arithmetic, same single division (for the
//!   generic class, `α·0.5` is computed once, but multiplying by 0.5 is
//!   exact in IEEE-754, so `powf` sees identical arguments);
//! * downstream consumers fold the gain scratch **in slice order**
//!   ([`fold_scan`]), reproducing the canonical `total += sig` /
//!   first-strict-max accumulation of `scan_transmitters` add for add.
//!
//! The one class outside this contract is the crate-private bounded
//! generic-α kernel (`AlphaBounded`): a vectorizable `exp2(h·log₂ x)`
//! within δ = 2⁻⁴⁰ of `powf`, declared through [`AlphaKernel::REL_ERR`].
//! It serves only the tile-tree engine's certified paths, which widen by
//! that error (DESIGN.md §10.2); no path that defines semantics uses it.
//!
//! No SIMD reassociation of the *fold* is attempted — a single listener's
//! `total += sig` chain is folded strictly in slice order. What *is*
//! vectorized is the [`scan_block`] kernel, which runs [`LISTENER_BLOCK`]
//! *independent* listeners' fused gain-plus-fold chains side by side: the
//! SIMD lanes map to listeners, never to positions within one listener's
//! sum, so each lane reproduces the canonical scalar accumulation add for
//! add while the interleaving hides the FP-add latency that makes a lone
//! fold chain serial. Every listener scan goes through it: a run's
//! remainder after its full blocks is scanned in narrower blocks whose
//! unused lanes repeat the last real listener, and their folds are
//! dropped — a lane's fold never depends on another lane, so padding
//! cannot reach a real one. The `pow_alpha_batch` proptest oracle in
//! `tests/kernels.rs` pins the contract across the full dynamic range, and
//! the round-level table of the workspace's differential oracle
//! (`tests/differential.rs`) holds the batched scan to a longhand scalar
//! fold.
//!
//! # Runtime AVX2 dispatch
//!
//! The crate builds at the portable baseline x86-64 target (SSE2). The
//! hot kernels additionally carry a `#[target_feature(enable = "avx2")]`
//! instantiation selected by cached runtime detection: per-lane `vaddpd` /
//! `vsubpd` / `vmulpd` / `vdivpd` / `vsqrtpd` are IEEE-754-exact at every
//! width, and the `fma` feature is deliberately left off (Rust never
//! contracts `a*b + c` into a fused multiply-add on its own), so the wide
//! path is bit-identical to the baseline one — the dispatch is pure
//! throughput policy. The win is real: the divider, which bottlenecks the
//! α = 3 hot path, roughly doubles its per-element throughput from xmm to
//! ymm (DESIGN.md §15 has the measured numbers).

mod private {
    /// Prevents downstream kernel implementations so the class set stays
    /// closed (the exactness argument enumerates it).
    pub trait Sealed {}
}

/// A path-loss exponent class: computes `d^α` from `d²` with the class's
/// fixed arithmetic. Sealed — the five public implementations below
/// mirror the fast paths of the scalar [`pow_alpha`](crate::pow_alpha) exactly; the
/// crate-private bounded generic kernel is the one class that does not,
/// and declares its error through [`AlphaKernel::REL_ERR`].
pub trait AlphaKernel: private::Sealed + Copy {
    /// Certified bound on `|pow_alpha(d²) / canonical − 1|`, *canonical*
    /// being the scalar [`pow_alpha`](crate::pow_alpha): `0.0` for every class that is
    /// bit-identical to it, so brackets widened by it compile to the
    /// unwidened code for those classes.
    const REL_ERR: f64 = 0.0;

    /// Certified bound on the relative error of a gain `P / pow_alpha(d²)`
    /// against the canonical gain: `2·REL_ERR`, which covers `REL_ERR`
    /// itself plus the two divisions' rounding (each 2⁻⁵³, far below
    /// `REL_ERR` whenever it is non-zero).
    const GAIN_REL_ERR: f64 = 2.0 * Self::REL_ERR;

    /// `d^α` given the squared distance `d²`: bit-identical to the scalar
    /// [`pow_alpha`](crate::pow_alpha) fast path for this class, or within
    /// [`REL_ERR`](AlphaKernel::REL_ERR) of it.
    fn pow_alpha(self, d_sq: f64) -> f64;
}

/// `α = 2`: `d² ` itself.
#[derive(Debug, Clone, Copy)]
pub struct Alpha2;

/// `α = 3`: `d²·√d²`.
#[derive(Debug, Clone, Copy)]
pub struct Alpha3;

/// `α = 4`: `d²·d²`.
#[derive(Debug, Clone, Copy)]
pub struct Alpha4;

/// `α = 6`: `d²·d²·d²`.
#[derive(Debug, Clone, Copy)]
pub struct Alpha6;

/// Any other exponent: `(d²)^(α/2)` via `powf`, with `α·0.5` precomputed
/// (exact — a power-of-two scale only adjusts the exponent field).
#[derive(Debug, Clone, Copy)]
pub struct AlphaGeneric {
    half_alpha: f64,
}

impl AlphaGeneric {
    /// The canonical generic kernel for exponent `alpha`.
    pub(crate) fn new(alpha: f64) -> Self {
        AlphaGeneric {
            half_alpha: alpha * 0.5,
        }
    }
}

impl private::Sealed for Alpha2 {}
impl private::Sealed for Alpha3 {}
impl private::Sealed for Alpha4 {}
impl private::Sealed for Alpha6 {}
impl private::Sealed for AlphaGeneric {}
impl private::Sealed for AlphaBounded {}

impl AlphaKernel for Alpha2 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq
    }
}

impl AlphaKernel for Alpha3 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq * d_sq.sqrt()
    }
}

impl AlphaKernel for Alpha4 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq * d_sq
    }
}

impl AlphaKernel for Alpha6 {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq * d_sq * d_sq
    }
}

impl AlphaKernel for AlphaGeneric {
    #[inline(always)]
    fn pow_alpha(self, d_sq: f64) -> f64 {
        d_sq.powf(self.half_alpha)
    }
}

/// The certified relative error δ of the bounded generic-α kernel:
/// wherever [`AlphaBounded`] returns a finite non-zero value `r`,
/// `|r / powf(d², α/2) − 1| ≤ δ = 2⁻⁴⁰ ≈ 9.1e-13`. The kernel itself
/// measures about 2⁻⁵⁰ for α ≤ 8 (`tests::bounded_pow_is_within_delta_of_powf`
/// sweeps every binade), so δ is a margin of three orders of magnitude,
/// and the kernel's share of the slack budget
/// ([`FARFIELD_SLACK_BUDGET`](crate::farfield::FARFIELD_SLACK_BUDGET))
/// stays two orders below [`FARFIELD_REL_SLACK`](crate::FARFIELD_REL_SLACK).
pub(crate) const BOUNDED_POW_REL_ERR: f64 = 1.0 / (1u64 << 40) as f64;

/// Largest exponent the bounded kernel serves: the range its bound test
/// sweeps (E6 stops at α = 5), where the measured error sits 256× inside
/// δ. Larger exponents keep the canonical `powf` kernel (δ = 0)
/// everywhere.
pub(crate) const BOUNDED_MAX_ALPHA: f64 = 8.0;

/// `2/ln 2 / (2k + 1)`: the series `log₂ m = Σ_k c_k·s^(2k+1)` with
/// `s = (m − 1)/(m + 1)`, truncated where `|s| ≤ 3 − 2√2` makes the next
/// term smaller than 2⁻⁵⁶.
const LOG2_SERIES: [f64; 10] = {
    let two_over_ln2 = 2.0 / std::f64::consts::LN_2;
    let mut c = [0.0; 10];
    let mut k = 0;
    while k < 10 {
        c[k] = two_over_ln2 / (2 * k + 1) as f64;
        k += 1;
    }
    c
};

/// `(ln 2)^k / k!`: the Taylor series of `2^f`, truncated where
/// `|f| ≤ ½` makes the next term smaller than 2⁻⁵².
const EXP2_SERIES: [f64; 13] = {
    let mut c = [1.0; 13];
    let mut k = 1;
    while k < 13 {
        c[k] = c[k - 1] * std::f64::consts::LN_2 / k as f64;
        k += 1;
    }
    c
};

/// `2⁵²`: adding it to a small non-negative integer-valued double puts
/// the integer in the low mantissa bits (and back).
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `1.5·2⁵²`: `(x + R) − R` rounds `|x| < 2⁵¹` to the nearest integer
/// with two adds, which vectorize where `round()` does not.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The bounded generic-α class: `x^(α/2)` as `exp2(h·log₂ x)` with
/// `h = α/2`, branch-free so the AVX2 instantiations vectorize it.
/// Crate-private: it serves only the tile-tree engine's certified paths
/// (far-node gains, near-ring scans, first-pass fallback scans), which
/// widen every bracket by
/// [`REL_ERR`](AlphaKernel::REL_ERR) `=` [`BOUNDED_POW_REL_ERR`]. The
/// canonical semantics stay with [`AlphaGeneric`] (`powf`).
///
/// * **Range reduction** by bit arithmetic: `x = 2^e·m` with
///   `m ∈ [√½, √2)`, `e` read from the exponent field.
/// * **`log₂ m`** from the odd series in `s = (m − 1)/(m + 1)` (Estrin).
/// * **`h·e` exactly**: `h` is split (Veltkamp) into a 26-bit head and a
///   tail, so `h_hi·e` and `h_lo·e` are exact products and only the
///   fractional remainder `t` carries rounding; `|t| ≤ ½ + h/2`.
/// * **`2^t`** as `2^k·2^f`, `f = t − round(t)` exact, `2^f` from its
///   Taylor series (Estrin), `2^k` built in the exponent field.
///
/// Inputs outside the positive normal range, and results whose binary
/// exponent leaves `[−1020, 1020]`, return NaN — except `0` and `+∞`,
/// which return `0` and `+∞` exactly as `powf` does (gains `+∞` and `0`).
/// A NaN gain poisons every sum it enters, which the decision ladder
/// treats as "not certified" (rung 1, or the canonical rescan), never as
/// a decision.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlphaBounded {
    /// `α/2`.
    h: f64,
    /// The top 26 significant bits of `h`.
    h_hi: f64,
    /// `h − h_hi`, exact.
    h_lo: f64,
}

impl AlphaBounded {
    /// The bounded kernel for exponent `alpha`.
    pub(crate) fn new(alpha: f64) -> Self {
        let h = alpha * 0.5;
        let c = h * 134_217_729.0; // 2²⁷ + 1
        let h_hi = c - (c - h);
        AlphaBounded {
            h,
            h_hi,
            h_lo: h - h_hi,
        }
    }
}

impl AlphaKernel for AlphaBounded {
    const REL_ERR: f64 = BOUNDED_POW_REL_ERR;

    #[inline(always)]
    fn pow_alpha(self, x: f64) -> f64 {
        const SQRT_HALF_BITS: u64 = 0x3FE6_A09E_667F_3BCD;
        const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
        const MIN_NORMAL_BITS: u64 = 0x0010_0000_0000_0000;
        const INF_BITS: u64 = 0x7FF0_0000_0000_0000;
        let AlphaBounded { h, h_hi, h_lo } = self;
        let bits = x.to_bits();
        // e + 1023 in the exponent field: subtracting √½'s bits borrows
        // from the exponent exactly when the mantissa lies below √½.
        let eb = bits.wrapping_sub(SQRT_HALF_BITS).wrapping_add(ONE_BITS) >> 52;
        let m = f64::from_bits(bits.wrapping_sub(eb << 52).wrapping_add(ONE_BITS));
        let e = f64::from_bits(eb | TWO_52.to_bits()) - (TWO_52 + 1023.0);

        let s = (m - 1.0) / (m + 1.0);
        let z = s * s;
        let c = &LOG2_SERIES;
        let (z2, z4) = (z * z, z * z * (z * z));
        let p = (((c[0] + c[1] * z) + (c[2] + c[3] * z) * z2)
            + ((c[4] + c[5] * z) + (c[6] + c[7] * z) * z2) * z4)
            + (c[8] + c[9] * z) * (z4 * z4);
        let log2_m = s * p;

        let a = h_hi * e;
        let k1 = (a + ROUND_MAGIC) - ROUND_MAGIC;
        let t = ((a - k1) + h_lo * e) + h * log2_m;
        let k2 = (t + ROUND_MAGIC) - ROUND_MAGIC;
        let f = t - k2;
        let q = &EXP2_SERIES;
        let (f2, f4) = (f * f, f * f * (f * f));
        let poly = (((q[0] + q[1] * f) + (q[2] + q[3] * f) * f2)
            + ((q[4] + q[5] * f) + (q[6] + q[7] * f) * f2) * f4)
            + (((q[8] + q[9] * f) + (q[10] + q[11] * f) * f2) + q[12] * f4) * (f4 * f4);

        let k = k1 + k2;
        let k_clamped = k.clamp(-1020.0, 1020.0);
        let scale = f64::from_bits((k_clamped + (TWO_52 + 1023.0)).to_bits() << 52);
        let r = poly * scale;

        let normal_in = bits.wrapping_sub(MIN_NORMAL_BITS) < INF_BITS - MIN_NORMAL_BITS;
        // 0 and +∞ map exactly as powf maps them; everything else outside
        // the certified domain is NaN.
        let special = if (x == 0.0) | (x == f64::INFINITY) {
            x
        } else {
            f64::NAN
        };
        if normal_in & (k == k_clamped) {
            r
        } else {
            special
        }
    }
}

/// Runs `$body` with `$k` bound to the kernel the tile-tree engine's
/// certified paths use for exponent `$alpha`: the canonical class for
/// α ∈ {2, 3, 4, 6} (and beyond [`BOUNDED_MAX_ALPHA`]), whose
/// [`REL_ERR`](AlphaKernel::REL_ERR) is 0, and [`AlphaBounded`]
/// otherwise. `$body` is monomorphized once per arm.
macro_rules! with_bounded_kernel {
    ($alpha:expr, |$k:ident| $body:expr) => {{
        let alpha: f64 = $alpha;
        match $crate::kernels::AlphaClass::of(alpha) {
            $crate::kernels::AlphaClass::Two => {
                let $k = $crate::kernels::Alpha2;
                $body
            }
            $crate::kernels::AlphaClass::Three => {
                let $k = $crate::kernels::Alpha3;
                $body
            }
            $crate::kernels::AlphaClass::Four => {
                let $k = $crate::kernels::Alpha4;
                $body
            }
            $crate::kernels::AlphaClass::Six => {
                let $k = $crate::kernels::Alpha6;
                $body
            }
            $crate::kernels::AlphaClass::Generic if alpha <= $crate::kernels::BOUNDED_MAX_ALPHA => {
                let $k = $crate::kernels::AlphaBounded::new(alpha);
                $body
            }
            $crate::kernels::AlphaClass::Generic => {
                let $k = $crate::kernels::AlphaGeneric::new(alpha);
                $body
            }
        }
    }};
}
pub(crate) use with_bounded_kernel;

/// The exponent classes the batched kernels monomorphize over — the same
/// set the scalar [`pow_alpha`](crate::pow_alpha) special-cases, plus the generic `powf`
/// remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlphaClass {
    /// `α = 2`.
    Two,
    /// `α = 3`.
    Three,
    /// `α = 4`.
    Four,
    /// `α = 6`.
    Six,
    /// Any other exponent (generic `powf`).
    Generic,
}

impl AlphaClass {
    /// Classifies a path-loss exponent, mirroring the scalar
    /// [`pow_alpha`](crate::pow_alpha) dispatch exactly.
    #[must_use]
    pub fn of(alpha: f64) -> Self {
        if alpha == 2.0 {
            AlphaClass::Two
        } else if alpha == 3.0 {
            AlphaClass::Three
        } else if alpha == 4.0 {
            AlphaClass::Four
        } else if alpha == 6.0 {
            AlphaClass::Six
        } else {
            AlphaClass::Generic
        }
    }

    /// The class's stable label: `"alpha2"`, `"alpha3"`, `"alpha4"`,
    /// `"alpha6"` or `"generic"`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AlphaClass::Two => "alpha2",
            AlphaClass::Three => "alpha3",
            AlphaClass::Four => "alpha4",
            AlphaClass::Six => "alpha6",
            AlphaClass::Generic => "generic",
        }
    }
}

/// The monomorphized `d^α` batch: `out[i] = pow_alpha(d_sq[i], α)`.
///
/// `#[inline(always)]` so the body is re-codegenned inside the
/// `#[target_feature(enable = "avx2")]` wrapper below — that is what lets
/// the autovectorizer use 256-bit lanes on the runtime-dispatched path.
#[inline(always)]
fn pow_alpha_batch_inner<K: AlphaKernel>(k: K, d_sq: &[f64], out: &mut [f64]) {
    for (o, &d) in out.iter_mut().zip(d_sq) {
        *o = k.pow_alpha(d);
    }
}

/// AVX2 instantiation of [`pow_alpha_batch_inner`]. Per-lane `vmulpd` /
/// `vsqrtpd` are IEEE-754-exact, and the `fma` feature is deliberately
/// *not* enabled (Rust never contracts `a*b + c` on its own, and we keep
/// it that way), so results stay bit-identical to the scalar path.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn pow_alpha_batch_avx2<K: AlphaKernel>(k: K, d_sq: &[f64], out: &mut [f64]) {
    pow_alpha_batch_inner(k, d_sq, out);
}

/// Runtime-dispatched [`pow_alpha_batch_inner`]: picks the AVX2
/// instantiation when the CPU has it (detection is cached by `std`), the
/// baseline build otherwise. Both compute bit-identical results — the
/// dispatch is pure throughput policy.
#[inline]
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
pub(crate) fn pow_alpha_batch_with<K: AlphaKernel>(k: K, d_sq: &[f64], out: &mut [f64]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { pow_alpha_batch_avx2(k, d_sq, out) };
        return;
    }
    pow_alpha_batch_inner(k, d_sq, out);
}

/// Batched [`pow_alpha`](crate::pow_alpha): fills `out[i] = pow_alpha(d_sq[i], alpha)` with
/// one per-α monomorphized pass. Bit-identical to calling the scalar
/// function element-wise (module docs, "summation-order contract").
///
/// # Panics
///
/// Panics if `out.len() != d_sq.len()`.
pub fn pow_alpha_batch(alpha: f64, d_sq: &[f64], out: &mut [f64]) {
    assert_eq!(d_sq.len(), out.len(), "input/output length mismatch");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => pow_alpha_batch_with(Alpha2, d_sq, out),
        AlphaClass::Three => pow_alpha_batch_with(Alpha3, d_sq, out),
        AlphaClass::Four => pow_alpha_batch_with(Alpha4, d_sq, out),
        AlphaClass::Six => pow_alpha_batch_with(Alpha6, d_sq, out),
        AlphaClass::Generic => pow_alpha_batch_with(AlphaGeneric::new(alpha), d_sq, out),
    }
}

/// The monomorphized distance² batch: `out[i] = (xs[i]−vx)² + (ys[i]−vy)²`.
#[inline]
fn distance_sq_batch_inner(xs: &[f64], ys: &[f64], vx: f64, vy: f64, out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - vx;
        let dy = y - vy;
        *o = dx * dx + dy * dy;
    }
}

/// Batched squared distances from the point `(vx, vy)` to the SoA points
/// `(xs[i], ys[i])`: the same `dx·dx + dy·dy` expression as
/// `Point::distance_sq(p_i, v)` with the stored point on the left — the
/// orientation every scalar scan uses.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn distance_sq_batch(xs: &[f64], ys: &[f64], vx: f64, vy: f64, out: &mut [f64]) {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    distance_sq_batch_inner(xs, ys, vx, vy, out);
}

/// The monomorphized fused gain batch (see [`pow_alpha_batch_inner`] for
/// why `#[inline(always)]`).
#[inline(always)]
fn gain_batch_inner<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - vx;
        let dy = y - vy;
        *o = power / k.pow_alpha(dx * dx + dy * dy);
    }
}

/// AVX2 instantiation of [`gain_batch_inner`] — bit-identical per lane
/// (no `fma`; see [`pow_alpha_batch_avx2`]).
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors gain_batch_inner
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn gain_batch_avx2<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    gain_batch_inner(k, power, xs, ys, vx, vy, out);
}

/// Runtime-dispatched [`gain_batch_inner`] (pure throughput policy; both
/// arms are bit-identical).
#[inline]
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
pub(crate) fn gain_batch_with<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe { gain_batch_avx2(k, power, xs, ys, vx, vy, out) };
        return;
    }
    gain_batch_inner(k, power, xs, ys, vx, vy, out);
}

/// The fused hot-path batch: `out[i] = power / pow_alpha(d²_i, alpha)`
/// with `d²_i` the squared distance from `(vx, vy)` to `(xs[i], ys[i])`.
/// One branch-free monomorphized pass per exponent class; each element is
/// bit-identical to the scalar
/// `power / pow_alpha(Point::distance_sq(p_i, v), alpha)`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn gain_batch(
    power: f64,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    vx: f64,
    vy: f64,
    out: &mut [f64],
) {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    assert_eq!(xs.len(), out.len(), "input/output length mismatch");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => gain_batch_with(Alpha2, power, xs, ys, vx, vy, out),
        AlphaClass::Three => gain_batch_with(Alpha3, power, xs, ys, vx, vy, out),
        AlphaClass::Four => gain_batch_with(Alpha4, power, xs, ys, vx, vy, out),
        AlphaClass::Six => gain_batch_with(Alpha6, power, xs, ys, vx, vy, out),
        AlphaClass::Generic => {
            gain_batch_with(AlphaGeneric::new(alpha), power, xs, ys, vx, vy, out)
        }
    }
}

/// Listeners per full fused block scan ([`scan_block`]). The lanes are
/// independent `total +=` chains, so the block width trades FP-add
/// latency hiding against register pressure: the serial fold is
/// latency-bound at one add per ~4 cycles, and 32 lanes (8 ymm
/// accumulator pairs, spilling the index lanes to L1) measured fastest
/// and steadiest on the divider-bound α = 3 hot path — ~10% over 8
/// lanes, which already recovers most of the win (DESIGN.md §15).
/// Every listener scan takes a run of listeners this many at a time and
/// the remainder in padded blocks of 8 lanes, so no listener is ever
/// folded alone.
pub const LISTENER_BLOCK: usize = 32;

/// Lanes per padded block: the width at which [`scan_listeners_with`]
/// scans what is left of a run after its full [`LISTENER_BLOCK`]s. Small
/// enough that a padded block of one real listener wastes little, wide
/// enough to fill two ymm registers (4, 8 and 16 measured alike on
/// fkn-large; DESIGN.md §15.3).
pub(crate) const TAIL_BLOCK: usize = 8;

/// The monomorphized fused block scan: one pass over the transmitters
/// computing, for each of `W` listeners at once, the gain *and* its
/// slice-order fold. Per listener lane the arithmetic — `dx` orientation,
/// `pow_alpha` fast path, division, `total += g`, and the strict-max
/// update — is the canonical scalar sequence, so each lane is
/// bit-identical to [`fold_scan`] over a [`gain_batch`]; the lanes only
/// interleave *between* listeners, never within one listener's chain.
#[inline(always)]
fn scan_block_inner<K: AlphaKernel, const W: usize>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; W],
    vy: &[f64; W],
) -> [ScanFold; W] {
    let mut total = [0.0f64; W];
    let mut best = [0.0f64; W];
    // -1 = no strict winner yet (mirrors fold_scan's None).
    let mut best_i = [-1i64; W];
    for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        for j in 0..W {
            let dx = x - vx[j];
            let dy = y - vy[j];
            let g = power / k.pow_alpha(dx * dx + dy * dy);
            total[j] += g;
            // Select form (not a branch) so the compiler can if-convert
            // and vectorize across the j lanes; semantics are identical
            // to fold_scan's `if g > best` (NaN compares false → keep).
            let better = g > best[j];
            best[j] = if better { g } else { best[j] };
            best_i[j] = if better { i as i64 } else { best_i[j] };
        }
    }
    std::array::from_fn(|j| ScanFold {
        total: total[j],
        best_sig: best[j],
        best_idx: usize::try_from(best_i[j]).ok(),
    })
}

/// AVX2 instantiation of [`scan_block_inner`] — bit-identical per lane
/// (no `fma`; see [`pow_alpha_batch_avx2`]). This is the variant that
/// makes the block scan pay off: with 256-bit lanes every four listener
/// chains become one `vaddpd`/`vdivpd`/`vsqrtpd` stream, and the divider
/// (the real bottleneck) runs at its ymm throughput instead of xmm.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // see the crate-root lint note
unsafe fn scan_block_avx2<K: AlphaKernel, const W: usize>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; W],
    vy: &[f64; W],
) -> [ScanFold; W] {
    scan_block_inner(k, power, xs, ys, vx, vy)
}

/// Runtime-dispatched [`scan_block_inner`] (pure throughput policy; both
/// arms are bit-identical).
#[inline]
#[allow(unsafe_code)] // detection-guarded call; see the crate-root lint note
pub(crate) fn scan_block_with<K: AlphaKernel, const W: usize>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; W],
    vy: &[f64; W],
) -> [ScanFold; W] {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { scan_block_avx2(k, power, xs, ys, vx, vy) };
    }
    scan_block_inner(k, power, xs, ys, vx, vy)
}

/// Fused multi-listener scan: folds [`LISTENER_BLOCK`] listeners against
/// the SoA transmitter slices in a single pass, returning each listener's
/// [`ScanFold`]. Bit-identical per listener to
/// `fold_scan(gain_batch(..))` — each lane runs the canonical scalar
/// sequence — while hiding the fold's FP-add latency behind the other
/// lanes' work.
///
/// # Panics
///
/// Panics if `xs.len() != ys.len()`.
pub fn scan_block(
    power: f64,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    vx: &[f64; LISTENER_BLOCK],
    vy: &[f64; LISTENER_BLOCK],
) -> [ScanFold; LISTENER_BLOCK] {
    assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    match AlphaClass::of(alpha) {
        AlphaClass::Two => scan_block_with(Alpha2, power, xs, ys, vx, vy),
        AlphaClass::Three => scan_block_with(Alpha3, power, xs, ys, vx, vy),
        AlphaClass::Four => scan_block_with(Alpha4, power, xs, ys, vx, vy),
        AlphaClass::Six => scan_block_with(Alpha6, power, xs, ys, vx, vy),
        AlphaClass::Generic => scan_block_with(AlphaGeneric::new(alpha), power, xs, ys, vx, vy),
    }
}

/// One `W`-lane block scan of the listeners `block` (at most `W` of
/// them; `at(i)` is listener `i`'s position). The lanes past the block's
/// last listener repeat its coordinates, so they compute in the same
/// range as a real lane; their folds are dropped, and `fold` sees each
/// listener of `block` once, in order.
#[inline(always)]
fn scan_padded<K: AlphaKernel, const W: usize>(
    k: K,
    power: f64,
    (xs, ys): (&[f64], &[f64]),
    block: std::ops::Range<usize>,
    at: &impl Fn(usize) -> fading_geom::Point,
    fold: &mut impl FnMut(usize, ScanFold),
) {
    debug_assert!(!block.is_empty() && block.len() <= W);
    let mut vx = [0.0; W];
    let mut vy = [0.0; W];
    for (j, i) in block.clone().enumerate() {
        let v = at(i);
        vx[j] = v.x;
        vy[j] = v.y;
    }
    let last = block.len() - 1;
    for j in block.len()..W {
        vx[j] = vx[last];
        vy[j] = vy[last];
    }
    let folds = scan_block_with(k, power, xs, ys, &vx, &vy);
    for (i, f) in block.zip(folds) {
        fold(i, f);
    }
}

/// Block-scans the listeners `0..count` (`at(i)` is listener `i`'s
/// position) against the SoA transmitter slices through kernel `k`, and
/// hands each listener's slice-order fold to `fold(i, ..)`, in ascending
/// `i`. Full blocks of [`LISTENER_BLOCK`] lanes go first, then the
/// remainder in blocks of [`TAIL_BLOCK`] lanes, the last one padded with
/// copies of its last listener. Lanes never mix, so every listener's fold
/// is bit-identical to [`fold_scan`] over its own gain batch, whatever
/// block it lands in.
#[inline]
pub(crate) fn scan_listeners_with<K: AlphaKernel>(
    k: K,
    power: f64,
    xs: &[f64],
    ys: &[f64],
    count: usize,
    at: impl Fn(usize) -> fading_geom::Point,
    mut fold: impl FnMut(usize, ScanFold),
) {
    debug_assert_eq!(xs.len(), ys.len(), "SoA slices must be parallel");
    let full = count - count % LISTENER_BLOCK;
    for start in (0..full).step_by(LISTENER_BLOCK) {
        let block = start..start + LISTENER_BLOCK;
        scan_padded::<K, LISTENER_BLOCK>(k, power, (xs, ys), block, &at, &mut fold);
    }
    for start in (full..count).step_by(TAIL_BLOCK) {
        let block = start..count.min(start + TAIL_BLOCK);
        scan_padded::<K, TAIL_BLOCK>(k, power, (xs, ys), block, &at, &mut fold);
    }
}

/// [`scan_listeners_with`] through the canonical class of `alpha`: the
/// exact tier's uncached scan.
pub(crate) fn scan_listeners(
    power: f64,
    alpha: f64,
    xs: &[f64],
    ys: &[f64],
    count: usize,
    at: impl Fn(usize) -> fading_geom::Point,
    fold: impl FnMut(usize, ScanFold),
) {
    match AlphaClass::of(alpha) {
        AlphaClass::Two => scan_listeners_with(Alpha2, power, xs, ys, count, at, fold),
        AlphaClass::Three => scan_listeners_with(Alpha3, power, xs, ys, count, at, fold),
        AlphaClass::Four => scan_listeners_with(Alpha4, power, xs, ys, count, at, fold),
        AlphaClass::Six => scan_listeners_with(Alpha6, power, xs, ys, count, at, fold),
        AlphaClass::Generic => {
            let k = AlphaGeneric::new(alpha);
            scan_listeners_with(k, power, xs, ys, count, at, fold);
        }
    }
}

/// Outcome of folding a gain scratch buffer in slice order (the canonical
/// accumulation of `scan_transmitters`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanFold {
    /// Sum of all gains, accumulated in slice order.
    pub total: f64,
    /// The strongest single gain (0.0 when none is positive).
    pub best_sig: f64,
    /// The index of the first element attaining `best_sig` strictly, if
    /// any — ties keep the earlier index, exactly as the canonical fold.
    pub best_idx: Option<usize>,
}

/// Folds a gain scratch buffer in slice order: `total += g` plus the
/// first-strict-max winner rule, reproducing the canonical
/// `scan_transmitters` accumulation add for add and compare for compare.
#[inline]
#[must_use]
pub fn fold_scan(gains: &[f64]) -> ScanFold {
    let mut total = 0.0;
    let mut best_sig = 0.0;
    let mut best_idx: Option<usize> = None;
    for (i, &g) in gains.iter().enumerate() {
        total += g;
        if g > best_sig {
            best_sig = g;
            best_idx = Some(i);
        }
    }
    ScanFold {
        total,
        best_sig,
        best_idx,
    }
}

/// Reusable per-round scratch for batched transmitter scans: the gathered
/// SoA transmitter coordinates plus the per-listener gain buffer.
#[derive(Debug, Default, Clone)]
pub struct ScanScratch {
    /// Gathered transmitter `x` coordinates, in transmitter-slice order.
    pub xs: Vec<f64>,
    /// Gathered transmitter `y` coordinates, in transmitter-slice order.
    pub ys: Vec<f64>,
    /// Per-listener gain buffer (resized by the batch entry points).
    pub gains: Vec<f64>,
}

impl ScanScratch {
    /// Fresh, empty scratch.
    #[must_use]
    pub fn new() -> Self {
        ScanScratch::default()
    }

    /// Gathers the coordinates of `ids` (indices into `points`) into the
    /// contiguous `xs`/`ys` slices, replacing their contents.
    pub fn gather(&mut self, points: &[fading_geom::Point], ids: &[usize]) {
        fading_geom::gather_points(points, ids, &mut self.xs, &mut self.ys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinr::pow_alpha;

    #[test]
    fn class_of_mirrors_scalar_dispatch() {
        assert_eq!(AlphaClass::of(2.0), AlphaClass::Two);
        assert_eq!(AlphaClass::of(3.0), AlphaClass::Three);
        assert_eq!(AlphaClass::of(4.0), AlphaClass::Four);
        assert_eq!(AlphaClass::of(6.0), AlphaClass::Six);
        assert_eq!(AlphaClass::of(2.5), AlphaClass::Generic);
        assert_eq!(AlphaClass::of(5.0), AlphaClass::Generic);
    }

    /// Deterministic uniform draws in `[0, 1)`.
    fn uniform(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn bounded_pow_is_within_delta_of_powf() {
        // E6's exponent grid plus random exponents in (2, 8]; per binade of
        // positive normal inputs, the binade's edges, the √½ and √2
        // reduction boundaries, and random mantissas.
        let mut next = uniform(0x5eed_b0d5);
        let mut alphas = vec![2.05, 2.1, 2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 5.0, 6.0];
        alphas.extend((0..24).map(|_| BOUNDED_MAX_ALPHA - 6.0 * next()));
        alphas.push(BOUNDED_MAX_ALPHA);
        let sqrt2 = std::f64::consts::SQRT_2;
        let mut worst = 0.0f64;
        for &alpha in &alphas {
            let k = AlphaBounded::new(alpha);
            let h = alpha * 0.5;
            for exp in -1022..=1023i32 {
                let binade = f64::from_bits(((exp + 1023) as u64) << 52);
                let mut mantissas = vec![
                    1.0,
                    2.0 - f64::EPSILON,
                    sqrt2 * 0.5 * 2.0,
                    f64::from_bits(sqrt2.to_bits() - 1),
                    f64::from_bits((0.5 * sqrt2).to_bits() + 1) * 2.0,
                ];
                mantissas.extend((0..4).map(|_| 1.0 + next()));
                for m in mantissas {
                    let x = m * binade;
                    let got = k.pow_alpha(x);
                    let want = x.powf(h);
                    if got.is_nan() {
                        // Refused only at (or past) the edge of the
                        // normal range, never inside it.
                        assert!(
                            !(want > 2f64.powi(-1019) && want < 2f64.powi(1019)),
                            "alpha={alpha} x={x:e}: refused an in-range result {want:e}"
                        );
                        continue;
                    }
                    let rel = (got / want - 1.0).abs();
                    worst = worst.max(rel);
                    assert!(
                        rel <= BOUNDED_POW_REL_ERR,
                        "alpha={alpha} x={x:e}: {got:e} vs powf {want:e} (rel {rel:e})"
                    );
                }
            }
        }
        // Over the whole served range α ≤ BOUNDED_MAX_ALPHA the kernel sits
        // well over two orders of magnitude inside its bound.
        assert!(
            worst < BOUNDED_POW_REL_ERR / 256.0,
            "worst relative error {worst:e}"
        );
    }

    #[test]
    fn bounded_pow_special_inputs_never_certify() {
        let subnormals = [
            f64::from_bits(1),
            f64::MIN_POSITIVE * 0.5,
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
        ];
        for alpha in [2.05, 2.5, 3.7, 7.9] {
            let k = AlphaBounded::new(alpha);
            // 0 and +∞ are exact (gains +∞ and 0, as powf gives): an
            // infinite gain trips rung 1, a zero gain is the canonical one.
            assert_eq!(k.pow_alpha(0.0).to_bits(), 0.0f64.to_bits());
            assert_eq!(k.pow_alpha(f64::INFINITY), f64::INFINITY);
            assert_eq!(
                16.0 / k.pow_alpha(f64::INFINITY),
                16.0 / pow_alpha(f64::INFINITY, alpha)
            );
            assert!(!(16.0 / k.pow_alpha(0.0)).is_finite());
            // Subnormal, negative and NaN inputs give NaN gains, which
            // poison every sum they enter (rung 1 or the canonical rescan).
            for x in subnormals
                .into_iter()
                .chain([-1.0, f64::NAN, f64::NEG_INFINITY])
            {
                assert!(k.pow_alpha(x).is_nan(), "alpha={alpha} x={x:e}");
                assert!((16.0 / k.pow_alpha(x)).is_nan(), "alpha={alpha} x={x:e}");
            }
        }
    }

    #[test]
    fn bounded_dispatch_is_canonical_outside_the_generic_class() {
        fn probe<K: AlphaKernel>(k: K, x: f64) -> (f64, f64) {
            (K::REL_ERR, k.pow_alpha(x))
        }
        for alpha in [2.0, 3.0, 4.0, 6.0, 8.5, 100.5] {
            for x in [0.0, 0.37, 1.0, 5.5, 1e9] {
                let (err, got) = with_bounded_kernel!(alpha, |k| probe(k, x));
                assert_eq!(err, 0.0, "alpha={alpha}");
                assert_eq!(
                    got.to_bits(),
                    pow_alpha(x, alpha).to_bits(),
                    "alpha={alpha}"
                );
            }
        }
        for alpha in [2.05, 2.5, 3.7, BOUNDED_MAX_ALPHA] {
            let (err, _) = with_bounded_kernel!(alpha, |k| probe(k, 2.0));
            assert_eq!(err, BOUNDED_POW_REL_ERR);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AlphaClass::Two.label(), "alpha2");
        assert_eq!(AlphaClass::Generic.label(), "generic");
    }

    #[test]
    fn pow_alpha_batch_is_bit_identical_to_scalar() {
        let d_sq: Vec<f64> = vec![0.0, 1e-300, 0.5, 1.0, 2.0, 123.456, 1e150, 1e300];
        let mut out = vec![0.0; d_sq.len()];
        for &alpha in &[2.0, 2.5, 3.0, 3.7, 4.0, 5.1, 6.0] {
            pow_alpha_batch(alpha, &d_sq, &mut out);
            for (i, &d) in d_sq.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    pow_alpha(d, alpha).to_bits(),
                    "alpha={alpha} d_sq={d}"
                );
            }
        }
    }

    #[test]
    fn gain_batch_is_bit_identical_to_scalar() {
        use fading_geom::Point;
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.5, -2.0),
            Point::new(-3.0, 4.0),
            Point::new(1e3, 1e-3),
        ];
        let v = Point::new(0.25, -0.75);
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let mut out = vec![0.0; pts.len()];
        for &alpha in &[2.0, 2.5, 3.0, 4.0, 6.0] {
            gain_batch(16.0, alpha, &xs, &ys, v.x, v.y, &mut out);
            for (i, p) in pts.iter().enumerate() {
                let want = 16.0 / pow_alpha(p.distance_sq(v), alpha);
                assert_eq!(out[i].to_bits(), want.to_bits(), "alpha={alpha} i={i}");
            }
        }
    }

    #[test]
    fn distance_sq_batch_matches_point_method() {
        use fading_geom::Point;
        let pts = [Point::new(3.0, 4.0), Point::new(-1.0, 2.5)];
        let v = Point::new(1.0, 1.0);
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let mut out = vec![0.0; 2];
        distance_sq_batch(&xs, &ys, v.x, v.y, &mut out);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(out[i].to_bits(), p.distance_sq(v).to_bits());
        }
    }

    #[test]
    fn fold_scan_first_strict_max_and_order() {
        // Ties keep the earlier index; zero gains never win.
        let f = fold_scan(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(f.best_idx, Some(1));
        assert_eq!(f.best_sig, 3.0);
        assert_eq!(f.total, 9.0);
        assert_eq!(fold_scan(&[]).best_idx, None);
        assert_eq!(fold_scan(&[0.0, 0.0]).best_idx, None);
        // Accumulation order is slice order: a permuted input may yield a
        // different total under IEEE-754, which is exactly why the contract
        // fixes the order. (These particular values are exact either way;
        // the proptests cover the interesting cases.)
        let g = fold_scan(&[2.0, 1.0, 3.0, 3.0]);
        assert_eq!(g.best_idx, Some(2));
    }

    #[test]
    fn scan_scratch_gathers_in_slice_order() {
        use fading_geom::Point;
        let pts = [
            Point::new(0.0, 5.0),
            Point::new(1.0, 6.0),
            Point::new(2.0, 7.0),
        ];
        let mut s = ScanScratch::new();
        s.gather(&pts, &[2, 0, 1]);
        assert_eq!(s.xs, vec![2.0, 0.0, 1.0]);
        assert_eq!(s.ys, vec![7.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pow_alpha_batch_rejects_mismatched_lengths() {
        let mut out = vec![0.0; 2];
        pow_alpha_batch(3.0, &[1.0], &mut out);
    }

    #[test]
    fn scan_block_lanes_are_bit_identical_to_fold_scan() {
        // Deterministic LCG geometry: irregular magnitudes so the fold
        // order actually matters, plus a manufactured exact tie per lane
        // to exercise the first-strict-max rule inside the block kernel.
        let m = 97;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 200.0 - 100.0
        };
        let xs: Vec<f64> = (0..m).map(|_| next()).collect();
        let ys: Vec<f64> = (0..m).map(|_| next()).collect();
        let mut vx = [0.0; LISTENER_BLOCK];
        let mut vy = [0.0; LISTENER_BLOCK];
        for j in 0..LISTENER_BLOCK {
            vx[j] = next();
            vy[j] = next();
        }
        // Mirror transmitter 70 across each listener's x-axis position so
        // some listener sees an exact gain tie (same distance twice).
        let mut xs_tied = xs.clone();
        let mut ys_tied = ys.clone();
        xs_tied[70] = 2.0 * vx[3] - xs[20];
        ys_tied[70] = ys[20];
        for &alpha in &[2.0, 2.5, 3.0, 4.0, 6.0] {
            for (txs, tys) in [(&xs, &ys), (&xs_tied, &ys_tied)] {
                let folds = scan_block(7.5, alpha, txs, tys, &vx, &vy);
                let mut gains = vec![0.0; m];
                for j in 0..LISTENER_BLOCK {
                    gain_batch(7.5, alpha, txs, tys, vx[j], vy[j], &mut gains);
                    let want = fold_scan(&gains);
                    assert_eq!(
                        folds[j].total.to_bits(),
                        want.total.to_bits(),
                        "alpha={alpha} lane={j} total"
                    );
                    assert_eq!(
                        folds[j].best_sig.to_bits(),
                        want.best_sig.to_bits(),
                        "alpha={alpha} lane={j} best_sig"
                    );
                    assert_eq!(
                        folds[j].best_idx, want.best_idx,
                        "alpha={alpha} lane={j} idx"
                    );
                }
            }
        }
    }

    /// Asserts that each `(i, fold)` of `seen` is listener `at(i)`'s
    /// `fold_scan` over its own gain batch, bit for bit, and that `seen`
    /// names exactly the listeners `want`, in order.
    fn assert_folds<K: AlphaKernel>(
        k: K,
        (xs, ys): (&[f64], &[f64]),
        seen: &[(usize, ScanFold)],
        want: std::ops::Range<usize>,
        at: impl Fn(usize) -> fading_geom::Point,
        ctx: &str,
    ) {
        let got: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        assert_eq!(got, want.collect::<Vec<_>>(), "{ctx}");
        let mut gains = vec![0.0; xs.len()];
        for &(i, f) in seen {
            let v = at(i);
            gain_batch_with(k, 7.5, xs, ys, v.x, v.y, &mut gains);
            let want = fold_scan(&gains);
            assert_eq!(f.total.to_bits(), want.total.to_bits(), "{ctx} {i} total");
            assert_eq!(f.best_sig.to_bits(), want.best_sig.to_bits(), "{ctx} {i}");
            assert_eq!(f.best_idx, want.best_idx, "{ctx} {i} idx");
        }
    }

    /// `W`-lane padded blocks of every used-lane count `1..=W` over the
    /// `listeners`: `fold` sees exactly the block's listeners, in order,
    /// with the folds of their own gain batches.
    fn check_padded<K: AlphaKernel, const W: usize>(
        k: K,
        scene: (&[f64], &[f64]),
        listeners: &[fading_geom::Point],
        label: &str,
    ) {
        let at = |i: usize| listeners[i];
        for used in 1..=W {
            let start = (used * 5) % (listeners.len() - used + 1);
            let block = start..start + used;
            let mut seen = Vec::new();
            scan_padded::<K, W>(k, 7.5, scene, block.clone(), &at, &mut |i, f| {
                seen.push((i, f));
            });
            let ctx = format!("{label} W={W} used={used}");
            assert_folds(k, scene, &seen, block, at, &ctx);
        }
    }

    /// [`scan_listeners_with`] over every listener count up to two full
    /// blocks and two padded ones: each listener once, in order, with the
    /// fold of its own gain batch.
    fn check_runs<K: AlphaKernel>(
        k: K,
        scene: (&[f64], &[f64]),
        listeners: &[fading_geom::Point],
        label: &str,
    ) {
        let at = |i: usize| listeners[i % listeners.len()];
        for count in 0..=2 * LISTENER_BLOCK + 2 * TAIL_BLOCK + 1 {
            let mut seen = Vec::new();
            let (xs, ys) = scene;
            scan_listeners_with(k, 7.5, xs, ys, count, at, |i, f| seen.push((i, f)));
            assert_folds(
                k,
                scene,
                &seen,
                0..count,
                at,
                &format!("{label} count={count}"),
            );
        }
    }

    #[test]
    fn padded_blocks_are_bit_identical_to_fold_scan() {
        use fading_geom::Point;
        let mut next = uniform(0x0bad_cafe);
        let mut xs: Vec<f64> = (0..61).map(|_| 200.0 * next() - 100.0).collect();
        let mut ys: Vec<f64> = (0..61).map(|_| 200.0 * next() - 100.0).collect();
        // The two closest transmitters of listener 1 (at (10, 20)) tie
        // exactly: d² = 25 from both.
        (xs[9], ys[9]) = (13.0, 24.0);
        (xs[40], ys[40]) = (7.0, 16.0);
        let mut listeners: Vec<Point> = (0..40)
            .map(|_| Point::new(200.0 * next() - 100.0, 200.0 * next() - 100.0))
            .collect();
        // On top of a transmitter (an infinite gain), first and last, so
        // padded lanes copy it too; and the tied listener.
        listeners[0] = Point::new(xs[5], ys[5]);
        listeners[39] = Point::new(xs[50], ys[50]);
        listeners[1] = Point::new(10.0, 20.0);
        // The same tie in the other slice order.
        let (mut xs_swapped, mut ys_swapped) = (xs.clone(), ys.clone());
        xs_swapped.swap(9, 40);
        ys_swapped.swap(9, 40);
        fn each_width<K: AlphaKernel>(
            k: K,
            label: &str,
            scenes: &[(&[f64], &[f64])],
            ls: &[Point],
        ) {
            for &scene in scenes {
                check_padded::<K, TAIL_BLOCK>(k, scene, ls, label);
                check_padded::<K, LISTENER_BLOCK>(k, scene, ls, label);
                check_runs(k, scene, ls, label);
            }
        }
        let scenes: [(&[f64], &[f64]); 3] = [(&xs, &ys), (&xs_swapped, &ys_swapped), (&[], &[])];
        each_width(Alpha2, "alpha2", &scenes, &listeners);
        each_width(Alpha3, "alpha3", &scenes, &listeners);
        each_width(Alpha4, "alpha4", &scenes, &listeners);
        each_width(Alpha6, "alpha6", &scenes, &listeners);
        each_width(AlphaGeneric::new(2.5), "generic", &scenes, &listeners);
        each_width(AlphaBounded::new(2.5), "bounded", &scenes, &listeners);
        // The tie is real, and the earlier slice index wins it.
        let tied = |xs: &[f64], ys: &[f64]| {
            let mut gains = vec![0.0; xs.len()];
            gain_batch_with(Alpha3, 7.5, xs, ys, 10.0, 20.0, &mut gains);
            fold_scan(&gains).best_idx
        };
        assert_eq!(tied(&xs, &ys), Some(9));
        assert_eq!(tied(&xs_swapped, &ys_swapped), Some(9));
    }

    #[test]
    fn scan_block_empty_slices_yield_empty_folds() {
        let folds = scan_block(
            1.0,
            3.0,
            &[],
            &[],
            &[0.0; LISTENER_BLOCK],
            &[0.0; LISTENER_BLOCK],
        );
        for f in folds {
            assert_eq!(f.total, 0.0);
            assert_eq!(f.best_idx, None);
        }
    }
}
