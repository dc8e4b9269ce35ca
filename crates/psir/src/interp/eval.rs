//! Pure scalar evaluation semantics for IR operations.
//!
//! These functions define what each opcode *means* on raw 64-bit payloads
//! (see [`crate::Const`] for the encoding). They are shared by the plain
//! interpreter and by the SPMD reference executor in the `parsimony` crate,
//! so both execution paths agree bit-for-bit by construction.

use crate::inst::{BinOp, CastKind, CmpPred, MathFn, ReduceOp, UnOp};
use crate::types::ScalarTy;
use std::error::Error;
use std::fmt;

/// A runtime trap raised during evaluation or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Integer division by zero (or `MIN / -1` overflow).
    DivByZero,
    /// A memory access outside the allocated flat memory.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
    },
    /// Call target not found in the module or the extern handler.
    UnknownFunction(String),
    /// An SPMD intrinsic reached the plain interpreter (it should have been
    /// eliminated by the vectorizer or handled by the SPMD reference
    /// executor).
    SpmdIntrinsic(String),
    /// The configured step budget was exhausted (runaway loop guard).
    StepLimit,
    /// The configured allocation budget was exhausted (a resource limit,
    /// distinct from [`ExecError::OutOfBounds`], which is capacity).
    MemoryBudget {
        /// Bytes the allocation would have brought the total to.
        requested: u64,
        /// The configured budget in bytes.
        limit: u64,
    },
    /// Execution was cancelled through an attached
    /// [`CancelToken`](super::CancelToken).
    Cancelled,
    /// The deadline attached to the execution's
    /// [`CancelToken`](super::CancelToken) passed.
    DeadlineExceeded,
    /// Anything else (malformed IR reaching execution, arity errors, …).
    Other(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DivByZero => write!(f, "integer division by zero"),
            ExecError::OutOfBounds { addr, size } => {
                write!(f, "out-of-bounds access of {size} bytes at {addr:#x}")
            }
            ExecError::UnknownFunction(n) => write!(f, "unknown function @{n}"),
            ExecError::SpmdIntrinsic(n) => {
                write!(f, "SPMD intrinsic {n} outside an SPMD execution context")
            }
            ExecError::StepLimit => write!(f, "step limit exhausted"),
            ExecError::MemoryBudget { requested, limit } => {
                write!(
                    f,
                    "memory budget exhausted ({requested} bytes requested, {limit} allowed)"
                )
            }
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl Error for ExecError {}

/// Sign-extends the payload of `ty` to `i64`.
pub fn sext(ty: ScalarTy, bits: u64) -> i64 {
    let w = ty.bits();
    if w == 64 {
        bits as i64
    } else {
        let sh = 64 - w;
        ((bits << sh) as i64) >> sh
    }
}

/// Truncates an `i64`/`u64` result back to the payload width of `ty`.
pub fn trunc(ty: ScalarTy, v: u64) -> u64 {
    v & ty.bit_mask()
}

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn f32_bits(v: f32) -> u64 {
    v.to_bits() as u64
}

fn f64_bits(v: f64) -> u64 {
    v.to_bits()
}

/// Applies a binary operation on payloads of type `ty`.
///
/// # Errors
/// Returns [`ExecError::DivByZero`] for division/remainder by zero and for
/// the overflowing `MIN / -1` case.
pub fn eval_bin(op: BinOp, ty: ScalarTy, a: u64, b: u64) -> Result<u64, ExecError> {
    use BinOp::*;
    if op.is_float() {
        let r = match ty {
            ScalarTy::F32 => {
                let (x, y) = (f32_of(a), f32_of(b));
                f32_bits(match op {
                    FAdd => x + y,
                    FSub => x - y,
                    FMul => x * y,
                    FDiv => x / y,
                    FRem => x % y,
                    FMin => x.min(y),
                    FMax => x.max(y),
                    _ => unreachable!(),
                })
            }
            ScalarTy::F64 => {
                let (x, y) = (f64_of(a), f64_of(b));
                f64_bits(match op {
                    FAdd => x + y,
                    FSub => x - y,
                    FMul => x * y,
                    FDiv => x / y,
                    FRem => x % y,
                    FMin => x.min(y),
                    FMax => x.max(y),
                    _ => unreachable!(),
                })
            }
            other => {
                return Err(ExecError::Other(format!(
                    "float op {} on {other}",
                    op.mnemonic()
                )))
            }
        };
        return Ok(r);
    }

    let w = ty.bits();
    let sa = sext(ty, a);
    let sb = sext(ty, b);
    let ua = a;
    let ub = b;
    let r: u64 = match op {
        Add => (ua.wrapping_add(ub)) & ty.bit_mask(),
        Sub => (ua.wrapping_sub(ub)) & ty.bit_mask(),
        Mul => (ua.wrapping_mul(ub)) & ty.bit_mask(),
        SDiv => {
            if sb == 0 || (sa == sext(ty, 1u64 << (w - 1)) && sb == -1) {
                return Err(ExecError::DivByZero);
            }
            trunc(ty, (sa / sb) as u64)
        }
        UDiv => {
            if ub == 0 {
                return Err(ExecError::DivByZero);
            }
            ua / ub
        }
        SRem => {
            if sb == 0 {
                return Err(ExecError::DivByZero);
            }
            if sa == sext(ty, 1u64 << (w - 1)) && sb == -1 {
                // MIN % -1 is mathematically 0 but overflows the native
                // `%`; unlike SDiv (where MIN / -1 has no representable
                // result) there is a correct answer, so return it rather
                // than introducing a trap the hardware semantics don't
                // have.
                0
            } else {
                trunc(ty, (sa % sb) as u64)
            }
        }
        URem => {
            if ub == 0 {
                return Err(ExecError::DivByZero);
            }
            ua % ub
        }
        And => ua & ub,
        Or => ua | ub,
        Xor => ua ^ ub,
        Shl => trunc(ty, ua << (ub % w as u64)),
        LShr => ua >> (ub % w as u64),
        AShr => trunc(ty, (sa >> (ub % w as u64)) as u64),
        SMin => {
            if sa <= sb {
                ua
            } else {
                ub
            }
        }
        SMax => {
            if sa >= sb {
                ua
            } else {
                ub
            }
        }
        UMin => ua.min(ub),
        UMax => ua.max(ub),
        AddSatS => {
            // i128 throughout: at w = 64 both the sum and the bound
            // computation overflow native i64 arithmetic.
            let max = (1i128 << (w - 1)) - 1;
            let min = -(1i128 << (w - 1));
            trunc(ty, (sa as i128 + sb as i128).clamp(min, max) as u64)
        }
        SubSatS => {
            let max = (1i128 << (w - 1)) - 1;
            let min = -(1i128 << (w - 1));
            trunc(ty, (sa as i128 - sb as i128).clamp(min, max) as u64)
        }
        AddSatU => {
            let s = (ua as u128) + (ub as u128);
            let cap = ty.bit_mask() as u128;
            (s.min(cap)) as u64
        }
        SubSatU => ua.saturating_sub(ub),
        AvgU => {
            let s = (ua as u128 + ub as u128 + 1) >> 1;
            trunc(ty, s as u64)
        }
        MulHiS => {
            let p = (sa as i128) * (sb as i128);
            trunc(ty, (p >> w) as u64)
        }
        MulHiU => {
            let p = (ua as u128) * (ub as u128);
            trunc(ty, (p >> w) as u64)
        }
        FAdd | FSub | FMul | FDiv | FRem | FMin | FMax => unreachable!(),
    };
    Ok(r)
}

/// Applies a unary operation on a payload of type `ty`.
pub fn eval_un(op: UnOp, ty: ScalarTy, a: u64) -> Result<u64, ExecError> {
    use UnOp::*;
    let r = match op {
        Not => trunc(ty, !a),
        INeg => trunc(ty, (a as i64).wrapping_neg() as u64),
        IAbs => trunc(ty, sext(ty, a).wrapping_abs() as u64),
        FNeg => match ty {
            ScalarTy::F32 => f32_bits(-f32_of(a)),
            ScalarTy::F64 => f64_bits(-f64_of(a)),
            other => return Err(ExecError::Other(format!("fneg on {other}"))),
        },
        FAbs => match ty {
            ScalarTy::F32 => f32_bits(f32_of(a).abs()),
            ScalarTy::F64 => f64_bits(f64_of(a).abs()),
            other => return Err(ExecError::Other(format!("fabs on {other}"))),
        },
        FSqrt => match ty {
            ScalarTy::F32 => f32_bits(f32_of(a).sqrt()),
            ScalarTy::F64 => f64_bits(f64_of(a).sqrt()),
            other => return Err(ExecError::Other(format!("fsqrt on {other}"))),
        },
        FFloor => match ty {
            ScalarTy::F32 => f32_bits(f32_of(a).floor()),
            ScalarTy::F64 => f64_bits(f64_of(a).floor()),
            other => return Err(ExecError::Other(format!("ffloor on {other}"))),
        },
        FCeil => match ty {
            ScalarTy::F32 => f32_bits(f32_of(a).ceil()),
            ScalarTy::F64 => f64_bits(f64_of(a).ceil()),
            other => return Err(ExecError::Other(format!("fceil on {other}"))),
        },
        FRound => match ty {
            ScalarTy::F32 => f32_bits(f32_of(a).round_ties_even()),
            ScalarTy::F64 => f64_bits(f64_of(a).round_ties_even()),
            other => return Err(ExecError::Other(format!("fround on {other}"))),
        },
    };
    Ok(r)
}

/// Evaluates a comparison on payloads of type `ty`.
pub fn eval_cmp(pred: CmpPred, ty: ScalarTy, a: u64, b: u64) -> bool {
    use CmpPred::*;
    match pred {
        Eq => a == b,
        Ne => a != b,
        Slt => sext(ty, a) < sext(ty, b),
        Sle => sext(ty, a) <= sext(ty, b),
        Sgt => sext(ty, a) > sext(ty, b),
        Sge => sext(ty, a) >= sext(ty, b),
        Ult => a < b,
        Ule => a <= b,
        Ugt => a > b,
        Uge => a >= b,
        FOeq | FOne | FOlt | FOle | FOgt | FOge => {
            let (x, y) = match ty {
                ScalarTy::F32 => (f32_of(a) as f64, f32_of(b) as f64),
                ScalarTy::F64 => (f64_of(a), f64_of(b)),
                _ => return false,
            };
            if x.is_nan() || y.is_nan() {
                return false;
            }
            match pred {
                FOeq => x == y,
                FOne => x != y,
                FOlt => x < y,
                FOle => x <= y,
                FOgt => x > y,
                FOge => x >= y,
                _ => unreachable!(),
            }
        }
    }
}

/// Evaluates a conversion from `from` to `to`.
pub fn eval_cast(kind: CastKind, from: ScalarTy, to: ScalarTy, a: u64) -> u64 {
    use CastKind::*;
    match kind {
        Zext | Trunc | Bitcast | PtrToInt | IntToPtr => trunc(to, a),
        Sext => trunc(to, sext(from, a) as u64),
        FpExt => f64_bits(f32_of(a) as f64),
        FpTrunc => f32_bits(f64_of(a) as f32),
        SiToFp => {
            let v = sext(from, a);
            match to {
                ScalarTy::F32 => f32_bits(v as f32),
                _ => f64_bits(v as f64),
            }
        }
        UiToFp => match to {
            ScalarTy::F32 => f32_bits(a as f32),
            _ => f64_bits(a as f64),
        },
        FpToSi => {
            let v = match from {
                ScalarTy::F32 => f32_of(a) as f64,
                _ => f64_of(a),
            };
            let w = to.bits();
            let max = ((1i128 << (w - 1)) - 1) as f64;
            let min = -((1i128 << (w - 1)) as f64);
            let clamped = if v.is_nan() { 0.0 } else { v.clamp(min, max) };
            trunc(to, (clamped as i64) as u64)
        }
        FpToUi => {
            let v = match from {
                ScalarTy::F32 => f32_of(a) as f64,
                _ => f64_of(a),
            };
            let max = if to.bits() == 64 {
                u64::MAX as f64
            } else {
                to.bit_mask() as f64
            };
            let clamped = if v.is_nan() { 0.0 } else { v.clamp(0.0, max) };
            trunc(to, clamped as u64)
        }
    }
}

/// The identity element of a reduction over `ty`.
pub fn reduce_identity(op: ReduceOp, ty: ScalarTy) -> u64 {
    use ReduceOp::*;
    match op {
        Add | Or | Xor => 0,
        And => ty.bit_mask(),
        UMin => ty.bit_mask(),
        UMax => 0,
        SMin => trunc(ty, (1u64 << (ty.bits() - 1)).wrapping_sub(1)), // MAX
        SMax => trunc(ty, 1u64 << (ty.bits() - 1)),                   // MIN
        FMin => match ty {
            ScalarTy::F32 => f32_bits(f32::INFINITY),
            _ => f64_bits(f64::INFINITY),
        },
        FMax => match ty {
            ScalarTy::F32 => f32_bits(f32::NEG_INFINITY),
            _ => f64_bits(f64::NEG_INFINITY),
        },
    }
}

/// Folds one element into a reduction accumulator.
pub fn reduce_step(op: ReduceOp, ty: ScalarTy, acc: u64, x: u64) -> u64 {
    use ReduceOp::*;
    let bin = match op {
        Add => {
            if ty.is_float() {
                BinOp::FAdd
            } else {
                BinOp::Add
            }
        }
        SMin => BinOp::SMin,
        SMax => BinOp::SMax,
        UMin => BinOp::UMin,
        UMax => BinOp::UMax,
        FMin => BinOp::FMin,
        FMax => BinOp::FMax,
        And => BinOp::And,
        Or => BinOp::Or,
        Xor => BinOp::Xor,
    };
    eval_bin(bin, ty, acc, x).expect("reduction ops cannot trap")
}

/// Scalar reference semantics of the math intrinsics (IEEE via Rust's
/// standard library). The `vmath` crate's vector libraries are validated
/// against these.
pub fn eval_math(f: MathFn, ty: ScalarTy, args: &[u64]) -> Result<u64, ExecError> {
    if args.len() != f.arity() {
        return Err(ExecError::Other(format!(
            "math.{} expects {} args, got {}",
            f.name(),
            f.arity(),
            args.len()
        )));
    }
    /// Φ(x): standard normal CDF via Abramowitz–Stegun 7.1.26 erf
    /// approximation (the form Black–Scholes reference kernels use).
    fn cdf(x: f64) -> f64 {
        let k = 1.0 / (1.0 + 0.2316419 * x.abs());
        let poly = k
            * (0.319381530
                + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
        let approx = 1.0 - (-x * x / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
        if x >= 0.0 {
            approx
        } else {
            1.0 - approx
        }
    }
    let apply64 = |a: f64, b: f64| -> f64 {
        match f {
            MathFn::Exp => a.exp(),
            MathFn::Log => a.ln(),
            MathFn::Pow => a.powf(b),
            MathFn::Sin => a.sin(),
            MathFn::Cos => a.cos(),
            MathFn::Tan => a.tan(),
            MathFn::Atan => a.atan(),
            MathFn::Atan2 => a.atan2(b),
            MathFn::Exp2 => a.exp2(),
            MathFn::Log2 => a.log2(),
            MathFn::Cdf => cdf(a),
        }
    };
    match ty {
        ScalarTy::F32 => {
            let a = f32_of(args[0]);
            let b = args.get(1).map(|&x| f32_of(x)).unwrap_or(0.0);
            // Compute in f32 to match what a vector library would produce.
            let r = match f {
                MathFn::Exp => a.exp(),
                MathFn::Log => a.ln(),
                MathFn::Pow => a.powf(b),
                MathFn::Sin => a.sin(),
                MathFn::Cos => a.cos(),
                MathFn::Tan => a.tan(),
                MathFn::Atan => a.atan(),
                MathFn::Atan2 => a.atan2(b),
                MathFn::Exp2 => a.exp2(),
                MathFn::Log2 => a.log2(),
                MathFn::Cdf => cdf(a as f64) as f32,
            };
            Ok(f32_bits(r))
        }
        ScalarTy::F64 => {
            let a = f64_of(args[0]);
            let b = args.get(1).map(|&x| f64_of(x)).unwrap_or(0.0);
            Ok(f64_bits(apply64(a, b)))
        }
        other => Err(ExecError::Other(format!("math on {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Pre-resolved lane kernels (fast-engine specialization)
// ---------------------------------------------------------------------------
//
// The functions above define the semantics; they re-match the opcode and
// element type on every lane. The resolvers below specialize that dispatch
// once per *static* instruction when a `FramePlan` is built: each returns a
// monomorphized `fn` pointer computing exactly what the corresponding
// `eval_*` function computes, or `None` for the (fallible or rare) cases
// that must keep the general per-lane path. The engine differential tests
// pin the two bit-identical.

/// Mask with the low `w` bits set.
#[inline]
const fn mask_w(w: u32) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// [`sext`] with the width as a compile-time constant.
#[inline]
fn sext_w<const W: u32>(bits: u64) -> i64 {
    if W == 64 {
        bits as i64
    } else {
        ((bits << (64 - W)) as i64) >> (64 - W)
    }
}

macro_rules! int2 {
    ($name:ident, $a:ident, $b:ident, $body:expr) => {
        #[inline]
        fn $name<const W: u32>($a: u64, $b: u64) -> u64 {
            $body
        }
    };
}

int2!(k_add, a, b, a.wrapping_add(b) & mask_w(W));
int2!(k_sub, a, b, a.wrapping_sub(b) & mask_w(W));
int2!(k_mul, a, b, a.wrapping_mul(b) & mask_w(W));
int2!(k_shl, a, b, (a << (b % W as u64)) & mask_w(W));
int2!(k_lshr, a, b, a >> (b % W as u64));
int2!(
    k_ashr,
    a,
    b,
    ((sext_w::<W>(a) >> (b % W as u64)) as u64) & mask_w(W)
);
int2!(
    k_smin,
    a,
    b,
    if sext_w::<W>(a) <= sext_w::<W>(b) {
        a
    } else {
        b
    }
);
int2!(
    k_smax,
    a,
    b,
    if sext_w::<W>(a) >= sext_w::<W>(b) {
        a
    } else {
        b
    }
);
int2!(k_addsats, a, b, {
    let max = (1i64 << (W - 1)) - 1;
    let min = -(1i64 << (W - 1));
    ((sext_w::<W>(a) + sext_w::<W>(b)).clamp(min, max) as u64) & mask_w(W)
});
int2!(k_subsats, a, b, {
    let max = (1i64 << (W - 1)) - 1;
    let min = -(1i64 << (W - 1));
    ((sext_w::<W>(a) - sext_w::<W>(b)).clamp(min, max) as u64) & mask_w(W)
});
int2!(
    k_addsatu,
    a,
    b,
    ((a as u128 + b as u128).min(mask_w(W) as u128)) as u64
);
int2!(
    k_avgu,
    a,
    b,
    (((a as u128 + b as u128 + 1) >> 1) as u64) & mask_w(W)
);
int2!(
    k_mulhis,
    a,
    b,
    ((((sext_w::<W>(a) as i128) * (sext_w::<W>(b) as i128)) >> W) as u64) & mask_w(W)
);
int2!(
    k_mulhiu,
    a,
    b,
    ((((a as u128) * (b as u128)) >> W) as u64) & mask_w(W)
);

#[inline]
fn k_and(a: u64, b: u64) -> u64 {
    a & b
}
#[inline]
fn k_or(a: u64, b: u64) -> u64 {
    a | b
}
#[inline]
fn k_xor(a: u64, b: u64) -> u64 {
    a ^ b
}
#[inline]
fn k_umin(a: u64, b: u64) -> u64 {
    a.min(b)
}
#[inline]
fn k_umax(a: u64, b: u64) -> u64 {
    a.max(b)
}
#[inline]
fn k_subsatu(a: u64, b: u64) -> u64 {
    a.saturating_sub(b)
}

macro_rules! fbin {
    ($n32:ident, $n64:ident, $x:ident, $y:ident, $e32:expr, $e64:expr) => {
        #[inline]
        fn $n32(a: u64, b: u64) -> u64 {
            let ($x, $y) = (f32_of(a), f32_of(b));
            f32_bits($e32)
        }
        #[inline]
        fn $n64(a: u64, b: u64) -> u64 {
            let ($x, $y) = (f64_of(a), f64_of(b));
            f64_bits($e64)
        }
    };
}

fbin!(k_fadd32, k_fadd64, x, y, x + y, x + y);
fbin!(k_fsub32, k_fsub64, x, y, x - y, x - y);
fbin!(k_fmul32, k_fmul64, x, y, x * y, x * y);
fbin!(k_fdiv32, k_fdiv64, x, y, x / y, x / y);
fbin!(k_frem32, k_frem64, x, y, x % y, x % y);
fbin!(k_fmin32, k_fmin64, x, y, x.min(y), x.min(y));
fbin!(k_fmax32, k_fmax64, x, y, x.max(y), x.max(y));

macro_rules! by_width {
    ($f:ident, $w:expr) => {
        match $w {
            1 => $f::<1>,
            8 => $f::<8>,
            16 => $f::<16>,
            32 => $f::<32>,
            _ => $f::<64>,
        }
    };
}

/// Resolves a [`BinOp`] on `ty` lanes to a specialized infallible kernel,
/// or `None` for the ops that must keep the general [`eval_bin`] path
/// (division/remainder traps, 64-bit signed saturation, float ops on
/// non-float types).
pub fn bin_lane_fn(op: BinOp, ty: ScalarTy) -> Option<fn(u64, u64) -> u64> {
    use BinOp::*;
    if op.is_float() {
        let g = match (ty, op) {
            (ScalarTy::F32, FAdd) => k_fadd32,
            (ScalarTy::F32, FSub) => k_fsub32,
            (ScalarTy::F32, FMul) => k_fmul32,
            (ScalarTy::F32, FDiv) => k_fdiv32,
            (ScalarTy::F32, FRem) => k_frem32,
            (ScalarTy::F32, FMin) => k_fmin32,
            (ScalarTy::F32, FMax) => k_fmax32,
            (ScalarTy::F64, FAdd) => k_fadd64,
            (ScalarTy::F64, FSub) => k_fsub64,
            (ScalarTy::F64, FMul) => k_fmul64,
            (ScalarTy::F64, FDiv) => k_fdiv64,
            (ScalarTy::F64, FRem) => k_frem64,
            (ScalarTy::F64, FMin) => k_fmin64,
            (ScalarTy::F64, FMax) => k_fmax64,
            _ => return None,
        };
        return Some(g);
    }
    let w = ty.bits();
    Some(match op {
        Add => by_width!(k_add, w),
        Sub => by_width!(k_sub, w),
        Mul => by_width!(k_mul, w),
        And => k_and,
        Or => k_or,
        Xor => k_xor,
        Shl => by_width!(k_shl, w),
        LShr => by_width!(k_lshr, w),
        AShr => by_width!(k_ashr, w),
        SMin => by_width!(k_smin, w),
        SMax => by_width!(k_smax, w),
        UMin => k_umin,
        UMax => k_umax,
        // 64-bit signed saturation would overflow the i64 intermediate in
        // ways eval_bin's release-mode arithmetic defines; keep those on
        // the shared path.
        AddSatS if w < 64 => by_width!(k_addsats, w),
        SubSatS if w < 64 => by_width!(k_subsats, w),
        AddSatU => by_width!(k_addsatu, w),
        SubSatU => k_subsatu,
        AvgU => by_width!(k_avgu, w),
        MulHiS => by_width!(k_mulhis, w),
        MulHiU => by_width!(k_mulhiu, w),
        _ => return None,
    })
}

macro_rules! int1 {
    ($name:ident, $a:ident, $body:expr) => {
        #[inline]
        fn $name<const W: u32>($a: u64) -> u64 {
            $body
        }
    };
}

int1!(k_not, a, (!a) & mask_w(W));
int1!(k_ineg, a, ((a as i64).wrapping_neg() as u64) & mask_w(W));
int1!(
    k_iabs,
    a,
    (sext_w::<W>(a).wrapping_abs() as u64) & mask_w(W)
);

macro_rules! fun1 {
    ($n32:ident, $n64:ident, $x:ident, $e32:expr, $e64:expr) => {
        #[inline]
        fn $n32(a: u64) -> u64 {
            let $x = f32_of(a);
            f32_bits($e32)
        }
        #[inline]
        fn $n64(a: u64) -> u64 {
            let $x = f64_of(a);
            f64_bits($e64)
        }
    };
}

fun1!(k_fneg32, k_fneg64, x, -x, -x);
fun1!(k_fabs32, k_fabs64, x, x.abs(), x.abs());
fun1!(k_fsqrt32, k_fsqrt64, x, x.sqrt(), x.sqrt());
fun1!(k_ffloor32, k_ffloor64, x, x.floor(), x.floor());
fun1!(k_fceil32, k_fceil64, x, x.ceil(), x.ceil());
fun1!(
    k_fround32,
    k_fround64,
    x,
    x.round_ties_even(),
    x.round_ties_even()
);

/// Resolves a [`UnOp`] on `ty` lanes to a specialized kernel, or `None`
/// for float ops on non-float types (which trap in [`eval_un`]).
pub fn un_lane_fn(op: UnOp, ty: ScalarTy) -> Option<fn(u64) -> u64> {
    use UnOp::*;
    let w = ty.bits();
    Some(match (op, ty) {
        (Not, _) => by_width!(k_not, w),
        (INeg, _) => by_width!(k_ineg, w),
        (IAbs, _) => by_width!(k_iabs, w),
        (FNeg, ScalarTy::F32) => k_fneg32,
        (FNeg, ScalarTy::F64) => k_fneg64,
        (FAbs, ScalarTy::F32) => k_fabs32,
        (FAbs, ScalarTy::F64) => k_fabs64,
        (FSqrt, ScalarTy::F32) => k_fsqrt32,
        (FSqrt, ScalarTy::F64) => k_fsqrt64,
        (FFloor, ScalarTy::F32) => k_ffloor32,
        (FFloor, ScalarTy::F64) => k_ffloor64,
        (FCeil, ScalarTy::F32) => k_fceil32,
        (FCeil, ScalarTy::F64) => k_fceil64,
        (FRound, ScalarTy::F32) => k_fround32,
        (FRound, ScalarTy::F64) => k_fround64,
        _ => return None,
    })
}

macro_rules! icmp {
    ($name:ident, $a:ident, $b:ident, $body:expr) => {
        #[inline]
        fn $name<const W: u32>($a: u64, $b: u64) -> u64 {
            ($body) as u64
        }
    };
}

icmp!(k_slt, a, b, sext_w::<W>(a) < sext_w::<W>(b));
icmp!(k_sle, a, b, sext_w::<W>(a) <= sext_w::<W>(b));
icmp!(k_sgt, a, b, sext_w::<W>(a) > sext_w::<W>(b));
icmp!(k_sge, a, b, sext_w::<W>(a) >= sext_w::<W>(b));

#[inline]
fn k_eq(a: u64, b: u64) -> u64 {
    (a == b) as u64
}
#[inline]
fn k_ne(a: u64, b: u64) -> u64 {
    (a != b) as u64
}
#[inline]
fn k_ult(a: u64, b: u64) -> u64 {
    (a < b) as u64
}
#[inline]
fn k_ule(a: u64, b: u64) -> u64 {
    (a <= b) as u64
}
#[inline]
fn k_ugt(a: u64, b: u64) -> u64 {
    (a > b) as u64
}
#[inline]
fn k_uge(a: u64, b: u64) -> u64 {
    (a >= b) as u64
}
#[inline]
fn k_false(_a: u64, _b: u64) -> u64 {
    0
}

macro_rules! fcmp {
    ($n32:ident, $n64:ident, $x:ident, $y:ident, $e:expr) => {
        #[inline]
        fn $n32(a: u64, b: u64) -> u64 {
            let ($x, $y) = (f32_of(a) as f64, f32_of(b) as f64);
            (!$x.is_nan() && !$y.is_nan() && $e) as u64
        }
        #[inline]
        fn $n64(a: u64, b: u64) -> u64 {
            let ($x, $y) = (f64_of(a), f64_of(b));
            (!$x.is_nan() && !$y.is_nan() && $e) as u64
        }
    };
}

fcmp!(k_foeq32, k_foeq64, x, y, x == y);
fcmp!(k_fone32, k_fone64, x, y, x != y);
fcmp!(k_folt32, k_folt64, x, y, x < y);
fcmp!(k_fole32, k_fole64, x, y, x <= y);
fcmp!(k_fogt32, k_fogt64, x, y, x > y);
fcmp!(k_foge32, k_foge64, x, y, x >= y);

/// Resolves a [`CmpPred`] on `ty` operands to a specialized kernel
/// returning `0`/`1` exactly as [`eval_cmp`] does (including ordered float
/// comparisons on non-float types, which are always false).
pub fn cmp_lane_fn(pred: CmpPred, ty: ScalarTy) -> fn(u64, u64) -> u64 {
    use CmpPred::*;
    let w = ty.bits();
    match pred {
        Eq => k_eq,
        Ne => k_ne,
        Slt => by_width!(k_slt, w),
        Sle => by_width!(k_sle, w),
        Sgt => by_width!(k_sgt, w),
        Sge => by_width!(k_sge, w),
        Ult => k_ult,
        Ule => k_ule,
        Ugt => k_ugt,
        Uge => k_uge,
        FOeq | FOne | FOlt | FOle | FOgt | FOge => match ty {
            ScalarTy::F32 => match pred {
                FOeq => k_foeq32,
                FOne => k_fone32,
                FOlt => k_folt32,
                FOle => k_fole32,
                FOgt => k_fogt32,
                _ => k_foge32,
            },
            ScalarTy::F64 => match pred {
                FOeq => k_foeq64,
                FOne => k_fone64,
                FOlt => k_folt64,
                FOle => k_fole64,
                FOgt => k_fogt64,
                _ => k_foge64,
            },
            _ => k_false,
        },
    }
}

int1!(k_trunc, a, a & mask_w(W));

#[inline]
fn k_sextc<const FW: u32, const TW: u32>(a: u64) -> u64 {
    (sext_w::<FW>(a) as u64) & mask_w(TW)
}

#[inline]
fn k_fpext(a: u64) -> u64 {
    f64_bits(f32_of(a) as f64)
}
#[inline]
fn k_fptrunc(a: u64) -> u64 {
    f32_bits(f64_of(a) as f32)
}

int1!(k_si2f32, a, f32_bits(sext_w::<W>(a) as f32));
int1!(k_si2f64, a, f64_bits(sext_w::<W>(a) as f64));

#[inline]
fn k_ui2f32(a: u64) -> u64 {
    f32_bits(a as f32)
}
#[inline]
fn k_ui2f64(a: u64) -> u64 {
    f64_bits(a as f64)
}

macro_rules! fp2int {
    ($name:ident, $of:expr, $signed:literal) => {
        #[inline]
        fn $name<const TW: u32>(a: u64) -> u64 {
            #[allow(clippy::cast_sign_loss)]
            let v: f64 = $of(a);
            if $signed {
                let max = ((1i128 << (TW - 1)) - 1) as f64;
                let min = -((1i128 << (TW - 1)) as f64);
                let clamped = if v.is_nan() { 0.0 } else { v.clamp(min, max) };
                ((clamped as i64) as u64) & mask_w(TW)
            } else {
                let max = if TW == 64 {
                    u64::MAX as f64
                } else {
                    mask_w(TW) as f64
                };
                let clamped = if v.is_nan() { 0.0 } else { v.clamp(0.0, max) };
                (clamped as u64) & mask_w(TW)
            }
        }
    };
}

fp2int!(k_f32tosi, |a| f32_of(a) as f64, true);
fp2int!(k_f64tosi, f64_of, true);
fp2int!(k_f32toui, |a| f32_of(a) as f64, false);
fp2int!(k_f64toui, f64_of, false);

/// Resolves a [`CastKind`] from `from` to `to` to a specialized kernel
/// computing exactly what [`eval_cast`] computes.
pub fn cast_lane_fn(kind: CastKind, from: ScalarTy, to: ScalarTy) -> fn(u64) -> u64 {
    use CastKind::*;
    let (fw, tw) = (from.bits(), to.bits());
    match kind {
        Zext | Trunc | Bitcast | PtrToInt | IntToPtr => by_width!(k_trunc, tw),
        Sext => {
            macro_rules! arm {
                ($F:literal) => {
                    match tw {
                        1 => k_sextc::<$F, 1>,
                        8 => k_sextc::<$F, 8>,
                        16 => k_sextc::<$F, 16>,
                        32 => k_sextc::<$F, 32>,
                        _ => k_sextc::<$F, 64>,
                    }
                };
            }
            match fw {
                1 => arm!(1),
                8 => arm!(8),
                16 => arm!(16),
                32 => arm!(32),
                _ => arm!(64),
            }
        }
        FpExt => k_fpext,
        FpTrunc => k_fptrunc,
        SiToFp => match to {
            ScalarTy::F32 => by_width!(k_si2f32, fw),
            _ => by_width!(k_si2f64, fw),
        },
        UiToFp => match to {
            ScalarTy::F32 => k_ui2f32,
            _ => k_ui2f64,
        },
        FpToSi => match from {
            ScalarTy::F32 => by_width!(k_f32tosi, tw),
            _ => by_width!(k_f64tosi, tw),
        },
        FpToUi => match from {
            ScalarTy::F32 => by_width!(k_f32toui, tw),
            _ => by_width!(k_f64toui, tw),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_and_signed_ops() {
        assert_eq!(eval_bin(BinOp::Add, ScalarTy::I8, 0xff, 1).unwrap(), 0);
        assert_eq!(eval_bin(BinOp::Sub, ScalarTy::I8, 0, 1).unwrap(), 0xff);
        assert_eq!(
            sext(
                ScalarTy::I8,
                eval_bin(BinOp::SDiv, ScalarTy::I8, 0xf6, 3).unwrap()
            ),
            -3 // -10 / 3
        );
        assert!(matches!(
            eval_bin(BinOp::SDiv, ScalarTy::I32, 5, 0),
            Err(ExecError::DivByZero)
        ));
        // MIN / -1 overflows.
        assert!(matches!(
            eval_bin(BinOp::SDiv, ScalarTy::I8, 0x80, 0xff),
            Err(ExecError::DivByZero)
        ));
        // Signed saturating arithmetic at full 64-bit width (the sum and
        // the bounds both exceed native i64 range).
        assert_eq!(
            eval_bin(BinOp::AddSatS, ScalarTy::I64, i64::MAX as u64, 1).unwrap(),
            i64::MAX as u64
        );
        assert_eq!(
            eval_bin(BinOp::SubSatS, ScalarTy::I64, i64::MIN as u64, 1).unwrap(),
            i64::MIN as u64
        );
        assert_eq!(
            eval_bin(BinOp::SubSatS, ScalarTy::I64, i64::MIN as u64, u64::MAX).unwrap(),
            i64::MIN.wrapping_add(1) as u64 // MIN - (-1) = MIN + 1, exact
        );
        assert_eq!(
            eval_bin(BinOp::AddSatS, ScalarTy::I8, 0x7f, 1).unwrap(),
            0x7f
        );
        // MIN % -1 is 0 (no trap), at every width.
        assert_eq!(eval_bin(BinOp::SRem, ScalarTy::I8, 0x80, 0xff).unwrap(), 0);
        assert_eq!(
            eval_bin(BinOp::SRem, ScalarTy::I64, i64::MIN as u64, u64::MAX).unwrap(),
            0
        );
        assert_eq!(
            sext(
                ScalarTy::I32,
                eval_bin(BinOp::SRem, ScalarTy::I32, (-7i64) as u64, 4).unwrap()
            ),
            -3
        );
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            eval_bin(BinOp::AddSatU, ScalarTy::I8, 200, 100).unwrap(),
            255
        );
        assert_eq!(eval_bin(BinOp::SubSatU, ScalarTy::I8, 10, 20).unwrap(), 0);
        assert_eq!(
            sext(
                ScalarTy::I8,
                eval_bin(BinOp::AddSatS, ScalarTy::I8, 100, 100).unwrap()
            ),
            127
        );
        assert_eq!(
            sext(
                ScalarTy::I8,
                eval_bin(BinOp::SubSatS, ScalarTy::I8, 0x80, 1).unwrap()
            ),
            -128
        );
    }

    #[test]
    fn avg_and_mulhi() {
        assert_eq!(eval_bin(BinOp::AvgU, ScalarTy::I8, 10, 13).unwrap(), 12);
        assert_eq!(eval_bin(BinOp::AvgU, ScalarTy::I8, 255, 255).unwrap(), 255);
        assert_eq!(
            eval_bin(BinOp::MulHiU, ScalarTy::I16, 0xffff, 0xffff).unwrap(),
            0xfffe
        );
        assert_eq!(
            sext(
                ScalarTy::I16,
                eval_bin(BinOp::MulHiS, ScalarTy::I16, 0x8000, 2).unwrap()
            ),
            -1
        );
    }

    #[test]
    fn float_ops_and_cmp() {
        fn bits32(v: f32) -> u64 {
            v.to_bits() as u64
        }
        let a = bits32(3.0);
        let b = bits32(4.0);
        assert_eq!(
            f32::from_bits(eval_bin(BinOp::FAdd, ScalarTy::F32, a, b).unwrap() as u32),
            7.0
        );
        assert!(eval_cmp(CmpPred::FOlt, ScalarTy::F32, a, b));
        let nan = bits32(f32::NAN);
        assert!(!eval_cmp(CmpPred::FOeq, ScalarTy::F32, nan, nan));
        assert!(!eval_cmp(CmpPred::FOlt, ScalarTy::F32, nan, b));
    }

    #[test]
    fn casts() {
        assert_eq!(
            eval_cast(CastKind::Sext, ScalarTy::I8, ScalarTy::I32, 0xff),
            0xffff_ffff
        );
        assert_eq!(
            eval_cast(CastKind::Zext, ScalarTy::I8, ScalarTy::I32, 0xff),
            0xff
        );
        assert_eq!(
            eval_cast(CastKind::Trunc, ScalarTy::I32, ScalarTy::I8, 0x1234),
            0x34
        );
        let f = eval_cast(
            CastKind::SiToFp,
            ScalarTy::I32,
            ScalarTy::F32,
            (-3i32) as u32 as u64,
        );
        assert_eq!(f32::from_bits(f as u32), -3.0);
        // Saturating fptosi.
        let big = (1e10f32).to_bits() as u64;
        assert_eq!(
            sext(
                ScalarTy::I32,
                eval_cast(CastKind::FpToSi, ScalarTy::F32, ScalarTy::I32, big)
            ),
            i32::MAX as i64
        );
        let neg = (-5.9f32).to_bits() as u64;
        assert_eq!(
            sext(
                ScalarTy::I32,
                eval_cast(CastKind::FpToSi, ScalarTy::F32, ScalarTy::I32, neg)
            ),
            -5
        );
        assert_eq!(
            eval_cast(CastKind::FpToUi, ScalarTy::F32, ScalarTy::I8, neg),
            0
        );
    }

    #[test]
    fn reductions() {
        // max over i8 with signed values
        let xs = [5u64, 0xfe, 7, 3]; // 5, -2, 7, 3
        let mut acc = reduce_identity(ReduceOp::SMax, ScalarTy::I8);
        for &x in &xs {
            acc = reduce_step(ReduceOp::SMax, ScalarTy::I8, acc, x);
        }
        assert_eq!(sext(ScalarTy::I8, acc), 7);
        let mut sum = reduce_identity(ReduceOp::Add, ScalarTy::I8);
        for &x in &xs {
            sum = reduce_step(ReduceOp::Add, ScalarTy::I8, sum, x);
        }
        assert_eq!(sext(ScalarTy::I8, sum), 13);
    }

    #[test]
    fn math_reference() {
        let x = (2.0f32).to_bits() as u64;
        let y = (10.0f32).to_bits() as u64;
        let p = eval_math(MathFn::Pow, ScalarTy::F32, &[x, y]).unwrap();
        assert!((f32::from_bits(p as u32) - 1024.0).abs() < 1e-2);
        let c = eval_math(MathFn::Cdf, ScalarTy::F64, &[0f64.to_bits()]).unwrap();
        assert!((f64::from_bits(c) - 0.5).abs() < 1e-6);
    }
}
