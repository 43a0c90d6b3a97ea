//! Special mathematical functions used throughout the probability substrate.
//!
//! Everything here is implemented from scratch (no external math crates are
//! available in this workspace): log-gamma via the Lanczos approximation,
//! regularized incomplete gamma/beta functions via series and continued
//! fractions (modified Lentz algorithm), the error function derived from the
//! incomplete gamma function, and inverse CDF helpers.
//!
//! Accuracy targets: ~1e-13 relative error for `ln_gamma`, ~1e-12 for the
//! regularized incomplete functions over their well-conditioned domains.
//! `inverse_standard_normal_cdf` is Wichura's AS241 (one rational per
//! region, no refinement step); measured against the in-tree
//! `standard_normal_cdf` it satisfies `|Φ(x) − p| ≤ 16·(1 + x²)·ε·p` from
//! `p = 1e-300` to `0.5`, and it is exactly odd about `p = 0.5`.
//!
//! The Beta quantile ([`IncompleteBeta::inverse`], behind
//! `inv_reg_inc_beta`) starts from a closed form (Abramowitz–Stegun
//! 26.5.22 through AS241 when both shapes are at least 1, else the
//! power-law tails of Numerical Recipes' `invbetai`) and takes guarded
//! Halley steps inside a bracket, with `ln B(a, b)` computed once and the
//! density taken from the CDF's own front factor. On shapes in
//! `[1.5, 4]` it needs about 3.3 CDF evaluations per value (the
//! Newton–bisection it replaced needed 12–14). Measured against
//! [`IncompleteBeta::cdf`] on shapes `{0.1, …, 300}` and levels down to
//! `1e-15` in either tail: `|I_x − p| ≤ 256·(ε·s + pdf(x)·ulp(x))` with
//! `s = p` up to 1/2 and 1 above, and non-decreasing in `p`.

/// Natural logarithm of `sqrt(2 * pi)`.
pub const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_8;

/// `sqrt(2)`.
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Machine epsilon based convergence tolerance for iterative schemes.
const EPS: f64 = 1e-15;

/// Iteration cap for series/continued-fraction evaluation.
const MAX_ITER: usize = 500;

/// Lanczos coefficients (g = 7, n = 9), giving ~15 significant digits.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Panics
///
/// Panics if `x` is NaN.
///
/// # Examples
///
/// ```
/// use sysunc_prob::special::ln_gamma;
/// assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(!x.is_nan(), "ln_gamma: x must not be NaN");
    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1-x) = π / sin(πx).
        let s = (std::f64::consts::PI * x).sin();
        if s == 0.0 {
            return f64::INFINITY; // poles at non-positive integers
        }
        std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = LANCZOS_COEF[0];
        for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + LANCZOS_G + 0.5;
        LN_SQRT_2PI + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// The gamma function `Γ(x)`.
///
/// Computed as `exp(ln_gamma(x))` with sign handling for negative arguments.
///
/// # Examples
///
/// ```
/// use sysunc_prob::special::gamma;
/// assert!((gamma(6.0) - 120.0).abs() < 1e-9);
/// ```
pub fn gamma(x: f64) -> f64 {
    #[expect(clippy::float_cmp, reason = "the poles sit at exactly the nonpositive integers")]
    if x > 0.0 {
        ln_gamma(x).exp()
    // Poles sit at exactly the nonpositive integers; the exact
    // comparison is the definition, not an accident.
    } else if x == x.floor() {
        f64::NAN
    } else {
        // Reflection: Γ(x) = π / (sin(πx) Γ(1-x))
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * ln_gamma(1.0 - x).exp())
    }
}

/// Digamma function `ψ(x) = d/dx ln Γ(x)` for `x > 0`.
///
/// Uses upward recurrence to shift the argument above 6 and an asymptotic
/// series with Bernoulli-number coefficients.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma: requires x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln() - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// Uses the power series for `x < a + 1` and the continued fraction of the
/// upper function otherwise.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma: requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma: requires x >= 0, got {x}");
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        lower_gamma_series(a, x)
    } else {
        1.0 - upper_gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_upper_gamma: requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_upper_gamma: requires x >= 0, got {x}");
    if x == 0.0 {
        1.0
    } else if x < a + 1.0 {
        1.0 - lower_gamma_series(a, x)
    } else {
        upper_gamma_cf(a, x)
    }
}

/// Power-series evaluation of `P(a, x)`; converges fast for `x < a + 1`.
fn lower_gamma_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..MAX_ITER {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (a * x.ln() - x - ln_gamma(a)).exp()
}

/// Continued-fraction evaluation of `Q(a, x)` (modified Lentz algorithm);
/// converges fast for `x >= a + 1`.
fn upper_gamma_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h * (a * x.ln() - x - ln_gamma(a)).exp()
}

/// Inverse of the regularized lower incomplete gamma: finds `x` such that
/// `P(a, x) = p`.
///
/// Uses a starting estimate (Wilson–Hilferty for moderate `a`) refined by
/// safeguarded Newton iteration.
///
/// # Panics
///
/// Panics if `a <= 0` or `p` is outside `[0, 1]`.
pub fn inv_reg_lower_gamma(a: f64, p: f64) -> f64 {
    assert!(a > 0.0, "inv_reg_lower_gamma: requires a > 0, got {a}");
    assert!((0.0..=1.0).contains(&p), "inv_reg_lower_gamma: p in [0,1], got {p}");
    if p == 0.0 {
        return 0.0;
    }
    #[expect(clippy::float_cmp, reason = "p = 1 is the exact closed end of the probability domain")]
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Wilson-Hilferty initial approximation.
    let z = inverse_standard_normal_cdf(p);
    let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
    let mut x = (a * t * t * t).max(1e-8 * a.min(1.0));
    // Safeguarded Newton: P(a, x) is increasing in x; derivative is the pdf.
    let mut lo = 0.0_f64;
    let mut hi = f64::INFINITY;
    for _ in 0..100 {
        let f = reg_lower_gamma(a, x) - p;
        if f > 0.0 {
            hi = hi.min(x);
        } else {
            lo = lo.max(x);
        }
        // pdf of Gamma(a, 1) at x:
        let ln_pdf = (a - 1.0) * x.ln() - x - ln_gamma(a);
        let dfdx = ln_pdf.exp();
        let mut x_new = if dfdx > 0.0 { x - f / dfdx } else { x };
        if !(x_new > lo && (hi.is_infinite() || x_new < hi)) || !x_new.is_finite() {
            // Bisection fallback.
            x_new = if hi.is_finite() { 0.5 * (lo + hi) } else { (lo.max(x)) * 2.0 + 1.0 };
        }
        if (x_new - x).abs() <= 1e-14 * x.abs().max(1e-300) {
            x = x_new;
            break;
        }
        x = x_new;
    }
    x
}

/// Natural logarithm of the beta function `ln B(a, b)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `b <= 0`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "ln_beta: requires a, b > 0, got ({a}, {b})");
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Continued fraction (modified Lentz), using the symmetry
/// `I_x(a, b) = 1 - I_{1-x}(b, a)` for convergence.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0` or `x` is outside `[0, 1]`.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "reg_inc_beta: requires a, b > 0, got ({a}, {b})");
    IncompleteBeta::new(a, b).cdf(x)
}

/// Inverse of the regularized incomplete beta: finds `x` with `I_x(a, b) = p`.
///
/// See [`IncompleteBeta::inverse`] for the algorithm and its accuracy.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0` or `p` is outside `[0, 1]`.
pub fn inv_reg_inc_beta(a: f64, b: f64, p: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "inv_reg_inc_beta: requires a, b > 0, got ({a}, {b})");
    IncompleteBeta::new(a, b).inverse(p)
}

/// The regularized incomplete beta function `I_x(a, b)` of fixed shapes,
/// with `ln B(a, b)` computed once: the CDF and quantile of a
/// `Beta(a, b)` law. [`reg_inc_beta`] and [`inv_reg_inc_beta`] are
/// one-off calls of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncompleteBeta {
    a: f64,
    b: f64,
    ln_b: f64,
}

impl IncompleteBeta {
    /// The function of shapes `a`, `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a <= 0` or `b <= 0`.
    pub fn new(a: f64, b: f64) -> Self {
        Self { a, b, ln_b: ln_beta(a, b) }
    }

    /// `ln B(a, b)`, as [`ln_beta`] computes it.
    pub fn ln_beta(&self) -> f64 {
        self.ln_b
    }

    /// `I_x(a, b)`.
    /// Range: `[0, 1]`, non-decreasing in `x`, `0` at `x = 0` and `1` at `x = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn cdf(&self, x: f64) -> f64 {
        assert!((0.0..=1.0).contains(&x), "reg_inc_beta: x in [0,1], got {x}");
        if x == 0.0 {
            return 0.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "x = 1 is the exact closed end of the integration range"
        )]
        if x == 1.0 {
            return 1.0;
        }
        cdf_and_front(self.a, self.b, self.ln_b, x).0
    }

    /// The `x` with `I_x(a, b) = p`.
    ///
    /// Above `p = 1/2`, when the start lies above `x = 1/2`, it solves
    /// `I_y(b, a) = 1 − p` (exact by Sterbenz) and returns `1 − y`, so an
    /// upper tail is found relative to its own probability; otherwise it
    /// solves `I_x(a, b) = p`, which keeps a small `x` exact. The solve
    /// starts from a closed form: Abramowitz–Stegun 26.5.22 through
    /// [`inverse_standard_normal_cdf`] when both shapes are at least 1,
    /// else the power-law tail start of Numerical Recipes' `invbetai`.
    /// Each iteration makes one CDF evaluation and keeps a bracket
    /// `[lo, hi]` of the root. It then steps by Halley on
    /// `I_x − p` (density from the CDF's front factor), by Newton on
    /// `ln I_x` against `ln x` while `I_x` is more than a factor 2 from
    /// `p` (exact for a power-law tail), and bisects whenever a step would
    /// leave the bracket. It stops when a Halley step is below
    /// `1e-10 · min(x, 1 − x)` (the next error is then about its cube) or
    /// the bracket is a few ulps wide.
    ///
    /// Accuracy, against [`IncompleteBeta::cdf`] on `a, b` in
    /// `{0.1, 0.3, 0.5, 0.9, 1, 1.5, 2.5, 4, 10, 100, 300}` and `p` on
    /// `k/1000` plus `10^(−j/10)` and `1 − 10^(−j/10)` for `j = 30..=150`:
    /// `|I_x − p| ≤ 256·(ε·s + pdf(x)·ulp(x))` with `s = p` for `p ≤ 1/2`
    /// and `s = 1` above (the worst point, 234 at `(300, 300, 1/2)`, is
    /// the CDF's own error: `I_{1/2}(300, 300)` reads `1/2 + 1.4e-13`), and
    /// the result is non-decreasing in `p` on every shape there. On
    /// `a, b ∈ [1.5, 4]` it needs about 3.3 CDF evaluations per value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn inverse(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "inv_reg_inc_beta: p in [0,1], got {p}");
        if p == 0.0 {
            return 0.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "p = 1 is the exact closed end of the probability domain"
        )]
        if p == 1.0 {
            return 1.0;
        }
        let x0 = beta_start(self.a, self.b, p);
        if p > 0.5 && x0 > 0.5 {
            let y0 = beta_start(self.b, self.a, 1.0 - p);
            1.0 - root(self.b, self.a, self.ln_b, 1.0 - p, y0)
        } else {
            root(self.a, self.b, self.ln_b, p, x0)
        }
    }
}

/// `(I_x(a, b), x^a (1 − x)^b / B(a, b))` for `x` in `(0, 1)`, with
/// `ln_b = ln B(a, b)`: the front factor is computed once and serves
/// whichever continued fraction converges, and the density
/// `front / (x (1 − x))`.
fn cdf_and_front(a: f64, b: f64, ln_b: f64, x: f64) -> (f64, f64) {
    let front = (a * x.ln() + b * (1.0 - x).ln() - ln_b).exp();
    let cdf = if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    };
    #[cfg(test)]
    CDF_EVALS.with(|n| n.set(n.get() + 1));
    (cdf, front)
}

#[cfg(test)]
thread_local! {
    /// `cdf_and_front` calls on this thread, for the evaluation-count test.
    static CDF_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Iteration cap of [`root`]; a bisection-only solve from `[0, 1]`
/// reaches `f64::MIN_POSITIVE` in fewer steps.
const ROOT_STEPS: usize = 100;

/// Solves `I_x(a, b) = p` for `0 < p < 1` from the start `x0`; see
/// [`IncompleteBeta::inverse`].
fn root(a: f64, b: f64, ln_b: f64, p: f64, x0: f64) -> f64 {
    let mut x = x0.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0);
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..ROOT_STEPS {
        let (cdf, front) = cdf_and_front(a, b, ln_b, x);
        let f = cdf - p;
        if f < 0.0 {
            lo = x;
        } else if f > 0.0 {
            hi = x;
        } else {
            return x;
        }
        let mut halley = false;
        let mut next = if cdf > 2.0 * p || cdf < 0.5 * p {
            // Far from the root: Newton on ln I against ln x.
            x * (-(cdf / p).ln() * cdf * (1.0 - x) / front).exp()
        } else {
            // `f / pdf`, with the density taken from the front factor.
            let newton = f * (x * (1.0 - x)) / front;
            let bend = 0.5 * newton * ((a - 1.0) / x - (b - 1.0) / (1.0 - x));
            halley = bend.abs() <= 0.5;
            if halley {
                x - newton / (1.0 - bend)
            } else {
                x - newton
            }
        };
        if !(next > lo && next < hi) {
            halley = false;
            next = if lo > 0.0 && hi > 4.0 * lo { lo.sqrt() * hi.sqrt() } else { 0.5 * (lo + hi) };
        }
        if halley && (next - x).abs() <= 1e-10 * next.min(1.0 - next) {
            return next;
        }
        if hi - lo <= 4.0 * f64::EPSILON * hi {
            return next;
        }
        x = next;
    }
    x
}

/// Closed-form start for [`root`].
fn beta_start(a: f64, b: f64, p: f64) -> f64 {
    if a >= 1.0 && b >= 1.0 {
        // Abramowitz–Stegun 26.5.22, with y the upper-tail normal
        // deviate: Q(y) = p.
        let y = -inverse_standard_normal_cdf(p);
        let lambda = (y * y - 3.0) / 6.0;
        let (ra, rb) = (1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0));
        let h = 2.0 / (ra + rb);
        let w = y * (h + lambda).sqrt() / h - (rb - ra) * (lambda + 5.0 / 6.0 - 2.0 / (3.0 * h));
        a / (a + b * (2.0 * w).exp())
    } else {
        // Numerical Recipes (3rd ed.), `invbetai`: power-law tails
        // `x^a / (a w)` and `(1 − x)^b / (b w)`.
        let t = (a * (a / (a + b)).ln()).exp() / a;
        let u = (b * (b / (a + b)).ln()).exp() / b;
        let w = t + u;
        if p < t / w {
            (a * w * p).powf(1.0 / a)
        } else {
            1.0 - (b * w * (1.0 - p)).powf(1.0 / b)
        }
    }
}

/// Continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// The error function `erf(x)`, computed from the regularized incomplete
/// gamma function: `erf(x) = sign(x) * P(1/2, x^2)`.
///
/// # Examples
///
/// ```
/// use sysunc_prob::special::erf;
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        reg_lower_gamma(0.5, x * x)
    } else {
        -reg_lower_gamma(0.5, x * x)
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`, accurate for
/// large `x` (no cancellation).
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        reg_upper_gamma(0.5, x * x)
    } else {
        1.0 + reg_lower_gamma(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
/// Range: `[0, 1]`, monotone in `x`, `Phi(0) = 1/2`.
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Standard normal probability density function `φ(x)`.
pub fn standard_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse standard normal CDF (probit function) `Φ⁻¹(p)`.
///
/// Wichura's AS241 (PPND16, *Applied Statistics* 37, 1988): one
/// degree-7/7 rational in `0.180625 − q²` for the central region
/// `|p − 0.5| ≤ 0.425`, otherwise one rational in `r − 1.6` (`r ≤ 5`) or
/// `r − 5`, with `r = √(−ln min(p, 1 − p))`. No `erfc`, no `exp`, no
/// refinement step, so a call costs one rational plus at most a `ln` and
/// a `sqrt`.
///
/// Accuracy, measured against [`standard_normal_cdf`] on a 0.001-decade
/// grid from `1e-300` to `0.5` plus a linear grid on `(0, 0.5)`:
/// `|Φ(x) − p| ≤ 16·(1 + x²)·ε·p`, where the `(1 + x²)` factor is the
/// in-tree `Φ`'s own error growth. The result is exactly odd about
/// `p = 0.5`: whenever `1 − p` is exact, `Φ⁻¹(1 − p) == −Φ⁻¹(p)` bitwise.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use sysunc_prob::special::inverse_standard_normal_cdf;
/// assert!((inverse_standard_normal_cdf(0.975) - 1.959963984540054).abs() < 1e-12);
/// ```
/// Range: `p` must lie in `(0, 1)` for a finite result; infinities at the ends.
pub fn inverse_standard_normal_cdf(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "inverse_standard_normal_cdf: p in [0,1], got {p}");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    #[expect(clippy::float_cmp, reason = "p = 1 is the exact closed end of the probability domain")]
    if p == 1.0 {
        return f64::INFINITY;
    }
    // AS241 coefficients, lowest degree first; each literal is the
    // shortest that parses to the same `f64` as Wichura's 20 digits.
    const A: [f64; 8] = [
        3.387_132_872_796_366_5,
        133.141_667_891_784_38,
        1_971.590_950_306_551_3,
        13_731.693_765_509_46,
        45_921.953_931_549_87,
        67_265.770_927_008_7,
        33_430.575_583_588_13,
        2_509.080_928_730_122_7,
    ];
    const B: [f64; 8] = [
        1.0,
        42.313_330_701_600_91,
        687.187_007_492_057_9,
        5_394.196_021_424_751,
        21_213.794_301_586_597,
        39_307.895_800_092_71,
        28_729.085_735_721_943,
        5_226.495_278_852_854,
    ];
    const C: [f64; 8] = [
        1.423_437_110_749_683_5,
        4.630_337_846_156_546,
        5.769_497_221_460_691,
        3.647_848_324_763_204_5,
        1.270_458_252_452_368_4,
        0.241_780_725_177_450_6,
        2.272_384_498_926_918_4e-2,
        7.745_450_142_783_414e-4,
    ];
    const D: [f64; 8] = [
        1.0,
        2.053_191_626_637_759,
        1.676_384_830_183_803_8,
        0.689_767_334_985_1,
        0.148_103_976_427_480_08,
        1.519_866_656_361_645_7e-2,
        5.475_938_084_995_345e-4,
        1.050_750_071_644_416_9e-9,
    ];
    const E: [f64; 8] = [
        6.657_904_643_501_103,
        5.463_784_911_164_114,
        1.784_826_539_917_291_3,
        0.296_560_571_828_504_87,
        2.653_218_952_657_612_4e-2,
        1.242_660_947_388_078_4e-3,
        2.711_555_568_743_487_6e-5,
        2.010_334_399_292_288_1e-7,
    ];
    const F: [f64; 8] = [
        1.0,
        0.599_832_206_555_888,
        0.136_929_880_922_735_8,
        1.487_536_129_085_061_5e-2,
        7.868_691_311_456_133e-4,
        1.846_318_317_510_054_8e-5,
        1.421_511_758_316_446e-7,
        2.044_263_103_389_939_7e-15,
    ];
    // Horner evaluation of `c[0] + c[1]·t + … + c[7]·t⁷`.
    fn poly(c: &[f64; 8], t: f64) -> f64 {
        c.iter().rev().fold(0.0, |acc, &k| acc * t + k)
    }

    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let t = 0.180_625 - q * q;
        return q * poly(&A, t) / poly(&B, t);
    }
    let r = (-p.min(1.0 - p).ln()).sqrt();
    let x = if r <= 5.0 {
        let t = r - 1.6;
        poly(&C, t) / poly(&D, t)
    } else {
        let t = r - 5.0;
        poly(&E, t) / poly(&F, t)
    };
    if q < 0.0 {
        -x
    } else {
        x
    }
}

/// Inverse error function `erf⁻¹(y)` for `y` in `(-1, 1)`.
pub fn inv_erf(y: f64) -> f64 {
    assert!((-1.0..=1.0).contains(&y), "inv_erf: y in [-1,1], got {y}");
    inverse_standard_normal_cdf(0.5 * (y + 1.0)) / SQRT_2
}

/// Natural logarithm of `n!`.
pub fn ln_factorial(n: u64) -> f64 {
    // Exact table for small n keeps binomial pmfs crisp.
    const TABLE: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5040.0,
        40320.0,
        362880.0,
        3628800.0,
        39916800.0,
        479001600.0,
        6227020800.0,
        87178291200.0,
        1307674368000.0,
        20922789888000.0,
        355687428096000.0,
        6402373705728000.0,
        121645100408832000.0,
        2432902008176640000.0,
    ];
    if n <= 20 {
        TABLE[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns negative infinity when `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        f64::NEG_INFINITY
    } else {
        ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol * (1.0 + b.abs()), "expected {b}, got {a}");
    }

    #[test]
    fn ln_gamma_integer_factorials() {
        for n in 1..20u64 {
            let expect = ln_factorial(n - 1);
            close(ln_gamma(n as f64), expect, 1e-13);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-13);
        // Γ(3/2) = sqrt(π)/2
        close(ln_gamma(1.5), (std::f64::consts::PI.sqrt() / 2.0).ln(), 1e-13);
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(0.25) = 3.625609908221908...
        close(ln_gamma(0.25), 3.625_609_908_221_908_3_f64.ln(), 1e-12);
    }

    #[test]
    fn gamma_negative_non_integer() {
        // Γ(-0.5) = -2 sqrt(π)
        close(gamma(-0.5), -2.0 * std::f64::consts::PI.sqrt(), 1e-11);
    }

    #[test]
    fn digamma_known_values() {
        const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
        close(digamma(1.0), -EULER_MASCHERONI, 1e-12);
        close(digamma(2.0), 1.0 - EULER_MASCHERONI, 1e-12);
        close(digamma(0.5), -EULER_MASCHERONI - 2.0 * 2.0_f64.ln(), 1e-12);
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &(a, x) in &[(0.5, 0.3), (1.0, 1.0), (2.5, 4.0), (10.0, 3.0), (10.0, 20.0)] {
            close(reg_lower_gamma(a, x) + reg_upper_gamma(a, x), 1.0, 1e-14);
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-13);
        }
    }

    #[test]
    fn inverse_incomplete_gamma_round_trip() {
        for &a in &[0.3, 1.0, 2.5, 17.0] {
            for &p in &[1e-6, 0.01, 0.3, 0.5, 0.9, 0.999] {
                let x = inv_reg_lower_gamma(a, p);
                close(reg_lower_gamma(a, x), p, 1e-10);
            }
        }
    }

    #[test]
    fn incomplete_beta_uniform_special_case() {
        // I_x(1, 1) = x
        for &x in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            close(reg_inc_beta(1.0, 1.0, x), x, 1e-14);
        }
    }

    #[test]
    fn incomplete_beta_symmetry() {
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.25), (5.0, 1.5, 0.8)] {
            close(reg_inc_beta(a, b, x), 1.0 - reg_inc_beta(b, a, 1.0 - x), 1e-13);
        }
    }

    #[test]
    fn incomplete_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.25}(2, 2) = 3x² - 2x³ at 0.25
        close(reg_inc_beta(2.0, 2.0, 0.5), 0.5, 1e-14);
        let x: f64 = 0.25;
        close(reg_inc_beta(2.0, 2.0, x), 3.0 * x * x - 2.0 * x * x * x, 1e-13);
    }

    #[test]
    fn inverse_incomplete_beta_round_trip() {
        for &(a, b) in &[(2.0, 3.0), (0.5, 0.5), (8.0, 2.0)] {
            for &p in &[1e-5, 0.1, 0.5, 0.9, 0.99999] {
                let x = inv_reg_inc_beta(a, b, p);
                close(reg_inc_beta(a, b, x), p, 1e-10);
            }
        }
    }

    /// `k/1000` plus `10^(−j/10)` and `1 − 10^(−j/10)` for `j = 30..=150`,
    /// ascending.
    fn beta_grid_levels() -> Vec<f64> {
        let mut ps: Vec<f64> = (1..1000).map(|k| f64::from(k) / 1000.0).collect();
        for j in 30..=150 {
            let t = 10f64.powf(-f64::from(j) / 10.0);
            ps.extend([t, 1.0 - t]);
        }
        ps.sort_by(f64::total_cmp);
        ps
    }

    /// Backward error of `x` as a solution of `I_x(a, b) = p`, in units
    /// of `ε·s + pdf(x)·ulp(x)` (`s = p` up to 1/2, else 1): how many
    /// rounding errors of `p` and of `x` it is worth.
    fn beta_backward_error(inc: &IncompleteBeta, p: f64, x: f64) -> f64 {
        let (a, b) = (inc.a, inc.b);
        let ulp = if x >= 1.0 { 1.0 - 1.0f64.next_down() } else { x.next_up() - x };
        let pdf = if x > 0.0 && x < 1.0 {
            ((a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - inc.ln_beta()).exp()
        } else {
            // The density's limit at the end: 0, 1/B or +∞.
            let shape = if x <= 0.0 { a } else { b };
            match shape.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Greater) => 0.0,
                Some(std::cmp::Ordering::Equal) => (-inc.ln_beta()).exp(),
                _ => f64::INFINITY,
            }
        };
        let s = if p <= 0.5 { p } else { 1.0 };
        (inc.cdf(x) - p).abs() / (f64::EPSILON * s + pdf * ulp)
    }

    #[test]
    fn inverse_incomplete_beta_meets_its_backward_error_bound_on_the_grid() {
        // The bound and monotonicity are IncompleteBeta::inverse's doc.
        // The worst point, 234 at (300, 300, 1/2), sits on the CDF's
        // branch switch, where I_{1/2}(300, 300) itself reads 1/2 + 1.4e-13.
        const C: f64 = 256.0;
        let shapes = [0.1, 0.3, 0.5, 0.9, 1.0, 1.5, 2.5, 4.0, 10.0, 100.0, 300.0];
        let ps = beta_grid_levels();
        assert_eq!(ps.len(), 999 + 2 * 121);
        for a in shapes {
            for b in shapes {
                let inc = IncompleteBeta::new(a, b);
                let mut prev = 0.0;
                for &p in &ps {
                    let x = inc.inverse(p);
                    let c = beta_backward_error(&inc, p, x);
                    assert!(c <= C, "({a}, {b}, p={p:e}): x={x:e}, backward error {c:.1} > {C}");
                    assert!(x >= prev, "({a}, {b}): not monotone at p={p:e}: {x:e} < {prev:e}");
                    prev = x;
                }
            }
        }
        // Lopsided shapes that a Halley step without a bracket and a
        // guard on its bend gets wrong (it stops on a tiny damped step).
        for (a, b, p) in [(100.0, 1.5, 1.256_615_037_776_734_5e-6), (1.0, 300.0, 0.997)] {
            let inc = IncompleteBeta::new(a, b);
            let x = inc.inverse(p);
            let c = beta_backward_error(&inc, p, x);
            assert!(c <= C, "({a}, {b}, p={p:e}): x={x:e}, I_x={:e}", inc.cdf(x));
        }
    }

    #[test]
    fn inverse_incomplete_beta_takes_about_three_cdf_evaluations_per_value() {
        // Shapes in [1.5, 4] (the served Beta inputs' range), levels on
        // an interior grid and the served clamp ends.
        let shapes = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        let ps: Vec<f64> = (0..256)
            .map(|i| (f64::from(i) + 0.5) / 256.0)
            .chain([1e-15, 1e-9, 1.0 - 1e-9, 1.0 - 1e-15])
            .collect();
        let before = CDF_EVALS.with(std::cell::Cell::get);
        let mut values = 0u64;
        for a in shapes {
            for b in shapes {
                let inc = IncompleteBeta::new(a, b);
                for &p in &ps {
                    inc.inverse(p);
                    values += 1;
                }
            }
        }
        let mean = (CDF_EVALS.with(std::cell::Cell::get) - before) as f64 / values as f64;
        eprintln!("mean CDF evaluations per Beta value on [1.5, 4]: {mean:.2}");
        assert!(mean <= 3.5, "{mean:.2} CDF evaluations per value");
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
    }

    #[test]
    fn erfc_large_argument_no_underflow_to_garbage() {
        // erfc(5) = 1.5374597944280349e-12
        close(erfc(5.0), 1.537_459_794_428_034_9e-12, 1e-9);
        assert!(erfc(10.0) > 0.0 && erfc(10.0) < 1e-40);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.0, 0.5, 1.0, 2.5, 6.0] {
            close(standard_normal_cdf(x) + standard_normal_cdf(-x), 1.0, 1e-14);
        }
    }

    #[test]
    fn probit_round_trip_and_known_quantiles() {
        close(inverse_standard_normal_cdf(0.5), 0.0, 1e-15);
        close(inverse_standard_normal_cdf(0.975), 1.959_963_984_540_054, 1e-12);
        close(inverse_standard_normal_cdf(0.025), -1.959_963_984_540_054, 1e-12);
        for &p in &[1e-10, 1e-4, 0.2, 0.5, 0.7, 0.9999, 1.0 - 1e-10] {
            let x = inverse_standard_normal_cdf(p);
            close(standard_normal_cdf(x), p, 1e-12);
        }
        // Dense lower half (the upper half follows by exact symmetry, see
        // `probit_is_exactly_odd_about_one_half`): a 0.001-decade log grid
        // from 1e-300 to 0.5, then a linear grid on (0, 0.5). The bound's
        // (1 + x²) factor is the in-tree Φ's own error growth: an error of
        // ε in x²/2 is a relative error of ε·x²/2 in exp(−x²/2).
        let log_grid = (0..)
            .map(|k| 10f64.powf(-300.0 + 0.001 * f64::from(k)))
            .take_while(|&p| p < 0.5);
        let linear_grid = (1..100_000).map(|k| f64::from(k) / 200_000.0);
        for grid in [log_grid.collect::<Vec<_>>(), linear_grid.collect()] {
            assert!(grid.len() > 99_000, "grid too coarse: {}", grid.len());
            let mut prev = f64::NEG_INFINITY;
            for p in grid {
                let x = inverse_standard_normal_cdf(p);
                let bound = 32.0 * (1.0 + x * x) * f64::EPSILON * p;
                let err = (standard_normal_cdf(x) - p).abs();
                assert!(
                    err <= bound,
                    "p={p:e}: x={x}, |Φ(x) − p| = {err:e} > {bound:e}"
                );
                assert!(x >= prev, "not monotone at p={p:e}: {x} < {prev}");
                prev = x;
            }
        }
    }

    #[test]
    fn probit_is_exactly_odd_about_one_half() {
        // p := 1 − (1 − p₀) makes both p and 1 − p exact, so the pair
        // (p, 1 − p) is a true reflection and the results must be exact
        // negatives: the upper tail is no less accurate than the lower.
        let log_grid = (0..1500).map(|k| 10f64.powf(-15.0 + 0.01 * f64::from(k)));
        let linear_grid = (1..5000).map(|k| f64::from(k) / 10_000.0);
        for p0 in log_grid.chain(linear_grid).filter(|&p0| p0 < 0.5) {
            let p = 1.0 - (1.0 - p0);
            let lo = inverse_standard_normal_cdf(p);
            let hi = inverse_standard_normal_cdf(1.0 - p);
            assert_eq!(hi.to_bits(), (-lo).to_bits(), "p={p:e}: {hi} vs −({lo})");
        }
    }

    #[test]
    fn inv_erf_round_trip() {
        for &y in &[-0.9, -0.3, 0.0, 0.3, 0.99] {
            close(erf(inv_erf(y)), y, 1e-12);
        }
    }

    #[test]
    fn ln_choose_small_cases() {
        close(ln_choose(5, 2), 10.0_f64.ln(), 1e-14);
        close(ln_choose(10, 0), 0.0, 1e-15);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        close(ln_choose(52, 5), 2_598_960.0_f64.ln(), 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires a > 0")]
    fn reg_lower_gamma_rejects_nonpositive_a() {
        reg_lower_gamma(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "p in [0,1]")]
    fn probit_rejects_out_of_range() {
        inverse_standard_normal_cdf(1.5);
    }
}
