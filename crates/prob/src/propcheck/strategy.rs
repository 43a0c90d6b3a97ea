//! The strategy-combinator layer of the propcheck harness: a
//! [`Strategy`] describes how to *generate* a value and, through the
//! [`ValueTree`] it produces, how to *simplify* it toward a minimal
//! counterexample once the runner has seen it fail.
//!
//! The contract between runner and tree (mirrored from `proptest`):
//!
//! - [`ValueTree::simplify`] is only called when [`ValueTree::current`]
//!   was just observed to **fail** the property; the tree records that
//!   value as its best counterexample so far and proposes a simpler
//!   candidate. Returning `false` means the search is exhausted and
//!   `current` is restored to the best failing value.
//! - [`ValueTree::complicate`] is only called when `current` was just
//!   observed to **pass**; the tree backs off toward the last failing
//!   value. Returning `false` restores `current` to that failing value.
//! - [`ValueTree::valid`] lets filtered trees mark a candidate as
//!   outside the strategy's domain; on such candidates (and on
//!   `assume` rejections) the runner calls [`ValueTree::reject`],
//!   which proposes another candidate *without* concluding pass or
//!   fail — integer trees step linearly past the filter hole instead
//!   of surrendering the bisection window.
//!
//! Numeric strategies shrink by binary search toward an *origin* (zero
//! when the range contains it, else the bound nearest zero), so the
//! minimal counterexample of a range strategy is locally minimal: no
//! value strictly between the origin and the reported value still
//! fails, up to bisection resolution. Collections first shrink their
//! length, then their elements, one at a time.

use crate::rng::{RngCore as _, SeedableRng as _, StdRng};
use std::ops::Range;
use std::rc::Rc;

/// One generated value plus its shrink state. See the module docs for
/// the runner protocol.
pub trait ValueTree {
    /// The value type this tree holds.
    type Value;

    /// The candidate currently proposed by the tree.
    fn current(&self) -> Self::Value;

    /// Records that `current` failed and proposes a simpler candidate.
    /// Returns `false` when no simpler candidate exists.
    fn simplify(&mut self) -> bool;

    /// Records that `current` passed and backs off toward the last
    /// failing value. Returns `false` when the probe is exhausted, in
    /// which case `current` is the last failing value again.
    fn complicate(&mut self) -> bool;

    /// Whether `current` lies in the strategy's domain (filters narrow
    /// it). The runner never evaluates the property on invalid
    /// candidates; it calls [`ValueTree::reject`] instead.
    fn valid(&self) -> bool {
        true
    }

    /// Records that `current` was out of domain (filter miss or
    /// `assume` rejection) — neither pass nor fail — and proposes
    /// another candidate. Returns `false` when the probe is exhausted,
    /// in which case `current` is the last failing value again.
    /// Defaults to [`ValueTree::complicate`]; ordered trees override
    /// this with a probe that does not narrow the shrink window.
    fn reject(&mut self) -> bool {
        self.complicate()
    }
}

/// A recipe for generating values of one type, with shrinking.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// The shrinkable tree this strategy generates.
    type Tree: ValueTree<Value = Self::Value>;

    /// Generates one value (as a shrinkable tree) from `rng`.
    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree;

    /// Maps generated values through `f`; shrinking happens on the
    /// underlying values and is mapped through.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f: Rc::new(f) }
    }

    /// Restricts the strategy to values satisfying `pred`. Generation
    /// retries a bounded number of times; candidates produced during
    /// shrinking that violate `pred` are skipped (treated as passing).
    /// `label` names the constraint in reject accounting.
    fn prop_filter<F>(self, label: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, label, pred: Rc::new(pred) }
    }

    /// Type-erases the strategy so heterogeneous alternatives can live
    /// in one collection (see [`one_of`] and [`recursive`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Tree: 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

// ------------------------------------------------------------------
// Numeric ranges: binary-search shrinking toward an origin.
// ------------------------------------------------------------------

/// Uniform `f64` in the half-open interval `[lo, hi)`, shrinking
/// toward zero when the range contains it, else toward the bound
/// nearest zero.
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    debug_assert!(lo < hi, "f64_range requires lo < hi");
    F64Range { lo, hi }
}

/// See [`f64_range`].
#[derive(Clone, Debug)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

impl Strategy for F64Range {
    type Value = f64;
    type Tree = F64Tree;

    fn new_tree(&self, rng: &mut StdRng) -> F64Tree {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let value = self.lo + u * (self.hi - self.lo);
        // The origin is the simplest value shrinking aims for. When it
        // is the exclusive upper bound (all-negative range) it must
        // never be proposed itself, only approached.
        let (origin, origin_in_range) = if self.lo <= 0.0 && 0.0 < self.hi {
            (0.0, true)
        } else if self.lo > 0.0 {
            (self.lo, true)
        } else {
            (self.hi, false)
        };
        let off = value - origin;
        F64Tree {
            origin,
            off_lo: 0.0,
            off_fail: off,
            off_curr: off,
            // `+0.0` has all-zero bits, so this is an exact is-at-origin
            // test (a `-0.0` offset proposes the origin once; harmless).
            try_origin: origin_in_range && off.to_bits() != 0,
        }
    }
}

/// Binary-search shrink state for a float, in offset-from-origin form.
#[derive(Clone, Debug)]
pub struct F64Tree {
    origin: f64,
    /// Offset below which (toward zero) every candidate passed.
    off_lo: f64,
    /// Offset of the best (smallest) failing value seen so far.
    off_fail: f64,
    /// Offset of the candidate currently proposed.
    off_curr: f64,
    /// Whether to propose the origin itself first.
    try_origin: bool,
}

impl ValueTree for F64Tree {
    type Value = f64;

    fn current(&self) -> f64 {
        self.origin + self.off_curr
    }

    fn simplify(&mut self) -> bool {
        self.off_fail = self.off_curr;
        if self.try_origin {
            self.try_origin = false;
            if self.off_fail.to_bits() != 0 {
                self.off_curr = 0.0;
                return true;
            }
        }
        let cand = self.off_lo + (self.off_fail - self.off_lo) / 2.0;
        if cand.to_bits() == self.off_lo.to_bits() || cand.to_bits() == self.off_fail.to_bits() {
            self.off_curr = self.off_fail;
            return false;
        }
        self.off_curr = cand;
        true
    }

    fn complicate(&mut self) -> bool {
        self.off_lo = self.off_curr;
        let cand = self.off_lo + (self.off_fail - self.off_lo) / 2.0;
        if cand.to_bits() == self.off_lo.to_bits() || cand.to_bits() == self.off_fail.to_bits() {
            self.off_curr = self.off_fail;
            return false;
        }
        self.off_curr = cand;
        true
    }
}

/// Uniform `u64` in the half-open range `lo..hi`, shrinking toward
/// `lo` by binary search.
pub fn u64_range(range: Range<u64>) -> U64Range {
    debug_assert!(range.start < range.end, "u64_range requires a non-empty range");
    U64Range { lo: range.start, hi: range.end }
}

/// See [`u64_range`].
#[derive(Clone, Debug)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

impl Strategy for U64Range {
    type Value = u64;
    type Tree = U64Tree;

    fn new_tree(&self, rng: &mut StdRng) -> U64Tree {
        let value = self.lo + rng.next_u64() % (self.hi - self.lo);
        U64Tree { lo: self.lo, fail: value, curr: value }
    }
}

/// Binary-search shrink state for an unsigned integer.
#[derive(Clone, Debug)]
pub struct U64Tree {
    /// Values in `origin..lo` are known to pass.
    lo: u64,
    /// The best (smallest) failing value seen so far.
    fail: u64,
    /// The candidate currently proposed.
    curr: u64,
}

impl ValueTree for U64Tree {
    type Value = u64;

    fn current(&self) -> u64 {
        self.curr
    }

    fn simplify(&mut self) -> bool {
        self.fail = self.curr;
        if self.fail <= self.lo {
            return false;
        }
        self.curr = self.lo + (self.fail - self.lo) / 2;
        true
    }

    fn complicate(&mut self) -> bool {
        self.lo = self.curr + 1;
        if self.lo >= self.fail {
            self.curr = self.fail;
            return false;
        }
        self.curr = self.lo + (self.fail - self.lo) / 2;
        true
    }

    fn reject(&mut self) -> bool {
        // The candidate was out of domain, so it proves nothing about
        // where the pass/fail boundary lies: step linearly toward the
        // failing value without raising `lo`, so the bisection window
        // still covers every untested in-domain value.
        if self.curr + 1 >= self.fail {
            self.curr = self.fail;
            return false;
        }
        self.curr += 1;
        true
    }
}

/// Uniform `usize` in the half-open range `lo..hi`, shrinking toward
/// `lo`.
pub fn usize_range(range: Range<usize>) -> Map<U64Range, fn(u64) -> usize> {
    u64_range(range.start as u64..range.end as u64).map(|v| v as usize)
}

/// A fair coin, shrinking toward `false`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

/// See [`any_bool`].
#[derive(Clone, Debug)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    type Tree = BoolTree;

    fn new_tree(&self, rng: &mut StdRng) -> BoolTree {
        BoolTree { curr: rng.next_u64() & 1 == 1 }
    }
}

/// Shrink state for a boolean: one step, `true` → `false`.
#[derive(Clone, Debug)]
pub struct BoolTree {
    curr: bool,
}

impl ValueTree for BoolTree {
    type Value = bool;

    fn current(&self) -> bool {
        self.curr
    }

    fn simplify(&mut self) -> bool {
        if self.curr {
            self.curr = false;
            return true;
        }
        false
    }

    fn complicate(&mut self) -> bool {
        self.curr = true;
        false
    }
}

/// The constant strategy: always `value`, no shrinking.
pub fn just<T: Clone>(value: T) -> Just<T> {
    Just { value }
}

/// See [`just`].
#[derive(Clone, Debug)]
pub struct Just<T: Clone> {
    value: T,
}

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    type Tree = JustTree<T>;

    fn new_tree(&self, _rng: &mut StdRng) -> JustTree<T> {
        JustTree { value: self.value.clone() }
    }
}

/// Tree of [`just`]: a constant with no shrink moves.
#[derive(Clone, Debug)]
pub struct JustTree<T: Clone> {
    value: T,
}

impl<T: Clone> ValueTree for JustTree<T> {
    type Value = T;

    fn current(&self) -> T {
        self.value.clone()
    }

    fn simplify(&mut self) -> bool {
        false
    }

    fn complicate(&mut self) -> bool {
        false
    }
}

// ------------------------------------------------------------------
// Map / Filter.
// ------------------------------------------------------------------

/// See [`Strategy::map`].
pub struct Map<S, F> {
    inner: S,
    f: Rc<F>,
}

impl<S: Clone, F> Clone for Map<S, F> {
    fn clone(&self) -> Self {
        Map { inner: self.inner.clone(), f: Rc::clone(&self.f) }
    }
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    type Tree = MapTree<S::Tree, F>;

    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
        MapTree { inner: self.inner.new_tree(rng), f: Rc::clone(&self.f) }
    }
}

/// Tree of [`Strategy::map`]: shrinks the inner tree, maps `current`.
pub struct MapTree<T, F> {
    inner: T,
    f: Rc<F>,
}

impl<T, U, F> ValueTree for MapTree<T, F>
where
    T: ValueTree,
    F: Fn(T::Value) -> U,
{
    type Value = U;

    fn current(&self) -> U {
        (self.f)(self.inner.current())
    }

    fn simplify(&mut self) -> bool {
        self.inner.simplify()
    }

    fn complicate(&mut self) -> bool {
        self.inner.complicate()
    }

    fn valid(&self) -> bool {
        self.inner.valid()
    }

    fn reject(&mut self) -> bool {
        self.inner.reject()
    }
}

/// How many times generation retries before handing the runner an
/// invalid tree (which it accounts as a reject).
const FILTER_RETRIES: usize = 64;

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    label: &'static str,
    pred: Rc<F>,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    type Tree = FilterTree<S::Tree, F>;

    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
        let mut tree = self.inner.new_tree(rng);
        for _ in 0..FILTER_RETRIES {
            if (self.pred)(&tree.current()) {
                break;
            }
            tree = self.inner.new_tree(rng);
        }
        FilterTree { inner: tree, label: self.label, pred: Rc::clone(&self.pred) }
    }
}

/// Tree of [`Strategy::prop_filter`]: candidates violating the
/// predicate report `valid() == false`.
pub struct FilterTree<T, F> {
    inner: T,
    label: &'static str,
    pred: Rc<F>,
}

impl<T, F> FilterTree<T, F> {
    /// The constraint label, for reject accounting.
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl<T, F> ValueTree for FilterTree<T, F>
where
    T: ValueTree,
    F: Fn(&T::Value) -> bool,
{
    type Value = T::Value;

    fn current(&self) -> T::Value {
        self.inner.current()
    }

    fn simplify(&mut self) -> bool {
        self.inner.simplify()
    }

    fn complicate(&mut self) -> bool {
        self.inner.complicate()
    }

    fn valid(&self) -> bool {
        self.inner.valid() && (self.pred)(&self.inner.current())
    }

    fn reject(&mut self) -> bool {
        self.inner.reject()
    }
}

// ------------------------------------------------------------------
// Tuples: shrink one component at a time, left to right.
// ------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($tree:ident, $($S:ident/$T:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            type Tree = $tree<$($S::Tree,)+>;

            fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
                $tree { trees: ($(self.$idx.new_tree(rng),)+), cursor: 0, last: 0 }
            }
        }

        /// Tuple tree: components shrink one at a time, left to right.
        pub struct $tree<$($T,)+> {
            trees: ($($T,)+),
            cursor: usize,
            last: usize,
        }

        impl<$($T: ValueTree),+> ValueTree for $tree<$($T,)+> {
            type Value = ($($T::Value,)+);

            fn current(&self) -> Self::Value {
                ($(self.trees.$idx.current(),)+)
            }

            fn simplify(&mut self) -> bool {
                loop {
                    let step = match self.cursor {
                        $($idx => self.trees.$idx.simplify(),)+
                        _ => return false,
                    };
                    if step {
                        self.last = self.cursor;
                        return true;
                    }
                    self.cursor += 1;
                }
            }

            fn complicate(&mut self) -> bool {
                match self.last {
                    $($idx => self.trees.$idx.complicate(),)+
                    _ => false,
                }
            }

            fn valid(&self) -> bool {
                true $(&& self.trees.$idx.valid())+
            }

            fn reject(&mut self) -> bool {
                // Only the last-stepped component can have left its
                // domain; probe it without narrowing its window.
                match self.last {
                    $($idx => self.trees.$idx.reject(),)+
                    _ => false,
                }
            }
        }
    };
}

tuple_strategy!(Tuple2Tree, S0/T0/0, S1/T1/1);
tuple_strategy!(Tuple3Tree, S0/T0/0, S1/T1/1, S2/T2/2);
tuple_strategy!(Tuple4Tree, S0/T0/0, S1/T1/1, S2/T2/2, S3/T3/3);
tuple_strategy!(Tuple5Tree, S0/T0/0, S1/T1/1, S2/T2/2, S3/T3/3, S4/T4/4);
tuple_strategy!(Tuple6Tree, S0/T0/0, S1/T1/1, S2/T2/2, S3/T3/3, S4/T4/4, S5/T5/5);

// ------------------------------------------------------------------
// Vectors: shrink length first (binary search toward the minimum),
// then elements one at a time.
// ------------------------------------------------------------------

/// A vector whose length is uniform in `len` (half-open) and whose
/// elements come from `element`. Shrinks the length toward the range
/// minimum first, dropping tail elements, then shrinks the surviving
/// elements one at a time.
pub fn vec_of<S: Strategy>(element: S, len: Range<usize>) -> VecOf<S> {
    debug_assert!(len.start < len.end, "vec_of requires a non-empty length range");
    VecOf { element, min_len: len.start, max_len: len.end }
}

/// See [`vec_of`].
#[derive(Clone, Debug)]
pub struct VecOf<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    type Tree = VecTree<S::Tree>;

    fn new_tree(&self, rng: &mut StdRng) -> Self::Tree {
        let span = (self.max_len - self.min_len) as u64;
        let len = self.min_len + (rng.next_u64() % span) as usize;
        let elems = (0..len.max(self.min_len)).map(|_| self.element.new_tree(rng)).collect();
        VecTree {
            elems,
            len,
            lo_len: self.min_len,
            fail_len: len,
            len_done: false,
            cursor: 0,
            last: 0,
        }
    }
}

/// Tree of [`vec_of`]; see the function docs for the shrink order.
pub struct VecTree<T> {
    elems: Vec<T>,
    /// The current prefix length exposed through `current`.
    len: usize,
    /// Lengths in `min..lo_len` are known to pass.
    lo_len: usize,
    /// The shortest failing length seen so far.
    fail_len: usize,
    /// Whether length shrinking is exhausted.
    len_done: bool,
    cursor: usize,
    last: usize,
}

impl<T: ValueTree> ValueTree for VecTree<T> {
    type Value = Vec<T::Value>;

    fn current(&self) -> Vec<T::Value> {
        self.elems[..self.len].iter().map(ValueTree::current).collect()
    }

    fn simplify(&mut self) -> bool {
        if !self.len_done {
            self.fail_len = self.len;
            if self.fail_len > self.lo_len {
                self.len = self.lo_len + (self.fail_len - self.lo_len) / 2;
                return true;
            }
            self.len_done = true;
        }
        while self.cursor < self.len {
            if self.elems[self.cursor].simplify() {
                self.last = self.cursor;
                return true;
            }
            self.cursor += 1;
        }
        false
    }

    fn complicate(&mut self) -> bool {
        if !self.len_done {
            self.lo_len = self.len + 1;
            if self.lo_len >= self.fail_len {
                self.len = self.fail_len;
                return false;
            }
            self.len = self.lo_len + (self.fail_len - self.lo_len) / 2;
            return true;
        }
        if self.last < self.elems.len() {
            return self.elems[self.last].complicate();
        }
        false
    }

    fn valid(&self) -> bool {
        self.elems[..self.len].iter().all(ValueTree::valid)
    }

    fn reject(&mut self) -> bool {
        // Truncation never leaves the element domain, so rejection can
        // only originate from the last-stepped element.
        if !self.len_done {
            return self.complicate();
        }
        if self.last < self.elems.len() {
            return self.elems[self.last].reject();
        }
        false
    }
}

// ------------------------------------------------------------------
// Type erasure, alternation, recursion.
// ------------------------------------------------------------------

/// Object-safe face of [`Strategy`], for type erasure.
trait DynStrategy<T> {
    fn new_tree_dyn(&self, rng: &mut StdRng) -> BoxTree<T>;
}

impl<S> DynStrategy<S::Value> for S
where
    S: Strategy,
    S::Tree: 'static,
{
    fn new_tree_dyn(&self, rng: &mut StdRng) -> BoxTree<S::Value> {
        BoxTree(Box::new(self.new_tree(rng)))
    }
}

/// Object-safe face of [`ValueTree`], for type erasure.
trait DynValueTree<T> {
    fn current_dyn(&self) -> T;
    fn simplify_dyn(&mut self) -> bool;
    fn complicate_dyn(&mut self) -> bool;
    fn valid_dyn(&self) -> bool;
    fn reject_dyn(&mut self) -> bool;
}

impl<V: ValueTree> DynValueTree<V::Value> for V {
    fn current_dyn(&self) -> V::Value {
        self.current()
    }

    fn simplify_dyn(&mut self) -> bool {
        self.simplify()
    }

    fn complicate_dyn(&mut self) -> bool {
        self.complicate()
    }

    fn valid_dyn(&self) -> bool {
        self.valid()
    }

    fn reject_dyn(&mut self) -> bool {
        self.reject()
    }
}

/// A type-erased [`ValueTree`], produced by [`BoxedStrategy`].
pub struct BoxTree<T>(Box<dyn DynValueTree<T>>);

impl<T> ValueTree for BoxTree<T> {
    type Value = T;

    fn current(&self) -> T {
        self.0.current_dyn()
    }

    fn simplify(&mut self) -> bool {
        self.0.simplify_dyn()
    }

    fn complicate(&mut self) -> bool {
        self.0.complicate_dyn()
    }

    fn valid(&self) -> bool {
        self.0.valid_dyn()
    }

    fn reject(&mut self) -> bool {
        self.0.reject_dyn()
    }
}

/// A type-erased, cheaply clonable [`Strategy`] (see
/// [`Strategy::boxed`]). The building block of [`one_of`] and
/// [`recursive`].
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    type Tree = BoxTree<T>;

    fn new_tree(&self, rng: &mut StdRng) -> BoxTree<T> {
        self.0.new_tree_dyn(rng)
    }
}

/// Picks one of `options` uniformly at random per case. Shrinking
/// stays within the chosen alternative (it does not jump to earlier
/// options).
pub fn one_of<T: 'static>(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
    debug_assert!(!options.is_empty(), "one_of requires at least one option");
    OneOf { options }
}

/// See [`one_of`].
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: 'static> Strategy for OneOf<T> {
    type Value = T;
    type Tree = BoxTree<T>;

    fn new_tree(&self, rng: &mut StdRng) -> BoxTree<T> {
        let idx = (rng.next_u64() % self.options.len() as u64) as usize;
        self.options[idx].new_tree(rng)
    }
}

/// Builds a recursive strategy: starting from `leaf`, applies `expand`
/// up to `depth` times, at each level choosing between a fresh leaf
/// and the expanded strategy. The classic shape for trees and nested
/// expressions; depth is statically bounded so generation terminates.
pub fn recursive<T, L, E>(leaf: L, depth: usize, expand: E) -> BoxedStrategy<T>
where
    T: 'static,
    L: Fn() -> BoxedStrategy<T>,
    E: Fn(BoxedStrategy<T>) -> BoxedStrategy<T>,
{
    let mut strategy = leaf();
    for _ in 0..depth {
        strategy = one_of(vec![leaf(), expand(strategy)]).boxed();
    }
    strategy
}

// ------------------------------------------------------------------
// Opaque generation: arbitrary closures over a Gen, no shrinking.
// ------------------------------------------------------------------

/// Per-case raw value generator, for [`gen_with`] strategies whose
/// structure is easier to express as imperative draws than as
/// combinators (recursive fixtures, formatted text, ...).
#[derive(Debug)]
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// Uniform `f64` in the half-open interval `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "f64_in requires lo < hi");
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }

    /// Uniform `usize` in the half-open range `lo..hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "usize_in requires lo < hi");
        lo + (self.rng.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform `u64` in the half-open range `lo..hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "u64_in requires lo < hi");
        lo + self.rng.next_u64() % (hi - lo)
    }

    /// A vector of `len` uniform draws from `[lo, hi)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// A normalized probability vector of length `len`.
    /// Range: each entry lies in `(0, 1]` and the entries sum to one.
    pub fn prob_vec(&mut self, len: usize) -> Vec<f64> {
        let raw = self.vec_f64(1e-6, 1.0, len);
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    }

    /// Direct access to the underlying generator for custom draws.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A strategy generating values by running `f` over a per-case
/// [`Gen`]. No shrinking — the escape hatch for generators whose
/// structure does not decompose into combinators; prefer combinators
/// where possible so failures shrink.
pub fn gen_with<T, F>(f: F) -> GenWith<F>
where
    T: Clone,
    F: Fn(&mut Gen) -> T,
{
    GenWith { f: Rc::new(f) }
}

/// See [`gen_with`].
pub struct GenWith<F> {
    f: Rc<F>,
}

impl<T, F> Strategy for GenWith<F>
where
    T: Clone,
    F: Fn(&mut Gen) -> T,
{
    type Value = T;
    type Tree = JustTree<T>;

    fn new_tree(&self, rng: &mut StdRng) -> JustTree<T> {
        let mut g = Gen { rng: StdRng::seed_from_u64(rng.next_u64()) };
        JustTree { value: (self.f)(&mut g) }
    }
}

// ------------------------------------------------------------------
// Domain helpers.
// ------------------------------------------------------------------

/// The strategy [`prob_vec`] returns: raw draws, normalized.
type ProbVec = Map<VecOf<F64Range>, fn(Vec<f64>) -> Vec<f64>>;

/// A normalized probability vector of length `len` (entries positive,
/// summing to one) — the workhorse input for distribution-valued
/// properties. Shrinks the underlying raw draws toward uniformity.
/// Range: each entry lies in `(0, 1]` and the entries sum to one.
pub fn prob_vec(len: usize) -> ProbVec {
    fn normalize(raw: Vec<f64>) -> Vec<f64> {
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    }
    vec_of(f64_range(1e-6, 1.0), len..len + 1).map(normalize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Drives a tree to its minimal failing value under `fails`,
    /// mirroring the runner's shrink loop; returns the result.
    fn shrink_to_minimal<T: ValueTree>(tree: &mut T, fails: impl Fn(&T::Value) -> bool) -> T::Value
    where
        T::Value: Clone,
    {
        assert!(fails(&tree.current()), "shrink_to_minimal needs a failing start");
        let mut best = tree.current();
        let mut iters = 0;
        'outer: while iters < 10_000 {
            if !tree.simplify() {
                break;
            }
            iters += 1;
            loop {
                let out_of_domain = !tree.valid();
                if !out_of_domain && fails(&tree.current()) {
                    best = tree.current();
                    continue 'outer;
                }
                iters += 1;
                let more = if out_of_domain { tree.reject() } else { tree.complicate() };
                if iters >= 10_000 || !more {
                    continue 'outer;
                }
            }
        }
        best
    }

    #[test]
    fn u64_bisect_finds_exact_boundary() {
        for seed in 0..32 {
            let mut r = rng(seed);
            let mut tree = u64_range(0..100_000).new_tree(&mut r);
            if tree.current() < 777 {
                continue; // this case starts passing; nothing to shrink
            }
            let min = shrink_to_minimal(&mut tree, |&v| v >= 777);
            assert_eq!(min, 777, "seed {seed}");
        }
    }

    #[test]
    fn u64_range_respects_bounds_and_shrinks_toward_lo() {
        let mut r = rng(3);
        for _ in 0..200 {
            let mut tree = u64_range(10..20).new_tree(&mut r);
            assert!((10..20).contains(&tree.current()));
            let min = shrink_to_minimal(&mut tree, |_| true);
            assert_eq!(min, 10, "everything fails, so the minimum is the range floor");
        }
    }

    #[test]
    fn f64_bisect_converges_to_boundary() {
        for seed in 0..16 {
            let mut r = rng(seed);
            let mut tree = f64_range(0.0, 1000.0).new_tree(&mut r);
            if tree.current() < 250.0 {
                continue;
            }
            let min = shrink_to_minimal(&mut tree, |&v| v >= 250.0);
            assert!(
                (min - 250.0).abs() < 1e-6,
                "seed {seed}: expected ~250, got {min}"
            );
        }
    }

    #[test]
    fn f64_shrinks_to_exact_zero_when_range_contains_it() {
        let mut r = rng(9);
        let mut tree = f64_range(-5.0, 5.0).new_tree(&mut r);
        let min = shrink_to_minimal(&mut tree, |_| true);
        assert_eq!(min.to_bits(), 0.0f64.to_bits(), "origin is proposed exactly");
    }

    #[test]
    fn tuple_shrinks_components_independently() {
        let mut r = rng(11);
        loop {
            let strategy = (u64_range(0..1000), u64_range(0..1000));
            let mut tree = strategy.new_tree(&mut r);
            let (a, b) = tree.current();
            if a < 50 || b < 120 {
                continue;
            }
            let min = shrink_to_minimal(&mut tree, |&(a, b)| a >= 50 && b >= 120);
            assert_eq!(min, (50, 120));
            break;
        }
    }

    #[test]
    fn vec_shrinks_length_then_elements() {
        let mut r = rng(13);
        loop {
            let mut tree = vec_of(u64_range(0..100), 0..10).new_tree(&mut r);
            let v = tree.current();
            if v.iter().filter(|&&x| x >= 10).count() < 3 {
                continue;
            }
            // Fails while at least 3 elements are >= 10: minimal is
            // exactly 3 elements, each shrunk to exactly 10.
            let min =
                shrink_to_minimal(&mut tree, |v| v.iter().filter(|&&x| x >= 10).count() >= 3);
            assert_eq!(min.len(), 3, "length shrank to the minimum, got {min:?}");
            assert!(min.iter().all(|&x| x == 10), "elements shrank to the boundary: {min:?}");
            break;
        }
    }

    #[test]
    fn map_preserves_shrinking() {
        let mut r = rng(17);
        loop {
            let strategy = u64_range(0..1000).map(|v| v * 2);
            let mut tree = strategy.new_tree(&mut r);
            if tree.current() < 100 {
                continue;
            }
            let min = shrink_to_minimal(&mut tree, |&v| v >= 100);
            assert_eq!(min, 100, "shrinks through the map to the doubled boundary");
            break;
        }
    }

    #[test]
    fn filter_marks_out_of_domain_candidates_invalid() {
        let mut r = rng(19);
        let strategy = u64_range(0..100).prop_filter("even", |v| v % 2 == 0);
        for _ in 0..50 {
            let tree = strategy.new_tree(&mut r);
            assert!(tree.valid());
            assert_eq!(tree.current() % 2, 0, "generation respects the filter");
        }
        // Shrinking a filtered strategy never lands on an odd value:
        // the minimal even value >= 31 is 32.
        loop {
            let mut tree = strategy.new_tree(&mut r);
            if tree.current() < 31 {
                continue;
            }
            let min = shrink_to_minimal(&mut tree, |&v| v >= 31);
            assert_eq!(min, 32);
            break;
        }
    }

    #[test]
    fn one_of_generates_all_alternatives() {
        let mut r = rng(23);
        let strategy = one_of(vec![
            u64_range(0..1).boxed(),
            u64_range(100..101).boxed(),
            u64_range(200..201).boxed(),
        ]);
        let mut seen = [false; 3];
        for _ in 0..64 {
            match strategy.new_tree(&mut r).current() {
                0 => seen[0] = true,
                100 => seen[1] = true,
                200 => seen[2] = true,
                other => panic!("value {other} outside every alternative"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn recursive_bounds_depth() {
        // A tiny expression language: leaves are numbers, nodes double.
        #[derive(Clone, Debug)]
        enum Expr {
            N(u64),
            Twice(Box<Expr>),
        }
        fn depth(e: &Expr) -> usize {
            match e {
                Expr::N(_) => 0,
                Expr::Twice(inner) => 1 + depth(inner),
            }
        }
        let strategy = recursive(
            || u64_range(0..10).map(Expr::N).boxed(),
            4,
            |inner| inner.map(|e| Expr::Twice(Box::new(e))).boxed(),
        );
        let mut r = rng(29);
        for _ in 0..100 {
            let e = strategy.new_tree(&mut r).current();
            assert!(depth(&e) <= 4, "depth bound violated: {e:?}");
        }
    }

    #[test]
    fn gen_with_produces_stable_values() {
        let strategy = gen_with(|g| format!("{}-{}", g.usize_in(0, 10), g.u64_in(0, 100)));
        let mut r = rng(31);
        let tree = strategy.new_tree(&mut r);
        assert_eq!(tree.current(), tree.current(), "current() is stable");
    }

    #[test]
    fn prob_vec_normalizes_and_shrinks() {
        let mut r = rng(37);
        for _ in 0..50 {
            let tree = prob_vec(5).new_tree(&mut r);
            let p = tree.current();
            assert_eq!(p.len(), 5);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(p.iter().all(|&x| x > 0.0));
        }
    }
}
