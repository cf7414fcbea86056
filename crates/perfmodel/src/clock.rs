//! The per-rank virtual clock.

use crate::category::Category;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Snapshot of accumulated virtual time, split by [`Category`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    seconds: [f64; 6],
}

impl TimeBreakdown {
    /// Time attributed to one category.
    pub fn get(&self, c: Category) -> f64 {
        self.seconds[c.index()]
    }

    /// Total virtual time across all categories.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// The paper's Figure 11 "Hydrodynamics" series: numerical kernels
    /// plus halo exchanges.
    pub fn hydrodynamics(&self) -> f64 {
        self.get(Category::HydroKernel) + self.get(Category::HaloExchange)
    }

    /// Fraction of the total spent in one category (0 if no time at all).
    pub fn fraction(&self, c: Category) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(c) / t
        }
    }

    /// Record `seconds` against one category. Lets derived breakdowns
    /// (e.g. span-based reconstructions in `rbamr-telemetry`) be built
    /// outside the `Clock` without exposing the backing array.
    pub fn add(&mut self, c: Category, seconds: f64) {
        self.seconds[c.index()] += seconds;
    }

    /// Component-wise difference `self - earlier`, clamped at zero —
    /// the elapsed breakdown between two snapshots of one clock.
    pub fn since(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        let mut out = *self;
        for i in 0..6 {
            out.seconds[i] = (out.seconds[i] - earlier.seconds[i]).max(0.0);
        }
        out
    }

    /// Component-wise sum of two breakdowns.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        let mut out = *self;
        for i in 0..6 {
            out.seconds[i] += other.seconds[i];
        }
        out
    }

    /// Component-wise maximum — the BSP convention for combining ranks:
    /// in a bulk-synchronous step the slowest rank sets the pace, so a
    /// job's elapsed time per category is the max over ranks.
    pub fn max_per_category(&self, other: &TimeBreakdown) -> TimeBreakdown {
        let mut out = *self;
        for i in 0..6 {
            out.seconds[i] = out.seconds[i].max(other.seconds[i]);
        }
        out
    }
}

/// A monotonically accumulating virtual clock, shareable across the
/// device/network layers of one simulated rank.
///
/// Every charge lands in the clock's current **scope**: the [`Category`]
/// of the code running now, set by [`Clock::scope`] where that is
/// decided — a step phase, a fill window, a sync, a regrid,
/// initialisation — and [`Category::Other`] outside all of them. The
/// layers that charge (device launches and transfers, messages and
/// collectives, host loops) name no category.
///
/// Cloning shares the underlying accumulator and scope (it is an `Arc`).
#[derive(Clone, Debug, Default)]
pub struct Clock {
    inner: Arc<Mutex<State>>,
}

#[derive(Debug, Default)]
struct State {
    time: TimeBreakdown,
    scope: Category,
}

impl State {
    fn add(&mut self, c: Category, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "Clock::advance: invalid duration {seconds}"
        );
        self.time.add(c, seconds);
    }
}

/// The guard of [`Clock::scope`]: restores the enclosing scope when it
/// drops, so scopes nest.
#[must_use = "the scope closes when the guard drops"]
#[derive(Debug)]
pub struct Scope {
    clock: Clock,
    enclosing: Category,
}

impl Drop for Scope {
    fn drop(&mut self) {
        self.clock.inner.lock().scope = self.enclosing;
    }
}

impl Clock {
    /// A fresh clock at time zero, in the [`Category::Other`] scope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute every charge to `category` until the guard drops.
    pub fn scope(&self, category: Category) -> Scope {
        let enclosing = std::mem::replace(&mut self.inner.lock().scope, category);
        Scope { clock: self.clone(), enclosing }
    }

    /// The category charges land in now.
    pub fn current_scope(&self) -> Category {
        self.inner.lock().scope
    }

    /// Advance the clock by `seconds`, attributed to the current scope.
    ///
    /// # Panics
    /// Panics if `seconds` is negative or not finite — a cost law
    /// producing such a value is a bug.
    pub fn charge(&self, seconds: f64) {
        let mut state = self.inner.lock();
        let scope = state.scope;
        state.add(scope, seconds);
    }

    /// [`Clock::charge`] as if inside a scope of `category`; kept for
    /// the frozen benchmark package's signature (ROADMAP 27(b)).
    pub fn advance(&self, category: Category, seconds: f64) {
        self.inner.lock().add(category, seconds);
    }

    /// Snapshot the current accumulated time.
    pub fn snapshot(&self) -> TimeBreakdown {
        self.inner.lock().time
    }

    /// Total virtual time so far.
    pub fn total(&self) -> f64 {
        self.snapshot().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_category() {
        let c = Clock::new();
        c.advance(Category::HydroKernel, 1.0);
        c.advance(Category::HydroKernel, 0.5);
        c.advance(Category::Regrid, 2.0);
        let s = c.snapshot();
        assert_eq!(s.get(Category::HydroKernel), 1.5);
        assert_eq!(s.get(Category::Regrid), 2.0);
        assert_eq!(s.total(), 3.5);
    }

    #[test]
    fn charges_land_in_the_innermost_scope() {
        let c = Clock::new();
        assert_eq!(c.current_scope(), Category::Other);
        c.charge(1.0);
        {
            let _step = c.scope(Category::HydroKernel);
            c.charge(2.0);
            {
                let _fill = c.clone().scope(Category::HaloExchange);
                c.charge(4.0);
                c.advance(Category::Regrid, 8.0);
            }
            assert_eq!(c.current_scope(), Category::HydroKernel);
            c.charge(16.0);
        }
        assert_eq!(c.current_scope(), Category::Other);
        let s = c.snapshot();
        assert_eq!(s.get(Category::Other), 1.0);
        assert_eq!(s.get(Category::HydroKernel), 18.0);
        assert_eq!(s.get(Category::HaloExchange), 4.0);
        assert_eq!(s.get(Category::Regrid), 8.0);
    }

    #[test]
    fn clones_share_time() {
        let c = Clock::new();
        let d = c.clone();
        d.advance(Category::Timestep, 1.0);
        assert_eq!(c.total(), 1.0);
    }

    #[test]
    fn hydrodynamics_combines_kernels_and_halos() {
        let c = Clock::new();
        c.advance(Category::HydroKernel, 2.0);
        c.advance(Category::HaloExchange, 1.0);
        c.advance(Category::Synchronize, 5.0);
        assert_eq!(c.snapshot().hydrodynamics(), 3.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let c = Clock::new();
        c.advance(Category::HydroKernel, 3.0);
        c.advance(Category::Regrid, 1.0);
        let s = c.snapshot();
        let sum: f64 = Category::ALL.iter().map(|&cat| s.fraction(cat)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_clock_has_zero_fractions() {
        let s = Clock::new().snapshot();
        assert_eq!(s.fraction(Category::HydroKernel), 0.0);
    }

    #[test]
    fn merge_and_max() {
        let mut a = TimeBreakdown::default();
        a.seconds[0] = 1.0;
        a.seconds[1] = 5.0;
        let mut b = TimeBreakdown::default();
        b.seconds[0] = 2.0;
        b.seconds[1] = 3.0;
        let m = a.merged(&b);
        assert_eq!(m.seconds[0], 3.0);
        assert_eq!(m.seconds[1], 8.0);
        let x = a.max_per_category(&b);
        assert_eq!(x.seconds[0], 2.0);
        assert_eq!(x.seconds[1], 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn rejects_negative_time() {
        Clock::new().advance(Category::Other, -1.0);
    }
}
