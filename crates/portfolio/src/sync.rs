//! Swappable concurrency primitives for the lock-free core.
//!
//! Everything in `ring.rs` and `gate.rs` goes through this module
//! instead of naming `std::sync::atomic` / `std::cell` directly. In
//! normal builds the re-exports below are the `std` types (the
//! `UnsafeCell` wrapper's closure accessors inline to nothing); with
//! `--features fec_check` they become the `fec-check` model-checker
//! shims, which record every access and let the checker exhaustively
//! explore thread interleavings and flag data races. The swap is the
//! whole integration: the *same* production code paths are what the
//! model tests in `tests/model.rs` verify.

#[cfg(not(feature = "fec_check"))]
pub(crate) mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
}

#[cfg(not(feature = "fec_check"))]
pub(crate) mod cell {
    /// `std::cell::UnsafeCell` behind the loom-style closure API, so
    /// the identical call sites compile against the `fec-check` shim.
    #[derive(Debug)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        pub fn new(data: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(data))
        }

        /// Shared read access. Kept for API parity with the shim even
        /// though the ring's `pop` mutates (it `take`s the slot) and
        /// therefore uses `with_mut` for both sides.
        #[allow(dead_code)]
        #[inline(always)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        #[inline(always)]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

#[cfg(feature = "fec_check")]
pub(crate) use fec_check::cell;

#[cfg(feature = "fec_check")]
pub(crate) mod atomic {
    pub use fec_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
}
