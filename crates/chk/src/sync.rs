//! Shadow atomics: drop-in mirrors of `std::sync::atomic` that route
//! every operation through the model scheduler when an execution is
//! active on the calling thread, and fall straight through to the real
//! atomic otherwise.
//!
//! The production crates never name these types directly — they import
//! `crate::sync::atomic::*` from their own one-page facade module, which
//! re-exports `core::sync::atomic` normally and this module under
//! `--cfg ssync_chk`. Production codegen is therefore byte-identical.
//!
//! Two deliberate deviations from std, both documented here because they
//! are easy to trip over when writing a model:
//!
//! * **State resets every execution.** During a model run the committed
//!   value of an atomic lives in the scheduler, seeded from the real
//!   atomic's value at first touch; the real atomic is *not* written
//!   back. An atomic created outside the model closure therefore resets
//!   to its initial value on every execution (which is what a checker
//!   needs for determinism), and `get_mut`/`into_inner` observe only the
//!   seed — create model state inside the closure and read results out
//!   through shadow loads or `std` side-channels.
//! * **`compare_exchange_weak` never fails spuriously.** The model has
//!   no LL/SC to lose a reservation; weak CAS behaves as strong. A loop
//!   around a weak CAS is still exercised via genuine value mismatches.

use std::sync::Arc;

use crate::sched::{self, Req, ReqKind, RmwKind, StoreClass};

/// Declares the `len` bytes at `start` rewritten with new objects, as
/// when an allocator hands out a block it got back. Inside an execution
/// the model forgets every location it tracked in that range, so the
/// next operation on an atomic there seeds from the value the rewrite
/// left, exactly as a first touch does; without this, the model would
/// go on serving the dead object's last committed values at the reused
/// address. Not a scheduling point. Outside a model, a no-op.
pub fn reinit(start: *const u8, len: usize) {
    if let Some(shared) = sched::with_current(|sh, _| Arc::clone(sh)) {
        shared.forget(start as usize, len);
    }
}

/// Routes one operation through the active execution, if any.
fn route(addr: usize, init: u64, kind: ReqKind) -> Option<u64> {
    let handle = sched::with_current(|sh, tid| (Arc::clone(sh), tid));
    handle.map(|(sh, tid)| sh.perform(tid, Req { addr, init, kind }))
}

pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::{route, ReqKind, RmwKind, StoreClass};

    fn load_ordering(order: Ordering) {
        match order {
            Ordering::Release => panic!("there is no such thing as a release load"),
            Ordering::AcqRel => panic!("there is no such thing as an acquire-release load"),
            _ => {}
        }
    }

    fn store_class(order: Ordering) -> StoreClass {
        match order {
            Ordering::Relaxed => StoreClass::Relaxed,
            Ordering::Release => StoreClass::Release,
            Ordering::Acquire => panic!("there is no such thing as an acquire store"),
            Ordering::AcqRel => panic!("there is no such thing as an acquire-release store"),
            _ => StoreClass::SeqCst,
        }
    }

    macro_rules! shadow_int_atomic {
        ($name:ident, $std:ident, $ty:ty) => {
            /// Shadow of the std atomic of the same name (see module docs
            /// for the two modeled deviations).
            #[repr(transparent)]
            #[derive(Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                pub const fn new(v: $ty) -> Self {
                    Self {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                fn addr(&self) -> usize {
                    &self.inner as *const _ as usize
                }

                fn seed(&self) -> u64 {
                    // chk: snapshot seeding the model's shadow cell on
                    // first touch; executions are scheduler-serialized,
                    // so the load needs no cross-thread ordering.
                    self.inner.load(Ordering::Relaxed) as u64
                }

                pub fn load(&self, order: Ordering) -> $ty {
                    load_ordering(order);
                    match route(self.addr(), self.seed(), ReqKind::Load) {
                        Some(v) => v as $ty,
                        None => self.inner.load(order),
                    }
                }

                pub fn store(&self, val: $ty, order: Ordering) {
                    let class = store_class(order);
                    if route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Store {
                            val: val as u64,
                            class,
                        },
                    )
                    .is_none()
                    {
                        self.inner.store(val, order);
                    }
                }

                pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::Swap(val as u64),
                        },
                    ) {
                        Some(old) => old as $ty,
                        None => self.inner.swap(val, order),
                    }
                }

                pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::Add(val as u64),
                        },
                    ) {
                        Some(old) => old as $ty,
                        None => self.inner.fetch_add(val, order),
                    }
                }

                pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::Sub(val as u64),
                        },
                    ) {
                        Some(old) => old as $ty,
                        None => self.inner.fetch_sub(val, order),
                    }
                }

                pub fn fetch_or(&self, val: $ty, order: Ordering) -> $ty {
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::Or(val as u64),
                        },
                    ) {
                        Some(old) => old as $ty,
                        None => self.inner.fetch_or(val, order),
                    }
                }

                pub fn fetch_and(&self, val: $ty, order: Ordering) -> $ty {
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::And(val as u64),
                        },
                    ) {
                        Some(old) => old as $ty,
                        None => self.inner.fetch_and(val, order),
                    }
                }

                pub fn fetch_max(&self, val: $ty, order: Ordering) -> $ty {
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::Max(val as u64),
                        },
                    ) {
                        Some(old) => old as $ty,
                        None => self.inner.fetch_max(val, order),
                    }
                }

                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    load_ordering(failure);
                    match route(
                        self.addr(),
                        self.seed(),
                        ReqKind::Rmw {
                            rmw: RmwKind::Cas {
                                expected: current as u64,
                                new: new as u64,
                            },
                        },
                    ) {
                        Some(old) => {
                            if old == current as u64 {
                                Ok(old as $ty)
                            } else {
                                Err(old as $ty)
                            }
                        }
                        None => self.inner.compare_exchange(current, new, success, failure),
                    }
                }

                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }

                pub fn get_mut(&mut self) -> &mut $ty {
                    self.inner.get_mut()
                }

                pub fn into_inner(self) -> $ty {
                    self.inner.into_inner()
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($name))
                        .field(&self.load(Ordering::Relaxed))
                        .finish()
                }
            }

            impl From<$ty> for $name {
                fn from(v: $ty) -> Self {
                    Self::new(v)
                }
            }
        };
    }

    shadow_int_atomic!(AtomicU64, AtomicU64, u64);
    shadow_int_atomic!(AtomicUsize, AtomicUsize, usize);
    shadow_int_atomic!(AtomicU32, AtomicU32, u32);

    /// Shadow of `std::sync::atomic::AtomicBool` (see module docs).
    #[repr(transparent)]
    #[derive(Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        fn addr(&self) -> usize {
            &self.inner as *const _ as usize
        }

        fn seed(&self) -> u64 {
            // chk: shadow-cell seed, as in the integer atomics above.
            self.inner.load(Ordering::Relaxed) as u64
        }

        pub fn load(&self, order: Ordering) -> bool {
            load_ordering(order);
            match route(self.addr(), self.seed(), ReqKind::Load) {
                Some(v) => v != 0,
                None => self.inner.load(order),
            }
        }

        pub fn store(&self, val: bool, order: Ordering) {
            let class = store_class(order);
            if route(
                self.addr(),
                self.seed(),
                ReqKind::Store {
                    val: val as u64,
                    class,
                },
            )
            .is_none()
            {
                self.inner.store(val, order);
            }
        }

        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            match route(
                self.addr(),
                self.seed(),
                ReqKind::Rmw {
                    rmw: RmwKind::Swap(val as u64),
                },
            ) {
                Some(old) => old != 0,
                None => self.inner.swap(val, order),
            }
        }

        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            load_ordering(failure);
            match route(
                self.addr(),
                self.seed(),
                ReqKind::Rmw {
                    rmw: RmwKind::Cas {
                        expected: current as u64,
                        new: new as u64,
                    },
                },
            ) {
                Some(old) => {
                    if old == current as u64 {
                        Ok(old != 0)
                    } else {
                        Err(old != 0)
                    }
                }
                None => self.inner.compare_exchange(current, new, success, failure),
            }
        }

        pub fn compare_exchange_weak(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.compare_exchange(current, new, success, failure)
        }

        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool")
                .field(&self.load(Ordering::Relaxed))
                .finish()
        }
    }

    /// Shadow of `std::sync::atomic::AtomicPtr` (see module docs).
    /// Pointers travel through the scheduler as their address bits.
    #[repr(transparent)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        fn addr(&self) -> usize {
            &self.inner as *const _ as usize
        }

        fn seed(&self) -> u64 {
            // chk: shadow-cell seed, as in the integer atomics above.
            self.inner.load(Ordering::Relaxed) as usize as u64
        }

        pub fn load(&self, order: Ordering) -> *mut T {
            load_ordering(order);
            match route(self.addr(), self.seed(), ReqKind::Load) {
                Some(v) => v as usize as *mut T,
                None => self.inner.load(order),
            }
        }

        pub fn store(&self, p: *mut T, order: Ordering) {
            let class = store_class(order);
            if route(
                self.addr(),
                self.seed(),
                ReqKind::Store {
                    val: p as usize as u64,
                    class,
                },
            )
            .is_none()
            {
                self.inner.store(p, order);
            }
        }

        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            match route(
                self.addr(),
                self.seed(),
                ReqKind::Rmw {
                    rmw: RmwKind::Swap(p as usize as u64),
                },
            ) {
                Some(old) => old as usize as *mut T,
                None => self.inner.swap(p, order),
            }
        }

        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            load_ordering(failure);
            match route(
                self.addr(),
                self.seed(),
                ReqKind::Rmw {
                    rmw: RmwKind::Cas {
                        expected: current as usize as u64,
                        new: new as usize as u64,
                    },
                },
            ) {
                Some(old) => {
                    if old == current as usize as u64 {
                        Ok(old as usize as *mut T)
                    } else {
                        Err(old as usize as *mut T)
                    }
                }
                None => self.inner.compare_exchange(current, new, success, failure),
            }
        }

        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.compare_exchange(current, new, success, failure)
        }

        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicPtr")
                .field(&self.load(Ordering::Relaxed))
                .finish()
        }
    }
}

/// A mutex the scheduler understands natively: under a model, `lock`
/// announces a `LockAcquire` step that only becomes *enabled* once the
/// lock is free, so blocked waiters cost zero interleavings (no CAS spin
/// loop for the explorer to unroll). Outside a model it degrades to a
/// spinlock on the embedded atomic.
///
/// `ModelMutex` guards *logic*, not data — models use it to mirror a
/// production lock's critical section (e.g. the kv stripe lock) while
/// keeping the shared state in shadow atomics.
#[derive(Default)]
pub struct ModelMutex {
    state: std::sync::atomic::AtomicU64,
}

impl ModelMutex {
    pub const fn new() -> Self {
        Self {
            state: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn addr(&self) -> usize {
        &self.state as *const _ as usize
    }

    pub fn lock(&self) -> ModelMutexGuard<'_> {
        if route(self.addr(), 0, ReqKind::LockAcquire).is_none() {
            use std::sync::atomic::Ordering;
            while self
                .state
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::thread::yield_now();
            }
        }
        ModelMutexGuard { mutex: self }
    }
}

/// RAII guard for [`ModelMutex`]; releases on drop.
pub struct ModelMutexGuard<'a> {
    mutex: &'a ModelMutex,
}

impl Drop for ModelMutexGuard<'_> {
    fn drop(&mut self) {
        if route(self.mutex.addr(), 0, ReqKind::LockRelease).is_none() {
            self.mutex
                .state
                .store(0, std::sync::atomic::Ordering::Release);
        }
    }
}
