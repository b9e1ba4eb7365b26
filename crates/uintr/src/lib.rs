//! # preempt-uintr
//!
//! A software user-interrupt (UINTR) layer with the hardware's programming
//! model (paper §2.3): senders post into a receiver's UPID through a UITT
//! (`senduipi` analog), the receiver is diverted into a registered handler,
//! `clui`/`stui` mask delivery, and handlers run to completion.
//!
//! **Substitution note** (DESIGN.md §1.1): this environment has no
//! UINTR-capable CPU/kernel, so *notification* is emulated — pending bits
//! are observed at engine preemption points (`preempt_context::runtime`)
//! rather than between arbitrary instructions. Everything above the
//! notification (masking, deferral inside non-preemptible regions, the
//! handler diverting into a real userspace context switch) is the paper's
//! mechanism, not a model of it. A kernel-mediated [`signal`] backend
//! reproduces the pre-UINTR baseline the paper motivates against, and
//! [`latency`] measures both.
//!
//! ```
//! use preempt_uintr::{UintrReceiver, UipiSender};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let fired = Rc::new(Cell::new(false));
//! let f = fired.clone();
//! let mut rx = UintrReceiver::new();
//! rx.register_handler(move |vector| {
//!     assert_eq!(vector, 7);
//!     f.set(true);
//! });
//!
//! let tx = UipiSender::new(rx.upid(), 7); // one UITT entry
//! tx.send();                              // senduipi
//! rx.poll();                              // next preemption point
//! assert!(fired.get());
//! ```

// Delivery code must not panic on fallible sends: every unwrap in
// non-test code has been audited away (typed `DeliveryError`s or
// `expect` with an invariant the caller upholds).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cycles;
pub mod latency;
pub mod receiver;
pub mod signal;
pub mod upid;

pub use receiver::{clui, stui, testui, DeliveryStats, MaskGuard, UintrReceiver};
pub use signal::{DeliveryError, SignalKicker};
pub use upid::{Uitt, UipiSender, Upid, NUM_VECTORS};

/// Asks for every cache line of `value` in exclusive state without
/// waiting for them (`prefetchw`); a hint, sound for any address — the
/// lines are named, never read. Inline asm because
/// `_mm_prefetch::<_MM_HINT_ET0>` lowers to a read prefetch unless the
/// build enables `prfchw`; other architectures get nothing.
#[inline(always)]
pub fn prefetch_for_write<T: ?Sized>(value: &T) {
    const LINE: usize = 64;
    let first = std::ptr::from_ref(value).cast::<u8>();
    let skew = first as usize % LINE;
    let mut off = 0;
    while off < skew + std::mem::size_of_val(value) {
        let _line = first.wrapping_add(off).wrapping_sub(skew);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `prefetchw` reads no register but the address, writes no
        // register or flag, touches no stack and never faults.
        unsafe {
            std::arch::asm!("prefetchw [{}]", in(reg) _line, options(nostack, preserves_flags, readonly));
        }
        off += LINE;
    }
}
